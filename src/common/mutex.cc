#include "common/mutex.h"

#include <cstdio>
#include <cstdlib>

namespace propeller {

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kUnranked:
      return "kUnranked";
    case LockRank::kClientCache:
      return "kClientCache";
    case LockRank::kMaster:
      return "kMaster";
    case LockRank::kMasterLiveness:
      return "kMasterLiveness";
    case LockRank::kMasterMetadata:
      return "kMasterMetadata";
    case LockRank::kTransportRouting:
      return "kTransportRouting";
    case LockRank::kFaultPlan:
      return "kFaultPlan";
    case LockRank::kIndexNodeAdmission:
      return "kIndexNodeAdmission";
    case LockRank::kIndexNodeGroups:
      return "kIndexNodeGroups";
    case LockRank::kIndexNodeReplica:
      return "kIndexNodeReplica";
    case LockRank::kGroupJournal:
      return "kGroupJournal";
    case LockRank::kIndexGroupSeal:
      return "kIndexGroupSeal";
    case LockRank::kIndexGroup:
      return "kIndexGroup";
    case LockRank::kIndexGroupCache:
      return "kIndexGroupCache";
    case LockRank::kIoContext:
      return "kIoContext";
    case LockRank::kThreadPool:
      return "kThreadPool";
    case LockRank::kMetricsRegistry:
      return "kMetricsRegistry";
    case LockRank::kTracer:
      return "kTracer";
    case LockRank::kAttrNames:
      return "kAttrNames";
  }
  return "unknown";
}

namespace lock_rank_internal {
namespace {

// Per-thread stack of currently-held ranked locks.  A fixed-size array
// keeps the fast path allocation-free; 64 simultaneous ranked locks per
// thread is far beyond anything the cluster does (the deepest chain the
// tests drive is 5: master metadata -> groups map -> group seal -> group
// -> result cache).
struct HeldLock {
  LockRank rank;
  const char* name;
};

constexpr int kMaxHeld = 64;

thread_local HeldLock g_held[kMaxHeld];
thread_local int g_depth = 0;

[[noreturn]] void Abort(LockRank rank, const char* name,
                        const char* problem) {
  std::fprintf(stderr,
               "propeller: LOCK RANK VIOLATION: %s while acquiring %s "
               "(rank %d, %s)\n",
               problem, name, static_cast<int>(rank), LockRankName(rank));
  std::fprintf(stderr, "propeller: locks held by this thread (oldest first):\n");
  for (int i = 0; i < g_depth; ++i) {
    std::fprintf(stderr, "propeller:   [%d] %s (rank %d, %s)\n", i,
                 g_held[i].name, static_cast<int>(g_held[i].rank),
                 LockRankName(g_held[i].rank));
  }
  std::fflush(stderr);
  std::abort();
}

}  // namespace

void OnAcquire(LockRank rank, const char* name) {
  if (rank == LockRank::kUnranked) return;
  // Strictly-increasing discipline: every held ranked lock must be of a
  // lower rank.  Equal ranks are also rejected — two locks of the same
  // class can deadlock against each other just as easily.
  for (int i = 0; i < g_depth; ++i) {
    if (g_held[i].rank >= rank) {
      Abort(rank, name, "already holding a lock of equal or higher rank");
    }
  }
  if (g_depth >= kMaxHeld) {
    Abort(rank, name, "held-lock stack overflow");
  }
  g_held[g_depth++] = HeldLock{rank, name};
}

void OnRelease(LockRank rank, const char* name) {
  (void)name;
  if (rank == LockRank::kUnranked) return;
  // Locks are usually released LIFO, but out-of-order release is legal
  // (e.g. hand-over-hand); scan from the top for the matching entry.
  for (int i = g_depth - 1; i >= 0; --i) {
    if (g_held[i].rank == rank) {
      for (int j = i; j + 1 < g_depth; ++j) g_held[j] = g_held[j + 1];
      --g_depth;
      return;
    }
  }
  // Releasing a lock we never recorded means the bookkeeping is broken.
  Abort(rank, name, "releasing a ranked lock that was never acquired");
}

int HeldRankedLocks() { return g_depth; }

}  // namespace lock_rank_internal
}  // namespace propeller
