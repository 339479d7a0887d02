// Annotated mutex wrappers + runtime lock-rank deadlock detector.
//
// Every lock in src/ goes through these wrappers instead of raw std::mutex
// so that new code inherits two layers of checking by default:
//
//  1. **Static** — the types carry Clang thread-safety-analysis attributes
//     (common/thread_annotations.h).  With Clang,
//     `-Wthread-safety -Werror=thread-safety` turns "touched a GUARDED_BY
//     field without the lock" and "called a REQUIRES method unlocked" into
//     compile errors.  Other compilers see plain std::mutex semantics.
//
//  2. **Dynamic** — each long-lived mutex declares a LockRank from the
//     documented cluster lock order (DESIGN.md "Lock ranks & static
//     enforcement").  A debug-only per-thread stack records the ranks a
//     thread currently holds; acquiring a ranked lock whose rank is not
//     strictly greater than every held rank prints the attempted and held
//     ranks and aborts — a deadlock-in-waiting caught at its first
//     occurrence, on any schedule, without needing the second thread.
//     Compiled out in Release builds (PROPELLER_LOCK_RANK_CHECKS=0); see
//     the PROPELLER_LOCK_RANK CMake option.
//
// Rank discipline: a thread may only acquire locks in strictly increasing
// rank order.  kUnranked locks (test scaffolding, short-lived local
// coordination) are exempt from the check but must never be held across a
// call that takes a ranked lock of lower-or-equal rank on another object
// the author reasons about manually.
#pragma once

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

// The detector defaults to "on unless NDEBUG"; the build system overrides
// this explicitly (AUTO = on for every CMake build type except Release).
#ifndef PROPELLER_LOCK_RANK_CHECKS
#ifdef NDEBUG
#define PROPELLER_LOCK_RANK_CHECKS 0
#else
#define PROPELLER_LOCK_RANK_CHECKS 1
#endif
#endif

namespace propeller {

// One rank per long-lived mutex class, ordered outermost -> innermost.
// This is the machine-readable copy of the DESIGN.md lock-order table;
// lock_rank_test asserts the two stay in sync.  Gaps leave room for new
// subsystems without renumbering.
enum class LockRank : int {
  kUnranked = 0,          // exempt from rank checking
  kClientCache = 5,       // core::PropellerClient::cache_mu_ (placement cache)
  kMaster = 10,           // core::MasterNode::mu_ (held across nested RPCs)
  kMasterLiveness = 12,   // core::MasterNode::liveness_mu_ (heartbeat stamps)
  kMasterMetadata = 14,   // core::MasterNode::metadata_mu_ (held across nested RPCs)
  kTransportRouting = 20, // net::Transport::mu_ (handler/down-set snapshot)
  kFaultPlan = 25,        // net::FaultPlan::mu_
  kIndexNodeAdmission = 28,  // core::IndexNode::admission_mu_ (virtual queue)
  kIndexNodeGroups = 30,  // core::IndexNode::groups_mu_ (shared_mutex)
  kIndexNodeReplica = 32, // core::IndexNode::replica_mu_ (applied-seq map)
  kGroupJournal = 35,     // core::GroupJournal::mu_
  kIndexGroupSeal = 38,   // index::IndexGroup::seal_mu_ (seal/merge pipeline)
  kIndexGroup = 40,       // index::IndexGroup::mu_ (shared_mutex)
  kIndexGroupCache = 45,  // index::IndexGroup::cache_mu_ (result cache)
  kIoContext = 50,        // sim::IoContext::mu_
  kThreadPool = 60,       // ThreadPool::mu_
  kMetricsRegistry = 70,  // obs::MetricsRegistry::mu_
  kTracer = 75,           // obs::Tracer::mu_
  kAttrNames = 80,        // index::AttrNames::mu_ (attribute-name dictionary)
};

const char* LockRankName(LockRank rank);

namespace lock_rank_internal {
// Validates `rank` against the calling thread's held-lock stack (aborting
// with both stacks printed on violation), then records it.  kUnranked is a
// no-op.  Called *before* blocking on the underlying mutex so an inversion
// is reported instead of deadlocking.
void OnAcquire(LockRank rank, const char* name);
void OnRelease(LockRank rank, const char* name);
// Number of ranked locks the calling thread currently holds (test hook).
int HeldRankedLocks();
}  // namespace lock_rank_internal

// Annotated std::mutex.  Satisfies BasicLockable/Lockable, so it works
// with std::condition_variable_any (see CondVar) and std::scoped_lock.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(LockRank rank, const char* name = nullptr)
      : rank_(rank), name_(name != nullptr ? name : "mutex") {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
#if PROPELLER_LOCK_RANK_CHECKS
    lock_rank_internal::OnAcquire(rank_, name_);
#endif
    mu_.lock();
  }
  void unlock() RELEASE() {
#if PROPELLER_LOCK_RANK_CHECKS
    lock_rank_internal::OnRelease(rank_, name_);
#endif
    mu_.unlock();
  }
  bool try_lock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
#if PROPELLER_LOCK_RANK_CHECKS
    lock_rank_internal::OnAcquire(rank_, name_);
#endif
    return true;
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::mutex mu_;
  LockRank rank_ = LockRank::kUnranked;
  const char* name_ = "mutex";
};

// Annotated std::shared_mutex.  Shared (reader) acquisitions obey the same
// rank discipline as exclusive ones: readers still deadlock writers when
// taken out of order.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(LockRank rank, const char* name = nullptr)
      : rank_(rank), name_(name != nullptr ? name : "shared_mutex") {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() {
#if PROPELLER_LOCK_RANK_CHECKS
    lock_rank_internal::OnAcquire(rank_, name_);
#endif
    mu_.lock();
  }
  void unlock() RELEASE() {
#if PROPELLER_LOCK_RANK_CHECKS
    lock_rank_internal::OnRelease(rank_, name_);
#endif
    mu_.unlock();
  }
  void lock_shared() ACQUIRE_SHARED() {
#if PROPELLER_LOCK_RANK_CHECKS
    lock_rank_internal::OnAcquire(rank_, name_);
#endif
    mu_.lock_shared();
  }
  void unlock_shared() RELEASE_SHARED() {
#if PROPELLER_LOCK_RANK_CHECKS
    lock_rank_internal::OnRelease(rank_, name_);
#endif
    mu_.unlock_shared();
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;
  LockRank rank_ = LockRank::kUnranked;
  const char* name_ = "shared_mutex";
};

// RAII exclusive lock on a Mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// RAII exclusive (writer) lock on a SharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterMutexLock() RELEASE() { mu_.unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// RAII shared (reader) lock on a SharedMutex.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderMutexLock() RELEASE() { mu_.unlock_shared(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Condition variable paired with propeller::Mutex.  Wait() re-enters the
// mutex through its rank-checked lock()/unlock(), so the rank stack stays
// consistent across the wait.  The explicit while-loop form (instead of a
// predicate lambda) keeps guarded-field reads inside the annotated caller,
// where the static analysis can see the lock:
//
//   MutexLock lock(mu_);
//   while (!ready_) cv_.Wait(mu_);
class CondVar {
 public:
  // Atomically releases `mu`, waits, and re-acquires `mu` before
  // returning.  The caller must hold `mu`.
  void Wait(Mutex& mu) REQUIRES(mu) { cv_.wait(mu); }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace propeller
