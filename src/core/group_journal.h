// Shared-storage recovery journal (extension beyond the paper).
//
// The paper's Index Nodes keep their WAL on node-local disk, so losing a
// machine loses every group it hosted.  The ROADMAP's production target
// needs to survive that: when a cluster enables the journal, every update
// entering a group — client staging, group installs, the delete records a
// migration retires locally — is also appended here, modelling a WAL
// replicated to the same shared storage the Master Node flushes its
// metadata to.  Replaying a group's full journal through a fresh
// IndexGroup reproduces its committed *and* staged state, which is how
// the master re-homes a dead node's groups onto survivors
// (in.catch_up) without talking to the lost machine.
//
// The journal is keyed by group, not node, so migrations need no special
// handling: a move appends the source's delete records and the target's
// install records in order, and a later replay converges to the same
// final state.
//
// Thread safety: every method locks an internal mutex (Index Nodes share
// one journal and append from concurrent RPC handlers).  Replay copies
// the group's records out under the lock and decodes outside it, so the
// callback may take group locks without coupling lock orders.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "index/index_group.h"
#include "sim/io_context.h"

namespace propeller::core {

class GroupJournal {
 public:
  explicit GroupJournal(sim::IoParams io = {})
      : io_(io), store_(io_.CreateStore()) {}

  // Appends serialized updates under `group`; charged as sequential log
  // I/O (the replication write to shared storage).  Every appended update
  // is assigned the group's next commit sequence number; when `seq` is
  // non-null it receives the last assigned sequence (replication: the
  // primary acks this seq back to the client as its read-your-writes
  // floor).
  sim::Cost Append(index::GroupId group, const index::FileUpdate& update,
                   uint64_t* seq = nullptr);
  sim::Cost AppendBatch(index::GroupId group,
                        const std::vector<index::FileUpdate>& updates,
                        uint64_t* seq = nullptr);

  // Replays every update recorded for `group`, oldest first — the latest
  // checkpoint image (if any) followed by the tail appended since.  Adds
  // the simulated read cost to *cost when non-null.
  Status Replay(index::GroupId group,
                const std::function<Status(const index::FileUpdate&)>& fn,
                sim::Cost* cost = nullptr) const;

  // Journal compaction (segmented mode): replaces `group`'s entire log —
  // checkpoint and tail — with a base image of its effective committed
  // state (`state`, one upsert per live file).  Sealed segments are
  // durable, so replay afterwards is image + unsealed tail, not the full
  // update history.  The caller must guarantee no append for this group
  // can interleave (the Index Node checkpoints under an exclusive
  // groups_mu_, which serialises it against staging).
  sim::Cost Checkpoint(index::GroupId group,
                       const std::vector<index::FileUpdate>& state);

  // Per-replica cursored replay (replication catch-up): replays only the
  // tail updates with sequence numbers in (after_seq, Seq(group)], oldest
  // first.  Fails with kFailedPrecondition when `after_seq` predates the
  // latest checkpoint image — the caller's copy is older than the oldest
  // replayable record, so it must rebuild from scratch via Replay().
  Status ReplayFrom(index::GroupId group, uint64_t after_seq,
                    const std::function<Status(const index::FileUpdate&)>& fn,
                    sim::Cost* cost = nullptr) const;

  // Latest commit sequence assigned for `group` (0 = nothing appended).
  // Sequence numbers are a monotone count of appended updates and survive
  // checkpoints (the image covers sequences up to CheckpointSeq).
  uint64_t Seq(index::GroupId group) const;
  uint64_t CheckpointSeq(index::GroupId group) const;

  uint64_t NumRecords(index::GroupId group) const;
  // Records appended since the last checkpoint (tests: proves compaction
  // actually truncated the replayable history).
  uint64_t NumTailRecords(index::GroupId group) const;
  uint64_t TotalBytes() const;

 private:
  // Per-group log: an optional checkpoint base image plus the tail of
  // updates appended after it.  tail[i] carries commit sequence
  // checkpoint_seq + i + 1; the image covers sequences [1, checkpoint_seq].
  struct GroupLog {
    std::vector<std::string> checkpoint;
    std::vector<std::string> tail;
    uint64_t checkpoint_seq = 0;
  };

  sim::Cost AppendLocked(index::GroupId group, const index::FileUpdate& update)
      REQUIRES(mu_);

  sim::IoContext io_;
  sim::PageStore store_;
  mutable Mutex mu_{LockRank::kGroupJournal, "GroupJournal::mu_"};
  std::map<index::GroupId, GroupLog> logs_ GUARDED_BY(mu_);
  uint64_t bytes_ GUARDED_BY(mu_) = 0;
};

}  // namespace propeller::core
