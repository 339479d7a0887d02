// Index Node: stores partitioned file indices (one IndexGroup per ACG) and
// serves file-indexing / file-search / migration requests.
//
// Staged updates go to the group's WAL + cache; commits happen when the
// cluster clock passes stage-time + timeout (in.tick) or on the next
// search touching the group (inside IndexGroup::Search).  Searches across
// a node's groups run on a bounded worker pool (the paper uses 16 threads
// per node); the node's simulated latency is the pool's makespan.  With
// `parallel_search` enabled the node actually executes the per-group
// searches on its own `search_threads`-wide ThreadPool, so wall-clock time
// shrinks with the hardware while the simulated makespan stays identical.
//
// Thread safety: Handle() may be called from concurrent threads.  The
// groups map is guarded by a shared_mutex (shared for stage/search/tick,
// exclusive for create/install/migrate); per-group data is guarded by each
// IndexGroup's own mutex.  Lock order:
//
//     IndexNode::groups_mu_ -> IndexGroup::mu_ -> sim::IoContext::mu_
//
// (enforced by the LockRank detector in common/mutex.h in debug builds).
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_pool.h"
#include "core/proto.h"
#include "index/index_group.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "sim/io_context.h"
#include "sim/server_queue.h"

namespace propeller::core {

class GroupJournal;

struct IndexNodeConfig {
  sim::IoParams io;
  double commit_timeout_s = 5.0;  // paper: 5 seconds
  int search_threads = 16;        // paper: 16 threads per node
  // Execute per-group searches on a real `search_threads`-wide pool instead
  // of a serial loop.  Simulated costs are identical either way; only
  // wall-clock time changes.  Off by default so single-threaded callers pay
  // no thread-spawn tax.
  bool parallel_search = false;
  // Shared-storage recovery journal (not owned, shared by every node in
  // the cluster); when set, every update entering a group is replicated
  // there so in.catch_up can rebuild the group after this node is
  // lost.  Null disables replication — and its extra simulated I/O — on
  // the staging path.  Replication itself needs no node setting: with a
  // journal the node tracks how far each of its copies has applied it,
  // in.tick replays what a copy missed (anti-entropy), role-stamped stage
  // requests make this copy a primary (acks its commit sequence) or a
  // secondary (stages without appending), and searches honour the
  // read-your-writes floors clients attach (kStaleReplica when behind).
  GroupJournal* recovery_journal = nullptr;
  // Enable each group's search-result memo (read_path_caching layer 3).
  // Off, groups never touch the cache and search costs are unchanged.
  bool result_cache = false;
  // Write-read decoupling: run every group in segmented mode (immutable
  // committed segments + mutable memtable; see index/index_group.h).  Off,
  // groups keep the commit-barrier behaviour bit-identically.  With a
  // recovery journal, each commit-timeout tick also checkpoints every
  // sealed group's journal to a base image, so recovery replays only the
  // image plus the unsealed tail instead of the full update history.
  bool segmented_index = false;
  // Overload protection (open-loop traffic): arrival-stamped requests run
  // through a bounded virtual-time admission queue in front of the node's
  // `search_threads` workers.  When the waiting line is full the request
  // is shed with kOverloaded *before* any work (no journal append, no
  // staging, no search).  Unstamped requests bypass the queue entirely,
  // so with the traffic engine unused costs and wire bytes are unchanged.
  bool admission_control = false;
  // Waiting-line capacity (requests queued beyond the busy workers).
  // 0 = unbounded: queueing delay is still modeled, nothing is ever shed
  // — the "admission off" configuration of the saturation bench.
  size_t admission_queue_bound = 64;
};

class IndexNode : public net::RpcHandler {
 public:
  IndexNode(NodeId id, IndexNodeConfig config = {});

  NodeId id() const { return id_; }
  sim::IoContext& io() { return io_; }

  Response Handle(const std::string& method, const std::string& payload) override;

  // --- direct accessors (tests, stats, heartbeats) ---
  size_t NumGroups() const;
  index::IndexGroup* FindGroup(GroupId id);
  std::vector<HeartbeatRequest::GroupStat> GroupStats() const;
  uint64_t TotalPages() const;

  // Test hook: drops every group's staged in-memory state (the WALs
  // survive), then recovers from the WALs — an IN crash/restart.
  Status CrashAndRecover();

  // Destroys every group and drops the page cache — the node rejoins the
  // cluster empty.  Driven by in.reset when a dead node revives in no set
  // and by PropellerCluster::KillIndexNode(wipe) (permanent machine loss).
  Status Reset();

  // Node-local metrics: the registry shared with this node's groups, plus
  // page-cache counters injected from the IoContext at snapshot time.
  // Cache stats survive Reset() (PageCache keeps its monotone counters), so
  // merged counters never move backwards across kills/revivals.
  obs::MetricsRegistry& metrics() { return metrics_; }
  obs::MetricsSnapshot MetricsSnapshot() const;

 private:
  Response HandleCreateGroup(const std::string& payload);
  Response HandleStageUpdates(const std::string& payload);
  Response HandleSearch(const std::string& payload);
  // The post-admission bodies: all index work happens here, after the
  // admission queue has decided the request runs at all.  Both take the
  // decoded request by reference (updates are consumed by staging).
  Response StageUpdatesAdmitted(StageUpdatesRequest& req);
  Response SearchAdmitted(SearchRequest& req);
  Response HandleTick(const std::string& payload);
  Response HandleMigrateOut(const std::string& payload);
  Response HandleInstallGroup(const std::string& payload);
  Response HandleCatchUp(const std::string& payload);
  Response HandleDropGroup(const std::string& payload);
  Response HandleReset(const std::string& payload);

  // Map lookup; shared hold suffices.
  index::IndexGroup* Find(GroupId id) REQUIRES_SHARED(groups_mu_);
  // May create the group, so the map lock must be held exclusively.  Adds
  // to `*cost` what building the missing indexes over the group's
  // committed files costs (nothing on an empty group).
  Status EnsureGroup(GroupId id, const std::vector<IndexSpec>& specs,
                     sim::Cost* cost) REQUIRES(groups_mu_);
  // Group construction knobs derived from this node's config.
  index::IndexGroupOptions GroupOptions();
  // The tick body: commits timed-out groups; with `checkpoint` set, also
  // compacts each committed group's recovery journal (the caller must then
  // hold groups_mu_ exclusively so checkpoints cannot interleave with the
  // staging path's journal-append + stage pair).
  sim::Cost TickLocked(double now_s, bool checkpoint)
      REQUIRES_SHARED(groups_mu_);
  // Records that this copy of `gid` has applied the whole journal (after a
  // migrate-out, install or recovery wrote through it).  No-op without one.
  void MarkJournalApplied(GroupId gid);
  // Replays the journal records this replica has not yet applied into the
  // (existing) group and advances its applied sequence.  Rebuilds the
  // group from scratch when the journal compacted past the replica's
  // cursor.  Exclusive hold: replay must not interleave with stagers.
  Status CatchUpGroupLocked(GroupId gid, uint64_t* replayed,
                            sim::Cost* cost_out) REQUIRES(groups_mu_);

  // --- admission queue (virtual-time G/G/k in front of the workers) ---
  // Runs `body` (a post-admission handler) directly when `stamped` is
  // false.  Otherwise the arrival is admitted or shed with kOverloaded
  // before any work; an admitted body that succeeds is charged its full
  // sojourn (queueing wait + service), one that fails gives its place up.
  // admission_mu_ ranks *below* groups_mu_ and is released around `body`,
  // so the queue sheds without touching any group state.
  template <typename Body>
  Response RunAdmitted(bool stamped, double arrival_s, Body body);

  NodeId id_;
  IndexNodeConfig config_;
  sim::IoContext io_;
  // Guards the map structure only; group payloads have their own locks
  // (including the oldest-pending commit-timeout stamp, which lives inside
  // IndexGroup under its mutex so stagers and committers can never race
  // it out of sync with the pending queue).
  mutable SharedMutex groups_mu_{LockRank::kIndexNodeGroups,
                                 "IndexNode::groups_mu_"};
  std::map<GroupId, std::unique_ptr<index::IndexGroup>> groups_
      GUARDED_BY(groups_mu_);
  // Per-group applied journal sequence (how far this copy has caught up
  // with the group's journal; kept whenever a journal is attached).
  // Separate (higher-rank) mutex so stagers holding groups_mu_ shared can
  // bump it.
  mutable Mutex replica_mu_{LockRank::kIndexNodeReplica,
                            "IndexNode::replica_mu_"};
  std::map<GroupId, uint64_t> applied_seq_ GUARDED_BY(replica_mu_);
  // Per-node search worker pool; null when parallel_search is off.
  std::unique_ptr<ThreadPool> search_pool_;
  // Admission queue state (virtual time): `search_threads` servers and a
  // waiting line capped at `admission_queue_bound`.
  mutable Mutex admission_mu_{LockRank::kIndexNodeAdmission,
                              "IndexNode::admission_mu_"};
  sim::ServerQueue admission_ GUARDED_BY(admission_mu_);
  obs::MetricsRegistry metrics_;
  obs::Counter* searches_;
  obs::Counter* stage_batches_;
  obs::Counter* commit_timeouts_;
  obs::Histogram* search_latency_;
  obs::Counter* admit_admitted_;
  obs::Counter* admit_shed_;
  obs::Histogram* admit_wait_;
  obs::Gauge* admit_depth_;       // waiting-line depth after latest arrival
  obs::Gauge* admit_depth_peak_;  // high-water mark of the waiting line
};

}  // namespace propeller::core
