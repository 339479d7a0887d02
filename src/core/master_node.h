// Master Node: central index metadata and coordination server.
//
// Responsibilities (Section IV):
//   * owns the file -> ACG mapping and ACG -> Index Node locations
//     (delegating graph policy to acg::AcgManager);
//   * routes client file-indexing and file-search requests;
//   * assigns new ACGs to the least-loaded Index Node;
//   * keeps the global index catalog (named index specs) and pushes it to
//     every group;
//   * orchestrates ACG splits and the resulting group migrations;
//   * periodically flushes its metadata to shared storage so a crash
//     loses at most the most recent mutations.
//
// Like the paper's prototype, the master only routes — it never touches
// index data — so a single master scales to hundreds of Index Nodes.
// The paper leaves master high-availability to future work; this
// implementation goes one step further than the prototype: a metadata
// sink can replicate every flushed image to a standby master
// (PropellerCluster::EnableStandbyMaster), which takes over routing after
// a failover with at most the mutations since the last flush re-derived
// on demand.
//
// Concurrency: the routing metadata (ACG partition, replica sets, load
// view, epoch) sits under one metadata mutex (LockRank::kMasterMetadata),
// held across the nested in.create_group / migration / repair RPCs.  The
// coarse mu_ (LockRank::kMaster) guards only rare cold state (catalog,
// flush machinery), and liveness stamps live under their own
// mutex (LockRank::kMasterLiveness), so heartbeats never queue behind
// resolves.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "acg/acg_manager.h"
#include "common/mutex.h"
#include "core/proto.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "sim/io_context.h"
#include "sim/server_queue.h"

namespace propeller::core {

struct MasterConfig {
  acg::AcgPolicy acg_policy;
  // Flush metadata to shared storage every this many mutations.
  uint64_t metadata_flush_interval = 4096;
  // CPU cost of one routing-table lookup/insert.
  double lookup_us = 0.3;
  // --- failure detection (mn.tick) ---
  // Heartbeat cadence (PropellerCluster's clock sends heartbeats on it);
  // a node is declared dead once
  //   now - last_heartbeat > heartbeat_miss_threshold * heartbeat_interval_s.
  double heartbeat_interval_s = 1.0;
  int heartbeat_miss_threshold = 3;
  // --- replication (tail-tolerant reads) ---
  // Replicas per group (1 = no replication).  Each group's replica set
  // lives on distinct least-loaded nodes; nodes[0] is the primary (sole
  // journal appender), secondaries serve hedged reads and turn node-death
  // recovery into a promotion + journal catch-up instead of a full
  // rebuild.  This is replication's one setting: at r > 1 resolve
  // responses carry the replica sets, which is what makes clients fan
  // writes and hedge reads, and PropellerCluster turns the recovery
  // journal (the replication log) on.
  int replication_factor = 1;
  // Model queueing delay for arrival-stamped resolves (open-loop traffic):
  // the master is a one-server sim::ServerQueue, the model behind the index
  // nodes' admission queues too, and a resolve that finds it virtually busy
  // is charged the wait.  Off (default) resolve costs are unchanged even
  // for stamped traffic.
  bool model_resolve_queue = false;
};

class MasterNode : public net::RpcHandler {
 public:
  // `io` models the shared storage the metadata is flushed to.
  MasterNode(NodeId id, net::Transport* transport, MasterConfig config = {});

  NodeId id() const { return id_; }

  // Registers an Index Node as placement target.
  void AddIndexNode(NodeId node);

  // Thread-safe: resolves serialize on the metadata mutex (the paper's
  // single-threaded master event loop); heartbeats touch only the liveness
  // mutex plus the load stamps.  The direct accessors below take the same
  // mutexes, so they may run concurrently with RPCs.
  Response Handle(const std::string& method, const std::string& payload) override;

  // --- direct accessors ---
  // Quiescent-only test hook: hands out a reference to guarded state, so
  // callers must ensure no RPCs are in flight.
  const acg::AcgManager& acg_manager() const NO_THREAD_SAFETY_ANALYSIS {
    return acg_;
  }
  std::optional<NodeId> NodeOfGroup(GroupId group) const;
  // Full replica set of `group` (nodes[0] = primary; empty = unknown group).
  std::vector<NodeId> ReplicasOfGroup(GroupId group) const;
  std::vector<IndexSpec> Catalog() const {
    MutexLock lock(mu_);
    return catalog_;
  }
  uint64_t NumGroups() const;
  // Current metadata epoch (monotonically increasing; bumped by every
  // placement / catalog mutation).
  uint64_t MetadataEpoch() const;

  // Serialized metadata image (what the periodic flush writes); paired
  // with RestoreMetadata for master-recovery tests.
  std::string SnapshotMetadata() const;
  Status RestoreMetadata(const std::string& image);
  uint64_t FlushCount() const {
    MutexLock lock(mu_);
    return flush_count_;
  }

  // Invoked with every flushed metadata image (standby replication).
  using MetadataSink = std::function<void(const std::string&)>;
  void SetMetadataSink(MetadataSink sink) {
    MutexLock lock(mu_);
    metadata_sink_ = std::move(sink);
  }
  // Flushes immediately regardless of the mutation counter; returns the
  // simulated cost of the shared-storage write.
  sim::Cost ForceMetadataFlush();

  // Runs split maintenance immediately (normally piggy-backed on
  // mn.flush_acg).  Returns the simulated migration cost.
  sim::Cost RunSplitMaintenance();

  // Load balancing (Fig. 6: the master instructs Index Nodes to migrate
  // groups).  Moves whole groups from the most- to the least-loaded
  // nodes until no node holds more than ceil(avg) + slack groups.  Returns the number of groups moved; migration
  // cost in *cost.
  size_t RunRebalance(sim::Cost* cost, uint64_t slack = 1);

  // --- failure detection & recovery introspection ---
  // One entry per declared node death; later repairs add their work to it.
  struct RecoveryEvent {
    double at_s = 0;               // cluster time the death was declared
    NodeId node = 0;               // the dead node
    size_t groups_moved = 0;       // sets the dead node has left
    uint64_t records_restored = 0; // journal records replayed on its account
  };
  std::vector<RecoveryEvent> RecoveryEvents() const {
    MutexLock lock(metadata_mu_);
    return events_;
  }
  std::vector<NodeId> DeadNodes() const;
  bool IsNodeDead(NodeId node) const {
    MutexLock lock(liveness_mu_);
    return dead_.count(node) != 0u;
  }

  // Master-side metrics (per-method call counts, handle latency,
  // metadata flushes, recovery totals).
  obs::MetricsRegistry& metrics() { return metrics_; }
  obs::MetricsSnapshot MetricsSnapshot() const { return metrics_.Snapshot(); }

 private:
  Response HandleResolveUpdate(const std::string& payload);
  Response HandleResolveSearch(const std::string& payload);
  Response HandleCreateIndex(const std::string& payload);
  Response HandleFlushAcg(const std::string& payload);
  Response HandleHeartbeat(const std::string& payload);
  Response HandleTick(const std::string& payload);

  // Catalog snapshot for metadata-locked paths (group creation ships the
  // specs): the catalog mutates rarely, so callers grab a copy under the
  // brief mu_ before taking metadata_mu_.
  std::vector<IndexSpec> CatalogSnapshot() const;

  // Declares `node` dead: leaves the placement pool, appends an event.
  void RecoverDeadNode(NodeId node, double now_s);

  // Level-triggered repair on every mn.tick: revives returning nodes, then
  // promotes, seeds and drops dead members of every degraded set.  Keeps no
  // work list; a tick that finds nothing degraded sends no RPC.
  void Reconcile(sim::Cost& cost);
  // Sorted groups whose set names a node in `dead`, or is short of
  // max(r, 1) copies while a live non-member could take one.
  std::vector<GroupId> DegradedGroups(const std::set<NodeId>& dead) const
      REQUIRES(metadata_mu_);

  // Ensures `group` exists on some Index Node; creates it (with the
  // catalog's indices) on the least-loaded live nodes if new.
  Result<NodeId> EnsureGroupPlaced(GroupId group,
                                   const std::vector<IndexSpec>& catalog,
                                   sim::Cost& cost) REQUIRES(metadata_mu_);
  // Up to `k` distinct live nodes by ascending load (ties by node id),
  // skipping members of `exclude` — replica placement and replacement.
  std::vector<NodeId> LeastLoadedNodes(size_t k,
                                       const std::vector<NodeId>& exclude) const
      REQUIRES(metadata_mu_);
  // (load, node) index maintenance; `SetNodeLoad` also (re-)inserts the
  // node into the ordered index when `eligible`.
  void SetNodeLoad(NodeId node, uint64_t load, bool eligible)
      REQUIRES(metadata_mu_);
  void BumpNodeLoad(NodeId node, int64_t delta) REQUIRES(metadata_mu_);
  // Appends the replica sets of `groups` (sorted, deduped by the caller)
  // to `out` for a resolve response.
  void CollectReplicaSets(const std::vector<GroupId>& groups,
                          std::vector<GroupReplicaSet>& out) const
      REQUIRES(metadata_mu_);
  // One group move: in.migrate_out (`out_req`) on `src`, then
  // in.install_group of the returned records as group `into` on `dst`.
  // Adds each leg's cost to `cost`; the install leg runs only when the
  // migrate_out leg succeeded.  Callers keep their own failure policy and
  // bookkeeping.
  struct MoveLegs {
    Status migrate_out;
    Status install;
  };
  MoveLegs MoveGroupData(NodeId src, const MigrateOutRequest& out_req,
                         NodeId dst, GroupId into,
                         const std::vector<IndexSpec>& catalog,
                         sim::Cost& cost);
  // Applies AcgManager placement/merge decisions: creates groups, moves
  // merged files' index data between nodes.
  sim::Cost ApplyAcgResult(const acg::AcgManager::ApplyResult& result,
                           const std::vector<IndexSpec>& catalog)
      REQUIRES(metadata_mu_);
  // Runs an arrival-stamped resolve through the resolve queue; returns the
  // queueing wait in seconds.
  double ChargeResolveQueue(double arrival_s, double service_s)
      REQUIRES(metadata_mu_);
  void MaybeFlushMetadata(sim::Cost& cost);
  sim::Cost RunSplitMaintenanceLocked(const std::vector<IndexSpec>& catalog)
      REQUIRES(metadata_mu_);

  NodeId id_;
  net::Transport* transport_;
  MasterConfig config_;
  const size_t want_copies_;  // copies per replica set: max(r, 1)
  // The routing metadata: everything a cache-miss resolve touches.  Held
  // across the nested in.create_group / migration RPCs.
  mutable Mutex metadata_mu_{LockRank::kMasterMetadata,
                             "MasterNode::metadata_mu_"};
  acg::AcgManager acg_ GUARDED_BY(metadata_mu_);
  // Per-group replica sets; [0] is the primary.  Size 1 everywhere when
  // replication_factor == 1.  Invariant: every member of a set is declared
  // dead, or live and holding its copy; a dead member leaves only once the
  // set holds a live copy.
  std::unordered_map<GroupId, std::vector<NodeId>> group_replicas_
      GUARDED_BY(metadata_mu_);
  std::vector<RecoveryEvent> events_ GUARDED_BY(metadata_mu_);
  // Load view (updated by heartbeats + own placements): groups per node,
  // mirrored into an ordered (load, node) index so placement picks the
  // least-loaded node without an O(n) scan.
  std::unordered_map<NodeId, uint64_t> node_load_ GUARDED_BY(metadata_mu_);
  // Placement-eligible nodes only (declared-dead nodes are removed and
  // re-inserted on revival); transport-down nodes are skipped at
  // selection time.
  std::set<std::pair<uint64_t, NodeId>> load_index_ GUARDED_BY(metadata_mu_);
  // Monotone routing-metadata version.  Starts at 1 (0 is the wire's "no
  // epoch" sentinel); every mutation that can invalidate a client's cached
  // placement bumps it.
  uint64_t metadata_epoch_ GUARDED_BY(metadata_mu_) = 1;
  // Virtual-time resolve queue (model_resolve_queue): one server, so an
  // arrival-stamped resolve starts when the previous one finishes and is
  // charged the wait.
  sim::ServerQueue resolve_queue_ GUARDED_BY(metadata_mu_){1};
  // Cold coarse state: catalog and flush machinery.
  // Never held while metadata_mu_ is held (kMaster ranks below
  // kMasterMetadata), so resolves only brush it for the catalog snapshot.
  mutable Mutex mu_{LockRank::kMaster, "MasterNode::mu_"};
  std::vector<IndexSpec> catalog_ GUARDED_BY(mu_);
  MetadataSink metadata_sink_ GUARDED_BY(mu_);
  sim::IoContext shared_storage_;
  sim::PageStore metadata_store_ GUARDED_BY(mu_);
  uint64_t flush_count_ GUARDED_BY(mu_) = 0;
  // Mutation counter driving the periodic flush; atomic so metadata-locked
  // paths can bump it without touching mu_.
  std::atomic<uint64_t> mutations_since_flush_{0};
  // Liveness state, independent of the metadata so heartbeat stamps never
  // queue behind resolves.  A node enters last_heartbeat_s_ on its first
  // heartbeat; nodes the master never heard from are never declared dead
  // (so a standby master taking over with a cold map does not mass-kill
  // the cluster before the first heartbeat round).
  mutable Mutex liveness_mu_{LockRank::kMasterLiveness,
                             "MasterNode::liveness_mu_"};
  std::vector<NodeId> index_nodes_ GUARDED_BY(liveness_mu_);
  std::unordered_map<NodeId, double> last_heartbeat_s_ GUARDED_BY(liveness_mu_);
  // Declared-dead nodes.  One that heartbeats again is returning (value:
  // the groups its latest heartbeat named) and stays dead until Reconcile
  // revives it.
  std::set<NodeId> dead_ GUARDED_BY(liveness_mu_);
  std::map<NodeId, std::vector<HeartbeatRequest::GroupStat>> returning_
      GUARDED_BY(liveness_mu_);
  obs::MetricsRegistry metrics_;
  obs::Counter* handle_calls_;
  obs::Counter* metadata_flushes_;
  obs::Counter* recoveries_;
  obs::Counter* groups_recovered_;
  obs::Histogram* handle_latency_;
  // Stamped resolves' queueing waits, and how many found the master
  // virtually busy.
  obs::Histogram* resolve_queue_wait_;
  obs::Counter* resolve_queue_contended_;
  // Dispatch table: each served method, its handler and its
  // "mn.calls.<method>" counter, looked up once at construction.
  struct Route {
    std::string_view method;
    Response (MasterNode::*handler)(const std::string& payload);
    obs::Counter* calls;
  };
  std::vector<Route> routes_;
};

}  // namespace propeller::core
