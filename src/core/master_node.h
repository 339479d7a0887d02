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
// Sharding (MasterConfig::num_shards = N > 1): the routing metadata is
// hash-partitioned into N shards — a file belongs to ShardOfFile(file, N),
// each shard runs its own AcgManager whose group ids stay in the shard's
// residue class (ShardOfGroup inverts the assignment), and each shard has
// its own mutex (LockRank::kMasterShard) and its own metadata_epoch.
// Resolve traffic for different shards never contends; the coarse mu_
// (LockRank::kMaster) is reduced to rare cold state (catalog, flush
// machinery, recovery events).  Liveness stamps live under a third,
// shard-independent mutex (LockRank::kMasterLiveness) so heartbeats never
// queue behind resolves.  The unsharded master is simply N = 1.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "acg/acg_manager.h"
#include "common/mutex.h"
#include "core/proto.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "sim/io_context.h"

namespace propeller::core {

struct MasterConfig {
  acg::AcgPolicy acg_policy;
  // Flush metadata to shared storage every this many mutations.
  uint64_t metadata_flush_interval = 4096;
  // CPU cost of one routing-table lookup/insert.
  double lookup_us = 0.3;
  // --- failure detection (mn.tick) ---
  // Expected heartbeat cadence; a node is declared dead once
  //   now - last_heartbeat > heartbeat_miss_threshold * heartbeat_interval_s.
  double heartbeat_interval_s = 1.0;
  int heartbeat_miss_threshold = 3;
  // When a node is declared dead, immediately re-home its groups onto
  // the least-loaded survivors (in.recover_group, falling back to an
  // empty in.create_group when no recovery journal is attached).  Off:
  // the node is only excluded from placement.
  bool auto_recover_dead_nodes = true;
  // --- replication (tail-tolerant reads) ---
  // Replicas per group (1 = no replication, the legacy behavior).  Each
  // group's replica set lives on distinct least-loaded nodes; nodes[0] is
  // the primary (sole journal appender), secondaries serve hedged reads
  // and turn node-death recovery into a promotion + journal catch-up
  // instead of a full rebuild.
  int replication_factor = 1;
  // --- sharding (see file comment) ---
  // Metadata shards; 1 = the unsharded master.
  int num_shards = 1;
  // Model per-shard queueing delay for arrival-stamped resolves (open-loop
  // traffic): a resolve whose shard is virtually busy is charged the wait,
  // exactly like the index nodes' admission queues.  Off (default) resolve
  // costs are unchanged even for stamped traffic.
  bool model_resolve_queue = false;
  // --- placement leases (delegated resolves) ---
  // Grant index nodes time-bounded placement leases on their heartbeats
  // (shard s is assigned round-robin to index_nodes_[s mod n]); a leased
  // node mirrors the shard's routing state and answers in.resolve_search /
  // in.resolve_update directly, taking the master out of the steady-state
  // resolve path.  Clients fall back to the master on lease expiry or
  // kStaleLocation.
  bool placement_leases = false;
  double lease_duration_s = 3.0;
};

class MasterNode : public net::RpcHandler {
 public:
  // `io` models the shared storage the metadata is flushed to.
  MasterNode(NodeId id, net::Transport* transport, MasterConfig config = {});

  NodeId id() const { return id_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  // Registers an Index Node as placement target.
  void AddIndexNode(NodeId node);

  // Thread-safe: resolves serialize per metadata shard (the paper's
  // single-threaded master event loop is the num_shards = 1 special case);
  // heartbeats touch only the liveness mutex plus per-shard load stamps.
  // The direct accessors below take the same mutexes, so they may run
  // concurrently with RPCs.
  Response Handle(const std::string& method, const std::string& payload) override;

  // --- direct accessors ---
  // Quiescent-only test hook: hands out a reference to shard-0 state, so
  // callers must ensure no RPCs are in flight.
  const acg::AcgManager& acg_manager() const NO_THREAD_SAFETY_ANALYSIS {
    return shards_[0]->acg;
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
  // placement / catalog mutation): the max over the per-shard epochs; see
  // MetadataEpochOfShard.
  uint64_t MetadataEpoch() const;
  uint64_t MetadataEpochOfShard(uint32_t shard) const;
  // Current lease holder of `shard` (0 = none / leases off).
  NodeId LeaseHolderOfShard(uint32_t shard) const;

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
  // nodes until no node holds more than ceil(avg) + slack groups (per
  // shard under sharding).  Returns the number of groups moved; migration
  // cost in *cost.
  size_t RunRebalance(sim::Cost* cost, uint64_t slack = 1);

  // --- failure detection & recovery introspection ---
  // One entry per node-death the failure detector handled.
  struct RecoveryEvent {
    double at_s = 0;               // cluster time the death was declared
    NodeId node = 0;               // the dead node
    size_t groups_moved = 0;       // groups re-homed onto survivors
    uint64_t records_restored = 0; // journal records replayed on survivors
    sim::Cost cost;                // simulated recovery work
  };
  std::vector<RecoveryEvent> RecoveryEvents() const {
    MutexLock lock(mu_);
    return events_;
  }
  std::vector<NodeId> DeadNodes() const;
  bool IsNodeDead(NodeId node) const {
    MutexLock lock(liveness_mu_);
    return dead_.count(node) != 0u;
  }

  // Master-side metrics (per-method call counts, handle latency,
  // metadata flushes, recovery totals, lease lifecycle).
  obs::MetricsRegistry& metrics() { return metrics_; }
  obs::MetricsSnapshot MetricsSnapshot() const { return metrics_.Snapshot(); }

 private:
  // One hash partition of the routing metadata.  Everything a cache-miss
  // resolve touches lives here, so resolves for different shards never
  // share a mutex.  The mutex is held across the nested in.create_group /
  // migration RPCs, exactly as the coarse mu_ used to be.
  struct Shard {
    Shard(uint32_t index, acg::AcgPolicy policy, uint32_t num_shards)
        : acg(policy, /*first_group=*/index + 1, /*stride=*/num_shards) {}

    mutable Mutex mu_{LockRank::kMasterShard, "MasterNode::Shard::mu_"};
    acg::AcgManager acg GUARDED_BY(mu_);
    // Per-group replica sets; [0] is the primary.  Size 1 everywhere when
    // replication_factor == 1 (the legacy placement table).
    std::unordered_map<GroupId, std::vector<NodeId>> group_replicas
        GUARDED_BY(mu_);
    // Load view (updated by heartbeats + own placements): this shard's
    // groups per node, mirrored into an ordered (load, node) index so
    // placement picks the least-loaded node without an O(n) scan.
    std::unordered_map<NodeId, uint64_t> node_load GUARDED_BY(mu_);
    // Placement-eligible nodes only (declared-dead nodes are removed and
    // re-inserted on revival); transport-down nodes are skipped at
    // selection time.
    std::set<std::pair<uint64_t, NodeId>> load_index GUARDED_BY(mu_);
    // Monotone routing-metadata version of this shard.  Starts at 1 (0 is
    // the wire's "no epoch" sentinel); every mutation that can invalidate
    // a client's cached placement in this shard bumps it.
    uint64_t metadata_epoch GUARDED_BY(mu_) = 1;
    // Virtual-time service horizon (model_resolve_queue): an arrival-
    // stamped resolve starts at max(arrival, busy_until_s) and is charged
    // the wait, so a hot shard shows up as queueing delay.
    double busy_until_s GUARDED_BY(mu_) = 0;
    // Mirror version of this shard: bumps on EVERY file -> group / group
    // -> node mutation, including ones that don't invalidate client caches
    // (a new file joining an existing group never moves metadata_epoch,
    // but a delegate's mirror must still learn it).  Gates lease mirror
    // re-pushes; never published on the wire.
    uint64_t mirror_epoch GUARDED_BY(mu_) = 1;
    // Placement-lease bookkeeping (placement_leases): current delegate,
    // its lease deadline, and the mirror_epoch of the last mirror pushed
    // to it (a renewal re-pushes the mirror only when that moved).
    NodeId lease_holder GUARDED_BY(mu_) = 0;
    double lease_expiry_s GUARDED_BY(mu_) = 0;
    uint64_t lease_pushed_epoch GUARDED_BY(mu_) = 0;
  };

  Response HandleResolveUpdate(const std::string& payload);
  Response HandleResolveSearch(const std::string& payload);
  Response HandleCreateIndex(const std::string& payload);
  Response HandleFlushAcg(const std::string& payload);
  Response HandleHeartbeat(const std::string& payload);
  Response HandleTick(const std::string& payload);

  Shard& ShardForFile(FileId file) {
    return *shards_[ShardOfFile(file, static_cast<uint32_t>(shards_.size()))];
  }
  Shard& ShardForGroup(GroupId group) {
    return *shards_[ShardOfGroup(group, static_cast<uint32_t>(shards_.size()))];
  }

  // Catalog snapshot for shard-locked paths (group creation ships the
  // specs): the catalog mutates rarely, so callers grab a copy under the
  // brief mu_ before taking any shard mutex.
  std::vector<IndexSpec> CatalogSnapshot() const;

  // Declares `node` dead and (if configured) re-homes its groups onto the
  // least-loaded live survivors.  Appends a RecoveryEvent either way.
  void RecoverDeadNode(NodeId node, double now_s, sim::Cost& cost);

  // Ensures `group` exists on some Index Node; creates it (with the
  // catalog's indices) on the least-loaded node if new.
  Result<NodeId> EnsureGroupPlaced(Shard& shard, GroupId group,
                                   const std::vector<IndexSpec>& catalog,
                                   sim::Cost& cost) REQUIRES(shard.mu_);
  NodeId LeastLoadedNode(const Shard& shard) const REQUIRES(shard.mu_);
  // Up to `k` distinct live nodes by ascending load (ties by node id),
  // skipping members of `exclude` — replica placement and replacement.
  std::vector<NodeId> LeastLoadedNodes(const Shard& shard, size_t k,
                                       const std::vector<NodeId>& exclude) const
      REQUIRES(shard.mu_);
  // (load, node) index maintenance; `SetNodeLoad` also (re-)inserts the
  // node into the ordered index when `eligible`.
  void SetNodeLoad(Shard& shard, NodeId node, uint64_t load, bool eligible)
      REQUIRES(shard.mu_);
  void BumpNodeLoad(Shard& shard, NodeId node, int64_t delta)
      REQUIRES(shard.mu_);
  // Appends the replica sets of `groups` (sorted, deduped by the caller)
  // to `out` for a resolve response.
  void CollectReplicaSets(const Shard& shard,
                          const std::vector<GroupId>& groups,
                          std::vector<GroupReplicaSet>& out) const
      REQUIRES(shard.mu_);
  // Applies AcgManager placement/merge decisions: creates groups, moves
  // merged files' index data between nodes.
  sim::Cost ApplyAcgResult(Shard& shard,
                           const acg::AcgManager::ApplyResult& result,
                           const std::vector<IndexSpec>& catalog)
      REQUIRES(shard.mu_);
  // Charges (and advances) the shard's virtual service horizon for an
  // arrival-stamped resolve; returns the queueing wait in seconds.
  double ChargeShardQueue(Shard& shard, uint32_t shard_index, double arrival_s,
                          double service_s) REQUIRES(shard.mu_);
  // Fills the per-shard lease holders of a resolve response (left empty
  // with leases off).
  template <typename ResponseT>
  void StampLeaseHolders(ResponseT& resp);
  // Builds this shard's lease grant for `holder` (called on heartbeat).
  ShardLeaseGrant BuildLeaseGrant(Shard& shard, uint32_t shard_index,
                                  NodeId holder, double now_s)
      REQUIRES(shard.mu_);
  void MaybeFlushMetadata(sim::Cost& cost);
  sim::Cost RunSplitMaintenanceShard(Shard& shard,
                                     const std::vector<IndexSpec>& catalog)
      REQUIRES(shard.mu_);
  std::string SnapshotMetadataImage() const;

  NodeId id_;
  net::Transport* transport_;
  MasterConfig config_;
  // Hash partitions of the routing metadata (size = config_.num_shards,
  // immutable after construction).
  std::vector<std::unique_ptr<Shard>> shards_;
  // First registered index node — the legacy placement fallback when no
  // node is eligible (atomic: read from shard-locked paths, which must not
  // take liveness_mu_; kMasterLiveness ranks below kMasterShard).
  std::atomic<NodeId> first_index_node_{0};
  // Cold coarse state: catalog, flush machinery, recovery event log.
  // Never held while a shard mutex is held (kMaster ranks below
  // kMasterShard), so resolves only brush it for the catalog snapshot.
  mutable Mutex mu_{LockRank::kMaster, "MasterNode::mu_"};
  std::vector<IndexSpec> catalog_ GUARDED_BY(mu_);
  std::vector<RecoveryEvent> events_ GUARDED_BY(mu_);
  MetadataSink metadata_sink_ GUARDED_BY(mu_);
  sim::IoContext shared_storage_;
  sim::PageStore metadata_store_ GUARDED_BY(mu_);
  uint64_t flush_count_ GUARDED_BY(mu_) = 0;
  // Mutation counter driving the periodic flush; atomic so shard-locked
  // paths can bump it without touching mu_.
  std::atomic<uint64_t> mutations_since_flush_{0};
  // Liveness state, independent of every shard so heartbeat stamps never
  // queue behind resolves.  A node enters last_heartbeat_s_ on its first
  // heartbeat; nodes the master never heard from are never declared dead
  // (so a standby master taking over with a cold map does not mass-kill
  // the cluster before the first heartbeat round).
  mutable Mutex liveness_mu_{LockRank::kMasterLiveness,
                             "MasterNode::liveness_mu_"};
  std::vector<NodeId> index_nodes_ GUARDED_BY(liveness_mu_);
  std::unordered_map<NodeId, double> last_heartbeat_s_ GUARDED_BY(liveness_mu_);
  // Declared-dead nodes; value = whether their groups were re-homed (a
  // revived node whose data moved elsewhere must be wiped via in.reset
  // before it can rejoin the placement pool).
  std::unordered_map<NodeId, bool> dead_ GUARDED_BY(liveness_mu_);
  obs::MetricsRegistry metrics_;
  obs::Counter* handle_calls_;
  obs::Counter* metadata_flushes_;
  obs::Counter* recoveries_;
  obs::Counter* groups_recovered_;
  obs::Counter* lease_granted_;
  obs::Counter* lease_renewed_;
  obs::Counter* lease_expired_;
  obs::Counter* lease_stale_;
  obs::Histogram* handle_latency_;
  obs::Histogram* shard_queue_wait_;
  // Per-shard contention counters ("mn.shard.<i>.contended"): stamped
  // resolves that found their shard virtually busy.
  std::vector<obs::Counter*> shard_contended_;
};

}  // namespace propeller::core
