// PropellerCluster: wires one Master Node, N Index Nodes, and clients onto
// a shared transport — the equivalent of the paper's 9-node testbed in one
// process.  Owns the cluster's virtual clock: AdvanceTime() drives the
// Index Nodes' commit-timeout ticks and the heartbeat protocol.
#pragma once

#include <memory>
#include <vector>

#include <string>
#include <utility>

#include "core/client.h"
#include "core/group_journal.h"
#include "core/index_node.h"
#include "core/master_node.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace propeller::core {

struct ClusterConfig {
  int index_nodes = 8;
  MasterConfig master;
  IndexNodeConfig index_node;
  ClientConfig client;
  sim::NetParams net;
  double heartbeat_interval_s = 1.0;
  // Wall-clock parallel execution engine: clients fan per-node RPCs out on
  // a shared thread pool (client.fanout_threads wide, 0 = hardware
  // concurrency) and every Index Node runs per-group searches on its own
  // search_threads-wide pool.  Simulated costs and search results are
  // identical to the serial engine; only real elapsed time changes.
  bool parallel_execution = false;
  // Shared-storage recovery journal: every update entering any group is
  // replicated to a cluster-owned GroupJournal, letting the master rebuild
  // a dead node's groups on survivors (in.recover_group).  Off by default
  // — replication costs extra simulated I/O on the staging path.
  bool recovery_journal = false;
  // Distributed tracing (src/obs): record a causal span tree for every
  // client request and cluster tick on the cluster's tracer.  Off by
  // default — when off, every instrumentation point is a thread-local read
  // plus one branch.  Metrics counters are always on.
  bool tracing = false;
  // Read-path caching (three layers, see DESIGN.md "Read path & caching"):
  // clients cache placements keyed by the metadata epochs every resolve
  // response carries and skip repeat resolve RPCs (recovering from stale
  // routes with one re-resolve + retry), and every group memoizes search
  // results until its next commit.  Off by default.
  bool read_path_caching = false;
  // Write-read decoupling (see DESIGN.md "Segments & group commit"): every
  // group runs in segmented mode — immutable committed segments plus a
  // mutable memtable, snapshot searches that never block on a commit, and
  // a tiered merge policy bounding per-search read amplification.  With
  // the recovery journal on, commit-timeout ticks also checkpoint each
  // sealed group's journal to a base image.  Off by default — when off,
  // wire bytes, simulated costs, and traces are bit-identical to previous
  // behavior.
  bool segmented_index = false;
  // Tail-tolerant reads (see DESIGN.md "Replication & hedged reads"):
  // every group lives on this many distinct Index Nodes (nodes[0] = the
  // primary, the sole journal appender).  Writes fan to the full set and
  // succeed at quorum (primary + floor((r-1)/2) secondaries); lagging
  // secondaries catch up from the recovery journal on the commit tick;
  // node death becomes a promotion + journal catch-up instead of a full
  // rebuild; clients hedge slow search branches to the secondaries.
  // Implies recovery_journal (the journal is the replication log).
  // 1 = off.
  int replication_factor = 1;
  // Replicated mode only: hedge a search branch to the group's secondary
  // when the primary runs past the client's observed latency quantile (or
  // fails outright).  ClientConfig::hedge holds the tuning knobs.
  bool hedged_reads = true;
  // Overload protection (see DESIGN.md "Open-loop traffic & admission
  // control"): every Index Node runs a bounded virtual-time admission
  // queue in front of its search workers for arrival-stamped requests
  // (the open-loop traffic engine stamps its ops; ordinary requests are
  // unstamped and bypass the queue bit-identically).  A full waiting line
  // sheds with kOverloaded before any work; clients never retry or hedge
  // shed requests.  Off by default.
  bool admission_control = false;
  // Waiting-line capacity per node; 0 = unbounded (queueing is modeled,
  // nothing sheds — the "admission off" arm of the saturation bench).
  size_t admission_queue_bound = 64;
  // Sharded master (see DESIGN.md "Sharded master"): the master
  // hash-partitions its file -> ACG map, group placements, and node loads
  // into this many independently locked shards, each with its own
  // metadata epoch (resolve responses carry one epoch per shard; client
  // caches evict per shard).  1 = the unsharded master.
  int master_shards = 1;
  // Model per-shard resolve queueing on the master (virtual time): only
  // meaningful for arrival-stamped open-loop traffic; drives the fig13
  // master-scaling bench on a single-core box.
  bool model_resolve_queue = false;
};

// Aggregate cluster health / recovery view (see PropellerCluster::Stats).
struct ClusterStats {
  uint64_t groups = 0;
  uint64_t index_pages = 0;
  size_t dead_nodes = 0;
  size_t recoveries = 0;          // node-death events the master handled
  size_t groups_recovered = 0;    // groups re-homed across all events
  uint64_t records_restored = 0;  // journal records replayed on survivors
  uint64_t journal_records = 0;   // total records in the recovery journal
  // Merged per-node metrics snapshot (transport + master + every Index
  // Node + every client): WAL bytes, cache hit/miss, staged-vs-committed
  // update counts, latency histograms, ... — see DESIGN.md Observability.
  obs::MetricsSnapshot metrics;
};

class PropellerCluster {
 public:
  explicit PropellerCluster(ClusterConfig config = {});

  net::Transport& transport() { return transport_; }
  MasterNode& master() { return *master_; }
  IndexNode& index_node(size_t i) { return *index_nodes_[i]; }
  size_t num_index_nodes() const { return index_nodes_.size(); }

  // The default client (id 100); AddClient() creates more.
  PropellerClient& client() { return *clients_[0]; }
  PropellerClient& AddClient();

  // Virtual cluster time.  Advancing it fires in.tick on every Index Node
  // (commit timeouts) and heartbeats to the master.
  double now() const { return now_s_; }
  void AdvanceTime(double seconds);

  // Drops every node's page cache (cold-run preparation).
  void DropAllCaches();

  // --- fault orchestration (chaos tests) ---
  // Marks Index Node i unreachable; `wipe` also destroys its in-memory
  // state — a permanent machine loss, recoverable only via the journal.
  // The master's failure detector notices once enough heartbeats are
  // missed (AdvanceTime keeps the clock going).
  void KillIndexNode(size_t i, bool wipe = false);
  // Brings a killed node back; its next heartbeat re-admits it (the
  // master wipes it first via in.reset when its groups were re-homed).
  void ReviveIndexNode(size_t i);

  // The cluster-wide recovery journal (null unless config.recovery_journal).
  GroupJournal* recovery_journal() { return journal_.get(); }

  // Aggregate stats.
  uint64_t TotalGroups() const;
  uint64_t TotalIndexPages() const;
  ClusterStats Stats() const;

  // --- observability ---
  // The cluster-wide tracer; enabled when config.tracing is set (or call
  // tracer().Enable() directly).  Every client bound via AddClient records
  // its request trees here.
  obs::Tracer& tracer() { return tracer_; }
  // One named metrics section per component ("transport", "master",
  // "in.<id>", "client.<id>") — the benches' JSON sidecar shape; merging
  // all sections gives ClusterStats::metrics.
  std::vector<std::pair<std::string, obs::MetricsSnapshot>> PerNodeMetrics()
      const;

  // --- Master high availability (extension beyond the paper) ---
  // Starts a standby master that receives every flushed metadata image.
  void EnableStandbyMaster();
  bool HasStandbyMaster() const { return standby_ != nullptr; }
  // Simulates a primary failure and promotes the standby: the standby
  // takes over the master's address, restores the last replicated image,
  // and resumes routing.  Mutations since the last flush are re-derived
  // lazily (unknown files are simply re-placed).
  Status FailoverToStandby();

  static constexpr NodeId kMasterId = 1;
  static constexpr NodeId kFirstIndexNodeId = 10;
  static constexpr NodeId kFirstClientId = 100;

 private:
  ClusterConfig config_;
  net::Transport transport_;
  // Cluster-wide shared-storage journal; null unless recovery_journal.
  std::unique_ptr<GroupJournal> journal_;
  // Shared RPC fan-out pool handed to every client; null in serial mode.
  std::unique_ptr<ThreadPool> client_pool_;
  std::unique_ptr<MasterNode> master_;
  std::unique_ptr<MasterNode> standby_;
  std::string replicated_image_;
  std::vector<std::unique_ptr<IndexNode>> index_nodes_;
  std::vector<std::unique_ptr<PropellerClient>> clients_;
  double now_s_ = 0;
  double last_heartbeat_s_ = 0;
  obs::Tracer tracer_;
  uint64_t tick_seq_ = 0;  // trace-id sequence for cluster.tick roots
};

}  // namespace propeller::core
