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

// One field per mechanism: each role's own settings live in its nested
// config (master, index_node, client) and reach that role unchanged.  Six
// top-level fields remain.  Five build a shared object or span several
// roles at once: index_nodes, parallel_execution, recovery_journal,
// tracing and read_path_caching.  The sixth, admission_control, only sets
// index_node.admission_control; it stays because the repo benchmark sets
// it.
struct ClusterConfig {
  int index_nodes = 8;
  // Per-role settings.  master.heartbeat_interval_s is also the cluster's
  // heartbeat cadence, and master.replication_factor > 1 turns the
  // recovery journal on (it is the replication log).
  MasterConfig master;
  IndexNodeConfig index_node;
  ClientConfig client;
  sim::NetParams net;
  // Wall-clock parallel execution engine: clients fan per-node RPCs out on
  // a shared thread pool (client.fanout_threads wide, 0 = hardware
  // concurrency) and every Index Node runs per-group searches on its own
  // search_threads-wide pool.  Simulated costs and search results are
  // identical to the serial engine; only real elapsed time changes.
  bool parallel_execution = false;
  // Shared-storage recovery journal: every update entering any group is
  // replicated to a cluster-owned GroupJournal, letting the master rebuild
  // a dead node's groups on survivors (in.catch_up).  Off by default
  // — replication costs extra simulated I/O on the staging path.  Forced
  // on when master.replication_factor > 1.
  bool recovery_journal = false;
  // Distributed tracing (src/obs): record a causal span tree for every
  // client request and cluster tick on the cluster's tracer.  Off by
  // default — when off, every instrumentation point is a thread-local read
  // plus one branch.  Metrics counters are always on.
  bool tracing = false;
  // Read-path caching (three layers, see DESIGN.md "Read path & caching"):
  // clients cache placements keyed by the metadata epoch every resolve
  // response carries and skip repeat resolve RPCs (recovering from stale
  // routes with one re-resolve + retry), and every group memoizes search
  // results until its next commit.  Off by default.
  bool read_path_caching = false;
  // Overload protection (see DESIGN.md "Open-loop traffic & admission
  // control"): sets index_node.admission_control, so every Index Node
  // queues arrival-stamped requests in virtual time and sheds past
  // index_node.admission_queue_bound.  Off by default.
  bool admission_control = false;
};

// Aggregate cluster health / recovery view (see PropellerCluster::Stats).
struct ClusterStats {
  uint64_t groups = 0;
  uint64_t index_pages = 0;
  size_t dead_nodes = 0;
  size_t recoveries = 0;          // node-death events the master handled
  size_t groups_recovered = 0;    // sets dead nodes left, across all events
  uint64_t records_restored = 0;  // journal records replayed by repairs
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
  // Brings a killed node back; the master tick after its next heartbeat
  // catches it up on the sets it still belongs to and re-admits it.
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
