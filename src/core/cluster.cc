#include "core/cluster.h"

#include <algorithm>
#include <thread>

namespace propeller::core {

PropellerCluster::PropellerCluster(ClusterConfig config)
    : config_(config), transport_(sim::NetModel(config.net)) {
  if (config_.parallel_execution) {
    size_t threads = config_.client.fanout_threads != 0
                         ? config_.client.fanout_threads
                         : std::max(1u, std::thread::hardware_concurrency());
    client_pool_ = std::make_unique<ThreadPool>(threads);
    config_.index_node.parallel_search = true;
  }
  if (config_.replication_factor > 1) {
    // The shared journal is the replication log: secondaries catch up from
    // it and promotions replay it, so r > 1 forces it on.
    config_.recovery_journal = true;
  }
  if (config_.recovery_journal) {
    journal_ = std::make_unique<GroupJournal>(config_.index_node.io);
    config_.index_node.recovery_journal = journal_.get();
  }
  if (config_.replication_factor > 1) {
    config_.master.replication_factor = config_.replication_factor;
    config_.index_node.replicated = true;
    config_.client.replicated = true;
    config_.client.hedge.enabled = config_.hedged_reads;
  }
  if (config_.read_path_caching) {
    config_.index_node.result_cache = true;
    config_.client.read_path_caching = true;
  }
  if (config_.admission_control) {
    config_.index_node.admission_control = true;
    config_.index_node.admission_queue_bound = config_.admission_queue_bound;
  }
  config_.master.num_shards = config_.master_shards;
  if (config_.placement_leases) {
    config_.master.placement_leases = true;
    config_.master.lease_duration_s = config_.lease_duration_s;
    config_.client.placement_leases = true;
  }
  config_.master.model_resolve_queue = config_.model_resolve_queue;
  if (config_.segmented_index) {
    config_.index_node.segmented_index = true;
    // Journal compaction needs sealed-segment durability AND a journal to
    // compact; it rides on the commit-timeout tick.
    config_.index_node.journal_compaction = config_.recovery_journal;
  }
  // The cluster clock drives both heartbeats and the master's failure
  // detector; keep the detector's notion of the cadence in sync.
  config_.master.heartbeat_interval_s = config_.heartbeat_interval_s;
  if (config_.tracing) tracer_.Enable();
  master_ = std::make_unique<MasterNode>(kMasterId, &transport_, config_.master);
  transport_.Register(kMasterId, master_.get());

  for (int i = 0; i < config_.index_nodes; ++i) {
    auto node = std::make_unique<IndexNode>(
        kFirstIndexNodeId + static_cast<NodeId>(i), config_.index_node);
    transport_.Register(node->id(), node.get());
    master_->AddIndexNode(node->id());
    index_nodes_.push_back(std::move(node));
  }
  AddClient();
}

PropellerClient& PropellerCluster::AddClient() {
  auto id = static_cast<NodeId>(kFirstClientId + clients_.size());
  clients_.push_back(std::make_unique<PropellerClient>(
      id, &transport_, kMasterId, config_.client, client_pool_.get()));
  clients_.back()->BindObservability(&tracer_, &now_s_);
  return *clients_.back();
}

void PropellerCluster::AdvanceTime(double seconds) {
  now_s_ += seconds;

  // One trace per clock tick so background work — commit-on-timeout
  // flushes, heartbeats, failure-detector recoveries — lands in the span
  // tree alongside client request traces.
  obs::TraceRoot root(&tracer_, "cluster.tick", kMasterId, tick_seq_++,
                      now_s_, kMasterId);

  // Commit-timeout ticks.
  TickRequest tick;
  tick.now_s = now_s_;
  const std::string payload = Encode(tick);
  for (auto& node : index_nodes_) {
    if (transport_.IsDown(node->id())) continue;
    transport_.Call(node->id(), node->id(), "in.tick", payload);
  }

  // Heartbeats (IN -> MN) on the configured cadence.
  if (now_s_ - last_heartbeat_s_ >= config_.heartbeat_interval_s) {
    last_heartbeat_s_ = now_s_;
    for (auto& node : index_nodes_) {
      if (transport_.IsDown(node->id())) continue;
      HeartbeatRequest hb;
      hb.node = node->id();
      hb.now_s = now_s_;
      hb.groups = node->GroupStats();
      auto ack = transport_.Call(node->id(), kMasterId, "mn.heartbeat",
                                 Encode(hb));
      // Placement leases ride back on the ack: install them on the node so
      // it can answer delegated resolves.
      if (config_.placement_leases && ack.status.ok()) {
        if (auto resp = Decode<HeartbeatResponse>(ack.payload); resp.ok()) {
          node->InstallLeases(*resp, now_s_);
        }
      }
    }
  }

  // Failure-detector tick (local call from the cluster clock, so it is
  // not charged to any request): declares nodes dead after enough missed
  // heartbeats and re-homes their groups.
  transport_.Call(kMasterId, kMasterId, "mn.tick", payload);
}

void PropellerCluster::KillIndexNode(size_t i, bool wipe) {
  IndexNode& node = *index_nodes_.at(i);
  transport_.SetNodeDown(node.id(), true);
  if (wipe) (void)node.Reset();
}

void PropellerCluster::ReviveIndexNode(size_t i) {
  transport_.SetNodeDown(index_nodes_.at(i)->id(), false);
}

void PropellerCluster::DropAllCaches() {
  for (auto& node : index_nodes_) node->io().DropCaches();
}

void PropellerCluster::EnableStandbyMaster() {
  if (standby_ != nullptr) return;
  standby_ = std::make_unique<MasterNode>(kMasterId + 1, &transport_,
                                          config_.master);
  for (auto& node : index_nodes_) standby_->AddIndexNode(node->id());
  master_->SetMetadataSink(
      [this](const std::string& image) { replicated_image_ = image; });
  // Seed the standby with the current state.
  (void)master_->ForceMetadataFlush();
}

Status PropellerCluster::FailoverToStandby() {
  if (standby_ == nullptr) {
    return Status::FailedPrecondition("no standby master enabled");
  }
  if (!replicated_image_.empty()) {
    PROPELLER_RETURN_IF_ERROR(standby_->RestoreMetadata(replicated_image_));
  }
  // The failed primary leaves the cluster; the standby takes its address
  // (clients keep talking to kMasterId).
  transport_.Unregister(kMasterId);
  transport_.Register(kMasterId, standby_.get());
  master_ = std::move(standby_);
  master_->SetMetadataSink(
      [this](const std::string& image) { replicated_image_ = image; });
  return Status::Ok();
}

uint64_t PropellerCluster::TotalGroups() const {
  uint64_t total = 0;
  for (const auto& node : index_nodes_) total += node->NumGroups();
  return total;
}

uint64_t PropellerCluster::TotalIndexPages() const {
  uint64_t total = 0;
  for (const auto& node : index_nodes_) total += node->TotalPages();
  return total;
}

ClusterStats PropellerCluster::Stats() const {
  ClusterStats stats;
  stats.groups = TotalGroups();
  stats.index_pages = TotalIndexPages();
  stats.dead_nodes = master_->DeadNodes().size();
  for (const MasterNode::RecoveryEvent& e : master_->RecoveryEvents()) {
    ++stats.recoveries;
    stats.groups_recovered += e.groups_moved;
    stats.records_restored += e.records_restored;
  }
  if (journal_ != nullptr) {
    for (const auto& node : index_nodes_) {
      for (const auto& stat : node->GroupStats()) {
        stats.journal_records += journal_->NumRecords(stat.group);
      }
    }
  }
  for (const auto& [name, snap] : PerNodeMetrics()) stats.metrics.Merge(snap);
  return stats;
}

std::vector<std::pair<std::string, obs::MetricsSnapshot>>
PropellerCluster::PerNodeMetrics() const {
  std::vector<std::pair<std::string, obs::MetricsSnapshot>> sections;
  sections.emplace_back("transport", transport_.MetricsSnapshot());
  sections.emplace_back("master", master_->MetricsSnapshot());
  for (const auto& node : index_nodes_) {
    sections.emplace_back("in." + std::to_string(node->id()),
                          node->MetricsSnapshot());
  }
  for (const auto& client : clients_) {
    sections.emplace_back("client." + std::to_string(client->id()),
                          client->MetricsSnapshot());
  }
  return sections;
}

}  // namespace propeller::core
