#include "core/master_node.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "obs/trace.h"

namespace propeller::core {

MasterNode::MasterNode(NodeId id, net::Transport* transport, MasterConfig config)
    : id_(id),
      transport_(transport),
      config_(config),
      metadata_store_(shared_storage_.CreateStore()),
      handle_calls_(&metrics_.GetCounter("mn.handle.calls")),
      metadata_flushes_(&metrics_.GetCounter("mn.metadata.flushes")),
      recoveries_(&metrics_.GetCounter("mn.recoveries")),
      groups_recovered_(&metrics_.GetCounter("mn.groups_recovered")),
      lease_granted_(&metrics_.GetCounter("master.lease.granted")),
      lease_renewed_(&metrics_.GetCounter("master.lease.renewed")),
      lease_expired_(&metrics_.GetCounter("master.lease.expired")),
      lease_stale_(&metrics_.GetCounter("master.lease.stale")),
      handle_latency_(&metrics_.GetHistogram("mn.handle.latency_s")),
      shard_queue_wait_(&metrics_.GetHistogram("mn.shard.queue_wait_s")) {
  if (config_.num_shards < 1) config_.num_shards = 1;
  const uint32_t n = static_cast<uint32_t>(config_.num_shards);
  shards_.reserve(n);
  shard_contended_.reserve(n);
  for (uint32_t s = 0; s < n; ++s) {
    shards_.push_back(std::make_unique<Shard>(s, config_.acg_policy, n));
    shard_contended_.push_back(
        &metrics_.GetCounter("mn.shard." + std::to_string(s) + ".contended"));
  }
}

void MasterNode::AddIndexNode(NodeId node) {
  {
    MutexLock lock(liveness_mu_);
    if (index_nodes_.empty()) {
      first_index_node_.store(node, std::memory_order_relaxed);
    }
    index_nodes_.push_back(node);
  }
  for (auto& sp : shards_) {
    Shard& shard = *sp;
    MutexLock lock(shard.mu_);
    if (shard.node_load.emplace(node, 0).second) {
      shard.load_index.insert({0, node});
    }
  }
}

NodeId MasterNode::LeastLoadedNode(const Shard& shard) const {
  // The ordered (load, node) index replaces the legacy O(n) scan; ties
  // break by node id exactly like the scan's insertion-order walk (nodes
  // register in ascending id order).
  for (const auto& [load, node] : shard.load_index) {
    if (transport_->IsDown(node)) continue;
    return node;
  }
  // Legacy fallback: with no eligible node the scan returned the first
  // registered one (the caller's create RPC then fails against it).
  return first_index_node_.load(std::memory_order_relaxed);
}

std::vector<NodeId> MasterNode::LeastLoadedNodes(
    const Shard& shard, size_t k, const std::vector<NodeId>& exclude) const {
  std::vector<NodeId> out;
  for (const auto& [load, node] : shard.load_index) {
    if (out.size() >= k) break;
    if (transport_->IsDown(node)) continue;
    if (std::find(exclude.begin(), exclude.end(), node) != exclude.end()) {
      continue;
    }
    out.push_back(node);
  }
  return out;
}

void MasterNode::SetNodeLoad(Shard& shard, NodeId node, uint64_t load,
                             bool eligible) {
  auto it = shard.node_load.find(node);
  const uint64_t old = it == shard.node_load.end() ? 0 : it->second;
  shard.node_load[node] = load;
  const bool was_eligible = shard.load_index.erase({old, node}) != 0;
  if (eligible || was_eligible) shard.load_index.insert({load, node});
}

void MasterNode::BumpNodeLoad(Shard& shard, NodeId node, int64_t delta) {
  auto it = shard.node_load.find(node);
  const uint64_t old = it == shard.node_load.end() ? 0 : it->second;
  uint64_t now = old;
  if (delta < 0) {
    const uint64_t dec = static_cast<uint64_t>(-delta);
    now = old > dec ? old - dec : 0;  // legacy clamp: never underflow
  } else {
    now = old + static_cast<uint64_t>(delta);
  }
  shard.node_load[node] = now;
  // Declared-dead nodes are absent from the index and must stay absent.
  if (shard.load_index.erase({old, node}) != 0) {
    shard.load_index.insert({now, node});
  }
}

void MasterNode::CollectReplicaSets(const Shard& shard,
                                    const std::vector<GroupId>& groups,
                                    std::vector<GroupReplicaSet>& out) const {
  for (GroupId g : groups) {
    auto it = shard.group_replicas.find(g);
    if (it == shard.group_replicas.end()) continue;
    out.push_back({g, it->second});
  }
}

std::vector<IndexSpec> MasterNode::CatalogSnapshot() const {
  MutexLock lock(mu_);
  return catalog_;
}

double MasterNode::ChargeShardQueue(Shard& shard, uint32_t shard_index,
                                    double arrival_s, double service_s) {
  if (!config_.model_resolve_queue || arrival_s <= 0) return 0;
  const double start = std::max(arrival_s, shard.busy_until_s);
  shard.busy_until_s = start + service_s;
  const double wait = start - arrival_s;
  if (wait > 0) shard_contended_[shard_index]->Add(1);
  shard_queue_wait_->Observe(wait);
  return wait;
}

template <typename ResponseT>
void MasterNode::StampLeaseHolders(ResponseT& resp) {
  if (!config_.placement_leases) return;
  const uint32_t n = static_cast<uint32_t>(shards_.size());
  resp.lease_holders.resize(n);
  for (uint32_t s = 0; s < n; ++s) {
    Shard& shard = *shards_[s];
    MutexLock lock(shard.mu_);
    resp.lease_holders[s] = shard.lease_holder;
  }
}

net::RpcHandler::Response MasterNode::Handle(const std::string& method,
                                             const std::string& payload) {
  handle_calls_->Add(1);
  metrics_.GetCounter("mn.calls." + method).Add(1);
  Response resp = [&]() -> Response {
    if (method == "mn.resolve_update") return HandleResolveUpdate(payload);
    if (method == "mn.resolve_search") return HandleResolveSearch(payload);
    if (method == "mn.create_index") return HandleCreateIndex(payload);
    if (method == "mn.flush_acg") return HandleFlushAcg(payload);
    if (method == "mn.heartbeat") return HandleHeartbeat(payload);
    if (method == "mn.tick") return HandleTick(payload);
    return Response{Status::NotFound("unknown method " + method), {}, {}};
  }();
  handle_latency_->Observe(resp.cost.seconds());
  return resp;
}

Result<NodeId> MasterNode::EnsureGroupPlaced(
    Shard& shard, GroupId group, const std::vector<IndexSpec>& catalog,
    sim::Cost& cost) {
  auto it = shard.group_replicas.find(group);
  if (it != shard.group_replicas.end()) return it->second.front();
  if (shard.node_load.empty()) {
    return Status::FailedPrecondition("no index nodes");
  }

  // Pick the replica set: the legacy single node at r = 1 (bit-identical
  // path), else the r least-loaded distinct live nodes (fewer when the
  // cluster is smaller than r — the set heals up via recovery later).
  std::vector<NodeId> replicas;
  if (config_.replication_factor <= 1) {
    replicas.push_back(LeastLoadedNode(shard));
  } else {
    replicas = LeastLoadedNodes(
        shard, static_cast<size_t>(config_.replication_factor), {});
    if (replicas.empty()) replicas.push_back(LeastLoadedNode(shard));
  }

  CreateGroupRequest req;
  req.group = group;
  req.specs = catalog;
  std::vector<NodeId> placed;
  for (NodeId node : replicas) {
    auto call = transport_->Call(id_, node, "in.create_group", Encode(req));
    cost += call.cost;
    if (!call.status.ok()) {
      // The primary must exist; a failed secondary just shrinks the set.
      if (placed.empty()) return call.status;
      PLOG(WARNING) << "replica create for group " << group << " on node "
                    << node << " failed: " << call.status.ToString();
      continue;
    }
    placed.push_back(node);
  }
  for (NodeId node : placed) BumpNodeLoad(shard, node, 1);
  NodeId primary = placed.front();
  shard.group_replicas[group] = std::move(placed);
  mutations_since_flush_.fetch_add(1, std::memory_order_relaxed);
  ++shard.metadata_epoch;  // new group visible to searches
  ++shard.mirror_epoch;
  return primary;
}

sim::Cost MasterNode::ApplyAcgResult(Shard& shard,
                                     const acg::AcgManager::ApplyResult& result,
                                     const std::vector<IndexSpec>& catalog) {
  sim::Cost cost;
  // New placements: make sure the group exists somewhere.
  for (const auto& [file, group] : result.placements) {
    sim::Cost c;
    auto placed = EnsureGroupPlaced(shard, group, catalog, c);
    cost += c;
    if (!placed.ok()) {
      PLOG(WARNING) << "placement failed for group " << group << ": "
                    << placed.status().ToString();
    }
    mutations_since_flush_.fetch_add(1, std::memory_order_relaxed);
  }
  // Merges: group `from` dissolved into `into`; move its index data.  The
  // AcgManager only merges groups it owns, so both ends live in this shard.
  for (const auto& merge : result.merges) {
    auto from_it = shard.group_replicas.find(merge.from);
    if (from_it == shard.group_replicas.end()) continue;  // never materialized
    // Copy before EnsureGroupPlaced below can rehash the map.
    std::vector<NodeId> from_replicas = from_it->second;
    NodeId from_node = from_replicas.front();
    sim::Cost c;
    auto into_node = EnsureGroupPlaced(shard, merge.into, catalog, c);
    cost += c;
    if (!into_node.ok()) continue;

    MigrateOutRequest out_req;
    out_req.group = merge.from;
    out_req.drop_group = true;
    auto out_call =
        transport_->Call(id_, from_node, "in.migrate_out", Encode(out_req));
    cost += out_call.cost;
    if (!out_call.status.ok()) {
      PLOG(WARNING) << "migrate_out failed: " << out_call.status.ToString();
      continue;
    }
    auto out_resp = Decode<MigrateOutResponse>(out_call.payload);
    if (!out_resp.ok()) continue;

    InstallGroupRequest in_req;
    in_req.group = merge.into;
    in_req.specs = catalog;
    in_req.records = std::move(out_resp->records);
    auto in_call =
        transport_->Call(id_, *into_node, "in.install_group", Encode(in_req));
    cost += in_call.cost;

    // Secondaries discard their copies of the dissolved group; the data
    // now lives under `into` (whose secondaries converge from the journal).
    for (size_t i = 1; i < from_replicas.size(); ++i) {
      DropGroupRequest dreq;
      dreq.group = merge.from;
      auto dcall = transport_->Call(id_, from_replicas[i], "in.drop_group",
                                    Encode(dreq));
      cost += dcall.cost;
    }
    for (NodeId n : from_replicas) BumpNodeLoad(shard, n, -1);
    shard.group_replicas.erase(merge.from);
    mutations_since_flush_.fetch_add(1, std::memory_order_relaxed);
    ++shard.metadata_epoch;  // group dissolved; cached placements are stale
    ++shard.mirror_epoch;
  }
  return cost;
}

net::RpcHandler::Response MasterNode::HandleResolveUpdate(
    const std::string& payload) {
  auto req = Decode<ResolveUpdateRequest>(payload);
  if (!req.ok()) return Response{req.status(), {}, {}};

  const uint32_t n = static_cast<uint32_t>(shards_.size());
  const std::vector<IndexSpec> catalog = CatalogSnapshot();
  sim::Cost cost(config_.lookup_us / 1e6 *
                 static_cast<double>(req->files.size()));
  ResolveUpdateResponse resp;
  resp.placements.resize(req->files.size());

  // Bucket request positions by owning shard (at n = 1: one pass in
  // request order).
  std::vector<std::vector<size_t>> by_shard(n);
  for (size_t i = 0; i < req->files.size(); ++i) {
    by_shard[ShardOfFile(req->files[i], n)].push_back(i);
  }

  std::vector<uint64_t> epochs(n, 0);
  bool lease_covered = false;
  double queue_wait = 0;
  for (uint32_t s = 0; s < n; ++s) {
    if (by_shard[s].empty()) continue;  // epoch 0: no statement on shard s
    Shard& shard = *shards_[s];
    MutexLock lock(shard.mu_);
    if (shard.lease_holder != 0) lease_covered = true;
    for (size_t idx : by_shard[s]) {
      FileId f = req->files[idx];
      auto group = shard.acg.GroupOf(f);
      if (!group) {
        // Unknown file: the master allocates metadata for it (Section IV:
        // "MN first allocates the metadata for this new ACG").
        acg::Acg singleton;
        singleton.AddVertex(f);
        auto result = shard.acg.ApplyDelta(singleton);
        cost += ApplyAcgResult(shard, result, catalog);
        group = shard.acg.GroupOf(f);
        // The file -> group map changed even when the file joined an
        // existing group (no metadata_epoch move, cached placements stay
        // valid) — but a delegate's mirror must learn the new file.
        ++shard.mirror_epoch;
      }
      sim::Cost place_cost;
      auto node = EnsureGroupPlaced(shard, *group, catalog, place_cost);
      cost += place_cost;
      if (!node.ok()) return Response{node.status(), {}, cost};
      resp.placements[idx] = {f, *group, *node};
    }
    queue_wait = std::max(
        queue_wait,
        ChargeShardQueue(shard, s, req->arrival_s,
                         config_.lookup_us / 1e6 *
                             static_cast<double>(by_shard[s].size())));
    // Read *after* any placements above so the client caches the epoch
    // that already covers them.
    epochs[s] = shard.metadata_epoch;
    if (config_.replication_factor > 1) {
      std::vector<GroupId> groups;
      groups.reserve(by_shard[s].size());
      for (size_t idx : by_shard[s]) {
        groups.push_back(resp.placements[idx].group);
      }
      std::sort(groups.begin(), groups.end());
      groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
      CollectReplicaSets(shard, groups, resp.replicas);
    }
  }
  cost += sim::Cost(queue_wait);
  resp.shard_epochs = std::move(epochs);
  // The master answered a resolve a delegate holds a lease for — counted
  // so "leases keep the master out of the steady state" is checkable.
  if (lease_covered) lease_stale_->Add(1);
  StampLeaseHolders(resp);
  MaybeFlushMetadata(cost);
  return Response{Status::Ok(), Encode(resp), cost};
}

net::RpcHandler::Response MasterNode::HandleResolveSearch(
    const std::string& payload) {
  auto req = Decode<ResolveSearchRequest>(payload);
  if (!req.ok()) return Response{req.status(), {}, {}};

  const uint32_t n = static_cast<uint32_t>(shards_.size());
  // Index name filtering: an empty name targets all groups; otherwise only
  // groups exist once the catalog carries the name (all groups share the
  // catalog, so presence is a catalog check).
  if (!req->index_name.empty()) {
    const std::vector<IndexSpec> catalog = CatalogSnapshot();
    bool known = std::any_of(
        catalog.begin(), catalog.end(),
        [&](const IndexSpec& s) { return s.name == req->index_name; });
    if (!known) return Response{Status::NotFound("unknown index"), {}, {}};
  }

  // Search routing targets each group's primary; replica sets ride along
  // under replication so clients can hedge to a secondary.  A search reads
  // every shard (one mutex at a time — never two shard mutexes at once).
  std::unordered_map<NodeId, std::vector<GroupId>> by_node;
  uint64_t total_groups = 0;
  std::vector<uint64_t> epochs(n, 0);
  bool lease_covered = false;
  double queue_wait = 0;
  ResolveSearchResponse resp;
  for (uint32_t s = 0; s < n; ++s) {
    Shard& shard = *shards_[s];
    MutexLock lock(shard.mu_);
    if (shard.lease_holder != 0) lease_covered = true;
    for (const auto& [group, replicas] : shard.group_replicas) {
      by_node[replicas.front()].push_back(group);
    }
    total_groups += shard.group_replicas.size();
    if (config_.replication_factor > 1) {
      std::vector<GroupId> groups;
      groups.reserve(shard.group_replicas.size());
      for (const auto& [group, replicas] : shard.group_replicas) {
        groups.push_back(group);
      }
      std::sort(groups.begin(), groups.end());
      CollectReplicaSets(shard, groups, resp.replicas);
    }
    queue_wait = std::max(
        queue_wait,
        ChargeShardQueue(
            shard, s, req->arrival_s,
            config_.lookup_us / 1e6 *
                static_cast<double>(shard.group_replicas.size() + 1)));
    epochs[s] = shard.metadata_epoch;
  }

  for (auto& [node, groups] : by_node) {
    std::sort(groups.begin(), groups.end());
    resp.targets.push_back({node, std::move(groups)});
  }
  std::sort(resp.targets.begin(), resp.targets.end(),
            [](const auto& a, const auto& b) { return a.node < b.node; });
  resp.shard_epochs = std::move(epochs);
  if (lease_covered) lease_stale_->Add(1);
  StampLeaseHolders(resp);
  sim::Cost cost(config_.lookup_us / 1e6 *
                 static_cast<double>(total_groups + 1));
  cost += sim::Cost(queue_wait);
  return Response{Status::Ok(), Encode(resp), cost};
}

net::RpcHandler::Response MasterNode::HandleCreateIndex(
    const std::string& payload) {
  auto req = Decode<CreateIndexRequest>(payload);
  if (!req.ok()) return Response{req.status(), {}, {}};
  {
    MutexLock lock(mu_);
    for (const IndexSpec& s : catalog_) {
      if (s.name == req->spec.name) {
        return Response{Status::AlreadyExists(s.name), {}, {}};
      }
    }
    catalog_.push_back(req->spec);
  }
  mutations_since_flush_.fetch_add(1, std::memory_order_relaxed);
  // The catalog is global: every shard's cached search routing is stale.
  std::vector<std::pair<GroupId, std::vector<NodeId>>> placed;
  for (auto& sp : shards_) {
    Shard& shard = *sp;
    MutexLock lock(shard.mu_);
    ++shard.metadata_epoch;
    ++shard.mirror_epoch;
    for (const auto& [group, replicas] : shard.group_replicas) {
      placed.emplace_back(group, replicas);
    }
  }

  // Push the new index to every replica of every existing group, in group
  // order: the RPC sequence lands in traces and journals, and a failure
  // return must name the same group on every run.
  std::sort(placed.begin(), placed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  sim::Cost cost;
  for (const auto& [group, replicas] : placed) {
    CreateGroupRequest creq;
    creq.group = group;
    creq.specs = {req->spec};
    for (NodeId node : replicas) {
      auto call = transport_->Call(id_, node, "in.create_group", Encode(creq));
      cost += call.cost;
      if (!call.status.ok()) return Response{call.status, {}, cost};
    }
  }
  // Catalog changes are rare and losing one across a master failover makes
  // every index unusable — flush synchronously rather than on the counter.
  cost += ForceMetadataFlush();
  return Response{Status::Ok(), {}, cost};
}

net::RpcHandler::Response MasterNode::HandleFlushAcg(const std::string& payload) {
  auto req = Decode<FlushAcgRequest>(payload);
  if (!req.ok()) return Response{req.status(), {}, {}};

  const uint32_t n = static_cast<uint32_t>(shards_.size());
  const std::vector<IndexSpec> catalog = CatalogSnapshot();
  sim::Cost cost(config_.lookup_us / 1e6 *
                 static_cast<double>(req->delta.NumEdges() + 1));
  if (n == 1) {
    Shard& shard = *shards_[0];
    MutexLock lock(shard.mu_);
    auto result = shard.acg.ApplyDelta(req->delta);
    cost += ApplyAcgResult(shard, result, catalog);
    cost += RunSplitMaintenanceShard(shard, catalog);
  } else {
    // Partition the delta: an edge survives iff both endpoints hash to the
    // same shard; a cross-shard edge degrades to two bare vertices (the
    // causal correlation is dropped — the sharding trade-off documented in
    // DESIGN.md).  Vertex-only entries go to their own shard.
    std::vector<acg::Acg> deltas(n);
    req->delta.ForEachEdge([&](FileId from, FileId to, uint64_t w) {
      const uint32_t fs = ShardOfFile(from, n);
      const uint32_t ts = ShardOfFile(to, n);
      if (fs == ts) {
        deltas[fs].AddEdge(from, to, w);
      } else {
        deltas[fs].AddVertex(from);
        deltas[ts].AddVertex(to);
      }
    });
    for (FileId f : req->delta.SortedVertices()) {
      deltas[ShardOfFile(f, n)].AddVertex(f);
    }
    for (uint32_t s = 0; s < n; ++s) {
      if (deltas[s].empty()) continue;
      Shard& shard = *shards_[s];
      MutexLock lock(shard.mu_);
      auto result = shard.acg.ApplyDelta(deltas[s]);
      cost += ApplyAcgResult(shard, result, catalog);
      cost += RunSplitMaintenanceShard(shard, catalog);
    }
  }
  MaybeFlushMetadata(cost);
  return Response{Status::Ok(), {}, cost};
}

sim::Cost MasterNode::RunSplitMaintenance() {
  const std::vector<IndexSpec> catalog = CatalogSnapshot();
  sim::Cost cost;
  for (auto& sp : shards_) {
    Shard& shard = *sp;
    MutexLock lock(shard.mu_);
    cost += RunSplitMaintenanceShard(shard, catalog);
  }
  return cost;
}

sim::Cost MasterNode::RunSplitMaintenanceShard(
    Shard& shard, const std::vector<IndexSpec>& catalog) {
  sim::Cost cost;
  auto plans = shard.acg.SplitOversizedGroups();
  for (const auto& plan : plans) {
    auto src_it = shard.group_replicas.find(plan.group);
    if (src_it == shard.group_replicas.end()) continue;
    // Split migrates off the primary; its journal records the per-file
    // deletes, so secondaries converge on their next catch-up tick.
    NodeId src_node = src_it->second.front();

    sim::Cost place_cost;
    auto dst = EnsureGroupPlaced(shard, plan.new_group, catalog, place_cost);
    cost += place_cost;
    if (!dst.ok()) continue;

    MigrateOutRequest out_req;
    out_req.group = plan.group;
    out_req.files = plan.move_out;
    auto out_call =
        transport_->Call(id_, src_node, "in.migrate_out", Encode(out_req));
    cost += out_call.cost;
    if (!out_call.status.ok()) continue;
    auto out_resp = Decode<MigrateOutResponse>(out_call.payload);
    if (!out_resp.ok()) continue;

    InstallGroupRequest in_req;
    in_req.group = plan.new_group;
    in_req.specs = catalog;
    in_req.records = std::move(out_resp->records);
    auto in_call =
        transport_->Call(id_, *dst, "in.install_group", Encode(in_req));
    cost += in_call.cost;
    mutations_since_flush_.fetch_add(1, std::memory_order_relaxed);
    ++shard.metadata_epoch;  // files moved to the split-off group
    ++shard.mirror_epoch;
  }
  return cost;
}

size_t MasterNode::RunRebalance(sim::Cost* cost, uint64_t slack) {
  size_t moved = 0;
  {
    Shard& s0 = *shards_[0];
    MutexLock lock(s0.mu_);
    if (s0.node_load.size() < 2) return moved;
  }
  const std::vector<IndexSpec> catalog = CatalogSnapshot();
  for (auto& sp : shards_) {
    Shard& shard = *sp;
    MutexLock lock(shard.mu_);
    for (;;) {
      // Recompute the current spread from the placement table (the load
      // view from heartbeats can lag behind our own migrations).
      // Replicated clusters balance primaries; secondaries follow their
      // groups.
      std::unordered_map<NodeId, std::vector<GroupId>> by_node;
      for (const auto& [node, load] : shard.node_load) by_node[node];
      for (const auto& [group, replicas] : shard.group_replicas) {
        by_node[replicas.front()].push_back(group);
      }
      // Placement-eligible nodes (declared-dead nodes are absent from the
      // ordered index).
      std::unordered_set<NodeId> eligible;
      for (const auto& [load, node] : shard.load_index) eligible.insert(node);

      // Scan nodes in id order: busiest/idlest tie-breaks must come from
      // the node ids, not from by_node's hash iteration.
      std::vector<NodeId> scan;
      scan.reserve(by_node.size());
      for (const auto& [node, groups] : by_node) scan.push_back(node);
      std::sort(scan.begin(), scan.end());
      NodeId busiest = 0, idlest = 0;
      size_t hi = 0, lo = ~size_t{0};
      for (NodeId node : scan) {
        const std::vector<GroupId>& groups = by_node.at(node);
        if (transport_->IsDown(node) || eligible.count(node) == 0u) continue;
        if (groups.size() > hi || busiest == 0) {
          if (groups.size() >= hi) {
            hi = groups.size();
            busiest = node;
          }
        }
        if (groups.size() < lo) {
          lo = groups.size();
          idlest = node;
        }
      }
      if (busiest == 0 || idlest == 0 || busiest == idlest) break;
      if (hi <= lo + slack) break;  // balanced enough

      // Move one (smallest) group from the busiest to the idlest node,
      // skipping groups whose replica set already includes the idlest node
      // (a node cannot hold two copies of the same group).
      GroupId victim = 0;
      bool found = false;
      uint64_t victim_size = ~0ull;
      // Sorted: the candidate list was bucketed from an unordered map, and
      // the strict `<` below keeps the first of equal-sized victims.
      std::sort(by_node[busiest].begin(), by_node[busiest].end());
      for (GroupId g : by_node[busiest]) {
        const std::vector<NodeId>& replicas = shard.group_replicas[g];
        if (std::find(replicas.begin() + 1, replicas.end(), idlest) !=
            replicas.end()) {
          continue;
        }
        uint64_t size = shard.acg.GroupSize(g);
        if (!found || size < victim_size) {
          victim_size = size;
          victim = g;
          found = true;
        }
      }
      if (!found) break;  // every candidate already replicates on idlest

      MigrateOutRequest out_req;
      out_req.group = victim;
      out_req.drop_group = true;
      auto out_call =
          transport_->Call(id_, busiest, "in.migrate_out", Encode(out_req));
      if (cost != nullptr) *cost += out_call.cost;
      if (!out_call.status.ok()) break;
      auto out_resp = Decode<MigrateOutResponse>(out_call.payload);
      if (!out_resp.ok()) break;

      InstallGroupRequest in_req;
      in_req.group = victim;
      in_req.specs = catalog;
      in_req.records = std::move(out_resp->records);
      auto in_call =
          transport_->Call(id_, idlest, "in.install_group", Encode(in_req));
      if (cost != nullptr) *cost += in_call.cost;
      if (!in_call.status.ok()) break;

      // The old primary dropped its copy (drop_group above); the idlest
      // node takes over as primary and any secondaries are untouched.
      shard.group_replicas[victim].front() = idlest;
      BumpNodeLoad(shard, busiest, -1);
      BumpNodeLoad(shard, idlest, 1);
      mutations_since_flush_.fetch_add(1, std::memory_order_relaxed);
      ++shard.metadata_epoch;  // group changed nodes: cached routing stale
      ++shard.mirror_epoch;
      ++moved;
    }
  }
  sim::Cost flush_cost;
  MaybeFlushMetadata(flush_cost);
  if (cost != nullptr) *cost += flush_cost;
  return moved;
}

ShardLeaseGrant MasterNode::BuildLeaseGrant(Shard& shard, uint32_t shard_index,
                                            NodeId holder, double now_s) {
  ShardLeaseGrant grant;
  grant.shard = shard_index;
  grant.epoch = shard.metadata_epoch;
  grant.expiry_s = now_s + config_.lease_duration_s;
  const bool is_new = shard.lease_holder != holder;
  shard.lease_holder = holder;
  shard.lease_expiry_s = grant.expiry_s;
  (is_new ? lease_granted_ : lease_renewed_)->Add(1);
  // Push the routing mirror only when the delegate has never seen this
  // shard or its mirror version moved — steady-state renewals are
  // near-empty.  mirror_epoch (not metadata_epoch) is the gate: a new
  // file joining an existing group moves only the former.
  if (is_new || shard.lease_pushed_epoch != shard.mirror_epoch) {
    grant.has_mirror = true;
    std::vector<GroupId> groups;
    groups.reserve(shard.group_replicas.size());
    for (const auto& [group, replicas] : shard.group_replicas) {
      groups.push_back(group);
    }
    std::sort(groups.begin(), groups.end());
    for (GroupId g : groups) {
      grant.groups.push_back({g, shard.group_replicas.at(g).front()});
    }
    if (config_.replication_factor > 1) {
      CollectReplicaSets(shard, groups, grant.replicas);
    }
    for (const auto& [file, group] : shard.acg.FileGroups()) {
      grant.files.push_back({file, group});
    }
    shard.lease_pushed_epoch = shard.mirror_epoch;
  }
  return grant;
}

net::RpcHandler::Response MasterNode::HandleHeartbeat(const std::string& payload) {
  auto req = Decode<HeartbeatRequest>(payload);
  if (!req.ok()) return Response{req.status(), {}, {}};
  sim::Cost cost(config_.lookup_us / 1e6);
  const uint32_t n = static_cast<uint32_t>(shards_.size());

  // A heartbeat from a declared-dead node is a revival.  If its groups
  // were re-homed while it was dead, wipe it (in.reset) so stale replicas
  // cannot resurface, then re-admit it to the placement pool.
  bool needs_reset = false;
  size_t pos = ~size_t{0};
  size_t n_nodes = 0;
  {
    MutexLock lock(liveness_mu_);
    auto dead_it = dead_.find(req->node);
    if (dead_it != dead_.end()) {
      needs_reset = dead_it->second;
      dead_.erase(dead_it);
    }
    last_heartbeat_s_[req->node] = req->now_s;
    n_nodes = index_nodes_.size();
    for (size_t i = 0; i < n_nodes; ++i) {
      if (index_nodes_[i] == req->node) {
        pos = i;
        break;
      }
    }
  }
  if (needs_reset) {
    auto call = transport_->Call(id_, req->node, "in.reset",
                                 Encode(ResetNodeRequest{}));
    cost += call.cost;
    if (!call.status.ok()) {
      PLOG(WARNING) << "in.reset on revived node " << req->node
                    << " failed: " << call.status.ToString();
    }
  }

  // Load sync: this node's group count per shard (n = 1: the legacy
  // whole-count stamp).  `eligible` re-admits a revived node to the
  // ordered placement index.
  std::vector<uint64_t> counts(n, 0);
  for (const auto& gs : req->groups) ++counts[ShardOfGroup(gs.group, n)];
  for (uint32_t s = 0; s < n; ++s) {
    Shard& shard = *shards_[s];
    MutexLock lock(shard.mu_);
    SetNodeLoad(shard, req->node, counts[s], /*eligible=*/true);
  }

  HeartbeatResponse hresp;
  hresp.num_shards = n;
  if (!config_.placement_leases) {
    return Response{Status::Ok(), Encode(hresp), cost};
  }

  // Lease grants ride on the heartbeat response: shard s is delegated
  // round-robin to index_nodes_[s mod n_nodes].
  for (const IndexSpec& spec : CatalogSnapshot()) {
    hresp.index_names.push_back(spec.name);
  }
  if (pos != ~size_t{0} && n_nodes > 0) {
    for (uint32_t s = static_cast<uint32_t>(pos); s < n;
         s += static_cast<uint32_t>(n_nodes)) {
      Shard& shard = *shards_[s];
      MutexLock lock(shard.mu_);
      hresp.leases.push_back(BuildLeaseGrant(shard, s, req->node, req->now_s));
    }
  }
  return Response{Status::Ok(), Encode(hresp), cost};
}

net::RpcHandler::Response MasterNode::HandleTick(const std::string& payload) {
  auto req = Decode<TickRequest>(payload);
  if (!req.ok()) return Response{req.status(), {}, {}};
  const double window = static_cast<double>(config_.heartbeat_miss_threshold) *
                        config_.heartbeat_interval_s;
  sim::Cost cost;
  std::vector<NodeId> missing;
  {
    MutexLock lock(liveness_mu_);
    for (NodeId n : index_nodes_) {
      if (dead_.count(n) != 0u) continue;  // already handled
      auto it = last_heartbeat_s_.find(n);
      if (it == last_heartbeat_s_.end()) continue;  // never heard from it
      if (req->now_s - it->second > window) missing.push_back(n);
    }
  }
  for (NodeId n : missing) {
    cost += sim::Cost(config_.lookup_us / 1e6);
    RecoverDeadNode(n, req->now_s, cost);
  }
  // Lease housekeeping: a holder that stopped heartbeating (without being
  // declared dead yet, e.g. a partition) lets its lease lapse; the master
  // resumes answering for the shard.
  if (config_.placement_leases) {
    for (auto& sp : shards_) {
      Shard& shard = *sp;
      MutexLock lock(shard.mu_);
      if (shard.lease_holder != 0 && shard.lease_expiry_s < req->now_s) {
        shard.lease_holder = 0;
        shard.lease_pushed_epoch = 0;
        lease_expired_->Add(1);
      }
    }
  }
  return Response{Status::Ok(), {}, cost};
}

void MasterNode::RecoverDeadNode(NodeId node, double now_s, sim::Cost& cost) {
  PLOG(WARNING) << "node " << node << " missed "
                << config_.heartbeat_miss_threshold
                << " heartbeats; declaring dead";
  recoveries_->Add(1);
  // The nested in.recover_group / in.create_group transport calls advance
  // the ambient clock themselves, so this span's extent is the whole
  // re-homing sweep.
  obs::SpanGuard span("mn.recover_node", node, id_);
  span.Tag("dead_node", static_cast<uint64_t>(node));
  RecoveryEvent event;
  event.at_s = now_s;
  event.node = node;

  const uint32_t n = static_cast<uint32_t>(shards_.size());
  const std::vector<IndexSpec> catalog = CatalogSnapshot();

  // Collect the dead node's groups per shard (sorted; shard-major order is
  // the legacy globally-sorted order at n = 1), pull the node out of every
  // shard's placement index, and revoke any leases it held.
  std::vector<std::vector<GroupId>> groups(n);
  size_t total = 0;
  for (uint32_t s = 0; s < n; ++s) {
    Shard& shard = *shards_[s];
    MutexLock lock(shard.mu_);
    for (const auto& [group, replicas] : shard.group_replicas) {
      if (std::find(replicas.begin(), replicas.end(), node) !=
          replicas.end()) {
        groups[s].push_back(group);
      }
    }
    std::sort(groups[s].begin(), groups[s].end());
    total += groups[s].size();
    auto it = shard.node_load.find(node);
    if (it != shard.node_load.end()) {
      shard.load_index.erase({it->second, node});
    }
    if (shard.lease_holder == node) {
      shard.lease_holder = 0;
      shard.lease_pushed_epoch = 0;
      lease_expired_->Add(1);
    }
  }

  // Mark dead before picking targets so placement skips it.  The rehomed
  // flag (in.reset on revival) is set iff it held any groups.
  size_t live = 0;
  {
    MutexLock lock(liveness_mu_);
    dead_[node] = total != 0;
    for (NodeId m : index_nodes_) {
      if (!transport_->IsDown(m) && dead_.count(m) == 0u) ++live;
    }
  }
  if (live == 0 && total != 0) {
    PLOG(WARNING) << "no live index nodes; cannot re-home " << total
                  << " groups of dead node " << node;
    MutexLock lock(mu_);
    events_.push_back(std::move(event));
    return;
  }

  const bool replicated = config_.replication_factor > 1;
  for (uint32_t s = 0; s < n; ++s) {
    if (groups[s].empty()) continue;
    Shard& shard = *shards_[s];
    MutexLock lock(shard.mu_);
    for (GroupId g : groups[s]) {
      if (!replicated) {
        NodeId target = LeastLoadedNode(shard);
        RecoverGroupRequest rreq;
        rreq.group = g;
        rreq.specs = catalog;
        auto call =
            transport_->Call(id_, target, "in.recover_group", Encode(rreq));
        cost += call.cost;
        event.cost += call.cost;
        if (call.status.ok()) {
          if (auto resp = Decode<RecoverGroupResponse>(call.payload);
              resp.ok()) {
            event.records_restored += resp->records_replayed;
          }
        } else {
          // No journal on the survivor (or the call failed): keep routing
          // valid with an empty replacement group.  The data is lost,
          // exactly as it would be without a shared-storage journal.
          PLOG(WARNING) << "recover_group " << g << " on node " << target
                        << " failed (" << call.status.ToString()
                        << "); creating empty replacement";
          CreateGroupRequest creq;
          creq.group = g;
          creq.specs = catalog;
          auto fallback =
              transport_->Call(id_, target, "in.create_group", Encode(creq));
          cost += fallback.cost;
          event.cost += fallback.cost;
          if (!fallback.status.ok()) {
            PLOG(WARNING) << "replacement group " << g << " creation failed: "
                          << fallback.status.ToString();
            continue;  // leave the mapping; a later tick may retry placement
          }
        }
        shard.group_replicas[g] = {target};
        BumpNodeLoad(shard, target, 1);
        BumpNodeLoad(shard, node, -1);
        mutations_since_flush_.fetch_add(1, std::memory_order_relaxed);
        ++shard.metadata_epoch;  // group re-homed onto a survivor
        ++shard.mirror_epoch;
        ++event.groups_moved;
        continue;
      }

      // Replicated: recovery is replica-set surgery, not a full rebuild.
      // Losing the primary promotes a surviving secondary (journal
      // catch-up closes its lag); the degraded set then heals with a fresh
      // replica seeded from the journal on a non-member survivor.
      std::vector<NodeId>& replicas = shard.group_replicas[g];
      const bool was_primary = replicas.front() == node;
      replicas.erase(std::remove(replicas.begin(), replicas.end(), node),
                     replicas.end());
      if (replicas.empty()) {
        // Every copy died at once: fall back to the journal rebuild.
        NodeId target = LeastLoadedNode(shard);
        RecoverGroupRequest rreq;
        rreq.group = g;
        rreq.specs = catalog;
        auto call =
            transport_->Call(id_, target, "in.recover_group", Encode(rreq));
        cost += call.cost;
        event.cost += call.cost;
        if (call.status.ok()) {
          if (auto resp = Decode<RecoverGroupResponse>(call.payload);
              resp.ok()) {
            event.records_restored += resp->records_replayed;
          }
          replicas.push_back(target);
          BumpNodeLoad(shard, target, 1);
        } else {
          PLOG(WARNING) << "replicated recover_group " << g << " on node "
                        << target << " failed: " << call.status.ToString();
          replicas.push_back(node);  // keep the mapping; a later tick retries
          continue;
        }
      } else if (was_primary) {
        // Promote replicas.front(): replay the journal tail it has not yet
        // applied so reads see every committed (primary-acked) update.
        CatchUpRequest creq;
        creq.group = g;
        creq.specs = catalog;
        auto call = transport_->Call(id_, replicas.front(), "in.catch_up",
                                     Encode(creq));
        cost += call.cost;
        event.cost += call.cost;
        if (call.status.ok()) {
          if (auto resp = Decode<CatchUpResponse>(call.payload); resp.ok()) {
            event.records_restored += resp->records_replayed;
          }
        } else {
          PLOG(WARNING) << "promotion catch-up for group " << g << " on node "
                        << replicas.front()
                        << " failed: " << call.status.ToString();
        }
      }
      // Heal the replication degree: seed replacements from the journal on
      // live non-members (in.catch_up creates the group when absent).
      const size_t want = static_cast<size_t>(config_.replication_factor);
      if (replicas.size() < want) {
        for (NodeId fresh :
             LeastLoadedNodes(shard, want - replicas.size(), replicas)) {
          CatchUpRequest creq;
          creq.group = g;
          creq.specs = catalog;
          auto call = transport_->Call(id_, fresh, "in.catch_up", Encode(creq));
          cost += call.cost;
          event.cost += call.cost;
          if (!call.status.ok()) {
            PLOG(WARNING) << "replica seed for group " << g << " on node "
                          << fresh << " failed: " << call.status.ToString();
            continue;
          }
          if (auto resp = Decode<CatchUpResponse>(call.payload); resp.ok()) {
            event.records_restored += resp->records_replayed;
          }
          replicas.push_back(fresh);
          BumpNodeLoad(shard, fresh, 1);
        }
      }
      BumpNodeLoad(shard, node, -1);
      mutations_since_flush_.fetch_add(1, std::memory_order_relaxed);
      ++shard.metadata_epoch;  // replica set changed; cached routing stale
      ++shard.mirror_epoch;
      ++event.groups_moved;
    }
  }
  MaybeFlushMetadata(cost);
  groups_recovered_->Add(event.groups_moved);
  span.Tag("groups_moved", static_cast<uint64_t>(event.groups_moved));
  span.Tag("records_restored", event.records_restored);
  MutexLock lock(mu_);
  events_.push_back(std::move(event));
}

std::vector<NodeId> MasterNode::DeadNodes() const {
  MutexLock lock(liveness_mu_);
  std::vector<NodeId> nodes;
  nodes.reserve(dead_.size());
  for (const auto& [n, rehomed] : dead_) nodes.push_back(n);
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

std::optional<NodeId> MasterNode::NodeOfGroup(GroupId group) const {
  const Shard& shard =
      *shards_[ShardOfGroup(group, static_cast<uint32_t>(shards_.size()))];
  MutexLock lock(shard.mu_);
  auto it = shard.group_replicas.find(group);
  if (it == shard.group_replicas.end()) return std::nullopt;
  return it->second.front();
}

std::vector<NodeId> MasterNode::ReplicasOfGroup(GroupId group) const {
  const Shard& shard =
      *shards_[ShardOfGroup(group, static_cast<uint32_t>(shards_.size()))];
  MutexLock lock(shard.mu_);
  auto it = shard.group_replicas.find(group);
  if (it == shard.group_replicas.end()) return {};
  return it->second;
}

uint64_t MasterNode::NumGroups() const {
  uint64_t total = 0;
  for (const auto& sp : shards_) {
    const Shard& shard = *sp;
    MutexLock lock(shard.mu_);
    total += shard.group_replicas.size();
  }
  return total;
}

uint64_t MasterNode::MetadataEpoch() const {
  uint64_t max_epoch = 0;
  for (const auto& sp : shards_) {
    const Shard& shard = *sp;
    MutexLock lock(shard.mu_);
    max_epoch = std::max(max_epoch, shard.metadata_epoch);
  }
  return max_epoch;
}

uint64_t MasterNode::MetadataEpochOfShard(uint32_t shard_index) const {
  const Shard& shard = *shards_.at(shard_index);
  MutexLock lock(shard.mu_);
  return shard.metadata_epoch;
}

NodeId MasterNode::LeaseHolderOfShard(uint32_t shard_index) const {
  const Shard& shard = *shards_.at(shard_index);
  MutexLock lock(shard.mu_);
  return shard.lease_holder;
}

std::string MasterNode::SnapshotMetadata() const {
  return SnapshotMetadataImage();
}

std::string MasterNode::SnapshotMetadataImage() const {
  const std::vector<IndexSpec> catalog = CatalogSnapshot();
  const uint32_t n = static_cast<uint32_t>(shards_.size());
  // Gather per-shard state one mutex at a time (never two shard mutexes at
  // once).  In the simulated single-threaded driver this is an exact
  // snapshot, like an image taken under one coarse lock.
  std::vector<GroupReplicaSet> sets;
  std::vector<std::pair<GroupId, std::string>> blobs;
  std::vector<uint64_t> epochs(n, 0);
  for (uint32_t s = 0; s < n; ++s) {
    const Shard& shard = *shards_[s];
    MutexLock lock(shard.mu_);
    for (const auto& [group, replicas] : shard.group_replicas) {
      sets.push_back({group, replicas});
    }
    for (GroupId g : shard.acg.Groups()) {
      const acg::Acg* a = shard.acg.GroupAcg(g);
      BinaryWriter inner;
      if (a != nullptr) a->Serialize(inner);
      blobs.emplace_back(g, std::move(inner).Take());
    }
    epochs[s] = shard.metadata_epoch;
  }
  // Sorted by group id: the image's bytes must be a pure function of the
  // placement tables, not of hash-map iteration order.
  std::sort(sets.begin(), sets.end(),
            [](const auto& a, const auto& b) { return a.group < b.group; });
  std::sort(blobs.begin(), blobs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  // Layout: catalog, replica sets, per-group ACG blobs (the file -> group
  // mapping), per-shard epochs.
  BinaryWriter w;
  w.PutU32(static_cast<uint32_t>(catalog.size()));
  for (const IndexSpec& s : catalog) s.Serialize(w);
  PutReplicaSets(w, sets);
  w.PutU32(static_cast<uint32_t>(blobs.size()));
  for (const auto& [g, blob] : blobs) {
    w.PutU64(g);
    w.PutString(blob);
  }
  w.PutU32(n);
  for (uint64_t e : epochs) w.PutU64(e);
  return std::move(w).Take();
}

Status MasterNode::RestoreMetadata(const std::string& image) {
  // Parse the whole image first so a corrupt one leaves the master
  // untouched, then swap the state in per shard.
  BinaryReader r(image);
  uint32_t nc = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(nc));
  std::vector<IndexSpec> catalog;
  for (uint32_t i = 0; i < nc; ++i) {
    IndexSpec s;
    PROPELLER_RETURN_IF_ERROR(IndexSpec::Deserialize(r, s));
    catalog.push_back(std::move(s));
  }
  std::vector<GroupReplicaSet> sets;
  PROPELLER_RETURN_IF_ERROR(GetReplicaSets(r, sets));
  uint32_t na = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(na));
  std::vector<std::pair<GroupId, acg::Acg>> subgraphs;
  for (uint32_t i = 0; i < na; ++i) {
    GroupId g = 0;
    PROPELLER_RETURN_IF_ERROR(r.GetU64(g));
    std::string blob;
    PROPELLER_RETURN_IF_ERROR(r.GetString(blob));
    if (blob.empty()) continue;
    BinaryReader ar(blob);
    acg::Acg a;
    PROPELLER_RETURN_IF_ERROR(acg::Acg::Deserialize(ar, a));
    subgraphs.emplace_back(g, std::move(a));
  }
  uint32_t ne = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(ne));
  std::vector<uint64_t> shard_epochs;
  for (uint32_t i = 0; i < ne; ++i) {
    uint64_t e = 0;
    PROPELLER_RETURN_IF_ERROR(r.GetU64(e));
    shard_epochs.push_back(e);
  }

  const uint32_t n = static_cast<uint32_t>(shards_.size());
  {
    MutexLock lock(mu_);
    catalog_ = std::move(catalog);
  }
  std::unordered_set<NodeId> dead;
  {
    MutexLock lock(liveness_mu_);
    for (const auto& [nd, rehomed] : dead_) dead.insert(nd);
  }
  for (uint32_t s = 0; s < n; ++s) {
    Shard& shard = *shards_[s];
    MutexLock lock(shard.mu_);
    shard.group_replicas.clear();
    for (auto& [nd, load] : shard.node_load) load = 0;
    // Rebuild the ACG manager from the per-group subgraphs, preserving the
    // original group ids (and this shard's id residue class).
    shard.acg = acg::AcgManager(config_.acg_policy, s + 1, n);
    shard.lease_holder = 0;
    shard.lease_expiry_s = 0;
    shard.lease_pushed_epoch = 0;
    // Restore one *past* the flushed epoch: the image may predate
    // un-flushed mutations, so a failed-over master must not re-issue an
    // epoch clients may already hold for newer state.
    if (s < shard_epochs.size()) shard.metadata_epoch = shard_epochs[s] + 1;
    ++shard.mirror_epoch;  // restored state: any pushed mirror is stale
  }
  // Placement table and load view: one load unit per copy.
  for (GroupReplicaSet& rs : sets) {
    if (rs.nodes.empty()) continue;
    Shard& shard = *shards_[ShardOfGroup(rs.group, n)];
    MutexLock lock(shard.mu_);
    for (NodeId nd : rs.nodes) ++shard.node_load[nd];
    shard.group_replicas[rs.group] = std::move(rs.nodes);
  }
  for (const auto& [g, a] : subgraphs) {
    Shard& shard = *shards_[ShardOfGroup(g, n)];
    MutexLock lock(shard.mu_);
    shard.acg.RestoreGroup(g, a);
  }
  // Rebuild the ordered placement index from the recounted loads;
  // declared-dead nodes stay excluded until they heartbeat back.
  for (uint32_t s = 0; s < n; ++s) {
    Shard& shard = *shards_[s];
    MutexLock lock(shard.mu_);
    shard.load_index.clear();
    for (const auto& [nd, load] : shard.node_load) {
      if (dead.count(nd) == 0u) shard.load_index.insert({load, nd});
    }
  }
  return Status::Ok();
}

void MasterNode::MaybeFlushMetadata(sim::Cost& cost) {
  if (mutations_since_flush_.load(std::memory_order_relaxed) <
      config_.metadata_flush_interval) {
    return;
  }
  cost += ForceMetadataFlush();
}

sim::Cost MasterNode::ForceMetadataFlush() {
  std::string image = SnapshotMetadataImage();
  MutexLock lock(mu_);
  obs::SpanGuard span("mn.metadata_flush", flush_count_, id_);
  metadata_flushes_->Add(1);
  sim::Cost cost = metadata_store_.Append(image.size());
  span.Tag("bytes", static_cast<uint64_t>(image.size()));
  span.Advance(cost);
  mutations_since_flush_.store(0, std::memory_order_relaxed);
  ++flush_count_;
  if (metadata_sink_) metadata_sink_(image);
  return cost;
}

}  // namespace propeller::core
