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
  // Admit drains the finishes this arrival passed; unbounded, it never
  // refuses.
  shard.resolve_queue.Admit(arrival_s);
  const double wait =
      shard.resolve_queue.Finish(arrival_s, service_s).start - arrival_s;
  if (wait > 0) shard_contended_[shard_index]->Add(1);
  shard_queue_wait_->Observe(wait);
  return wait;
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

  // Pick the replica set: the r least-loaded distinct live nodes (fewer
  // when the cluster is smaller than r — the set heals up via recovery
  // later).  With every node down, fall back to LeastLoadedNode's pick so
  // the create RPC below reports the failure.
  std::vector<NodeId> replicas = LeastLoadedNodes(
      shard, static_cast<size_t>(std::max(config_.replication_factor, 1)), {});
  if (replicas.empty()) replicas.push_back(LeastLoadedNode(shard));

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
  return primary;
}

MasterNode::MoveLegs MasterNode::MoveGroupData(
    NodeId src, const MigrateOutRequest& out_req, NodeId dst, GroupId into,
    const std::vector<IndexSpec>& catalog, sim::Cost& cost) {
  MoveLegs legs;
  auto out_call = transport_->Call(id_, src, "in.migrate_out", Encode(out_req));
  cost += out_call.cost;
  legs.migrate_out = out_call.status;
  if (!legs.migrate_out.ok()) return legs;
  auto out_resp = Decode<MigrateOutResponse>(out_call.payload);
  legs.migrate_out = out_resp.status();
  if (!legs.migrate_out.ok()) return legs;

  InstallGroupRequest in_req;
  in_req.group = into;
  in_req.specs = catalog;
  in_req.records = std::move(out_resp->records);
  auto in_call = transport_->Call(id_, dst, "in.install_group", Encode(in_req));
  cost += in_call.cost;
  legs.install = in_call.status;
  return legs;
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
    Status moved =
        MoveGroupData(from_node, out_req, *into_node, merge.into, catalog, cost)
            .migrate_out;
    if (!moved.ok()) {
      PLOG(WARNING) << "migrate_out failed: " << moved.ToString();
      continue;
    }

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
  double queue_wait = 0;
  for (uint32_t s = 0; s < n; ++s) {
    if (by_shard[s].empty()) continue;  // epoch 0: no statement on shard s
    Shard& shard = *shards_[s];
    MutexLock lock(shard.mu_);
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
  double queue_wait = 0;
  ResolveSearchResponse resp;
  for (uint32_t s = 0; s < n; ++s) {
    Shard& shard = *shards_[s];
    MutexLock lock(shard.mu_);
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
  // Partition the delta: an edge survives iff both endpoints hash to the
  // same shard; a cross-shard edge degrades to two bare vertices (the
  // causal correlation is dropped — the sharding trade-off documented in
  // DESIGN.md).  Vertex-only entries go to their own shard.  At one
  // shard the partition is a copy of the delta.  A shard the delta does not
  // touch runs no split maintenance: it gained no edges to split over.
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
    if (!MoveGroupData(src_node, out_req, *dst, plan.new_group, catalog, cost)
             .migrate_out.ok()) {
      continue;
    }
    mutations_since_flush_.fetch_add(1, std::memory_order_relaxed);
    ++shard.metadata_epoch;  // files moved to the split-off group
  }
  return cost;
}

size_t MasterNode::RunRebalance(sim::Cost* cost, uint64_t slack) {
  size_t moved = 0;
  sim::Cost unused;
  sim::Cost& total = cost != nullptr ? *cost : unused;
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
      MoveLegs legs =
          MoveGroupData(busiest, out_req, idlest, victim, catalog, total);
      if (!legs.migrate_out.ok() || !legs.install.ok()) break;

      // The old primary dropped its copy (drop_group above); the idlest
      // node takes over as primary and any secondaries are untouched.
      shard.group_replicas[victim].front() = idlest;
      BumpNodeLoad(shard, busiest, -1);
      BumpNodeLoad(shard, idlest, 1);
      mutations_since_flush_.fetch_add(1, std::memory_order_relaxed);
      ++shard.metadata_epoch;  // group changed nodes: cached routing stale
      ++moved;
    }
  }
  MaybeFlushMetadata(total);
  return moved;
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
  {
    MutexLock lock(liveness_mu_);
    auto dead_it = dead_.find(req->node);
    if (dead_it != dead_.end()) {
      needs_reset = dead_it->second;
      dead_.erase(dead_it);
    }
    last_heartbeat_s_[req->node] = req->now_s;
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

  return Response{Status::Ok(), {}, cost};
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
  return Response{Status::Ok(), {}, cost};
}

void MasterNode::RecoverDeadNode(NodeId node, double now_s, sim::Cost& cost) {
  PLOG(WARNING) << "node " << node << " missed "
                << config_.heartbeat_miss_threshold
                << " heartbeats; declaring dead";
  recoveries_->Add(1);
  // The nested in.catch_up / in.create_group transport calls advance the
  // ambient clock themselves, so this span's extent is the whole
  // re-homing sweep.
  obs::SpanGuard span("mn.recover_node", node, id_);
  span.Tag("dead_node", static_cast<uint64_t>(node));
  RecoveryEvent event;
  event.at_s = now_s;
  event.node = node;

  const uint32_t n = static_cast<uint32_t>(shards_.size());
  const std::vector<IndexSpec> catalog = CatalogSnapshot();

  // Collect the dead node's groups per shard (sorted; shard-major order is
  // the legacy globally-sorted order at n = 1) and pull the node out of
  // every shard's placement index.
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

  // One path at every replication factor (r = 1 is a set of one): the
  // lost copy is a hole in the group's replica set, and the set heals
  // back to `want` copies through in.catch_up.  Losing the primary
  // promotes the first survivor, which replays the journal tail it
  // missed; fresh copies are seeded on live non-members (applied seq 0 =
  // full replay, or a rebuild when the journal was checkpointed).
  const size_t want =
      static_cast<size_t>(std::max(config_.replication_factor, 1));
  for (uint32_t s = 0; s < n; ++s) {
    if (groups[s].empty()) continue;
    Shard& shard = *shards_[s];
    MutexLock lock(shard.mu_);
    for (GroupId g : groups[s]) {
      auto catch_up = [&](NodeId target, const char* what) {
        CatchUpRequest creq;
        creq.group = g;
        creq.specs = catalog;
        auto call = transport_->Call(id_, target, "in.catch_up", Encode(creq));
        cost += call.cost;
        event.cost += call.cost;
        if (!call.status.ok()) {
          PLOG(WARNING) << what << " for group " << g << " on node " << target
                        << " failed: " << call.status.ToString();
          return false;
        }
        if (auto resp = Decode<CatchUpResponse>(call.payload); resp.ok()) {
          event.records_restored += resp->records_replayed;
        }
        return true;
      };
      std::vector<NodeId>& replicas = shard.group_replicas[g];
      const bool was_primary = replicas.front() == node;
      replicas.erase(std::remove(replicas.begin(), replicas.end(), node),
                     replicas.end());
      if (was_primary && !replicas.empty()) {
        catch_up(replicas.front(), "promotion catch-up");
      }
      if (replicas.size() < want) {
        for (NodeId fresh :
             LeastLoadedNodes(shard, want - replicas.size(), replicas)) {
          if (!catch_up(fresh, "replica seed")) continue;
          replicas.push_back(fresh);
          BumpNodeLoad(shard, fresh, 1);
        }
      }
      if (replicas.empty()) {
        // No copy could be seeded (no journal attached, or every seed
        // failed): keep routing valid with an empty replacement.  Without
        // a journal the data is lost; with one, the replacement's next
        // in.tick anti-entropy pass replays it (its applied seq is 0).
        const NodeId target = LeastLoadedNode(shard);
        CreateGroupRequest creq;
        creq.group = g;
        creq.specs = catalog;
        auto call =
            transport_->Call(id_, target, "in.create_group", Encode(creq));
        cost += call.cost;
        event.cost += call.cost;
        if (!call.status.ok()) {
          PLOG(WARNING) << "replacement group " << g << " creation failed: "
                        << call.status.ToString();
          replicas.push_back(node);  // keep the mapping
          continue;
        }
        replicas.push_back(target);
        BumpNodeLoad(shard, target, 1);
      }
      BumpNodeLoad(shard, node, -1);
      mutations_since_flush_.fetch_add(1, std::memory_order_relaxed);
      ++shard.metadata_epoch;  // replica set changed; cached routing stale
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

std::string MasterNode::SnapshotMetadata() const {
  return SnapshotMetadataImage();
}

std::string MasterNode::SnapshotMetadataImage() const {
  MetadataImage image;
  image.catalog = CatalogSnapshot();
  const uint32_t n = static_cast<uint32_t>(shards_.size());
  image.shard_epochs.resize(n);
  // Gather per-shard state one mutex at a time (never two shard mutexes at
  // once).  In the simulated single-threaded driver this is an exact
  // snapshot, like an image taken under one coarse lock.
  for (uint32_t s = 0; s < n; ++s) {
    const Shard& shard = *shards_[s];
    MutexLock lock(shard.mu_);
    for (const auto& [group, replicas] : shard.group_replicas) {
      image.replicas.push_back({group, replicas});
    }
    for (GroupId g : shard.acg.Groups()) {
      const acg::Acg* a = shard.acg.GroupAcg(g);
      BinaryWriter blob;
      if (a != nullptr) a->Serialize(blob);
      image.acg_blobs.push_back({g, std::move(blob).Take()});
    }
    image.shard_epochs[s] = shard.metadata_epoch;
  }
  // Sorted by group id: the image's bytes must be a pure function of the
  // placement tables, not of hash-map iteration order.
  std::sort(image.replicas.begin(), image.replicas.end(),
            [](const auto& a, const auto& b) { return a.group < b.group; });
  std::sort(image.acg_blobs.begin(), image.acg_blobs.end(),
            [](const auto& a, const auto& b) { return a.group < b.group; });
  return Encode(image);
}

Status MasterNode::RestoreMetadata(const std::string& payload) {
  // Parse the whole image first so a corrupt one leaves the master
  // untouched, then swap the state in per shard.
  auto image = Decode<MetadataImage>(payload);
  if (!image.ok()) return image.status();
  std::vector<std::pair<GroupId, acg::Acg>> subgraphs;
  for (const MetadataImage::GroupAcgBlob& b : image->acg_blobs) {
    if (b.blob.empty()) continue;
    BinaryReader ar(b.blob);
    acg::Acg a;
    PROPELLER_RETURN_IF_ERROR(acg::Acg::Deserialize(ar, a));
    if (!ar.AtEnd()) return Status::Corruption("trailing bytes in ACG blob");
    subgraphs.emplace_back(b.group, std::move(a));
  }
  std::vector<GroupReplicaSet>& sets = image->replicas;
  const std::vector<uint64_t>& shard_epochs = image->shard_epochs;

  const uint32_t n = static_cast<uint32_t>(shards_.size());
  {
    MutexLock lock(mu_);
    catalog_ = std::move(image->catalog);
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
    // Restore one *past* the flushed epoch: the image may predate
    // un-flushed mutations, so a failed-over master must not re-issue an
    // epoch clients may already hold for newer state.
    if (s < shard_epochs.size()) shard.metadata_epoch = shard_epochs[s] + 1;
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
