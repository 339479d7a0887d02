#include "core/master_node.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <unordered_set>

#include "common/logging.h"
#include "obs/trace.h"

namespace propeller::core {

MasterNode::MasterNode(NodeId id, net::Transport* transport, MasterConfig config)
    : id_(id),
      transport_(transport),
      config_(config),
      want_copies_(static_cast<size_t>(std::max(config.replication_factor, 1))),
      acg_(config_.acg_policy),
      metadata_store_(shared_storage_.CreateStore()),
      handle_calls_(&metrics_.GetCounter("mn.handle.calls")),
      metadata_flushes_(&metrics_.GetCounter("mn.metadata.flushes")),
      recoveries_(&metrics_.GetCounter("mn.recoveries")),
      groups_recovered_(&metrics_.GetCounter("mn.groups_recovered")),
      handle_latency_(&metrics_.GetHistogram("mn.handle.latency_s")),
      resolve_queue_wait_(
          &metrics_.GetHistogram("mn.resolve_queue.wait_s")),
      resolve_queue_contended_(
          &metrics_.GetCounter("mn.resolve_queue.contended")) {
  routes_ = {{"mn.resolve_update", &MasterNode::HandleResolveUpdate, nullptr},
             {"mn.resolve_search", &MasterNode::HandleResolveSearch, nullptr},
             {"mn.create_index", &MasterNode::HandleCreateIndex, nullptr},
             {"mn.flush_acg", &MasterNode::HandleFlushAcg, nullptr},
             {"mn.heartbeat", &MasterNode::HandleHeartbeat, nullptr},
             {"mn.tick", &MasterNode::HandleTick, nullptr}};
  for (Route& r : routes_) {
    r.calls = &metrics_.GetCounter("mn.calls." + std::string(r.method));
  }
}

void MasterNode::AddIndexNode(NodeId node) {
  {
    MutexLock lock(liveness_mu_);
    index_nodes_.push_back(node);
  }
  MutexLock lock(metadata_mu_);
  if (node_load_.emplace(node, 0).second) load_index_.insert({0, node});
}

// The ordered (load, node) index replaces an O(n) scan; ties break by node
// id (nodes register in ascending id order).
std::vector<NodeId> MasterNode::LeastLoadedNodes(
    size_t k, const std::vector<NodeId>& exclude) const {
  std::vector<NodeId> out;
  for (const auto& [load, node] : load_index_) {
    if (out.size() >= k) break;
    if (transport_->IsDown(node)) continue;
    if (std::find(exclude.begin(), exclude.end(), node) != exclude.end()) {
      continue;
    }
    out.push_back(node);
  }
  return out;
}

void MasterNode::SetNodeLoad(NodeId node, uint64_t load, bool eligible) {
  auto it = node_load_.find(node);
  const uint64_t old = it == node_load_.end() ? 0 : it->second;
  node_load_[node] = load;
  const bool was_eligible = load_index_.erase({old, node}) != 0;
  if (eligible || was_eligible) load_index_.insert({load, node});
}

void MasterNode::BumpNodeLoad(NodeId node, int64_t delta) {
  auto it = node_load_.find(node);
  const uint64_t old = it == node_load_.end() ? 0 : it->second;
  uint64_t now = old;
  if (delta < 0) {
    const uint64_t dec = static_cast<uint64_t>(-delta);
    now = old > dec ? old - dec : 0;  // clamp: never underflow
  } else {
    now = old + static_cast<uint64_t>(delta);
  }
  node_load_[node] = now;
  // Declared-dead nodes are absent from the index and must stay absent.
  if (load_index_.erase({old, node}) != 0) load_index_.insert({now, node});
}

void MasterNode::CollectReplicaSets(const std::vector<GroupId>& groups,
                                    std::vector<GroupReplicaSet>& out) const {
  for (GroupId g : groups) {
    auto it = group_replicas_.find(g);
    if (it == group_replicas_.end()) continue;
    out.push_back({g, it->second});
  }
}

std::vector<IndexSpec> MasterNode::CatalogSnapshot() const {
  MutexLock lock(mu_);
  return catalog_;
}

double MasterNode::ChargeResolveQueue(double arrival_s, double service_s) {
  if (!config_.model_resolve_queue || arrival_s <= 0) return 0;
  // Admit drains the finishes this arrival passed; unbounded, it never
  // refuses.
  resolve_queue_.Admit(arrival_s);
  const double wait =
      resolve_queue_.Finish(arrival_s, service_s).start - arrival_s;
  if (wait > 0) resolve_queue_contended_->Add(1);
  resolve_queue_wait_->Observe(wait);
  return wait;
}

net::RpcHandler::Response MasterNode::Handle(const std::string& method,
                                             const std::string& payload) {
  handle_calls_->Add(1);
  auto route = std::find_if(routes_.begin(), routes_.end(),
                            [&](const Route& r) { return r.method == method; });
  Response resp;
  if (route != routes_.end()) {
    route->calls->Add(1);
    resp = (this->*route->handler)(payload);
  } else {
    metrics_.GetCounter("mn.calls." + method).Add(1);
    resp = Response{Status::NotFound("unknown method " + method), {}, {}};
  }
  handle_latency_->Observe(resp.cost.seconds());
  return resp;
}

Result<NodeId> MasterNode::EnsureGroupPlaced(
    GroupId group, const std::vector<IndexSpec>& catalog, sim::Cost& cost) {
  auto it = group_replicas_.find(group);
  if (it != group_replicas_.end()) return it->second.front();

  // Pick the replica set: the r least-loaded distinct live nodes (fewer
  // when fewer are live — a later reconcile heals the set up).
  std::vector<NodeId> replicas = LeastLoadedNodes(want_copies_, {});
  if (replicas.empty()) {
    return Status::Unavailable("no live node for group " +
                               std::to_string(group));
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
  for (NodeId node : placed) BumpNodeLoad(node, 1);
  NodeId primary = placed.front();
  group_replicas_[group] = std::move(placed);
  mutations_since_flush_.fetch_add(1, std::memory_order_relaxed);
  ++metadata_epoch_;  // new group visible to searches
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

sim::Cost MasterNode::ApplyAcgResult(const acg::AcgManager::ApplyResult& result,
                                     const std::vector<IndexSpec>& catalog) {
  sim::Cost cost;
  // New placements: make sure the group exists somewhere.
  for (const auto& [file, group] : result.placements) {
    sim::Cost c;
    auto placed = EnsureGroupPlaced(group, catalog, c);
    cost += c;
    if (!placed.ok()) {
      PLOG(WARNING) << "placement failed for group " << group << ": "
                    << placed.status().ToString();
    }
    mutations_since_flush_.fetch_add(1, std::memory_order_relaxed);
  }
  // Merges: group `from` dissolved into `into`; move its index data.
  for (const auto& merge : result.merges) {
    auto from_it = group_replicas_.find(merge.from);
    if (from_it == group_replicas_.end()) continue;  // never materialized
    // Copy before EnsureGroupPlaced below can rehash the map.
    std::vector<NodeId> from_replicas = from_it->second;
    NodeId from_node = from_replicas.front();
    sim::Cost c;
    auto into_node = EnsureGroupPlaced(merge.into, catalog, c);
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
    for (NodeId n : from_replicas) BumpNodeLoad(n, -1);
    group_replicas_.erase(merge.from);
    mutations_since_flush_.fetch_add(1, std::memory_order_relaxed);
    ++metadata_epoch_;  // group dissolved; cached placements are stale
  }
  return cost;
}

net::RpcHandler::Response MasterNode::HandleResolveUpdate(
    const std::string& payload) {
  auto req = Decode<ResolveUpdateRequest>(payload);
  if (!req.ok()) return Response{req.status(), {}, {}};
  ResolveUpdateResponse resp;
  // An empty request makes no statement (epoch 0) and never queues.
  if (req->files.empty()) return Response{Status::Ok(), Encode(resp), {}};

  const std::vector<IndexSpec> catalog = CatalogSnapshot();
  const double lookup_s =
      config_.lookup_us / 1e6 * static_cast<double>(req->files.size());
  sim::Cost cost(lookup_s);
  resp.placements.reserve(req->files.size());
  {
    MutexLock lock(metadata_mu_);
    for (FileId f : req->files) {
      auto group = acg_.GroupOf(f);
      if (!group) {
        // Unknown file: the master allocates metadata for it (Section IV:
        // "MN first allocates the metadata for this new ACG").
        acg::Acg singleton;
        singleton.AddVertex(f);
        cost += ApplyAcgResult(acg_.ApplyDelta(singleton), catalog);
        group = acg_.GroupOf(f);
      }
      sim::Cost place_cost;
      auto node = EnsureGroupPlaced(*group, catalog, place_cost);
      cost += place_cost;
      if (!node.ok()) return Response{node.status(), {}, cost};
      resp.placements.push_back({f, *group, *node});
    }
    cost += sim::Cost(ChargeResolveQueue(req->arrival_s, lookup_s));
    // Read *after* any placements above so the client caches the epoch
    // that already covers them.
    resp.metadata_epoch = metadata_epoch_;
    if (config_.replication_factor > 1) {
      std::vector<GroupId> groups;
      groups.reserve(resp.placements.size());
      for (const auto& p : resp.placements) groups.push_back(p.group);
      std::sort(groups.begin(), groups.end());
      groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
      CollectReplicaSets(groups, resp.replicas);
    }
  }
  MaybeFlushMetadata(cost);
  return Response{Status::Ok(), Encode(resp), cost};
}

net::RpcHandler::Response MasterNode::HandleResolveSearch(
    const std::string& payload) {
  auto req = Decode<ResolveSearchRequest>(payload);
  if (!req.ok()) return Response{req.status(), {}, {}};

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
  // under replication so clients can hedge to a secondary.
  std::unordered_map<NodeId, std::vector<GroupId>> by_node;
  ResolveSearchResponse resp;
  sim::Cost cost;
  {
    MutexLock lock(metadata_mu_);
    for (const auto& [group, replicas] : group_replicas_) {
      by_node[replicas.front()].push_back(group);
    }
    if (config_.replication_factor > 1) {
      std::vector<GroupId> groups;
      groups.reserve(group_replicas_.size());
      for (const auto& [group, replicas] : group_replicas_) {
        groups.push_back(group);
      }
      std::sort(groups.begin(), groups.end());
      CollectReplicaSets(groups, resp.replicas);
    }
    const double lookup_s = config_.lookup_us / 1e6 *
                            static_cast<double>(group_replicas_.size() + 1);
    cost = sim::Cost(lookup_s);
    cost += sim::Cost(ChargeResolveQueue(req->arrival_s, lookup_s));
    resp.metadata_epoch = metadata_epoch_;
  }

  for (auto& [node, groups] : by_node) {
    std::sort(groups.begin(), groups.end());
    resp.targets.push_back({node, std::move(groups)});
  }
  std::sort(resp.targets.begin(), resp.targets.end(),
            [](const auto& a, const auto& b) { return a.node < b.node; });
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
  // The catalog changed: every cached search routing is stale.
  std::vector<std::pair<GroupId, std::vector<NodeId>>> placed;
  {
    MutexLock lock(metadata_mu_);
    ++metadata_epoch_;
    placed.assign(group_replicas_.begin(), group_replicas_.end());
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

  const std::vector<IndexSpec> catalog = CatalogSnapshot();
  sim::Cost cost(config_.lookup_us / 1e6 *
                 static_cast<double>(req->delta.NumEdges() + 1));
  // An empty delta runs no split maintenance: it added no edges to split
  // over.
  if (!req->delta.empty()) {
    MutexLock lock(metadata_mu_);
    cost += ApplyAcgResult(acg_.ApplyDelta(req->delta), catalog);
    cost += RunSplitMaintenanceLocked(catalog);
  }
  MaybeFlushMetadata(cost);
  return Response{Status::Ok(), {}, cost};
}

sim::Cost MasterNode::RunSplitMaintenance() {
  const std::vector<IndexSpec> catalog = CatalogSnapshot();
  MutexLock lock(metadata_mu_);
  return RunSplitMaintenanceLocked(catalog);
}

sim::Cost MasterNode::RunSplitMaintenanceLocked(
    const std::vector<IndexSpec>& catalog) {
  sim::Cost cost;
  for (const auto& plan : acg_.SplitOversizedGroups()) {
    auto src_it = group_replicas_.find(plan.group);
    if (src_it == group_replicas_.end()) continue;
    // Split migrates off the primary; its journal records the per-file
    // deletes, so secondaries converge on their next catch-up tick.
    NodeId src_node = src_it->second.front();

    sim::Cost place_cost;
    auto dst = EnsureGroupPlaced(plan.new_group, catalog, place_cost);
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
    ++metadata_epoch_;  // files moved to the split-off group
  }
  return cost;
}

size_t MasterNode::RunRebalance(sim::Cost* cost, uint64_t slack) {
  size_t moved = 0;
  sim::Cost unused;
  sim::Cost& total = cost != nullptr ? *cost : unused;
  const std::vector<IndexSpec> catalog = CatalogSnapshot();
  {
    MutexLock lock(metadata_mu_);
    if (node_load_.size() < 2) return moved;
    for (;;) {
      // Recompute the current spread from the placement table (the load
      // view from heartbeats can lag behind our own migrations).
      // Replicated clusters balance primaries; secondaries follow their
      // groups.
      std::unordered_map<NodeId, std::vector<GroupId>> by_node;
      for (const auto& [node, load] : node_load_) by_node[node];
      for (const auto& [group, replicas] : group_replicas_) {
        by_node[replicas.front()].push_back(group);
      }
      // Placement-eligible nodes (declared-dead nodes are absent from the
      // ordered index).
      std::unordered_set<NodeId> eligible;
      for (const auto& [load, node] : load_index_) eligible.insert(node);

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
        const std::vector<NodeId>& replicas = group_replicas_[g];
        if (std::find(replicas.begin() + 1, replicas.end(), idlest) !=
            replicas.end()) {
          continue;
        }
        uint64_t size = acg_.GroupSize(g);
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
      group_replicas_[victim].front() = idlest;
      BumpNodeLoad(busiest, -1);
      BumpNodeLoad(idlest, 1);
      mutations_since_flush_.fetch_add(1, std::memory_order_relaxed);
      ++metadata_epoch_;  // group changed nodes: cached routing stale
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

  // A heartbeat from a declared-dead node makes it returning; it stays
  // dead, and out of the placement pool, until Reconcile revives it.
  bool dead = false;
  {
    MutexLock lock(liveness_mu_);
    last_heartbeat_s_[req->node] = req->now_s;
    dead = dead_.count(req->node) != 0u;
    if (dead) returning_[req->node] = req->groups;
  }

  // Load sync: this node's group count.
  {
    MutexLock lock(metadata_mu_);
    SetNodeLoad(req->node, req->groups.size(), /*eligible=*/!dead);
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
      auto it = last_heartbeat_s_.find(n);
      if (it == last_heartbeat_s_.end()) continue;  // never heard from it
      if (req->now_s - it->second <= window) continue;
      if (dead_.count(n) == 0u) missing.push_back(n);
      returning_.erase(n);  // a returning node that went quiet again
    }
  }
  for (NodeId n : missing) {
    cost += sim::Cost(config_.lookup_us / 1e6);
    RecoverDeadNode(n, req->now_s);
  }
  Reconcile(cost);
  return Response{Status::Ok(), {}, cost};
}

void MasterNode::RecoverDeadNode(NodeId node, double now_s) {
  PLOG(WARNING) << "node " << node << " missed "
                << config_.heartbeat_miss_threshold
                << " heartbeats; declaring dead";
  recoveries_->Add(1);
  {
    MutexLock lock(liveness_mu_);
    dead_.insert(node);
  }
  MutexLock lock(metadata_mu_);
  auto it = node_load_.find(node);
  if (it != node_load_.end()) load_index_.erase({it->second, node});
  events_.push_back({now_s, node, 0, 0});
}

std::vector<GroupId> MasterNode::DegradedGroups(
    const std::set<NodeId>& dead) const {
  std::vector<GroupId> out;
  for (const auto& [g, replicas] : group_replicas_) {
    const bool names_dead =
        std::any_of(replicas.begin(), replicas.end(),
                    [&](NodeId n) { return dead.count(n) != 0u; });
    if (names_dead || (replicas.size() < want_copies_ &&
                       !LeastLoadedNodes(1, replicas).empty())) {
      out.push_back(g);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void MasterNode::Reconcile(sim::Cost& cost) {
  std::set<NodeId> dead;
  std::map<NodeId, std::vector<HeartbeatRequest::GroupStat>> returning;
  {
    MutexLock lock(liveness_mu_);
    dead = dead_;
    returning = returning_;
  }
  // At r = 1 with no dead node every set is one live copy: nothing to do.
  if (dead.empty() && want_copies_ == 1) return;
  if (returning.empty()) {
    MutexLock lock(metadata_mu_);
    if (DegradedGroups(dead).empty()) return;
  }
  const std::vector<IndexSpec> catalog = CatalogSnapshot();
  std::vector<NodeId> revived;
  {
    MutexLock lock(metadata_mu_);
    // The nested transport calls advance the ambient clock themselves, so
    // this span's extent is the whole pass.
    obs::SpanGuard span("mn.reconcile", 0, id_);
    // The latest RecoveryEvent of `node` (null: none); repair work is
    // charged to it.
    auto event_of = [&](NodeId node) -> RecoveryEvent* {
      for (auto e = events_.rbegin(); e != events_.rend(); ++e) {
        if (e->node == node) return &*e;
      }
      return nullptr;
    };
    auto call = [&](NodeId target, const char* method, std::string request) {
      auto c = transport_->Call(id_, target, method, std::move(request));
      cost += c.cost;
      if (!c.status.ok()) {
        PLOG(WARNING) << method << " on node " << target
                      << " failed: " << c.status.ToString();
      }
      return c;
    };
    auto catch_up = [&](NodeId target, GroupId g, RecoveryEvent* charge) {
      auto c = call(target, "in.catch_up", Encode(CatchUpRequest{g, catalog}));
      auto resp = Decode<CatchUpResponse>(c.payload);
      if (!c.status.ok() || !resp.ok()) return false;
      if (charge != nullptr) charge->records_restored += resp->records_replayed;
      return true;
    };

    // Revival: a returning node counts as live once every set it still
    // belongs to has caught it up and it has dropped its copies of groups
    // that moved away (wiped whole when it belongs to no set).
    for (const auto& [node, held] : returning) {
      std::vector<GroupId> member_of;
      for (const auto& [g, replicas] : group_replicas_) {
        if (std::count(replicas.begin(), replicas.end(), node) != 0) {
          member_of.push_back(g);
        }
      }
      std::sort(member_of.begin(), member_of.end());
      std::vector<GroupId> strays;
      for (const auto& stat : held) {
        if (!std::binary_search(member_of.begin(), member_of.end(),
                                stat.group)) {
          strays.push_back(stat.group);
        }
      }
      bool ok = std::all_of(member_of.begin(), member_of.end(), [&](GroupId g) {
        return catch_up(node, g, event_of(node));
      });
      if (member_of.empty() && !strays.empty()) {
        ok = ok &&
             call(node, "in.reset", Encode(ResetNodeRequest{})).status.ok();
        strays.clear();
      }
      for (GroupId g : strays) {
        ok = ok && call(node, "in.drop_group", Encode(DropGroupRequest{g}))
                       .status.ok();
      }
      if (!ok) continue;  // still dead; the next tick retries
      SetNodeLoad(node, member_of.size(), /*eligible=*/true);
      dead.erase(node);
      revived.push_back(node);
    }

    auto is_dead = [&](NodeId n) { return dead.count(n) != 0u; };
    for (GroupId g : DegradedGroups(dead)) {
      std::vector<NodeId>& replicas = group_replicas_.at(g);
      const std::vector<NodeId> before = replicas;
      // Repairs are charged to the death of the set's first dead member; a
      // set short of copies with no dead member left is charged to none.
      auto first_dead = std::find_if(before.begin(), before.end(), is_dead);
      RecoveryEvent* charge =
          first_dead == before.end() ? nullptr : event_of(*first_dead);
      // Promote the first live member over a dead primary.  A failed
      // catch-up still promotes: the copy's next in.tick closes the gap.
      auto live = std::find_if_not(replicas.begin(), replicas.end(), is_dead);
      if (live != replicas.begin() && live != replicas.end()) {
        catch_up(*live, g, charge);
        std::rotate(replicas.begin(), live, live + 1);
      }
      // Seed live non-members up to max(r, 1) copies; only a seed that
      // caught up joins the set.
      auto copies = static_cast<size_t>(std::count_if(
          replicas.begin(), replicas.end(), std::not_fn(is_dead)));
      if (copies < want_copies_) {
        for (NodeId fresh : LeastLoadedNodes(want_copies_ - copies, replicas)) {
          if (!catch_up(fresh, g, charge)) continue;
          replicas.push_back(fresh);
          BumpNodeLoad(fresh, 1);
          ++copies;
        }
      }
      // Dead members leave only once a live copy exists.
      if (copies == 0) continue;
      for (NodeId n : replicas) {
        if (!is_dead(n)) continue;
        BumpNodeLoad(n, -1);
        if (RecoveryEvent* e = event_of(n)) ++e->groups_moved;
        groups_recovered_->Add(1);
      }
      std::erase_if(replicas, is_dead);
      if (replicas != before) {
        mutations_since_flush_.fetch_add(1, std::memory_order_relaxed);
        ++metadata_epoch_;  // replica set changed; cached routing stale
      }
    }
  }
  {
    MutexLock lock(liveness_mu_);
    for (NodeId n : revived) {
      dead_.erase(n);
      returning_.erase(n);
    }
  }
  MaybeFlushMetadata(cost);
}

std::vector<NodeId> MasterNode::DeadNodes() const {
  MutexLock lock(liveness_mu_);
  return {dead_.begin(), dead_.end()};
}

std::optional<NodeId> MasterNode::NodeOfGroup(GroupId group) const {
  MutexLock lock(metadata_mu_);
  auto it = group_replicas_.find(group);
  if (it == group_replicas_.end()) return std::nullopt;
  return it->second.front();
}

std::vector<NodeId> MasterNode::ReplicasOfGroup(GroupId group) const {
  MutexLock lock(metadata_mu_);
  auto it = group_replicas_.find(group);
  if (it == group_replicas_.end()) return {};
  return it->second;
}

uint64_t MasterNode::NumGroups() const {
  MutexLock lock(metadata_mu_);
  return group_replicas_.size();
}

uint64_t MasterNode::MetadataEpoch() const {
  MutexLock lock(metadata_mu_);
  return metadata_epoch_;
}

std::string MasterNode::SnapshotMetadata() const {
  MetadataImage image;
  image.catalog = CatalogSnapshot();
  {
    MutexLock lock(metadata_mu_);
    for (const auto& [group, replicas] : group_replicas_) {
      image.replicas.push_back({group, replicas});
    }
    for (GroupId g : acg_.Groups()) {
      const acg::Acg* a = acg_.GroupAcg(g);
      BinaryWriter blob;
      if (a != nullptr) a->Serialize(blob);
      image.acg_blobs.push_back({g, std::move(blob).Take()});
    }
    image.metadata_epoch = metadata_epoch_;
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
  // untouched, then swap the state in.
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

  {
    MutexLock lock(mu_);
    catalog_ = std::move(image->catalog);
  }
  std::set<NodeId> dead;
  {
    MutexLock lock(liveness_mu_);
    dead = dead_;
  }
  MutexLock lock(metadata_mu_);
  group_replicas_.clear();
  for (auto& [nd, load] : node_load_) load = 0;
  // Rebuild the ACG manager from the per-group subgraphs, preserving the
  // original group ids.
  acg_ = acg::AcgManager(config_.acg_policy);
  // Restore one *past* the flushed epoch: the image may predate un-flushed
  // mutations, so a failed-over master must not re-issue an epoch clients
  // may already hold for newer state.
  metadata_epoch_ = image->metadata_epoch + 1;
  // Placement table and load view: one load unit per copy.
  for (GroupReplicaSet& rs : image->replicas) {
    if (rs.nodes.empty()) continue;
    for (NodeId nd : rs.nodes) ++node_load_[nd];
    group_replicas_[rs.group] = std::move(rs.nodes);
  }
  for (const auto& [g, a] : subgraphs) acg_.RestoreGroup(g, a);
  // Rebuild the ordered placement index from the recounted loads;
  // declared-dead nodes stay excluded until they heartbeat back.
  load_index_.clear();
  for (const auto& [nd, load] : node_load_) {
    if (dead.count(nd) == 0u) load_index_.insert({load, nd});
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
  std::string image = SnapshotMetadata();
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
