#include "core/client.h"

#include <algorithm>
#include <limits>
#include <map>
#include <tuple>
#include <utility>

#include "obs/fork_join.h"

namespace propeller::core {

namespace {

// Deterministic stateless jitter in [0, 1): a SplitMix64-style finalizer
// over (seed, destination, method, attempt).  No shared RNG — safe under
// parallel fan-out — and no draw happens unless a retry actually sleeps.
double JitterFraction(uint64_t seed, net::NodeId node,
                      const std::string& method, int attempt) {
  uint64_t x = seed ^ (static_cast<uint64_t>(node) * 0x9e3779b97f4a7c15ull);
  for (char c : method) {
    x = (x ^ static_cast<uint64_t>(static_cast<unsigned char>(c))) *
        0x100000001b3ull;
  }
  x ^= static_cast<uint64_t>(static_cast<unsigned int>(attempt)) << 32;
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

// The join of a fan-out forked at `base`: contiguous branches to one node
// ran back to back on it, and nodes ran in parallel, so the client resumes
// when the slowest node is done.  Moves the ambient clock to that instant
// and returns the fan-out's simulated latency.
template <class B>
sim::Cost Join(const std::vector<B>& branches, const obs::TraceCursor& base) {
  std::vector<sim::Cost> per_node;
  per_node.reserve(branches.size());
  for (size_t i = 0; i < branches.size(); ++i) {
    if (i == 0 || branches[i].node != branches[i - 1].node) {
      per_node.push_back(branches[i].cost);
    } else {
      per_node.back() += branches[i].cost;
    }
  }
  const sim::Cost slowest = sim::Cost::ParallelMax(per_node);
  obs::AdvanceTo(base, slowest.seconds());
  return slowest;
}

}  // namespace

net::Transport::CallResult PropellerClient::CallWithRetry(
    NodeId to, const std::string& method, std::string payload,
    double elapsed_s) {
  const RetryPolicy& rp = config_.retry;
  const int attempts = std::max(1, rp.max_attempts);
  const double deadline = rp.request_deadline_s;
  net::Transport::CallResult out;
  sim::Cost total;
  double backoff = rp.initial_backoff_s;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const bool last = attempt + 1 == attempts;
    rpc_attempts_->Add(1);
    if (attempt > 0) rpc_retries_->Add(1);
    {
      // One span per attempt; the transport's server span nests under it.
      // The key mixes attempt into the id so retries get distinct spans at
      // distinct (backoff-advanced) instants.
      obs::SpanGuard attempt_span(
          "rpc", static_cast<uint64_t>(to) ^
                     (static_cast<uint64_t>(attempt + 1) << 40));
      attempt_span.Tag("method", method);
      attempt_span.Tag("to", static_cast<uint64_t>(to));
      attempt_span.Tag("attempt", static_cast<uint64_t>(attempt + 1));
      // The transport consumes the payload; keep a copy while retries remain.
      out = transport_->Call(id_, to, method,
                             last ? std::move(payload) : std::string(payload));
      attempt_span.Tag("status", StatusCodeName(out.status.code()));
    }
    total += out.cost;
    out.cost = total;
    if (out.status.code() != StatusCode::kUnavailable) return out;
    if (deadline > 0 && elapsed_s + total.seconds() >= deadline) {
      out.status = Status::DeadlineExceeded(
          method + " to node " + std::to_string(to) + " exceeded " +
          std::to_string(deadline) + "s deadline after " +
          std::to_string(attempt + 1) + " attempt(s)");
      return out;
    }
    if (last) return out;
    double sleep = std::min(backoff, rp.max_backoff_s);
    sleep *= 1.0 + rp.jitter_frac * JitterFraction(rp.jitter_seed, to, method,
                                                   attempt);
    {
      obs::SpanGuard backoff_span(
          "backoff", static_cast<uint64_t>(to) ^
                         (static_cast<uint64_t>(attempt + 1) << 40));
      backoff_span.Tag("to", static_cast<uint64_t>(to));
      backoff_span.Advance(sim::Cost(sleep));
    }
    total += sim::Cost(sleep);
    if (deadline > 0 && elapsed_s + total.seconds() >= deadline) {
      out.cost = total;
      out.status = Status::DeadlineExceeded(
          method + " to node " + std::to_string(to) + " exceeded " +
          std::to_string(deadline) + "s deadline during backoff");
      return out;
    }
    backoff *= rp.backoff_multiplier;
  }
  return out;
}

PropellerClient::PropellerClient(NodeId id, net::Transport* transport,
                                 NodeId master, ClientConfig config,
                                 ThreadPool* rpc_pool)
    : id_(id),
      transport_(transport),
      master_(master),
      config_(config),
      rpc_pool_(rpc_pool),
      rpc_attempts_(&metrics_.GetCounter("client.rpc.attempts")),
      rpc_retries_(&metrics_.GetCounter("client.rpc.retries")),
      partial_searches_(&metrics_.GetCounter("client.search.partial")),
      cache_hits_(&metrics_.GetCounter("client.placement_cache.hits")),
      cache_misses_(&metrics_.GetCounter("client.placement_cache.misses")),
      stale_retries_(&metrics_.GetCounter("client.placement_cache.stale_retries")),
      hedges_(&metrics_.GetCounter("client.search.hedges")),
      hedge_wins_(&metrics_.GetCounter("client.search.hedge_wins")),
      hedge_cancelled_(&metrics_.GetCounter("client.search.hedge_cancelled")),
      stale_replica_retries_(
          &metrics_.GetCounter("client.search.stale_replica_retries")),
      shed_searches_(&metrics_.GetCounter("client.search.shed")),
      shed_updates_(&metrics_.GetCounter("client.update.shed")),
      search_latency_(&metrics_.GetHistogram("client.search.latency_s")),
      update_latency_(&metrics_.GetHistogram("client.batch_update.latency_s")),
      branch_latency_(&metrics_.GetHistogram("client.search.branch_latency_s")) {}

bool PropellerClient::LookupSearchTargets(const std::string& index_name,
                                          ResolveSearchResponse* targets,
                                          uint64_t* epoch) {
  MutexLock lock(cache_mu_);
  auto it = search_cache_.find(index_name);
  if (it == search_cache_.end()) return false;
  *targets = it->second;
  *epoch = search_epoch_;
  return true;
}

void PropellerClient::StoreSearchTargets(const std::string& index_name,
                                         const ResolveSearchResponse& resp) {
  const uint64_t epoch = resp.metadata_epoch;
  MutexLock lock(cache_mu_);
  // An older epoch is a raced older view.  A newer one means placement
  // changed since the cached entries were resolved — they may name groups
  // that merged or moved, so replace wholesale.
  if (epoch != 0 && epoch < search_epoch_) return;
  if (epoch > search_epoch_) {
    search_cache_.clear();
    search_epoch_ = epoch;
  }
  search_cache_[index_name] = resp;
}

void PropellerClient::LookupFilePlacements(
    const std::vector<FileUpdate>& updates,
    std::unordered_map<FileId, FilePlacement>* where, uint64_t* epoch,
    std::vector<FileId>* missing) {
  MutexLock lock(cache_mu_);
  *epoch = file_epoch_;
  for (const FileUpdate& u : updates) {
    if (where->count(u.file) != 0u) continue;
    auto it = file_cache_.find(u.file);
    if (it != file_cache_.end()) {
      (*where)[u.file] = it->second;
    } else {
      missing->push_back(u.file);
    }
  }
}

void PropellerClient::StoreFilePlacements(const ResolveUpdateResponse& resp) {
  const uint64_t epoch = resp.metadata_epoch;
  if (epoch == 0) return;  // no statement: nothing to cache against
  MutexLock lock(cache_mu_);
  // An epoch past the one the cached search targets were resolved at means
  // this client's own writes may have landed in groups those targets do
  // not name (read-your-writes), so they are dropped.
  if (epoch > search_epoch_) search_cache_.clear();
  // An older epoch keeps the cache and rejects the stale placements; a
  // newer one invalidates every cached placement.
  if (epoch < file_epoch_) return;
  if (epoch > file_epoch_) {
    file_cache_.clear();
    file_epoch_ = epoch;
  }
  for (const auto& p : resp.placements) {
    file_cache_[p.file] = FilePlacement{p.group, p.node};
  }
}

void PropellerClient::InvalidateRoutingCache() {
  MutexLock lock(cache_mu_);
  search_cache_.clear();
  file_cache_.clear();
  // Replica sets are routing too; the floors are not (acked writes stay
  // acked regardless of where the replicas live now).
  replica_cache_.clear();
}

void PropellerClient::StoreReplicaSets(
    const std::vector<GroupReplicaSet>& sets) {
  if (sets.empty()) return;
  MutexLock lock(cache_mu_);
  for (const GroupReplicaSet& rs : sets) replica_cache_[rs.group] = rs.nodes;
}

std::vector<std::vector<NodeId>> PropellerClient::ReplicaSetsOf(
    const std::vector<GroupId>& groups, bool* any_known) const {
  std::vector<std::vector<NodeId>> sets(groups.size());
  MutexLock lock(cache_mu_);
  *any_known = !replica_cache_.empty();
  for (size_t i = 0; i < groups.size(); ++i) {
    auto it = replica_cache_.find(groups[i]);
    if (it != replica_cache_.end()) sets[i] = it->second;
  }
  return sets;
}

void PropellerClient::RecordAckedSeq(GroupId group, uint64_t seq) {
  if (seq == 0) return;
  MutexLock lock(cache_mu_);
  uint64_t& floor = seq_floor_[group];
  floor = std::max(floor, seq);
}

std::unordered_map<GroupId, uint64_t> PropellerClient::SeqFloorsOf(
    const ResolveSearchResponse& targets) const {
  std::unordered_map<GroupId, uint64_t> floors;
  MutexLock lock(cache_mu_);
  for (const auto& target : targets.targets) {
    for (GroupId g : target.groups) {
      auto it = seq_floor_.find(g);
      if (it != seq_floor_.end() && it->second > 0) floors[g] = it->second;
    }
  }
  return floors;
}

double PropellerClient::HedgeThreshold() const {
  const ClientConfig::HedgePolicy& hp = config_.hedge;
  if (branch_latency_->count() < hp.min_samples) {
    return std::numeric_limits<double>::infinity();
  }
  const double q = branch_latency_->Snapshot().Percentile(hp.quantile * 100.0);
  return std::max(hp.min_s, q);
}

void PropellerClient::AttachVfs(fs::Vfs* vfs) { vfs->AddListener(&builder_); }

Result<sim::Cost> PropellerClient::FlushAcg() {
  if (!builder_.HasPendingDelta()) return sim::Cost::Zero();
  obs::TraceRoot root(tracer_, "client.flush_acg", id_,
                      trace_seq_.fetch_add(1, std::memory_order_relaxed),
                      clock_s_ != nullptr ? *clock_s_ : 0.0, id_);
  FlushAcgRequest req;
  req.delta = builder_.TakeDelta();
  auto call = CallWithRetry(master_, "mn.flush_acg", Encode(req));
  if (!call.status.ok()) return call.status;
  return call.cost;
}

Result<sim::Cost> PropellerClient::CreateIndex(const IndexSpec& spec) {
  obs::TraceRoot root(tracer_, "client.create_index", id_,
                      trace_seq_.fetch_add(1, std::memory_order_relaxed),
                      clock_s_ != nullptr ? *clock_s_ : 0.0, id_);
  CreateIndexRequest req;
  req.spec = spec;
  auto call = CallWithRetry(master_, "mn.create_index", Encode(req));
  if (!call.status.ok()) return call.status;
  return call.cost;
}

template <class B, class Run, class Repairable, class Reroute, class Settle>
Status PropellerClient::FanOut(std::vector<B>& branches, bool fail_fast,
                               const Run& run, const Repairable& repairable,
                               const Reroute& reroute, const Settle& settle,
                               sim::Cost* cost) {
  for (bool repaired = false;; repaired = true) {
    // Fork: every branch starts from the cursor captured at the fan-out
    // instant — in serial mode too — so span timestamps mirror the cost
    // model (branches run concurrently) regardless of execution order.
    const obs::TraceCursor base = obs::CurrentTrace();
    obs::ForkBranches(rpc_pool_, branches.size(), base, run);

    // Sort failures.  A shed branch (kOverloaded) is never repaired: the
    // node refused the work because its queue is full, and re-offering it
    // at once is the retry storm admission control exists to prevent.
    bool repair = false;
    bool fatal = false;
    for (const B& b : branches) {
      if (b.status.ok()) continue;
      if (!repaired && b.status.code() != StatusCode::kOverloaded &&
          repairable(b)) {
        repair = true;
      } else {
        fatal = true;
      }
    }
    if (repair && !(fatal && fail_fast)) {
      // Repair once: the client waited on the whole fan-out, so its slowest
      // branch lands in the cost before the re-resolve.  Never a loop.
      *cost += Join(branches, base);
      InvalidateRoutingCache();
      PROPELLER_RETURN_IF_ERROR(reroute(branches));
      continue;
    }
    PROPELLER_RETURN_IF_ERROR(settle(branches));
    *cost += Join(branches, base);
    return Status::Ok();
  }
}

Result<sim::Cost> PropellerClient::BatchUpdate(std::vector<FileUpdate> updates,
                                               double now_s, bool admission) {
  if (updates.empty()) return sim::Cost::Zero();
  obs::TraceRoot root(tracer_, "client.batch_update", id_,
                      trace_seq_.fetch_add(1, std::memory_order_relaxed),
                      clock_s_ != nullptr ? *clock_s_ : 0.0, id_);
  root.Tag("updates", static_cast<uint64_t>(updates.size()));
  sim::Cost cost;
  const bool caching = config_.read_path_caching;

  // Routing: consult the placement cache first (read_path_caching), then
  // ask the master only for the files it cannot answer.  With caching off
  // this degenerates to the original single batched resolve.
  std::unordered_map<FileId, FilePlacement> where;
  where.reserve(updates.size());
  uint64_t epoch = 0;  // the placements' epoch; 0 until known
  std::vector<FileId> need;
  if (caching) {
    LookupFilePlacements(updates, &where, &epoch, &need);
    cache_hits_->Add(where.size());
    cache_misses_->Add(need.size());
  } else {
    need.reserve(updates.size());
    for (const FileUpdate& u : updates) need.push_back(u.file);
  }

  // Resolves placements for `files` through the master and merges them
  // into `where` (refreshing the cache and the request epoch).
  auto resolve = [&](std::vector<FileId> files) -> Status {
    ResolveUpdateRequest rreq;
    rreq.files = std::move(files);
    // Open-loop traffic stamps the resolve's arrival so the master can
    // model its queueing; 0 (unstamped) otherwise.
    rreq.arrival_s = admission ? now_s : 0;
    auto rcall = CallWithRetry(master_, "mn.resolve_update", Encode(rreq));
    if (!rcall.status.ok()) return rcall.status;
    cost += rcall.cost;
    auto decoded = Decode<ResolveUpdateResponse>(rcall.payload);
    if (!decoded.ok()) return decoded.status();
    const ResolveUpdateResponse& resolved = *decoded;
    for (const auto& p : resolved.placements) {
      where[p.file] = FilePlacement{p.group, p.node};
    }
    StoreReplicaSets(resolved.replicas);
    if (caching) StoreFilePlacements(resolved);
    epoch = std::max(epoch, resolved.metadata_epoch);
    return Status::Ok();
  };
  if (!need.empty()) {
    PROPELLER_RETURN_IF_ERROR(resolve(std::move(need)));
  }

  // One shipment per (node, group): the group's updates as stage-request
  // payloads, update_batch per message.  A group's batches must stay in
  // order — same-file updates may span batches — so a shipment is the
  // unit of concurrency, not a batch.
  struct Shipment : Branch {
    std::vector<FileUpdate> updates;  // consumed by the encoding
    std::vector<std::string> payloads;
    // The group's secondaries (none when unreplicated) and the same batches
    // re-encoded with the secondary role for them.
    std::vector<NodeId> secondaries;
    std::vector<std::string> secondary_payloads;
  };
  // Set by the first routing pass.  The master sends replica sets only
  // under replication, so none known means an unreplicated cluster: every
  // group is a replica set of one and requests carry no replica role.
  bool replicated = false;
  // Buckets `batch` per group (a group lives on exactly one node) through
  // a reserved hash index, sorts the shipments by (node, group) — a
  // deterministic order — and encodes every payload up front.
  auto route = [&](std::vector<FileUpdate> batch, bool first,
                   std::vector<Shipment>* out) -> Status {
    out->clear();
    std::unordered_map<GroupId, size_t> slot_of;
    slot_of.reserve(batch.size());
    for (FileUpdate& u : batch) {
      auto it = where.find(u.file);
      if (it == where.end()) {
        return Status::Internal("master did not place file");
      }
      auto [slot, fresh] = slot_of.try_emplace(it->second.group, out->size());
      if (fresh) {
        out->emplace_back();
        out->back().node = it->second.node;
        out->back().groups = {it->second.group};
      }
      (*out)[slot->second].updates.push_back(std::move(u));
    }
    std::sort(out->begin(), out->end(),
              [](const Shipment& a, const Shipment& b) {
                return std::tie(a.node, a.groups) < std::tie(b.node, b.groups);
              });
    // Cached placements reuse the memoized sets; a fresh resolve just
    // refilled them.
    std::vector<GroupId> groups;
    for (const Shipment& s : *out) groups.push_back(s.groups.front());
    bool any_set = false;
    const auto sets = ReplicaSetsOf(groups, &any_set);
    if (first) replicated = any_set;
    for (size_t k = 0; k < out->size(); ++k) {
      Shipment& s = (*out)[k];
      if (!sets[k].empty()) {
        // The resolved node is authoritative for where the primary lives
        // right now; a stale memoized set keeps the secondaries only.
        s.secondaries.assign(sets[k].begin() + 1, sets[k].end());
        s.secondaries.erase(
            std::remove(s.secondaries.begin(), s.secondaries.end(), s.node),
            s.secondaries.end());
      }
      for (size_t off = 0; off < s.updates.size();
           off += config_.update_batch) {
        StageUpdatesRequest sreq;
        sreq.group = groups[k];
        sreq.now_s = now_s;
        sreq.epoch = (caching || replicated) ? epoch : 0;
        if (replicated) sreq.replica_role = kReplicaRolePrimary;
        sreq.admission = admission ? 1 : 0;
        size_t end = std::min(off + config_.update_batch, s.updates.size());
        sreq.updates.assign(std::make_move_iterator(s.updates.begin() + off),
                            std::make_move_iterator(s.updates.begin() + end));
        if (!s.secondaries.empty()) {
          StageUpdatesRequest dup = sreq;
          dup.replica_role = kReplicaRoleSecondary;
          s.secondary_payloads.push_back(Encode(dup));
        }
        s.payloads.push_back(Encode(sreq));
      }
    }
    return Status::Ok();
  };
  std::vector<Shipment> shipments;
  PROPELLER_RETURN_IF_ERROR(
      route(std::move(updates), /*first=*/true, &shipments));
  // The repair pass re-ships failed payloads (caching or replicated mode),
  // so the sent copies must survive the send: the repair decodes them to
  // recover the original updates.
  const bool keep_payloads = caching || replicated;

  // Stage on the Index Nodes: shipments to different nodes run in
  // parallel, a node takes its batches serially.  Every shipment is
  // attempted even when one fails, so independent buckets still land.
  // Each batch goes to every replica concurrently (simulated latency = the
  // slowest copy).  The primary's journal append is the durable copy, so
  // its failure fails the batch outright; secondaries only count toward
  // quorum.  An unreplicated group is a set of one.
  auto ship = [&](size_t i) {
    Shipment& s = shipments[i];
    const GroupId group = s.groups.front();
    for (size_t b = 0; b < s.payloads.size(); ++b) {
      const obs::TraceCursor batch_base = obs::CurrentTrace();
      auto pcall = CallWithRetry(s.node, "in.stage_updates",
                                 keep_payloads ? std::string(s.payloads[b])
                                               : std::move(s.payloads[b]));
      size_t secondary_acks = 0;
      sim::Cost batch_cost = pcall.cost;  // the slowest copy
      // Inline: the shipment already runs as its own branch.
      auto replicate = [&](size_t k) {
        auto scall = CallWithRetry(s.secondaries[k], "in.stage_updates",
                                   std::string(s.secondary_payloads[b]));
        if (scall.cost > batch_cost) batch_cost = scall.cost;
        if (scall.status.ok()) ++secondary_acks;
      };
      obs::ForkBranches(nullptr, s.secondaries.size(), batch_base, replicate);
      s.cost += batch_cost;
      if (!s.secondaries.empty()) {
        obs::AdvanceTo(batch_base, batch_cost.seconds());
      }
      if (!pcall.status.ok()) {
        s.status = pcall.status;
        return;
      }
      if (replicated) {
        // Role-stamped: the primary acks the committed sequence, this
        // client's read-your-writes floor.
        if (auto resp = Decode<StageUpdatesResponse>(pcall.payload);
            resp.ok()) {
          RecordAckedSeq(group, resp->seq);
        }
      }
      // Quorum = primary + floor((r-1)/2) secondaries (r=2 needs the
      // primary alone; r=3 needs one secondary; ...).
      const size_t required = s.secondaries.size() / 2;
      if (secondary_acks < required) {
        s.status = Status::Unavailable(
            "write quorum not reached for group " + std::to_string(group) +
            " (" + std::to_string(secondary_acks) + "/" +
            std::to_string(required) + " secondary acks)");
        return;
      }
    }
  };
  // Repairable: stale routing, or a route to an unreachable node (the
  // master may have re-homed its groups).  Replicated mode repairs the same
  // classes even without the placement cache: a quorum miss or a dead
  // primary may mean the master already promoted a secondary — one
  // re-resolve routes to the new primary.
  auto repairable = [&](const Shipment& s) {
    return (caching || replicated) &&
           (s.status.code() == StatusCode::kStaleLocation ||
            s.status.code() == StatusCode::kUnavailable);
  };
  // The repair re-ships only the failed shipments' updates, recovered from
  // their encoded payloads (the happy path never keeps a second copy).
  auto reroute = [&](std::vector<Shipment>& ships) -> Status {
    stale_retries_->Add(1);
    std::vector<FileUpdate> failed;
    std::vector<FileId> files;
    for (const Shipment& s : ships) {
      if (s.status.ok()) continue;
      for (const std::string& payload : s.payloads) {
        auto sreq = Decode<StageUpdatesRequest>(payload);
        if (!sreq.ok()) return sreq.status();
        for (FileUpdate& u : sreq->updates) {
          files.push_back(u.file);
          failed.push_back(std::move(u));
        }
      }
    }
    PROPELLER_RETURN_IF_ERROR(resolve(std::move(files)));
    return route(std::move(failed), /*first=*/false, &ships);
  };
  // Any failure left fails the batch at once, naming every (node, group)
  // bucket that did not land.  Shed shipments surface in the status; the
  // counter lets open-loop drivers account shed write load.
  auto settle = [&](const std::vector<Shipment>& ships) -> Status {
    StatusCode code = StatusCode::kOk;
    std::string failed;
    for (const Shipment& s : ships) {
      if (s.status.ok()) continue;
      if (s.status.code() == StatusCode::kOverloaded) shed_updates_->Add(1);
      if (code == StatusCode::kOk) code = s.status.code();
      if (!failed.empty()) failed += "; ";
      failed += "node " + std::to_string(s.node) + " group " +
                std::to_string(s.groups.front()) + ": " + s.status.ToString();
    }
    if (code == StatusCode::kOk) return Status::Ok();
    return Status(code, "batch update partially failed (" + failed + ")");
  };
  PROPELLER_RETURN_IF_ERROR(FanOut(shipments, /*fail_fast=*/true, ship,
                                   repairable, reroute, settle, &cost));
  update_latency_->Observe(cost.seconds());
  return cost;
}

Result<PropellerClient::SearchOutcome> PropellerClient::Search(
    const Predicate& predicate, const std::string& index_name,
    double arrival_s) {
  SearchOutcome out;
  obs::TraceRoot root(tracer_, "client.search", id_,
                      trace_seq_.fetch_add(1, std::memory_order_relaxed),
                      clock_s_ != nullptr ? *clock_s_ : 0.0, id_);
  if (!index_name.empty()) root.Tag("index", index_name);
  const bool caching = config_.read_path_caching;

  // Routing: the placement cache answers repeat searches without touching
  // the master (read_path_caching); otherwise one resolve RPC, memoized.
  ResolveSearchResponse targets;
  uint64_t epoch = 0;
  bool from_cache = false;
  auto resolve = [&]() -> Status {
    ResolveSearchRequest rreq;
    rreq.index_name = index_name;
    // Open-loop traffic stamps the resolve's arrival so the master can
    // model its queueing; 0 (unstamped) otherwise.
    rreq.arrival_s = arrival_s;
    auto rcall = CallWithRetry(master_, "mn.resolve_search", Encode(rreq));
    if (!rcall.status.ok()) return rcall.status;
    out.cost += rcall.cost;
    auto decoded = Decode<ResolveSearchResponse>(rcall.payload);
    if (!decoded.ok()) return decoded.status();
    targets = std::move(*decoded);
    epoch = targets.metadata_epoch;
    StoreReplicaSets(targets.replicas);
    if (caching) StoreSearchTargets(index_name, targets);
    return Status::Ok();
  };
  if (caching && LookupSearchTargets(index_name, &targets, &epoch)) {
    from_cache = true;
    cache_hits_->Add(1);
  } else {
    if (caching) cache_misses_->Add(1);
    PROPELLER_RETURN_IF_ERROR(resolve());
  }

  // One branch per Index Node: its request, hedge plan and results.
  struct SearchBranch : Branch {
    std::string payload;
    // The groups' first secondaries bucketed by node (deterministic
    // order); empty when the branch cannot hedge.
    std::vector<std::pair<NodeId, std::vector<GroupId>>> hedge_plan;
    std::vector<FileId> files;
    bool decode_failed = false;  // undecodable response: always fatal
  };
  // The master attaches replica sets only under replication; with them
  // come epoch stamps, read-your-writes floors and (unless the hedge
  // policy is off) hedged branches.
  bool replicated = false;
  std::unordered_map<GroupId, uint64_t> floors;
  // The encoded in.search request for `groups`, at the primary or a hedge.
  auto request = [&](const std::vector<GroupId>& groups) {
    SearchRequest sreq;
    sreq.groups = groups;
    sreq.predicate = predicate;
    sreq.epoch = (caching || replicated) ? epoch : 0;
    for (GroupId g : groups) {
      auto it = floors.find(g);
      if (it != floors.end()) sreq.min_seqs.push_back({g, it->second});
    }
    sreq.arrival_s = arrival_s;
    return Encode(sreq);
  };
  // Builds one branch per target from the current routing.  Payloads are
  // encoded up front and responses aggregated in target order, so pooled
  // and inline fan-outs produce identical results and simulated costs.
  auto route = [&](std::vector<SearchBranch>* branches) {
    replicated = !targets.replicas.empty();
    floors = replicated ? SeqFloorsOf(targets)
                        : std::unordered_map<GroupId, uint64_t>{};
    branches->assign(targets.targets.size(), SearchBranch{});
    for (size_t i = 0; i < branches->size(); ++i) {
      (*branches)[i].node = targets.targets[i].node;
      (*branches)[i].groups = std::move(targets.targets[i].groups);
      (*branches)[i].cached = from_cache;
      (*branches)[i].payload = request((*branches)[i].groups);
    }
    // A branch is hedge-eligible only when every one of its groups has a
    // secondary — a partial hedge could "win" with whole groups missing
    // from the result.
    if (!replicated || !config_.hedge.enabled) return;
    std::unordered_map<GroupId, const GroupReplicaSet*> set_of;
    set_of.reserve(targets.replicas.size());
    for (const GroupReplicaSet& rs : targets.replicas) set_of[rs.group] = &rs;
    for (SearchBranch& b : *branches) {
      std::map<NodeId, std::vector<GroupId>> by_secondary;
      size_t covered = 0;
      for (GroupId g : b.groups) {
        auto it = set_of.find(g);
        if (it == set_of.end() || it->second->nodes.size() < 2) continue;
        by_secondary[it->second->nodes[1]].push_back(g);
        ++covered;
      }
      if (covered > 0 && covered == b.groups.size()) {
        b.hedge_plan.assign(by_secondary.begin(), by_secondary.end());
      }
    }
  };
  std::vector<SearchBranch> branches;
  route(&branches);

  auto decode_into = [](const std::string& payload, NodeId node,
                        std::vector<FileId>* files) -> Status {
    auto resp = Decode<SearchResponse>(payload);
    if (!resp.ok()) {
      return Status(resp.status().code(),
                    "search response from node " + std::to_string(node) +
                        " undecodable: " + resp.status().ToString());
    }
    files->insert(files->end(), resp->files.begin(), resp->files.end());
    return Status::Ok();
  };
  // One branch: the primary, hedged when it is slow or fails.  Its
  // latency is the hedged effective latency when a hedge fired.
  auto search_one = [&](size_t i) {
    SearchBranch& b = branches[i];
    const obs::TraceCursor fanout_base = obs::CurrentTrace();
    auto pcall = CallWithRetry(b.node, "in.search", std::move(b.payload));
    const double c1 = pcall.cost.seconds();
    const bool primary_ok = pcall.status.ok();
    bool fire = false;
    double threshold = 0;
    // A shed primary (kOverloaded) never hedges: the hedge would dump
    // the refused load straight onto the replica of an already saturated
    // group — backpressure must reach the caller, not move sideways.
    const bool shed =
        !primary_ok && pcall.status.code() == StatusCode::kOverloaded;
    if (!b.hedge_plan.empty() && !shed) {
      threshold = HedgeThreshold();
      fire = !primary_ok || c1 > threshold;
    }
    // Only unhedged latencies train the quantile: a branch slow enough
    // to hedge is exactly the outlier the threshold exists to catch, and
    // feeding it back would drag the quantile up toward the straggler
    // until hedging turns itself off.
    if (primary_ok && !fire) branch_latency_->Observe(c1);
    if (!fire) {
      b.status = pcall.status;
      b.cost = pcall.cost;
      if (b.status.ok()) {
        b.status = decode_into(pcall.payload, b.node, &b.files);
        b.decode_failed = !b.status.ok();
      }
      return;
    }
    // Hedge: re-issue the branch at each group's first secondary.  It
    // launches at t_hedge — the latency-quantile threshold when the
    // primary is merely slow (the client cannot know earlier that it
    // will be slow), or the primary's failure instant.  First complete
    // response wins; the loser is cancelled, its cost still accounted
    // up to the winner's completion.
    hedges_->Add(1);
    const double t_hedge = primary_ok ? std::min(c1, threshold) : c1;
    Status hstatus;
    std::vector<FileId> hedge_files;
    double hedge_cost = 0;
    {
      obs::ScopedTraceCursor hedge_cursor(fanout_base);
      obs::AdvanceTo(fanout_base, t_hedge);
      obs::SpanGuard hedge_span("search.hedged",
                                static_cast<uint64_t>(b.node) ^
                                    (static_cast<uint64_t>(i + 1) << 48));
      hedge_span.Tag("primary", static_cast<uint64_t>(b.node));
      hedge_span.Tag("launch_us", static_cast<uint64_t>(t_hedge * 1e6));
      // Inline: the branch already runs on its own thread.
      obs::ForkBranches(
          nullptr, b.hedge_plan.size(), obs::CurrentTrace(), [&](size_t k) {
            const auto& [secondary, sgroups] = b.hedge_plan[k];
            // A hedge is a fresh call launched t_hedge into the request: it
            // starts its own retry budget but shares the request deadline.
            auto hcall = CallWithRetry(secondary, "in.search",
                                       request(sgroups), t_hedge);
            hedge_cost = std::max(hedge_cost, hcall.cost.seconds());
            if (!hstatus.ok()) return;  // already failed; cost still counts
            hstatus = hcall.status.ok()
                          ? decode_into(hcall.payload, secondary, &hedge_files)
                          : hcall.status;
          });
    }
    const bool hedge_ok = hstatus.ok();
    const double hedge_done = t_hedge + hedge_cost;
    if (hedge_ok && (!primary_ok || hedge_done < c1)) {
      // The hedge came back first (or the primary never will).
      hedge_wins_->Add(1);
      b.status = Status::Ok();
      b.files = std::move(hedge_files);
      b.cost = sim::Cost(primary_ok ? std::min(c1, hedge_done) : hedge_done);
    } else if (primary_ok) {
      // Primary finished first after all — cancel the hedge.
      hedge_cancelled_->Add(1);
      b.status = decode_into(pcall.payload, b.node, &b.files);
      b.decode_failed = !b.status.ok();
      b.cost = sim::Cost(c1);
    } else {
      // Both sides failed; the primary's error names the real problem
      // and the client waited through the hedge too.
      hedge_cancelled_->Add(1);
      b.status = pcall.status;
      b.cost = sim::Cost(std::max(c1, hedge_done));
    }
  };
  // Stale routing?  kStaleLocation (a node disowned a group we named)
  // always means yes — replicated clients stamp epochs even without the
  // placement cache; kUnavailable on a cached route may mean the node died
  // and the master re-homed its groups; kStaleReplica means a replica has
  // not caught up to this client's acked writes — by the retry,
  // anti-entropy or a promotion catch-up has usually closed the gap.
  auto repairable = [&](const SearchBranch& b) {
    switch (b.status.code()) {
      case StatusCode::kStaleLocation:
        return caching || replicated;
      case StatusCode::kUnavailable:
        return caching && b.cached;
      case StatusCode::kStaleReplica:
        return replicated;
      default:
        return false;
    }
  };
  // The repair re-runs the whole fan-out on a fresh resolve.
  auto reroute = [&](std::vector<SearchBranch>& stale_pass) -> Status {
    bool stale = false;
    bool stale_replica = false;
    for (const SearchBranch& b : stale_pass) {
      if (!repairable(b)) continue;
      (b.status.code() == StatusCode::kStaleReplica ? stale_replica : stale) =
          true;
    }
    if (stale) stale_retries_->Add(1);
    if (stale_replica) {
      stale_replica_retries_->Add(1);
      root.Tag("stale_replica_retry", "true");
    }
    if (stale) root.Tag("stale_retry", "true");
    PROPELLER_RETURN_IF_ERROR(resolve());
    from_cache = false;
    route(&stale_pass);
    return Status::Ok();
  };
  // Aggregates file ids in target order.  A failed branch either degrades
  // the outcome (allow_partial_search) or fails the whole search with an
  // error naming the node, never silently; the join still counts it (the
  // client waited on it too).
  auto settle = [&](const std::vector<SearchBranch>& last) -> Status {
    for (const SearchBranch& b : last) {
      if (!b.status.ok()) {
        if (b.status.code() == StatusCode::kOverloaded) {
          out.overloaded = true;
          shed_searches_->Add(1);
        }
        if (b.decode_failed) return b.status;
        if (!config_.allow_partial_search) {
          return Status(b.status.code(),
                        "search fan-out to node " + std::to_string(b.node) +
                            " failed: " + b.status.ToString());
        }
        out.partial = true;
        out.node_errors.push_back({b.node, b.status});
        continue;
      }
      out.files.insert(out.files.end(), b.files.begin(), b.files.end());
      ++out.nodes_queried;
    }
    return Status::Ok();
  };
  PROPELLER_RETURN_IF_ERROR(FanOut(branches, /*fail_fast=*/false, search_one,
                                   repairable, reroute, settle, &out.cost));
  std::sort(out.files.begin(), out.files.end());
  out.files.erase(std::unique(out.files.begin(), out.files.end()),
                  out.files.end());
  if (out.partial) {
    partial_searches_->Add(1);
    root.Tag("partial", "true");
  }
  root.Tag("nodes", static_cast<uint64_t>(out.nodes_queried));
  root.Tag("files", static_cast<uint64_t>(out.files.size()));
  search_latency_->Observe(out.cost.seconds());
  return out;
}

Result<PropellerClient::SearchOutcome> PropellerClient::SearchQuery(
    const std::string& query, int64_t now_s) {
  auto parsed = ParseQuery(query, now_s);
  if (!parsed.ok()) return parsed.status();
  return Search(parsed->predicate);
}

}  // namespace propeller::core
