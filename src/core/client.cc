#include "core/client.h"

#include <algorithm>
#include <limits>
#include <map>
#include <tuple>
#include <utility>

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
      delegated_resolves_(&metrics_.GetCounter("client.resolve.delegated")),
      delegated_fallbacks_(&metrics_.GetCounter("client.resolve.fallback")),
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
  *epoch = 0;
  for (uint64_t e : search_shard_epochs_) *epoch = std::max(*epoch, e);
  return true;
}

void PropellerClient::StoreSearchTargets(const std::string& index_name,
                                         const ResolveSearchResponse& resp) {
  const std::vector<uint64_t>& eps = resp.shard_epochs;
  MutexLock lock(cache_mu_);
  if (search_shard_epochs_.size() != eps.size()) {
    // First response: learn the master's shard count.
    search_cache_.clear();
    search_shard_epochs_.assign(eps.size(), 0);
  }
  // Per-shard freshness: a response older than the cache on every shard it
  // covers is a raced older view; any strictly newer shard means placement
  // changed since the cached entries were resolved — they may name groups
  // that merged or moved, so replace wholesale.
  bool newer = false, older = false;
  for (size_t s = 0; s < eps.size(); ++s) {
    if (eps[s] == 0) continue;
    if (eps[s] > search_shard_epochs_[s]) newer = true;
    if (eps[s] < search_shard_epochs_[s]) older = true;
  }
  if (older && !newer) return;
  if (newer) {
    search_cache_.clear();
    for (size_t s = 0; s < eps.size(); ++s) {
      search_shard_epochs_[s] = std::max(search_shard_epochs_[s], eps[s]);
    }
  }
  search_cache_[index_name] = resp;
}

void PropellerClient::LookupFilePlacements(
    const std::vector<FileUpdate>& updates,
    std::unordered_map<FileId, FilePlacement>* where,
    std::vector<uint64_t>* epochs, std::vector<FileId>* missing) {
  MutexLock lock(cache_mu_);
  *epochs = file_shard_epochs_;
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
  const std::vector<uint64_t>& eps = resp.shard_epochs;
  const uint32_t n = static_cast<uint32_t>(eps.size());
  if (n == 0) return;  // malformed: names no shard the placements belong to
  MutexLock lock(cache_mu_);
  if (file_shard_epochs_.size() != n) {
    // First response: learn the master's shard count.
    file_cache_.clear();
    file_shard_epochs_.assign(n, 0);
  }
  // Per-shard accept/evict: a shard whose published epoch moved past the
  // cache invalidates only that shard's entries; a shard the response is
  // older on keeps its cached entries and rejects the stale placements.
  std::vector<char> accept(n, 0);
  std::vector<char> evict(n, 0);
  for (uint32_t s = 0; s < n; ++s) {
    if (eps[s] == 0 || eps[s] < file_shard_epochs_[s]) continue;
    accept[s] = 1;
    if (eps[s] > file_shard_epochs_[s]) {
      evict[s] = 1;
      file_shard_epochs_[s] = eps[s];
    }
  }
  bool any_evict = false;
  for (uint32_t s = 0; s < n; ++s) any_evict = any_evict || evict[s] != 0;
  if (any_evict) {
    for (auto it = file_cache_.begin(); it != file_cache_.end();) {
      if (evict[ShardOfFile(it->first, n)] != 0) {
        it = file_cache_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& p : resp.placements) {
    if (accept[ShardOfFile(p.file, n)] != 0) {
      file_cache_[p.file] = FilePlacement{p.group, p.node};
    }
  }
}

void PropellerClient::InvalidateRoutingCache() {
  MutexLock lock(cache_mu_);
  search_cache_.clear();
  file_cache_.clear();
  // Replica sets are routing too; the floors are not (acked writes stay
  // acked regardless of where the replicas live now).  Lease holders are
  // routing as well: a stale route may mean a holder died or lost its
  // lease, so the next resolve goes to the authoritative master (whose
  // response re-learns the holders).
  replica_cache_.clear();
  lease_holders_.clear();
}

void PropellerClient::StoreLeaseHolders(const std::vector<NodeId>& holders) {
  if (holders.empty()) return;
  MutexLock lock(cache_mu_);
  lease_holders_ = holders;
}

std::vector<NodeId> PropellerClient::SnapshotLeaseHolders() const {
  MutexLock lock(cache_mu_);
  return lease_holders_;
}

bool PropellerClient::ResolveUpdateDelegated(const std::vector<FileId>& files,
                                             ResolveUpdateResponse* out,
                                             sim::Cost* cost) {
  const std::vector<NodeId> holders = SnapshotLeaseHolders();
  const uint32_t n = static_cast<uint32_t>(holders.size());
  if (n == 0) return false;  // no master response seen yet
  // Partition the batch by lease holder, preserving request order within
  // each sub-batch.  Any shard without a holder sends the whole batch to
  // the master: a split answer would still need the master RPC anyway.
  std::map<NodeId, std::vector<FileId>> by_holder;
  for (FileId f : files) {
    const NodeId h = holders[ShardOfFile(f, n)];
    if (h == 0) return false;
    by_holder[h].push_back(f);
  }
  // Fan out to the holders (simulated latency = the slowest branch; a
  // refusal is detected at that branch's completion, so the failed
  // attempt's wait is charged before the master fallback).
  std::unordered_map<FileId, ResolveUpdateResponse::Placement> got;
  std::vector<uint64_t> eps(n, 0);
  std::map<GroupId, GroupReplicaSet> rsets;
  sim::Cost slowest;
  for (const auto& [node, flist] : by_holder) {
    ResolveUpdateRequest rreq;
    rreq.files = flist;
    auto call = CallWithRetry(node, "in.resolve_update", Encode(rreq));
    if (call.cost.seconds() > slowest.seconds()) slowest = call.cost;
    if (!call.status.ok()) {
      *cost += slowest;
      return false;
    }
    auto resolved = Decode<ResolveUpdateResponse>(call.payload);
    if (!resolved.ok()) {
      *cost += slowest;
      return false;
    }
    for (const auto& p : resolved->placements) got[p.file] = p;
    const std::vector<uint64_t>& branch_eps = resolved->shard_epochs;
    for (uint32_t s = 0; s < n && s < branch_eps.size(); ++s) {
      eps[s] = std::max(eps[s], branch_eps[s]);
    }
    for (const GroupReplicaSet& rs : resolved->replicas) rsets[rs.group] = rs;
  }
  *cost += slowest;
  // Reassemble in request order — exactly the shape one master resolve
  // would have produced.
  out->placements.clear();
  out->placements.reserve(files.size());
  for (FileId f : files) {
    auto it = got.find(f);
    if (it == got.end()) return false;
    out->placements.push_back(it->second);
  }
  out->replicas.clear();
  for (auto& [g, rs] : rsets) out->replicas.push_back(std::move(rs));
  out->shard_epochs = std::move(eps);
  delegated_resolves_->Add(1);
  return true;
}

bool PropellerClient::ResolveSearchDelegated(const std::string& index_name,
                                             ResolveSearchResponse* out,
                                             sim::Cost* cost) {
  const std::vector<NodeId> holders = SnapshotLeaseHolders();
  const uint32_t n = static_cast<uint32_t>(holders.size());
  if (n == 0) return false;  // no master response seen yet
  std::vector<NodeId> distinct;
  for (NodeId h : holders) {
    if (h == 0) return false;
    distinct.push_back(h);
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  // Each holder answers for the shards it holds live leases on; the merged
  // answer is usable only when the union covers every shard (every shard
  // epoch starts at 1, so covered == nonzero).
  std::map<NodeId, std::vector<GroupId>> by_node;
  std::vector<uint64_t> eps(n, 0);
  std::map<GroupId, GroupReplicaSet> rsets;
  sim::Cost slowest;
  const std::string payload = [&] {
    ResolveSearchRequest rreq;
    rreq.index_name = index_name;
    return Encode(rreq);
  }();
  for (NodeId node : distinct) {
    auto call = CallWithRetry(node, "in.resolve_search", std::string(payload));
    if (call.cost.seconds() > slowest.seconds()) slowest = call.cost;
    if (!call.status.ok()) {
      *cost += slowest;
      return false;
    }
    auto resolved = Decode<ResolveSearchResponse>(call.payload);
    if (!resolved.ok()) {
      *cost += slowest;
      return false;
    }
    for (const auto& t : resolved->targets) {
      auto& groups = by_node[t.node];
      groups.insert(groups.end(), t.groups.begin(), t.groups.end());
    }
    const std::vector<uint64_t>& branch_eps = resolved->shard_epochs;
    for (uint32_t s = 0; s < n && s < branch_eps.size(); ++s) {
      eps[s] = std::max(eps[s], branch_eps[s]);
    }
    for (const GroupReplicaSet& rs : resolved->replicas) rsets[rs.group] = rs;
  }
  *cost += slowest;
  for (uint32_t s = 0; s < n; ++s) {
    if (eps[s] == 0) return false;  // uncovered shard: lease lapsed mid-merge
  }
  out->targets.clear();
  for (auto& [node, groups] : by_node) {
    std::sort(groups.begin(), groups.end());
    groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
    out->targets.push_back({node, std::move(groups)});
  }
  out->replicas.clear();
  for (auto& [g, rs] : rsets) out->replicas.push_back(std::move(rs));
  out->shard_epochs = std::move(eps);
  delegated_resolves_->Add(1);
  return true;
}

void PropellerClient::StoreReplicaSets(
    const std::vector<GroupReplicaSet>& sets) {
  if (sets.empty()) return;
  MutexLock lock(cache_mu_);
  for (const GroupReplicaSet& rs : sets) replica_cache_[rs.group] = rs.nodes;
}

std::unordered_map<GroupId, std::vector<NodeId>>
PropellerClient::SnapshotReplicaSets() const {
  MutexLock lock(cache_mu_);
  return replica_cache_;
}

void PropellerClient::RecordAckedSeq(GroupId group, uint64_t seq) {
  if (seq == 0) return;
  MutexLock lock(cache_mu_);
  uint64_t& floor = seq_floor_[group];
  floor = std::max(floor, seq);
}

std::unordered_map<GroupId, uint64_t> PropellerClient::SnapshotSeqFloors()
    const {
  MutexLock lock(cache_mu_);
  return seq_floor_;
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
  std::vector<uint64_t> epochs;  // per shard; empty until known
  std::vector<FileId> need;
  if (caching) {
    LookupFilePlacements(updates, &where, &epochs, &need);
    cache_hits_->Add(where.size());
    cache_misses_->Add(need.size());
  } else {
    need.reserve(updates.size());
    for (const FileUpdate& u : updates) need.push_back(u.file);
  }

  // Resolves placements for `files` — through the lease holders when
  // delegation is on and they can answer, through the master otherwise —
  // and merges them into `where` (refreshing the cache and the per-shard
  // request epochs).
  auto resolve = [&](std::vector<FileId> files) -> Status {
    ResolveUpdateResponse resolved;
    bool delegated = false;
    if (config_.placement_leases) {
      delegated = ResolveUpdateDelegated(files, &resolved, &cost);
      if (!delegated) delegated_fallbacks_->Add(1);
    }
    if (!delegated) {
      ResolveUpdateRequest rreq;
      rreq.files = std::move(files);
      // Open-loop traffic stamps the resolve's arrival so the master can
      // model per-shard queueing; 0 (unstamped) otherwise.
      rreq.arrival_s = admission ? now_s : 0;
      auto rcall = CallWithRetry(master_, "mn.resolve_update", Encode(rreq));
      if (!rcall.status.ok()) return rcall.status;
      cost += rcall.cost;
      auto decoded = Decode<ResolveUpdateResponse>(rcall.payload);
      if (!decoded.ok()) return decoded.status();
      resolved = std::move(*decoded);
      if (config_.placement_leases) StoreLeaseHolders(resolved.lease_holders);
    }
    for (const auto& p : resolved.placements) {
      where[p.file] = FilePlacement{p.group, p.node};
    }
    if (config_.replicated) StoreReplicaSets(resolved.replicas);
    if (caching) StoreFilePlacements(resolved);
    if (caching || config_.replicated) {
      const std::vector<uint64_t>& eps = resolved.shard_epochs;
      if (epochs.size() < eps.size()) epochs.resize(eps.size(), 0);
      for (size_t s = 0; s < eps.size(); ++s) {
        epochs[s] = std::max(epochs[s], eps[s]);
      }
    }
    return Status::Ok();
  };
  if (!need.empty()) {
    PROPELLER_RETURN_IF_ERROR(resolve(std::move(need)));
  }
  // Replicated mode: the replica set each shipment must fan to.  Cached
  // placements reuse the memoized sets; a fresh resolve just refilled them.
  std::unordered_map<GroupId, std::vector<NodeId>> rsets;
  if (config_.replicated) rsets = SnapshotReplicaSets();

  // Bucket updates per group (a group lives on exactly one node): a flat
  // vector filled through a reserved hash index, then whole buckets sorted
  // by (node, group) — the same deterministic shipment order the previous
  // ordered-map implementation produced, without its per-insert rebalance.
  struct Bucket {
    NodeId node = 0;
    GroupId group = 0;
    std::vector<FileUpdate> updates;
  };
  auto make_buckets = [&](std::vector<FileUpdate> batch,
                          std::vector<Bucket>* out) -> Status {
    std::unordered_map<GroupId, size_t> bucket_of;
    bucket_of.reserve(batch.size());
    for (FileUpdate& u : batch) {
      auto it = where.find(u.file);
      if (it == where.end()) {
        return Status::Internal("master did not place file");
      }
      auto [slot, fresh] = bucket_of.try_emplace(it->second.group, out->size());
      if (fresh) {
        out->push_back(Bucket{it->second.node, it->second.group, {}});
      }
      (*out)[slot->second].updates.push_back(std::move(u));
    }
    std::sort(out->begin(), out->end(), [](const Bucket& a, const Bucket& b) {
      return std::tie(a.node, a.group) < std::tie(b.node, b.group);
    });
    return Status::Ok();
  };

  // Encode every stage-request payload up front (deterministic order), one
  // shipment per (node, group) bucket.  A bucket's batches must stay in
  // order — same-file updates may span batches — so a shipment is the unit
  // of concurrency, not a batch.
  struct Shipment {
    NodeId node = 0;
    GroupId group = 0;
    std::vector<std::string> payloads;
    // Replicated mode: the group's full replica set ([0] = primary = node),
    // the same batches re-encoded with the secondary role, and the highest
    // commit sequence the primary acked (the read-your-writes floor).
    std::vector<NodeId> replicas;
    std::vector<std::string> secondary_payloads;
    uint64_t acked_seq = 0;
    sim::Cost cost;
    Status status;
  };
  auto make_shipments = [&](std::vector<Bucket> buckets,
                            std::vector<Shipment>* out) {
    out->reserve(buckets.size());
    for (Bucket& bucket : buckets) {
      Shipment s;
      s.node = bucket.node;
      s.group = bucket.group;
      bool fan = false;
      if (config_.replicated) {
        auto it = rsets.find(bucket.group);
        if (it != rsets.end() && !it->second.empty()) {
          s.replicas = it->second;
          // The resolved node is authoritative for where the primary lives
          // right now; a stale memoized set keeps the secondaries only.
          s.replicas.front() = bucket.node;
          s.replicas.erase(std::remove(s.replicas.begin() + 1,
                                       s.replicas.end(), bucket.node),
                           s.replicas.end());
        } else {
          s.replicas = {bucket.node};
        }
        fan = s.replicas.size() > 1;
      }
      for (size_t off = 0; off < bucket.updates.size();
           off += config_.update_batch) {
        StageUpdatesRequest sreq;
        sreq.group = bucket.group;
        sreq.now_s = now_s;
        // The group's placement was resolved at its owning shard's epoch (a
        // shard's groups carry its residue class, so the file's shard and
        // the group's shard coincide).
        const auto n = static_cast<uint32_t>(epochs.size());
        sreq.epoch = (caching || config_.replicated) && n > 0
                         ? epochs[ShardOfGroup(bucket.group, n)]
                         : 0;
        if (config_.replicated) sreq.replica_role = kReplicaRolePrimary;
        sreq.admission = admission ? 1 : 0;
        size_t end = std::min(off + config_.update_batch, bucket.updates.size());
        sreq.updates.assign(
            std::make_move_iterator(bucket.updates.begin() +
                                    static_cast<long>(off)),
            std::make_move_iterator(bucket.updates.begin() +
                                    static_cast<long>(end)));
        if (fan) {
          StageUpdatesRequest dup;
          dup.group = sreq.group;
          dup.now_s = sreq.now_s;
          dup.epoch = sreq.epoch;
          dup.replica_role = kReplicaRoleSecondary;
          dup.admission = sreq.admission;
          dup.updates = sreq.updates;
          s.secondary_payloads.push_back(Encode(dup));
        }
        s.payloads.push_back(Encode(sreq));
      }
      out->push_back(std::move(s));
    }
  };
  std::vector<Bucket> buckets;
  PROPELLER_RETURN_IF_ERROR(make_buckets(std::move(updates), &buckets));
  std::vector<Shipment> shipments;
  make_shipments(std::move(buckets), &shipments);

  // Stage on the Index Nodes.  Requests to *different* nodes proceed in
  // parallel (simulated cost = slowest node); a node handles its batches
  // serially.  With an RPC pool the shipments also execute concurrently in
  // wall-clock time; per-shipment costs are state-independent WAL appends,
  // so the aggregate below matches the serial run exactly.
  // Every fan-out branch starts from the cursor captured at its fan-out
  // instant — in serial mode too — so span timestamps mirror the cost model
  // (branches run concurrently) regardless of execution order.
  // Every shipment is attempted even when one fails — partial-failure
  // semantics: independent buckets still land, and the error below names
  // exactly the (node, group) buckets that did not.
  // When a repair pass may re-ship failed payloads (caching or replicated
  // mode), the sent copies must survive the send: the repair decodes them
  // to recover the original updates.
  const bool keep_payloads = caching || config_.replicated;
  auto ship_all = [&](std::vector<Shipment>& ships,
                      const obs::TraceCursor& base) {
    auto ship_one = [&](size_t i) {
      obs::ScopedTraceCursor branch(base);
      Shipment& s = ships[i];
      const bool fan = s.replicas.size() > 1;
      for (size_t b = 0; b < s.payloads.size(); ++b) {
        if (!fan) {
          auto call = CallWithRetry(s.node, "in.stage_updates",
                                    keep_payloads ? std::string(s.payloads[b])
                                                  : std::move(s.payloads[b]));
          s.cost += call.cost;
          if (!call.status.ok()) {
            s.status = call.status;
            return;
          }
          if (config_.replicated) {
            // Solo replica set but role-stamped: the primary still acks
            // the committed sequence for read-your-writes.
            if (auto resp = Decode<StageUpdatesResponse>(call.payload);
                resp.ok()) {
              s.acked_seq = std::max(s.acked_seq, resp->seq);
              RecordAckedSeq(s.group, resp->seq);
            }
          }
          continue;
        }
        // Replica fan-out: the batch goes to every replica concurrently
        // (simulated latency = the slowest copy; the client waits for the
        // quorum, and the quorum includes the slowest mandatory ack).  The
        // primary's journal append is the durable copy, so its failure
        // fails the batch outright; secondaries only count toward quorum.
        const obs::TraceCursor batch_base = obs::CurrentTrace();
        net::Transport::CallResult pcall;
        {
          obs::ScopedTraceCursor primary_cursor(batch_base);
          pcall = CallWithRetry(s.replicas[0], "in.stage_updates",
                                std::string(s.payloads[b]));
        }
        size_t secondary_acks = 0;
        sim::Cost secondary_max;
        for (size_t j = 1; j < s.replicas.size(); ++j) {
          obs::ScopedTraceCursor secondary_cursor(batch_base);
          auto scall = CallWithRetry(s.replicas[j], "in.stage_updates",
                                     std::string(s.secondary_payloads[b]));
          if (scall.cost.seconds() > secondary_max.seconds()) {
            secondary_max = scall.cost;
          }
          if (scall.status.ok()) ++secondary_acks;
        }
        const sim::Cost batch_cost =
            sim::Cost::ParallelMax({pcall.cost, secondary_max});
        s.cost += batch_cost;
        if (obs::CurrentTrace().active()) {
          obs::CurrentTrace().now_s = batch_base.now_s + batch_cost.seconds();
        }
        if (!pcall.status.ok()) {
          s.status = pcall.status;
          return;
        }
        if (auto resp = Decode<StageUpdatesResponse>(pcall.payload);
            resp.ok()) {
          s.acked_seq = std::max(s.acked_seq, resp->seq);
          RecordAckedSeq(s.group, resp->seq);
        }
        // Quorum = primary + floor((r-1)/2) secondaries (r=2 needs the
        // primary alone; r=3 needs one secondary; ...).
        const size_t required = (s.replicas.size() - 1) / 2;
        if (secondary_acks < required) {
          s.status = Status::Unavailable(
              "write quorum not reached for group " + std::to_string(s.group) +
              " (" + std::to_string(secondary_acks) + "/" +
              std::to_string(required) + " secondary acks)");
          return;
        }
      }
    };
    if (rpc_pool_ != nullptr && ships.size() > 1) {
      auto futures = rpc_pool_->SubmitBatch(ships.size(), ship_one);
      ThreadPool::WaitAll(futures);
    } else {
      for (size_t i = 0; i < ships.size(); ++i) ship_one(i);
    }
  };
  // Joins a completed fan-out: per-node branch costs (shipments are sorted
  // by node, so equal nodes are contiguous) composed as a parallel max.
  auto join = [&](const std::vector<Shipment>& ships,
                  const obs::TraceCursor& base) {
    std::vector<sim::Cost> branches;
    for (const Shipment& s : ships) {
      if (branches.empty() || s.node != ships[&s - ships.data() - 1].node) {
        branches.push_back(s.cost);
      } else {
        branches.back() += s.cost;
      }
    }
    cost += sim::Cost::ParallelMax(branches);
    if (obs::CurrentTrace().active()) {
      // Join: the client resumes when the slowest branch finishes.
      obs::CurrentTrace().now_s =
          base.now_s + sim::Cost::ParallelMax(branches).seconds();
    }
  };

  const obs::TraceCursor fanout_base = obs::CurrentTrace();
  ship_all(shipments, fanout_base);

  // Sort failures: cache-repairable (stale routing, or a cached route to an
  // unreachable node — the master may have re-homed its groups) vs fatal.
  auto is_repairable = [&](const Status& st) {
    // Replicated mode repairs the same classes even without the placement
    // cache: a quorum miss or a dead primary may mean the master already
    // promoted a secondary — one re-resolve routes to the new primary.
    if (!caching && !config_.replicated) return false;
    return st.code() == StatusCode::kStaleLocation ||
           st.code() == StatusCode::kUnavailable;
  };
  auto format_failures = [](const std::vector<Shipment>& ships)
      -> std::pair<StatusCode, std::string> {
    StatusCode code = StatusCode::kOk;
    std::string failed;
    for (const Shipment& s : ships) {
      if (s.status.ok()) continue;
      if (code == StatusCode::kOk) code = s.status.code();
      if (!failed.empty()) failed += "; ";
      failed += "node " + std::to_string(s.node) + " group " +
                std::to_string(s.group) + ": " + s.status.ToString();
    }
    return {code, failed};
  };

  // Shed shipments (kOverloaded) are deliberately NOT repairable: the
  // node refused the work because its queue is full, and re-offering it
  // immediately is exactly the retry storm admission control exists to
  // prevent.  They surface in the returned status; the counter lets
  // open-loop drivers account shed write load.
  auto count_shed = [&](const std::vector<Shipment>& ships) {
    for (const Shipment& s : ships) {
      if (s.status.code() == StatusCode::kOverloaded) shed_updates_->Add(1);
    }
  };
  bool retry = false;
  for (const Shipment& s : shipments) {
    if (!s.status.ok() && is_repairable(s.status)) retry = true;
    if (!s.status.ok() && !is_repairable(s.status)) {
      count_shed(shipments);
      auto [code, failed] = format_failures(shipments);
      return Status(code, "batch update partially failed (" + failed + ")");
    }
  }

  if (retry) {
    // Exactly one repair pass: drop the cache, re-resolve the failed
    // shipments' files, and re-ship just those updates.  The client waited
    // on the whole first fan-out, so its slowest branch lands in the cost
    // before the repair begins.
    join(shipments, fanout_base);
    stale_retries_->Add(1);
    InvalidateRoutingCache();
    // Recover the failed updates from their encoded payloads (the happy
    // path never keeps a second copy).
    std::vector<FileUpdate> failed_updates;
    std::vector<FileId> files;
    for (Shipment& s : shipments) {
      if (s.status.ok()) continue;
      for (const std::string& payload : s.payloads) {
        auto sreq = Decode<StageUpdatesRequest>(payload);
        if (!sreq.ok()) return sreq.status();
        for (FileUpdate& u : sreq->updates) {
          files.push_back(u.file);
          failed_updates.push_back(std::move(u));
        }
      }
    }
    PROPELLER_RETURN_IF_ERROR(resolve(std::move(files)));
    if (config_.replicated) rsets = SnapshotReplicaSets();
    std::vector<Bucket> retry_buckets;
    PROPELLER_RETURN_IF_ERROR(
        make_buckets(std::move(failed_updates), &retry_buckets));
    std::vector<Shipment> retry_shipments;
    make_shipments(std::move(retry_buckets), &retry_shipments);
    const obs::TraceCursor retry_base = obs::CurrentTrace();
    ship_all(retry_shipments, retry_base);
    auto [code, failed] = format_failures(retry_shipments);
    if (code != StatusCode::kOk) {
      count_shed(retry_shipments);
      return Status(code, "batch update partially failed (" + failed + ")");
    }
    join(retry_shipments, retry_base);
  } else {
    join(shipments, fanout_base);
  }
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
  const bool replicated = config_.replicated;
  const bool hedging = replicated && config_.hedge.enabled;

  // Routing: the placement cache answers repeat searches without touching
  // the master (read_path_caching); otherwise one resolve RPC, memoized.
  ResolveSearchResponse targets;
  uint64_t epoch = 0;
  bool from_cache = false;
  auto resolve = [&]() -> Status {
    bool delegated = false;
    if (config_.placement_leases) {
      ResolveSearchResponse merged;
      delegated = ResolveSearchDelegated(index_name, &merged, &out.cost);
      if (delegated) {
        targets = std::move(merged);
      } else {
        delegated_fallbacks_->Add(1);
      }
    }
    if (!delegated) {
      ResolveSearchRequest rreq;
      rreq.index_name = index_name;
      // Open-loop traffic stamps the resolve's arrival so the master can
      // model per-shard queueing; 0 (unstamped) otherwise.
      rreq.arrival_s = arrival_s;
      auto rcall = CallWithRetry(master_, "mn.resolve_search", Encode(rreq));
      if (!rcall.status.ok()) return rcall.status;
      out.cost += rcall.cost;
      auto decoded = Decode<ResolveSearchResponse>(rcall.payload);
      if (!decoded.ok()) return decoded.status();
      targets = std::move(*decoded);
      if (config_.placement_leases) StoreLeaseHolders(targets.lease_holders);
    }
    // The stamped epoch is a staleness *flag* at the Index Nodes (>0 asks
    // for kStaleLocation on moved groups), so one scalar — the max across
    // shards — serves every shard count.
    epoch = 0;
    for (uint64_t e : targets.shard_epochs) epoch = std::max(epoch, e);
    if (replicated) StoreReplicaSets(targets.replicas);
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

  for (int attempt = 0;; ++attempt) {
    // Fan out to every Index Node — concurrently when an RPC pool is
    // attached, serially otherwise.  Payloads are encoded up front and
    // responses aggregated in target order, so both modes produce identical
    // results and simulated costs.
    const size_t n = targets.targets.size();
    std::vector<std::string> payloads(n);
    std::unordered_map<GroupId, uint64_t> floors;
    if (replicated) floors = SnapshotSeqFloors();
    auto append_floors = [&](const std::vector<GroupId>& groups,
                             SearchRequest* sreq) {
      for (GroupId g : groups) {
        auto it = floors.find(g);
        if (it != floors.end() && it->second > 0) {
          sreq->min_seqs.push_back({g, it->second});
        }
      }
    };
    for (size_t i = 0; i < n; ++i) {
      SearchRequest sreq;
      sreq.groups = targets.targets[i].groups;
      sreq.predicate = predicate;
      sreq.epoch = (caching || replicated) ? epoch : 0;
      if (replicated) append_floors(sreq.groups, &sreq);
      sreq.arrival_s = arrival_s;
      payloads[i] = Encode(sreq);
    }
    // Hedge plan: per branch, the groups' first secondaries bucketed by
    // node (deterministic order).  A branch is hedge-eligible only when
    // every one of its groups has a secondary — a partial hedge could
    // "win" with whole groups missing from the result.
    std::vector<std::vector<std::pair<NodeId, std::vector<GroupId>>>>
        hedge_plan(n);
    if (hedging) {
      std::unordered_map<GroupId, const GroupReplicaSet*> set_of;
      set_of.reserve(targets.replicas.size());
      for (const GroupReplicaSet& rs : targets.replicas) {
        set_of[rs.group] = &rs;
      }
      for (size_t i = 0; i < n; ++i) {
        std::map<NodeId, std::vector<GroupId>> by_secondary;
        size_t covered = 0;
        for (GroupId g : targets.targets[i].groups) {
          auto it = set_of.find(g);
          if (it == set_of.end() || it->second->nodes.size() < 2) continue;
          by_secondary[it->second->nodes[1]].push_back(g);
          ++covered;
        }
        if (covered > 0 && covered == targets.targets[i].groups.size()) {
          hedge_plan[i].assign(by_secondary.begin(), by_secondary.end());
        }
      }
    }
    // Per-branch outcome: status + decoded files + simulated latency (the
    // hedged effective latency when a hedge fired).
    struct Branch {
      Status status;
      std::vector<FileId> files;
      sim::Cost cost;
      bool decode_failed = false;  // undecodable response: always fatal
    };
    std::vector<Branch> branches_res(n);
    // Branches fork from the cursor captured here (also in serial mode), so
    // fan-out span timestamps match the cost model's parallel composition.
    const obs::TraceCursor fanout_base = obs::CurrentTrace();
    auto call_one = [&](size_t i) {
      obs::ScopedTraceCursor branch(fanout_base);
      Branch& b = branches_res[i];
      const NodeId primary = targets.targets[i].node;
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
      auto pcall = CallWithRetry(primary, "in.search", std::move(payloads[i]));
      const double c1 = pcall.cost.seconds();
      const bool primary_ok = pcall.status.ok();
      bool fire = false;
      double threshold = 0;
      // A shed primary (kOverloaded) never hedges: the hedge would dump
      // the refused load straight onto the replica of an already saturated
      // group — backpressure must reach the caller, not move sideways.
      const bool shed =
          !primary_ok && pcall.status.code() == StatusCode::kOverloaded;
      if (!hedge_plan[i].empty() && !shed) {
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
          b.status = decode_into(pcall.payload, primary, &b.files);
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
        if (obs::CurrentTrace().active()) {
          obs::CurrentTrace().now_s = fanout_base.now_s + t_hedge;
        }
        obs::SpanGuard hedge_span("search.hedged",
                                  static_cast<uint64_t>(primary) ^
                                      (static_cast<uint64_t>(i + 1) << 48));
        hedge_span.Tag("primary", static_cast<uint64_t>(primary));
        hedge_span.Tag("launch_us", static_cast<uint64_t>(t_hedge * 1e6));
        const obs::TraceCursor hedge_base = obs::CurrentTrace();
        for (const auto& [secondary, sgroups] : hedge_plan[i]) {
          SearchRequest hreq;
          hreq.groups = sgroups;
          hreq.predicate = predicate;
          hreq.epoch = (caching || replicated) ? epoch : 0;
          append_floors(sgroups, &hreq);
          hreq.arrival_s = arrival_s;
          obs::ScopedTraceCursor secondary_cursor(hedge_base);
          // A hedge is a fresh call launched t_hedge into the request: it
          // starts its own retry budget but shares the request deadline.
          auto hcall =
              CallWithRetry(secondary, "in.search", Encode(hreq), t_hedge);
          hedge_cost = std::max(hedge_cost, hcall.cost.seconds());
          if (!hstatus.ok()) continue;  // already failed; cost still counts
          if (!hcall.status.ok()) {
            hstatus = hcall.status;
            continue;
          }
          hstatus = decode_into(hcall.payload, secondary, &hedge_files);
        }
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
        b.status = decode_into(pcall.payload, primary, &b.files);
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
    if (rpc_pool_ != nullptr && n > 1) {
      auto futures = rpc_pool_->SubmitBatch(n, call_one);
      ThreadPool::WaitAll(futures);
    } else {
      for (size_t i = 0; i < n; ++i) call_one(i);
    }

    // Stale cached routing?  kStaleLocation (a node disowned a group we
    // named) always means yes; kUnavailable on a cached route may mean the
    // node died and the master re-homed its groups; kStaleReplica means a
    // replica has not caught up to this client's acked writes — by the
    // retry, anti-entropy or a promotion catch-up has usually closed the
    // gap.  Either way: one re-resolve, one full retry — never a loop.
    if ((caching || replicated) && attempt == 0) {
      bool stale = false;
      bool stale_replica = false;
      for (size_t i = 0; i < n; ++i) {
        const StatusCode code = branches_res[i].status.code();
        // Replicated clients stamp epochs even without the placement
        // cache, so they repair kStaleLocation the same way.
        if ((caching || replicated) && code == StatusCode::kStaleLocation) {
          stale = true;
        }
        if (caching && from_cache && code == StatusCode::kUnavailable) {
          stale = true;
        }
        if (replicated && code == StatusCode::kStaleReplica) {
          stale_replica = true;
        }
      }
      if (stale || stale_replica) {
        // The client waited on the whole stale fan-out; account its
        // slowest branch before the repair.
        std::vector<sim::Cost> waited;
        waited.reserve(n);
        for (const Branch& b : branches_res) waited.push_back(b.cost);
        out.cost += sim::Cost::ParallelMax(waited);
        if (obs::CurrentTrace().active()) {
          obs::CurrentTrace().now_s =
              fanout_base.now_s + sim::Cost::ParallelMax(waited).seconds();
        }
        if (stale) stale_retries_->Add(1);
        if (stale_replica) {
          stale_replica_retries_->Add(1);
          root.Tag("stale_replica_retry", "true");
        }
        if (stale) root.Tag("stale_retry", "true");
        InvalidateRoutingCache();
        PROPELLER_RETURN_IF_ERROR(resolve());
        from_cache = false;
        continue;
      }
    }

    // Aggregate file ids; the simulated fan-out latency is the slowest
    // branch (failed branches included — the client waited on them too).  A
    // failed branch either degrades the outcome (allow_partial_search) or
    // fails the whole search with an error naming the node, never silently.
    std::vector<sim::Cost> branches;
    branches.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const NodeId node = targets.targets[i].node;
      Branch& b = branches_res[i];
      branches.push_back(b.cost);
      if (!b.status.ok()) {
        if (b.status.code() == StatusCode::kOverloaded) {
          out.overloaded = true;
          shed_searches_->Add(1);
        }
        if (b.decode_failed) return b.status;
        if (!config_.allow_partial_search) {
          return Status(b.status.code(),
                        "search fan-out to node " + std::to_string(node) +
                            " failed: " + b.status.ToString());
        }
        out.partial = true;
        out.node_errors.push_back({node, b.status});
        continue;
      }
      out.files.insert(out.files.end(), b.files.begin(), b.files.end());
      ++out.nodes_queried;
    }
    out.cost += sim::Cost::ParallelMax(branches);
    if (obs::CurrentTrace().active()) {
      obs::CurrentTrace().now_s =
          fanout_base.now_s + sim::Cost::ParallelMax(branches).seconds();
    }
    break;
  }
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
