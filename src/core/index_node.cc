#include "core/index_node.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/logging.h"
#include "core/group_journal.h"
#include "obs/trace.h"

namespace propeller::core {

IndexNode::IndexNode(NodeId id, IndexNodeConfig config)
    : id_(id),
      config_(config),
      io_(config.io),
      searches_(&metrics_.GetCounter("in.searches")),
      stage_batches_(&metrics_.GetCounter("in.stage_batches")),
      commit_timeouts_(&metrics_.GetCounter("in.commit_timeouts")),
      search_latency_(&metrics_.GetHistogram("in.search.latency_s")),
      admit_admitted_(&metrics_.GetCounter("in.admit.admitted")),
      admit_shed_(&metrics_.GetCounter("in.admit.shed")),
      admit_wait_(&metrics_.GetHistogram("in.admit.wait_s")),
      admit_depth_(&metrics_.GetGauge("in.admit.queue_depth")),
      admit_depth_peak_(&metrics_.GetGauge("in.admit.queue_peak")),
      resolve_delegated_(&metrics_.GetCounter("in.resolve.delegated")),
      resolve_stale_(&metrics_.GetCounter("in.resolve.stale")) {
  if (config_.parallel_search) {
    search_pool_ = std::make_unique<ThreadPool>(
        std::max<size_t>(1, static_cast<size_t>(config_.search_threads)));
  }
  if (config_.admission_control) {
    MutexLock lock(admission_mu_);
    const auto workers =
        std::max<size_t>(1, static_cast<size_t>(config_.search_threads));
    for (size_t i = 0; i < workers; ++i) admit_free_.push(0.0);
  }
}

namespace {
constexpr double kInFlight = std::numeric_limits<double>::infinity();
}  // namespace

bool IndexNode::AdmissionReserve(double arrival_s) {
  MutexLock lock(admission_mu_);
  // Drain requests that finished (in virtual time) before this arrival.
  while (!admit_outstanding_.empty() &&
         *admit_outstanding_.begin() <= arrival_s) {
    admit_outstanding_.erase(admit_outstanding_.begin());
  }
  const size_t workers = admit_free_.size();
  const size_t waiting = admit_outstanding_.size() > workers
                             ? admit_outstanding_.size() - workers
                             : 0;
  if (config_.admission_queue_bound > 0 &&
      waiting >= config_.admission_queue_bound) {
    admit_shed_->Add(1);
    return false;
  }
  // Hold an in-flight slot (completion time unknown yet) so concurrent
  // arrivals see this request occupying the line and the bound stays
  // strict; Complete/Cancel replaces or releases the sentinel.
  admit_outstanding_.insert(kInFlight);
  admit_admitted_->Add(1);
  const size_t depth = admit_outstanding_.size() > workers
                           ? admit_outstanding_.size() - workers
                           : 0;
  admit_depth_->Set(static_cast<double>(depth));
  if (static_cast<double>(depth) > admit_depth_peak_->value()) {
    admit_depth_peak_->Set(static_cast<double>(depth));
  }
  return true;
}

sim::Cost IndexNode::AdmissionComplete(double arrival_s, sim::Cost service) {
  MutexLock lock(admission_mu_);
  auto it = admit_outstanding_.find(kInFlight);
  if (it != admit_outstanding_.end()) admit_outstanding_.erase(it);
  // Service starts when the earliest worker frees (or at arrival if one is
  // already idle) and occupies that worker for the service time.
  const double start = std::max(arrival_s, admit_free_.top());
  admit_free_.pop();
  const double finish = start + service.seconds();
  admit_free_.push(finish);
  admit_outstanding_.insert(finish);
  admit_wait_->Observe(start - arrival_s);
  return sim::Cost(finish - arrival_s);
}

void IndexNode::AdmissionCancel() {
  MutexLock lock(admission_mu_);
  auto it = admit_outstanding_.find(kInFlight);
  if (it != admit_outstanding_.end()) admit_outstanding_.erase(it);
}

index::IndexGroup* IndexNode::FindGroup(GroupId id) {
  ReaderMutexLock lock(groups_mu_);
  auto it = groups_.find(id);
  return it == groups_.end() ? nullptr : it->second.get();
}

index::IndexGroup* IndexNode::Find(GroupId id) {
  auto it = groups_.find(id);
  return it == groups_.end() ? nullptr : it->second.get();
}

index::IndexGroupOptions IndexNode::GroupOptions() {
  index::IndexGroupOptions options;
  options.metrics = &metrics_;
  options.result_cache = config_.result_cache;
  options.segmented = config_.segmented_index;
  options.max_segments = config_.max_segments;
  options.merge_size_ratio = config_.merge_size_ratio;
  options.merge_tier_run = config_.merge_tier_run;
  return options;
}

Status IndexNode::EnsureGroup(GroupId id, const std::vector<IndexSpec>& specs) {
  auto it = groups_.find(id);
  if (it == groups_.end()) {
    it = groups_.try_emplace(id).first;
    it->second = std::make_unique<index::IndexGroup>(id, &io_, GroupOptions());
  }
  for (const IndexSpec& spec : specs) {
    if (it->second->HasIndex(spec.name)) continue;
    PROPELLER_RETURN_IF_ERROR(it->second->CreateIndex(spec));
  }
  return Status::Ok();
}

net::RpcHandler::Response IndexNode::Handle(const std::string& method,
                                            const std::string& payload) {
  if (method == "in.create_group") return HandleCreateGroup(payload);
  if (method == "in.stage_updates") return HandleStageUpdates(payload);
  if (method == "in.search") return HandleSearch(payload);
  if (method == "in.tick") return HandleTick(payload);
  if (method == "in.migrate_out") return HandleMigrateOut(payload);
  if (method == "in.install_group") return HandleInstallGroup(payload);
  if (method == "in.recover_group") return HandleRecoverGroup(payload);
  if (method == "in.catch_up") return HandleCatchUp(payload);
  if (method == "in.drop_group") return HandleDropGroup(payload);
  if (method == "in.reset") return HandleReset(payload);
  if (method == "in.resolve_update") return HandleResolveUpdate(payload);
  if (method == "in.resolve_search") return HandleResolveSearch(payload);
  return Response{Status::NotFound("unknown method " + method), {}, {}};
}

net::RpcHandler::Response IndexNode::HandleCreateGroup(const std::string& payload) {
  auto req = Decode<CreateGroupRequest>(payload);
  if (!req.ok()) return Response{req.status(), {}, {}};
  WriterMutexLock lock(groups_mu_);
  Status st = EnsureGroup(req->group, req->specs);
  return Response{st, {}, sim::Cost(10e-6)};  // metadata-only work
}

net::RpcHandler::Response IndexNode::HandleStageUpdates(const std::string& payload) {
  auto req = Decode<StageUpdatesRequest>(payload);
  if (!req.ok()) return Response{req.status(), {}, {}};
  // Admission-stamped batches queue behind the node's workers; shedding
  // happens here, before the journal append or any staging, so a shed
  // batch has no side effects whatsoever.
  const bool admitted = config_.admission_control && req->admission != 0;
  if (admitted && !AdmissionReserve(req->now_s)) {
    return Response{Status::Overloaded("admission queue full"), {},
                    sim::Cost(10e-6)};  // metadata-only work
  }
  Response out = StageUpdatesAdmitted(*req);
  if (admitted) {
    if (out.status.ok()) {
      const double service = out.cost.seconds();
      out.cost = AdmissionComplete(req->now_s, out.cost);
      if (obs::CurrentTrace().active()) {
        obs::CurrentTrace().now_s += out.cost.seconds() - service;
      }
    } else {
      AdmissionCancel();
    }
  }
  return out;
}

net::RpcHandler::Response IndexNode::StageUpdatesAdmitted(
    StageUpdatesRequest& req) {
  ReaderMutexLock lock(groups_mu_);
  index::IndexGroup* group = Find(req.group);
  if (group == nullptr) {
    // A request stamped with a placement epoch came from a client-side
    // cache: tell it the routing went stale so it re-resolves once and
    // retries.  Unstamped (legacy) requests keep the NotFound contract.
    if (req.epoch > 0) {
      return Response{Status::StaleLocation("group moved"), {},
                      sim::Cost(10e-6)};  // metadata-only work
    }
    return Response{Status::NotFound("no such group"), {}, {}};
  }
  stage_batches_->Add(1);
  obs::SpanGuard span("wal.append", req.group, id_);
  span.Tag("group", req.group);
  span.Tag("records", static_cast<uint64_t>(req.updates.size()));
  sim::Cost cost;
  // Replicate to the shared recovery journal before staging (StageUpdate
  // consumes the update), so a node lost after acking can be rebuilt.
  // Under replication only the primary appends — the journal is the single
  // durable copy — and the assigned commit sequence is acked back to the
  // client as its read-your-writes floor.  Secondaries stage in memory
  // and count what they applied so floor checks can prove freshness.
  const bool secondary = req.replica_role == kReplicaRoleSecondary;
  uint64_t acked_seq = 0;
  if (config_.recovery_journal != nullptr && !secondary) {
    cost += config_.recovery_journal->AppendBatch(
        req.group, req.updates,
        req.replica_role == kReplicaRolePrimary ? &acked_seq : nullptr);
  }
  const uint64_t count = req.updates.size();
  // StageUpdate also stamps the group's oldest-pending clock (first stager
  // after a commit claims the commit-timeout slot) — atomically with the
  // staging itself, under the group mutex.
  for (FileUpdate& u : req.updates) {
    cost += group->StageUpdate(std::move(u), req.now_s);
  }
  span.Advance(cost);
  if (req.replica_role != kReplicaRoleNone) {
    MutexLock rlock(replica_mu_);
    uint64_t& applied = applied_seq_[req.group];
    if (secondary) {
      applied += count;
      acked_seq = applied;
    } else {
      applied = std::max(applied, acked_seq);
    }
  }
  StageUpdatesResponse resp;
  resp.seq = acked_seq;
  return Response{Status::Ok(), Encode(resp), cost};
}

net::RpcHandler::Response IndexNode::HandleSearch(const std::string& payload) {
  auto req = Decode<SearchRequest>(payload);
  if (!req.ok()) return Response{req.status(), {}, {}};
  // Arrival-stamped searches (open-loop traffic) queue behind the node's
  // workers in virtual time; a full waiting line sheds the request before
  // it touches any group.  The reported cost becomes the full sojourn
  // (queueing delay + service makespan).
  const bool admitted = config_.admission_control && req->arrival_s > 0;
  if (admitted && !AdmissionReserve(req->arrival_s)) {
    return Response{Status::Overloaded("admission queue full"), {},
                    sim::Cost(10e-6)};  // metadata-only work
  }
  Response out = SearchAdmitted(*req);
  if (admitted) {
    if (out.status.ok()) {
      const double service = out.cost.seconds();
      out.cost = AdmissionComplete(req->arrival_s, out.cost);
      if (obs::CurrentTrace().active()) {
        obs::CurrentTrace().now_s += out.cost.seconds() - service;
      }
    } else {
      AdmissionCancel();
    }
  }
  return out;
}

net::RpcHandler::Response IndexNode::SearchAdmitted(SearchRequest& req) {
  // Hold the map lock (shared) for the whole request so a concurrent
  // migrate-out cannot free a group under the workers.
  ReaderMutexLock lock(groups_mu_);
  // Read-your-writes floors: refuse to serve when this replica has not yet
  // applied everything the client saw acked.  The client retries a fresher
  // replica; anti-entropy closes the gap on the next tick.
  if (!req.min_seqs.empty()) {
    MutexLock rlock(replica_mu_);
    for (const SearchRequest::GroupSeqFloor& f : req.min_seqs) {
      auto it = applied_seq_.find(f.group);
      const uint64_t applied = it == applied_seq_.end() ? 0 : it->second;
      if (applied < f.seq) {
        metrics_.GetCounter("in.stale_replica").Add(1);
        return Response{Status::StaleReplica("replica behind client floor"),
                        {},
                        sim::Cost(10e-6)};  // metadata-only work
      }
    }
  }
  std::vector<index::IndexGroup*> targets;
  targets.reserve(req.groups.size());
  for (GroupId gid : req.groups) {
    index::IndexGroup* group = Find(gid);
    if (group == nullptr) {
      // Epoch-stamped searches come from a client placement cache: a
      // missing group means that cache is stale, and silently skipping it
      // would drop results.  Fail fast so the client re-resolves + retries.
      if (req.epoch > 0) {
        return Response{Status::StaleLocation("group moved"), {},
                        sim::Cost(10e-6)};  // metadata-only work
      }
      continue;  // legacy: stale routing, group migrated away
    }
    targets.push_back(group);
  }

  // Run the per-group searches — on the node's worker pool when parallel
  // search is enabled, serially otherwise.  Results land in per-group slots
  // and are aggregated in request order, so the response bytes and the
  // simulated makespan are identical in both modes.
  std::vector<index::IndexGroup::SearchResult> results(targets.size());
  // Per-group search spans fork from this instant (the node's own fan-out
  // point) — in serial mode too — so trace timestamps are identical
  // whether the searches run on the pool or inline.
  const obs::TraceCursor fanout_base = obs::CurrentTrace();
  // Search commits staged updates and clears the group's oldest-pending
  // stamp internally, under the group mutex, so a stage racing this search
  // can never have its timeout stamp wiped while its update stays pending.
  auto run_one = [&](size_t i) {
    obs::ScopedTraceCursor branch(fanout_base);
    results[i] = targets[i]->Search(req.predicate);
  };
  if (search_pool_ != nullptr && targets.size() > 1) {
    auto futures = search_pool_->SubmitBatch(targets.size(), run_one);
    ThreadPool::WaitAll(futures);
  } else {
    for (size_t i = 0; i < targets.size(); ++i) run_one(i);
  }

  // Schedule the simulated costs onto `search_threads` workers
  // (longest-processing-time greedy) — the node's latency is the makespan
  // of that schedule.
  SearchResponse resp;
  std::vector<double> group_costs;
  group_costs.reserve(results.size());
  for (index::IndexGroup::SearchResult& r : results) {
    group_costs.push_back(r.cost.seconds());
    resp.files.insert(resp.files.end(), r.files.begin(), r.files.end());
  }

  std::sort(group_costs.begin(), group_costs.end(), std::greater<>());
  const size_t workers =
      std::max<size_t>(1, static_cast<size_t>(config_.search_threads));
  std::priority_queue<double, std::vector<double>, std::greater<>> loads;
  for (size_t i = 0; i < workers; ++i) loads.push(0.0);
  for (double c : group_costs) {
    double least = loads.top();
    loads.pop();
    loads.push(least + c);
  }
  double makespan = 0;
  while (!loads.empty()) {
    makespan = loads.top();
    loads.pop();
  }
  searches_->Add(1);
  search_latency_->Observe(makespan);
  if (obs::CurrentTrace().active()) {
    // Join: the node answers when its worker schedule drains.
    obs::CurrentTrace().now_s = fanout_base.now_s + makespan;
  }
  return Response{Status::Ok(), Encode(resp), sim::Cost(makespan)};
}

net::RpcHandler::Response IndexNode::HandleTick(const std::string& payload) {
  auto req = Decode<TickRequest>(payload);
  if (!req.ok()) return Response{req.status(), {}, {}};
  {
    // Advance the node's view of cluster time so delegated resolves judge
    // lease expiry even when heartbeats lapse.
    MutexLock lock(lease_mu_);
    lease_now_s_ = std::max(lease_now_s_, req->now_s);
  }
  // Journal compaction must not interleave with the staging path's
  // journal-append + stage pair (the checkpoint would drop an appended
  // record whose update is not yet in the group, or keep one whose update
  // already is).  Stagers hold groups_mu_ shared across both steps, so
  // taking it exclusively here makes the checkpoint exact.
  const bool compacting = config_.segmented_index &&
                          config_.journal_compaction &&
                          config_.recovery_journal != nullptr;
  sim::Cost cost;
  if (compacting) {
    WriterMutexLock lock(groups_mu_);
    cost = TickLocked(req->now_s, /*checkpoint=*/true);
  } else {
    ReaderMutexLock lock(groups_mu_);
    cost = TickLocked(req->now_s, /*checkpoint=*/false);
  }
  // Anti-entropy (replication): close any gap between this replica's
  // applied sequences and the journal's.  A cheap shared-lock pass detects
  // lag; only when some group is behind do we take the map exclusively to
  // replay (which must not interleave with stagers, who hold groups_mu_
  // shared across their journal-append + stage pair).
  if (config_.replicated && config_.recovery_journal != nullptr) {
    std::vector<GroupId> lagging;
    {
      ReaderMutexLock lock(groups_mu_);
      MutexLock rlock(replica_mu_);
      for (const auto& [gid, group] : groups_) {
        auto it = applied_seq_.find(gid);
        const uint64_t applied = it == applied_seq_.end() ? 0 : it->second;
        if (config_.recovery_journal->Seq(gid) > applied) {
          lagging.push_back(gid);
        }
      }
    }
    if (!lagging.empty()) {
      WriterMutexLock lock(groups_mu_);
      for (GroupId gid : lagging) {
        Status st = CatchUpGroupLocked(gid, nullptr, &cost);
        if (!st.ok() && st.code() != StatusCode::kNotFound) {
          PLOG(WARNING) << "anti-entropy catch-up for group " << gid
                        << " failed: " << st.ToString();
        }
      }
    }
  }
  // Background commits overlap foreground work; report the cost so callers
  // can account it, but it is not on any request's critical path.
  return Response{Status::Ok(), {}, cost};
}

sim::Cost IndexNode::TickLocked(double now_s, bool checkpoint) {
  sim::Cost cost;
  for (auto& [gid, group] : groups_) {
    double oldest = group->OldestPendingStagedAt();
    if (oldest >= 0 && now_s - oldest >= config_.commit_timeout_s) {
      commit_timeouts_->Add(1);
      obs::SpanGuard span("group.commit_timeout", gid, id_);
      span.Tag("group", gid);
      // Commit clears the oldest-pending stamp under the group mutex.
      sim::Cost group_cost = group->Commit();
      group_cost += group->MaintainIndexes();
      if (checkpoint) {
        // The commit just sealed everything staged, so the group's
        // committed view *is* its full effective state: snapshot it as
        // the journal's new base image and drop the replayed history.
        std::vector<FileUpdate> state;
        group_cost +=
            group->ForEachRecord([&](FileId f, const index::AttrSet& attrs) {
              FileUpdate u;
              u.file = f;
              u.attrs = attrs;
              state.push_back(std::move(u));
            });
        group_cost += config_.recovery_journal->Checkpoint(gid, state);
      }
      // The nested group.commit span advanced part of this; top up the rest.
      double inside = span.active()
                          ? obs::CurrentTrace().now_s - span.start_s()
                          : 0.0;
      double topup = group_cost.seconds() - inside;
      if (topup > 0) span.Advance(sim::Cost(topup));
      cost += group_cost;
    }
  }
  return cost;
}

net::RpcHandler::Response IndexNode::HandleMigrateOut(const std::string& payload) {
  auto req = Decode<MigrateOutRequest>(payload);
  if (!req.ok()) return Response{req.status(), {}, {}};
  WriterMutexLock lock(groups_mu_);
  index::IndexGroup* group = Find(req->group);
  if (group == nullptr) return Response{Status::NotFound("no such group"), {}, {}};

  sim::Cost cost = group->Commit();  // migrate committed state only

  MigrateOutResponse resp;
  std::unordered_set<FileId> wanted(req->files.begin(), req->files.end());
  const bool take_all = req->files.empty();
  cost += group->ForEachRecord(
      [&](FileId f, const index::AttrSet& attrs) {
        if (take_all || wanted.count(f) != 0u) {
          FileUpdate u;
          u.file = f;
          u.attrs = attrs;
          resp.records.push_back(std::move(u));
        }
      });

  // Retire the moved files locally (delete-updates through the group so
  // every index drops its postings).  The deletes go to the recovery
  // journal too: replaying the group's full history (original upserts,
  // these deletes, then the install's re-upserts) converges to the final
  // state wherever the group ends up living.
  for (const FileUpdate& rec : resp.records) {
    FileUpdate del;
    del.file = rec.file;
    del.is_delete = true;
    if (config_.recovery_journal != nullptr) {
      cost += config_.recovery_journal->Append(req->group, del);
    }
    cost += group->StageUpdate(std::move(del));
  }
  cost += group->Commit();

  // Replication: this (primary) copy has applied everything it appended.
  if (config_.replicated && config_.recovery_journal != nullptr) {
    const uint64_t seq = config_.recovery_journal->Seq(req->group);
    MutexLock rlock(replica_mu_);
    uint64_t& applied = applied_seq_[req->group];
    applied = std::max(applied, seq);
  }
  if (req->drop_group && group->NumFiles() == 0) {
    groups_.erase(req->group);
    MutexLock rlock(replica_mu_);
    applied_seq_.erase(req->group);
  }
  return Response{Status::Ok(), Encode(resp), cost};
}

net::RpcHandler::Response IndexNode::HandleInstallGroup(const std::string& payload) {
  auto req = Decode<InstallGroupRequest>(payload);
  if (!req.ok()) return Response{req.status(), {}, {}};
  WriterMutexLock lock(groups_mu_);
  Status st = EnsureGroup(req->group, req->specs);
  if (!st.ok()) return Response{st, {}, {}};
  index::IndexGroup* group = Find(req->group);
  sim::Cost cost;
  if (config_.recovery_journal != nullptr) {
    cost += config_.recovery_journal->AppendBatch(req->group, req->records);
  }
  for (FileUpdate& u : req->records) {
    cost += group->StageUpdate(std::move(u));
  }
  cost += group->Commit();
  if (config_.replicated && config_.recovery_journal != nullptr) {
    const uint64_t seq = config_.recovery_journal->Seq(req->group);
    MutexLock rlock(replica_mu_);
    uint64_t& applied = applied_seq_[req->group];
    applied = std::max(applied, seq);
  }
  return Response{Status::Ok(), {}, cost};
}

net::RpcHandler::Response IndexNode::HandleRecoverGroup(const std::string& payload) {
  auto req = Decode<RecoverGroupRequest>(payload);
  if (!req.ok()) return Response{req.status(), {}, {}};
  if (config_.recovery_journal == nullptr) {
    return Response{
        Status::FailedPrecondition("node has no recovery journal attached"),
        {},
        {}};
  }
  WriterMutexLock lock(groups_mu_);
  Status st = EnsureGroup(req->group, req->specs);
  if (!st.ok()) return Response{st, {}, {}};
  index::IndexGroup* group = Find(req->group);

  // Replay the group's full journal history.  Note: the replay stages
  // copies straight into the group — not back into the journal — so
  // recovery does not double-append.
  RecoverGroupResponse resp;
  sim::Cost cost;
  st = config_.recovery_journal->Replay(
      req->group,
      [&](const FileUpdate& u) {
        cost += group->StageUpdate(FileUpdate(u));
        ++resp.records_replayed;
        return Status::Ok();
      },
      &cost);
  if (!st.ok()) return Response{st, {}, cost};
  cost += group->Commit();
  if (config_.replicated) {
    const uint64_t seq = config_.recovery_journal->Seq(req->group);
    MutexLock rlock(replica_mu_);
    uint64_t& applied = applied_seq_[req->group];
    applied = std::max(applied, seq);
  }
  return Response{Status::Ok(), Encode(resp), cost};
}

Status IndexNode::CatchUpGroupLocked(GroupId gid, uint64_t* replayed,
                                     sim::Cost* cost_out) {
  index::IndexGroup* group = Find(gid);
  if (group == nullptr) return Status::NotFound("no such group");
  GroupJournal* journal = config_.recovery_journal;
  uint64_t applied = 0;
  {
    MutexLock rlock(replica_mu_);
    applied = applied_seq_[gid];
  }
  const uint64_t target = journal->Seq(gid);
  if (applied >= target) return Status::Ok();

  metrics_.GetCounter("in.replica.catch_ups").Add(1);
  obs::SpanGuard span("replica.catch_up", gid, id_);
  span.Tag("group", gid);
  sim::Cost cost;
  uint64_t count = 0;
  auto apply = [&](const FileUpdate& u) {
    cost += group->StageUpdate(FileUpdate(u));
    ++count;
    return Status::Ok();
  };
  Status st;
  if (applied < journal->CheckpointSeq(gid)) {
    // The journal compacted past this replica's cursor: the missing
    // records no longer exist individually, so rebuild from the base
    // image by replaying the whole log into a fresh group.
    std::vector<IndexSpec> specs = group->Specs();
    groups_.erase(gid);
    PROPELLER_RETURN_IF_ERROR(EnsureGroup(gid, specs));
    group = Find(gid);
    st = journal->Replay(gid, apply, &cost);
  } else {
    st = journal->ReplayFrom(gid, applied, apply, &cost);
  }
  if (!st.ok()) return st;
  cost += group->Commit();
  {
    MutexLock rlock(replica_mu_);
    uint64_t& a = applied_seq_[gid];
    a = std::max(a, target);
  }
  span.Tag("records", count);
  span.Advance(cost);
  if (replayed != nullptr) *replayed += count;
  if (cost_out != nullptr) *cost_out += cost;
  return Status::Ok();
}

net::RpcHandler::Response IndexNode::HandleCatchUp(const std::string& payload) {
  auto req = Decode<CatchUpRequest>(payload);
  if (!req.ok()) return Response{req.status(), {}, {}};
  if (config_.recovery_journal == nullptr) {
    return Response{
        Status::FailedPrecondition("node has no recovery journal attached"),
        {},
        {}};
  }
  WriterMutexLock lock(groups_mu_);
  Status st = EnsureGroup(req->group, req->specs);
  if (!st.ok()) return Response{st, {}, {}};
  CatchUpResponse resp;
  sim::Cost cost;
  st = CatchUpGroupLocked(req->group, &resp.records_replayed, &cost);
  if (!st.ok()) return Response{st, {}, cost};
  {
    MutexLock rlock(replica_mu_);
    resp.seq = applied_seq_[req->group];
  }
  return Response{Status::Ok(), Encode(resp), cost};
}

net::RpcHandler::Response IndexNode::HandleDropGroup(const std::string& payload) {
  auto req = Decode<DropGroupRequest>(payload);
  if (!req.ok()) return Response{req.status(), {}, {}};
  WriterMutexLock lock(groups_mu_);
  groups_.erase(req->group);
  {
    MutexLock rlock(replica_mu_);
    applied_seq_.erase(req->group);
  }
  return Response{Status::Ok(), {}, sim::Cost(10e-6)};  // metadata-only work
}

net::RpcHandler::Response IndexNode::HandleReset(const std::string& payload) {
  auto req = Decode<ResetNodeRequest>(payload);
  if (!req.ok()) return Response{req.status(), {}, {}};
  Status st = Reset();
  return Response{st, {}, sim::Cost(10e-6)};  // metadata-only work
}

void IndexNode::InstallLeases(const HeartbeatResponse& resp, double now_s) {
  MutexLock lock(lease_mu_);
  lease_now_s_ = std::max(lease_now_s_, now_s);
  lease_num_shards_ = resp.num_shards;
  lease_index_names_ = resp.index_names;
  for (const ShardLeaseGrant& grant : resp.leases) {
    ShardLease& lease = leases_[grant.shard];
    lease.epoch = grant.epoch;
    lease.expiry_s = grant.expiry_s;
    if (!grant.has_mirror) continue;  // renewal: mirror unchanged
    lease.group_primary.clear();
    lease.group_replicas.clear();
    lease.file_group.clear();
    for (const auto& gp : grant.groups) lease.group_primary[gp.group] = gp.node;
    for (const auto& rs : grant.replicas) lease.group_replicas[rs.group] = rs.nodes;
    lease.file_group.reserve(grant.files.size());
    for (const auto& fg : grant.files) lease.file_group[fg.file] = fg.group;
  }
}

size_t IndexNode::NumLeases() const {
  MutexLock lock(lease_mu_);
  size_t live = 0;
  for (const auto& [shard, lease] : leases_) {
    if (lease.expiry_s >= lease_now_s_) ++live;
  }
  return live;
}

bool IndexNode::HasLease(uint32_t shard) const {
  MutexLock lock(lease_mu_);
  auto it = leases_.find(shard);
  return it != leases_.end() && it->second.expiry_s >= lease_now_s_;
}

uint64_t IndexNode::LeaseEpoch(uint32_t shard) const {
  MutexLock lock(lease_mu_);
  auto it = leases_.find(shard);
  return it == leases_.end() ? 0 : it->second.epoch;
}

net::RpcHandler::Response IndexNode::HandleResolveUpdate(
    const std::string& payload) {
  auto req = Decode<ResolveUpdateRequest>(payload);
  if (!req.ok()) return Response{req.status(), {}, {}};
  MutexLock lock(lease_mu_);
  const uint32_t n = lease_num_shards_ == 0 ? 1 : lease_num_shards_;
  // Every file's lookup is charged even on the refusal path: the node did
  // the mirror probes before discovering it cannot answer.
  sim::Cost cost(config_.resolve_lookup_us * 1e-6 *
                 static_cast<double>(req->files.size()));
  auto refuse = [&](const char* why) {
    resolve_stale_->Add(1);
    return Response{Status::StaleLocation(why), {}, cost};
  };
  ResolveUpdateResponse resp;
  resp.placements.resize(req->files.size());
  std::vector<uint64_t> epochs(n, 0);
  std::vector<GroupId> touched;
  bool have_replicas = false;
  for (size_t i = 0; i < req->files.size(); ++i) {
    const FileId file = req->files[i];
    const uint32_t shard = ShardOfFile(file, n);
    auto lit = leases_.find(shard);
    if (lit == leases_.end() || lit->second.expiry_s < lease_now_s_) {
      return refuse("no live lease for file's metadata shard");
    }
    const ShardLease& lease = lit->second;
    auto fit = lease.file_group.find(file);
    if (fit == lease.file_group.end()) {
      // Unknown to the mirror: only the master may place a new file.
      return refuse("file not in lease mirror");
    }
    auto git = lease.group_primary.find(fit->second);
    if (git == lease.group_primary.end()) {
      return refuse("group not in lease mirror");
    }
    resp.placements[i] = {file, fit->second, git->second};
    epochs[shard] = lease.epoch;
    touched.push_back(fit->second);
    have_replicas = have_replicas || !lease.group_replicas.empty();
  }
  if (have_replicas) {
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (GroupId g : touched) {
      auto lit = leases_.find(ShardOfGroup(g, n));
      if (lit == leases_.end()) continue;
      auto rit = lit->second.group_replicas.find(g);
      if (rit == lit->second.group_replicas.end()) continue;
      resp.replicas.push_back(GroupReplicaSet{g, rit->second});
    }
  }
  resp.shard_epochs = std::move(epochs);
  resolve_delegated_->Add(1);
  return Response{Status::Ok(), Encode(resp), cost};
}

net::RpcHandler::Response IndexNode::HandleResolveSearch(
    const std::string& payload) {
  auto req = Decode<ResolveSearchRequest>(payload);
  if (!req.ok()) return Response{req.status(), {}, {}};
  MutexLock lock(lease_mu_);
  const uint32_t n = lease_num_shards_ == 0 ? 1 : lease_num_shards_;
  auto refuse = [&](const char* why, sim::Cost cost) {
    resolve_stale_->Add(1);
    return Response{Status::StaleLocation(why), {}, cost};
  };
  if (!req->index_name.empty()) {
    // The mirror's catalog may lag a concurrent create_index; refuse so
    // the client falls back to the master's authoritative answer.
    bool known = false;
    for (const auto& name : lease_index_names_) {
      if (name == req->index_name) { known = true; break; }
    }
    if (!known) return refuse("index not in lease catalog", sim::Cost());
  }
  // Answer for every shard with a live lease; the client merges responses
  // across holders and falls back to the master unless the union covers
  // all shards.
  std::map<NodeId, std::vector<GroupId>> by_node;
  std::vector<uint64_t> epochs(n, 0);
  uint64_t covered_groups = 0;
  for (const auto& [shard, lease] : leases_) {
    if (lease.expiry_s < lease_now_s_) continue;
    epochs[shard % n] = lease.epoch;
    for (const auto& [group, node] : lease.group_primary) {
      by_node[node].push_back(group);
      ++covered_groups;
    }
  }
  bool any = false;
  for (uint64_t e : epochs) any = any || e != 0;
  if (!any) return refuse("no live leases", sim::Cost());
  sim::Cost cost(config_.resolve_lookup_us * 1e-6 *
                 static_cast<double>(covered_groups + 1));
  ResolveSearchResponse resp;
  for (auto& [node, groups] : by_node) {
    resp.targets.push_back({node, std::move(groups)});
  }
  for (const auto& [shard, lease] : leases_) {
    if (lease.expiry_s < lease_now_s_) continue;
    for (const auto& [group, nodes] : lease.group_replicas) {
      resp.replicas.push_back(GroupReplicaSet{group, nodes});
    }
  }
  std::sort(resp.replicas.begin(), resp.replicas.end(),
            [](const GroupReplicaSet& a, const GroupReplicaSet& b) {
              return a.group < b.group;
            });
  resp.shard_epochs = std::move(epochs);
  resolve_delegated_->Add(1);
  return Response{Status::Ok(), Encode(resp), cost};
}

size_t IndexNode::NumGroups() const {
  ReaderMutexLock lock(groups_mu_);
  return groups_.size();
}

std::vector<HeartbeatRequest::GroupStat> IndexNode::GroupStats() const {
  ReaderMutexLock lock(groups_mu_);
  std::vector<HeartbeatRequest::GroupStat> stats;
  stats.reserve(groups_.size());
  for (const auto& [gid, group] : groups_) {
    stats.push_back({gid, group->NumFiles(), group->ApproxPages()});
  }
  return stats;
}

uint64_t IndexNode::TotalPages() const {
  ReaderMutexLock lock(groups_mu_);
  uint64_t total = 0;
  for (const auto& [gid, group] : groups_) total += group->ApproxPages();
  return total;
}

obs::MetricsSnapshot IndexNode::MetricsSnapshot() const {
  obs::MetricsSnapshot snap = metrics_.Snapshot();
  sim::PageCacheStats cache = io_.CacheStats();
  snap.counters["io.cache.hits"] += cache.hits;
  snap.counters["io.cache.misses"] += cache.misses;
  snap.counters["io.cache.evictions"] += cache.evictions;
  {
    ReaderMutexLock lock(groups_mu_);
    snap.gauges["in.groups"] = static_cast<double>(groups_.size());
    uint64_t pages = 0;
    for (const auto& [gid, group] : groups_) pages += group->ApproxPages();
    snap.gauges["in.pages"] = static_cast<double>(pages);
    if (config_.segmented_index) {
      uint64_t segments = 0;
      for (const auto& [gid, group] : groups_) segments += group->NumSegments();
      snap.gauges["in.segments"] = static_cast<double>(segments);
    }
    if (config_.replicated && config_.recovery_journal != nullptr) {
      // Total replica lag: journal records this node's copies have not yet
      // applied (0 = every copy is fresh).
      uint64_t lag = 0;
      MutexLock rlock(replica_mu_);
      for (const auto& [gid, group] : groups_) {
        auto it = applied_seq_.find(gid);
        const uint64_t applied = it == applied_seq_.end() ? 0 : it->second;
        const uint64_t seq = config_.recovery_journal->Seq(gid);
        if (seq > applied) lag += seq - applied;
      }
      snap.gauges["in.replica.lag"] = static_cast<double>(lag);
    }
  }
  return snap;
}

Status IndexNode::CrashAndRecover() {
  WriterMutexLock lock(groups_mu_);
  for (auto& [gid, group] : groups_) {
    group->SimulateCrashLosingMemoryState();
    PROPELLER_RETURN_IF_ERROR(group->RecoverPendingFromWal());
    // Recovered updates will commit on the next tick or search (the
    // pre-crash oldest-pending stamp survives recovery when the WAL held
    // records, so the commit timeout still fires for them).
  }
  io_.DropCaches();  // restart loses the page cache
  return Status::Ok();
}

Status IndexNode::Reset() {
  // Lease soft state does not survive a reset: the node rejoins with no
  // delegation rights and waits for a fresh heartbeat grant.  (lease_mu_
  // ranks below groups_mu_, so clear it before taking the map lock.)
  {
    MutexLock lock(lease_mu_);
    leases_.clear();
    lease_index_names_.clear();
    lease_num_shards_ = 0;
  }
  WriterMutexLock lock(groups_mu_);
  groups_.clear();
  {
    MutexLock rlock(replica_mu_);
    applied_seq_.clear();
  }
  io_.DropCaches();
  return Status::Ok();
}

}  // namespace propeller::core
