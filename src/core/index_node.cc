#include "core/index_node.h"

#include <algorithm>
#include <functional>

#include "common/logging.h"
#include "core/group_journal.h"
#include "obs/fork_join.h"
#include "obs/trace.h"

namespace propeller::core {

namespace {
// Search workers per node (the paper's 16 threads), at least one.
size_t Workers(const IndexNodeConfig& config) {
  return static_cast<size_t>(std::max(1, config.search_threads));
}
}  // namespace

IndexNode::IndexNode(NodeId id, IndexNodeConfig config)
    : id_(id),
      config_(config),
      io_(config.io),
      admission_(Workers(config), config.admission_queue_bound),
      searches_(&metrics_.GetCounter("in.searches")),
      stage_batches_(&metrics_.GetCounter("in.stage_batches")),
      commit_timeouts_(&metrics_.GetCounter("in.commit_timeouts")),
      search_latency_(&metrics_.GetHistogram("in.search.latency_s")),
      admit_admitted_(&metrics_.GetCounter("in.admit.admitted")),
      admit_shed_(&metrics_.GetCounter("in.admit.shed")),
      admit_wait_(&metrics_.GetHistogram("in.admit.wait_s")),
      admit_depth_(&metrics_.GetGauge("in.admit.queue_depth")),
      admit_depth_peak_(&metrics_.GetGauge("in.admit.queue_peak")) {
  if (config_.parallel_search) {
    search_pool_ = std::make_unique<ThreadPool>(Workers(config_));
  }
}

template <typename Body>
net::RpcHandler::Response IndexNode::RunAdmitted(bool stamped,
                                                 double arrival_s, Body body) {
  if (!stamped) return body();
  {
    MutexLock lock(admission_mu_);
    if (!admission_.Admit(arrival_s)) {
      admit_shed_->Add(1);
      return Response{Status::Overloaded("admission queue full"), {},
                      sim::Cost(10e-6)};  // metadata-only work
    }
    admit_admitted_->Add(1);
    const auto depth = static_cast<double>(admission_.Waiting());
    admit_depth_->Set(depth);
    if (depth > admit_depth_peak_->value()) admit_depth_peak_->Set(depth);
  }
  Response out = body();
  MutexLock lock(admission_mu_);
  if (!out.status.ok()) {
    admission_.Cancel();
    return out;
  }
  const double service = out.cost.seconds();
  const sim::ServerQueue::Slot slot = admission_.Finish(arrival_s, service);
  admit_wait_->Observe(slot.start - arrival_s);
  out.cost = sim::Cost(slot.finish - arrival_s);
  if (obs::CurrentTrace().active()) {
    obs::CurrentTrace().now_s += out.cost.seconds() - service;
  }
  return out;
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
  return options;
}

Status IndexNode::EnsureGroup(GroupId id, const std::vector<IndexSpec>& specs,
                              sim::Cost* cost) {
  auto it = groups_.find(id);
  if (it == groups_.end()) {
    it = groups_.try_emplace(id).first;
    it->second = std::make_unique<index::IndexGroup>(id, &io_, GroupOptions());
  }
  for (const IndexSpec& spec : specs) {
    if (it->second->HasIndex(spec.name)) continue;
    PROPELLER_RETURN_IF_ERROR(it->second->CreateIndex(spec, cost));
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
  if (method == "in.catch_up") return HandleCatchUp(payload);
  if (method == "in.drop_group") return HandleDropGroup(payload);
  if (method == "in.reset") return HandleReset(payload);
  return Response{Status::NotFound("unknown method " + method), {}, {}};
}

net::RpcHandler::Response IndexNode::HandleCreateGroup(const std::string& payload) {
  auto req = Decode<CreateGroupRequest>(payload);
  if (!req.ok()) return Response{req.status(), {}, {}};
  WriterMutexLock lock(groups_mu_);
  // Metadata work, plus building a new index over a populated group.
  sim::Cost cost(10e-6);
  Status st = EnsureGroup(req->group, req->specs, &cost);
  return Response{st, {}, cost};
}

net::RpcHandler::Response IndexNode::HandleStageUpdates(const std::string& payload) {
  auto req = Decode<StageUpdatesRequest>(payload);
  if (!req.ok()) return Response{req.status(), {}, {}};
  // An unknown role would take the appender branch below without a commit
  // sequence; reject it before admission, the journal or any staging.
  if (req->replica_role > kReplicaRoleSecondary) {
    return Response{Status::InvalidArgument(
                        "unknown replica role " +
                        std::to_string(req->replica_role)),
                    {}, {}};
  }
  // Admission-stamped batches queue behind the node's workers; shedding
  // happens before the journal append or any staging, so a shed batch has
  // no side effects whatsoever.
  return RunAdmitted(config_.admission_control && req->admission != 0,
                     req->now_s, [&] { return StageUpdatesAdmitted(*req); });
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
  const uint64_t count = req.updates.size();
  uint64_t acked_seq = 0;
  if (config_.recovery_journal != nullptr && !secondary) {
    // The appender has applied its own records, so a copy that was current
    // stays current and anti-entropy never replays it.  A copy that missed
    // earlier records (a survivor whose promotion catch-up failed) must
    // not step over them: it stays behind and the next in.tick replays the
    // gap.  Appending under replica_mu_ keeps
    // concurrent stagers' steps in journal order.  Only a role-stamped
    // primary acks the sequence (unstamped responses stay empty).
    MutexLock rlock(replica_mu_);
    uint64_t appended_seq = 0;
    cost += config_.recovery_journal->AppendBatch(req.group, req.updates,
                                                  &appended_seq);
    uint64_t& applied = applied_seq_[req.group];
    if (applied + count >= appended_seq) applied = appended_seq;
    if (req.replica_role == kReplicaRolePrimary) acked_seq = appended_seq;
  }
  // StageUpdate also stamps the group's oldest-pending clock (first stager
  // after a commit claims the commit-timeout slot) — atomically with the
  // staging itself, under the group mutex.
  for (FileUpdate& u : req.updates) {
    cost += group->StageUpdate(std::move(u), req.now_s);
  }
  span.Advance(cost);
  if (secondary) {
    MutexLock rlock(replica_mu_);
    uint64_t& applied = applied_seq_[req.group];
    applied += count;
    acked_seq = applied;
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
  return RunAdmitted(config_.admission_control && req->arrival_s > 0,
                     req->arrival_s, [&] { return SearchAdmitted(*req); });
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

  // Run the per-group searches as one fan-out forked at this instant — on
  // the node's worker pool when parallel search is enabled, inline
  // otherwise.  Results land in per-group slots and are aggregated in
  // request order, so the response bytes, the simulated makespan and the
  // trace are identical in both modes.  Search commits staged updates and
  // clears the group's oldest-pending stamp internally, under the group
  // mutex, so a stage racing this search can never have its timeout stamp
  // wiped while its update stays pending.
  std::vector<index::IndexGroup::SearchResult> results(targets.size());
  const obs::TraceCursor fanout_base = obs::CurrentTrace();
  obs::ForkBranches(search_pool_.get(), targets.size(), fanout_base,
                    [&](size_t i) {
                      results[i] = targets[i]->Search(req.predicate);
                    });

  // Schedule the simulated costs onto `search_threads` workers
  // (longest-processing-time greedy: every group arrives at 0, longest
  // first) — the node's latency is the makespan of that schedule.
  SearchResponse resp;
  size_t hits = 0;
  for (const index::IndexGroup::SearchResult& r : results) hits += r.files.size();
  resp.files.reserve(hits);
  std::vector<double> group_costs;
  group_costs.reserve(results.size());
  for (const index::IndexGroup::SearchResult& r : results) {
    group_costs.push_back(r.cost.seconds());
    resp.files.insert(resp.files.end(), r.files.begin(), r.files.end());
  }

  std::sort(group_costs.begin(), group_costs.end(), std::greater<>());
  sim::ServerQueue workers(Workers(config_));
  double makespan = 0;
  for (double c : group_costs) {
    makespan = std::max(makespan, workers.Finish(0, c).finish);
  }
  searches_->Add(1);
  search_latency_->Observe(makespan);
  // Join: the node answers when its worker schedule drains.
  obs::AdvanceTo(fanout_base, makespan);
  return Response{Status::Ok(), Encode(resp), sim::Cost(makespan)};
}

net::RpcHandler::Response IndexNode::HandleTick(const std::string& payload) {
  auto req = Decode<TickRequest>(payload);
  if (!req.ok()) return Response{req.status(), {}, {}};
  // Journal compaction must not interleave with the staging path's
  // journal-append + stage pair (the checkpoint would drop an appended
  // record whose update is not yet in the group, or keep one whose update
  // already is).  Stagers hold groups_mu_ shared across both steps, so
  // taking it exclusively here makes the checkpoint exact.
  const bool compacting =
      config_.segmented_index && config_.recovery_journal != nullptr;
  sim::Cost cost;
  if (compacting) {
    WriterMutexLock lock(groups_mu_);
    cost = TickLocked(req->now_s, /*checkpoint=*/true);
  } else {
    ReaderMutexLock lock(groups_mu_);
    cost = TickLocked(req->now_s, /*checkpoint=*/false);
  }
  // Anti-entropy: close any gap between this node's applied sequences and
  // the journal's.  Every local append advances the applied sequence, so
  // only copies that missed writes lag — replication's secondaries; a
  // journal-only cluster never finds lag.  A cheap shared-lock pass detects
  // lag; only when some group is behind do we take the map exclusively to
  // replay (which must not interleave with stagers, who hold groups_mu_
  // shared across their journal-append + stage pair).
  if (config_.recovery_journal != nullptr) {
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
  sim::Cost cost;
  if (config_.recovery_journal != nullptr) {
    // A copy that has not yet replayed the journal (a survivor whose
    // promotion catch-up failed, waiting for its next in.tick) would hand
    // off a partial group that the install then marks as current: replay
    // the gap first.  A current copy pays nothing here.
    Status st = CatchUpGroupLocked(req->group, nullptr, &cost);
    if (!st.ok()) return Response{st, {}, cost};
  }
  index::IndexGroup* group = Find(req->group);
  if (group == nullptr) return Response{Status::NotFound("no such group"), {}, {}};

  cost += group->Commit();  // migrate committed state only

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

  // This (primary) copy has applied everything it appended.
  MarkJournalApplied(req->group);
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
  sim::Cost cost;
  Status st = EnsureGroup(req->group, req->specs, &cost);
  if (!st.ok()) return Response{st, {}, {}};
  index::IndexGroup* group = Find(req->group);
  if (config_.recovery_journal != nullptr) {
    cost += config_.recovery_journal->AppendBatch(req->group, req->records);
  }
  for (FileUpdate& u : req->records) {
    cost += group->StageUpdate(std::move(u));
  }
  cost += group->Commit();
  MarkJournalApplied(req->group);
  return Response{Status::Ok(), {}, cost};
}

void IndexNode::MarkJournalApplied(GroupId gid) {
  if (config_.recovery_journal == nullptr) return;
  const uint64_t seq = config_.recovery_journal->Seq(gid);
  MutexLock rlock(replica_mu_);
  uint64_t& applied = applied_seq_[gid];
  applied = std::max(applied, seq);
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
    PROPELLER_RETURN_IF_ERROR(EnsureGroup(gid, specs, &cost));
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
  WriterMutexLock lock(groups_mu_);
  sim::Cost cost;
  Status st = EnsureGroup(req->group, req->specs, &cost);
  if (!st.ok()) return Response{st, {}, {}};
  CatchUpResponse resp;
  // No journal, nothing to replay: the group stays as is (empty if new).
  if (config_.recovery_journal == nullptr) {
    return Response{Status::Ok(), Encode(resp), sim::Cost(10e-6) + cost};
  }
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
    if (config_.recovery_journal != nullptr) {
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
