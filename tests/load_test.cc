// Open-loop traffic engine + admission control (ctest -L load, tsan-load
// preset): schedule determinism, Zipfian/diurnal workload shaping, the
// bounded virtual-time admission queue (never exceeds its bound, sheds
// with kOverloaded and zero side effects), bit-identical behavior when the
// engine is unused, the FpsCopier tick-size-invariance regression, and an
// open-loop chaos soak asserting zero acknowledged-write loss across a
// node wipe and recovery.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "core/cluster.h"
#include "core/proto.h"
#include "fs/vfs.h"
#include "load/traffic_engine.h"
#include "load/workload.h"
#include "net/fault.h"
#include "workload/copier.h"
#include "workload/dataset.h"

namespace propeller::load {
namespace {

using core::ClusterConfig;
using core::PropellerCluster;
using index::AttrValue;
using index::CmpOp;
using index::FileId;
using index::Predicate;

index::IndexSpec SizeIndex() {
  return {"by_size", index::IndexType::kBTree, {"size"}};
}

// --- schedule generation -------------------------------------------------

TEST(ScheduleTest, DeterministicPerSeedAndOrdered) {
  TrafficSpec spec;
  spec.offered_qps = 500;
  spec.duration_s = 4;
  spec.start_s = 2.5;
  spec.seed = 77;
  spec.num_files = 1000;
  spec.tenants = {{"a", 2.0, 0.8, 0.9}, {"b", 1.0, 0.1, 0.6}};

  OpenLoopEngine e1(spec), e2(spec);
  ASSERT_EQ(e1.schedule().size(), e2.schedule().size());
  ASSERT_GT(e1.schedule().size(), 1000u);  // ~2000 expected
  for (size_t i = 0; i < e1.schedule().size(); ++i) {
    const Arrival &a = e1.schedule()[i], &b = e2.schedule()[i];
    ASSERT_EQ(a.t_s, b.t_s);  // bit-identical, not approximately equal
    ASSERT_EQ(a.tenant, b.tenant);
    ASSERT_EQ(a.op, b.op);
    ASSERT_EQ(a.rank, b.rank);
    ASSERT_EQ(a.file, b.file);
  }

  double prev = 0;
  for (const Arrival& a : e1.schedule()) {
    EXPECT_GE(a.t_s, spec.start_s);
    EXPECT_LT(a.t_s, spec.start_s + spec.duration_s);
    EXPECT_GE(a.t_s, prev);  // arrival order
    EXPECT_GE(a.file, 1u);
    EXPECT_LE(a.file, spec.num_files);
    EXPECT_LT(a.rank, spec.num_files);
    prev = a.t_s;
  }

  spec.seed = 78;
  OpenLoopEngine e3(spec);
  bool differs = e3.schedule().size() != e1.schedule().size();
  for (size_t i = 0; !differs && i < e1.schedule().size(); ++i) {
    differs = e1.schedule()[i].t_s != e3.schedule()[i].t_s;
  }
  EXPECT_TRUE(differs) << "different seeds produced the same schedule";
}

TEST(ScheduleTest, TenantWeightsAndMixesShapeTheSchedule) {
  TrafficSpec spec;
  spec.offered_qps = 2000;
  spec.duration_s = 5;
  spec.seed = 9;
  spec.num_files = 500;
  // Tenant 0 gets 3x the traffic and only searches; tenant 1 only updates.
  spec.tenants = {{"heavy", 3.0, 1.0, 0.9}, {"light", 1.0, 0.0, 0.9}};
  OpenLoopEngine engine(spec);

  uint64_t counts[2] = {0, 0};
  for (const Arrival& a : engine.schedule()) {
    ASSERT_LT(a.tenant, 2u);
    ++counts[a.tenant];
    if (a.tenant == 0) {
      EXPECT_EQ(a.op, OpKind::kSearch);
    } else {
      EXPECT_EQ(a.op, OpKind::kUpdate);
    }
  }
  const double share =
      static_cast<double>(counts[0]) / static_cast<double>(counts[0] + counts[1]);
  EXPECT_NEAR(share, 0.75, 0.03);
}

TEST(ScheduleTest, DiurnalModulationMovesLoadIntoThePeak) {
  TrafficSpec spec;
  spec.offered_qps = 1000;
  spec.duration_s = 10;
  spec.seed = 4;
  spec.diurnal_amplitude = 0.8;
  spec.diurnal_period_s = 10;  // sin > 0 over the first half of the run
  OpenLoopEngine engine(spec);

  uint64_t first_half = 0, second_half = 0;
  for (const Arrival& a : engine.schedule()) {
    (a.t_s < 5.0 ? first_half : second_half) += 1;
  }
  // rate(t) = 1000 * (1 + 0.8 sin(2pi t/10)): the first half integrates to
  // ~7546 arrivals, the second to ~2454.
  EXPECT_GT(first_half, second_half * 2);
  // Thinning preserves the offered total on average.
  EXPECT_NEAR(static_cast<double>(first_half + second_half), 10'000, 500);
}

TEST(ScheduleTest, ZipfianPopularityConcentratesOnTheHead) {
  TrafficSpec spec;
  spec.offered_qps = 2000;
  spec.duration_s = 5;
  spec.seed = 12;
  spec.num_files = 1000;
  spec.tenants = {{"t", 1.0, 0.5, 0.9}};
  OpenLoopEngine engine(spec);

  uint64_t head = 0;  // ranks in the top 10%
  for (const Arrival& a : engine.schedule()) {
    if (a.rank < spec.num_files / 10) ++head;
  }
  EXPECT_GT(head * 2, engine.schedule().size())
      << "theta=0.9 should put over half the mass on the top 10% of ranks";
}

// --- wire format ---------------------------------------------------------

TEST(ProtoTest, SearchRequestArrivalStampRoundTrips) {
  core::SearchRequest req;
  req.groups = {7, 9};
  req.predicate.And("size", CmpOp::kGe, AttrValue(int64_t{42}));
  req.epoch = 3;
  req.arrival_s = 12.5;
  auto out = core::Decode<core::SearchRequest>(core::Encode(req));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->arrival_s, 12.5);
  EXPECT_EQ(out->epoch, 3u);
  EXPECT_EQ(out->groups, req.groups);

  // With read-your-writes floors present too.
  req.min_seqs = {{7, 11}};
  out = core::Decode<core::SearchRequest>(core::Encode(req));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->arrival_s, 12.5);
  ASSERT_EQ(out->min_seqs.size(), 1u);
  EXPECT_EQ(out->min_seqs[0].seq, 11u);

  // Unstamped decodes as 0.
  core::SearchRequest plain;
  plain.groups = {7, 9};
  plain.predicate.And("size", CmpOp::kGe, AttrValue(int64_t{42}));
  auto back = core::Decode<core::SearchRequest>(core::Encode(plain));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->arrival_s, 0.0);
}

TEST(ProtoTest, StageUpdatesAdmissionFlagRoundTrips) {
  core::StageUpdatesRequest req;
  req.group = 5;
  req.now_s = 1.5;
  core::FileUpdate u;
  u.file = 99;
  u.attrs.Set("size", AttrValue(int64_t{7}));
  req.updates.push_back(u);
  req.admission = 1;
  auto out = core::Decode<core::StageUpdatesRequest>(core::Encode(req));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->admission, 1);
  EXPECT_EQ(out->replica_role, core::kReplicaRoleNone);

  // Admission composes with a replica role.
  req.replica_role = core::kReplicaRolePrimary;
  req.epoch = 8;
  out = core::Decode<core::StageUpdatesRequest>(core::Encode(req));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->admission, 1);
  EXPECT_EQ(out->replica_role, core::kReplicaRolePrimary);
  EXPECT_EQ(out->epoch, 8u);

  req.admission = 0;
  out = core::Decode<core::StageUpdatesRequest>(core::Encode(req));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->admission, 0);
}

// --- admission queue -----------------------------------------------------

// Floods one small cluster far past capacity through the engine.
RunStats Flood(PropellerCluster& cluster) {
  workload::DatasetSpec dspec;
  dspec.num_files = 200;
  (void)cluster.client().CreateIndex(SizeIndex());
  (void)cluster.client().BatchUpdate(workload::SyntheticRows(1, 200, dspec),
                                     cluster.now());
  cluster.AdvanceTime(6.0);
  // Warm the read path (placement cache, index pages) with unstamped
  // searches so the admitted ops under flood measure queueing, not
  // first-touch cache misses.
  Predicate warm;
  warm.And("size", CmpOp::kGe, AttrValue(int64_t{1}));
  for (int i = 0; i < 8; ++i) (void)cluster.client().Search(warm, "by_size");

  TrafficSpec spec;
  spec.offered_qps = 20e6;  // far past any plausible capacity
  spec.duration_s = 2000.0 / spec.offered_qps;
  spec.start_s = cluster.now();
  spec.seed = 3;
  spec.num_files = 200;
  OpenLoopEngine engine(spec);
  RunOptions opts;
  opts.deadline_s = 0;  // classification by shed/ok only
  return engine.Run(cluster, opts);
}

TEST(AdmissionTest, BoundedQueueNeverExceedsBoundAndSheds) {
  ClusterConfig cfg;
  cfg.index_nodes = 2;
  cfg.master.acg_policy.cluster_target = 50;
  cfg.admission_control = true;
  cfg.admission_queue_bound = 4;
  PropellerCluster cluster(cfg);
  RunStats stats = Flood(cluster);

  EXPECT_GT(stats.ok, 0u);
  EXPECT_GT(stats.shed, stats.ok) << "a 10000x overload must shed most ops";
  EXPECT_GT(stats.queue_peak, 0.0);
  EXPECT_LE(stats.queue_peak, 4.0) << "waiting line exceeded its bound";
  for (size_t i = 0; i < cluster.num_index_nodes(); ++i) {
    obs::MetricsSnapshot snap = cluster.index_node(i).MetricsSnapshot();
    EXPECT_LE(snap.gauges["in.admit.queue_peak"], 4.0) << "node " << i;
  }

  const auto counters = cluster.Stats().metrics.counters;
  const auto shed_it = counters.find("in.admit.shed");
  ASSERT_TRUE(shed_it != counters.end());
  EXPECT_GT(shed_it->second, 0u);
  // Backpressure is visible at every layer: transport counts kOverloaded
  // responses, the client counts shed searches/updates...
  EXPECT_GT(counters.at("net.responses.overloaded"), 0u);
  EXPECT_GT(counters.at("client.search.shed") + counters.at("client.update.shed"),
            0u);
  // ...and kOverloaded is never retried (only kUnavailable is): a clean
  // transport means a retry-free run even under total overload.
  EXPECT_EQ(counters.at("client.rpc.retries"), 0u);
}

TEST(AdmissionTest, UnboundedQueueModelsWaitingButNeverSheds) {
  auto flood_with_bound = [](size_t bound) {
    ClusterConfig cfg;
    cfg.index_nodes = 2;
    cfg.master.acg_policy.cluster_target = 50;
    cfg.admission_control = true;
    cfg.admission_queue_bound = bound;
    // Segmented groups and a fast network keep the non-queue latency
    // components tight (snapshot reads instead of commit-barrier drains,
    // microsecond transfers instead of a ~0.5ms fixed overhead), so the
    // p99 comparison below measures queueing delay and nothing else.
    cfg.segmented_index = true;
    cfg.net.latency_us = 3;
    cfg.net.bandwidth_mb_per_s = 4000;
    PropellerCluster cluster(cfg);
    return Flood(cluster);
  };
  RunStats unbounded = flood_with_bound(0);  // the "admission off" arm
  RunStats bounded = flood_with_bound(4);

  EXPECT_EQ(unbounded.shed, 0u);
  EXPECT_EQ(unbounded.failed, 0u);
  EXPECT_EQ(unbounded.ok, unbounded.offered);
  EXPECT_GT(unbounded.queue_peak, 100.0)
      << "the waiting line should grow without bound";
  // Everything is accepted, so every sojourn pays the full backlog's
  // queueing delay — the tail collapse the saturation bench measures.
  // The bounded queue keeps admitted waits under bound/workers service
  // times, orders of magnitude shorter.
  EXPECT_GT(unbounded.p99_s, bounded.p99_s * 5);
}

TEST(AdmissionTest, DeterministicRunToRun) {
  auto run = [] {
    ClusterConfig cfg;
    cfg.index_nodes = 2;
    cfg.master.acg_policy.cluster_target = 50;
    cfg.admission_control = true;
    cfg.admission_queue_bound = 4;
    PropellerCluster cluster(cfg);
    return Flood(cluster);
  };
  RunStats a = run(), b = run();
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.p50_s, b.p50_s);  // bitwise, not approximately
  EXPECT_EQ(a.p99_s, b.p99_s);
  EXPECT_EQ(a.queue_peak, b.queue_peak);
}

// With the engine unused (no arrival stamps), an admission-enabled cluster
// is bit-identical to a plain one: same simulated costs, same wire bytes.
TEST(AdmissionTest, UnstampedTrafficIsBitIdenticalWithAdmissionOn) {
  auto run = [](bool admission) {
    ClusterConfig cfg;
    cfg.index_nodes = 2;
    cfg.master.acg_policy.cluster_target = 50;
    cfg.admission_control = admission;
    cfg.admission_queue_bound = 1;  // tightest bound: would shed if consulted
    PropellerCluster cluster(cfg);
    (void)cluster.client().CreateIndex(SizeIndex());
    workload::DatasetSpec dspec;
    dspec.num_files = 300;
    (void)cluster.client().BatchUpdate(workload::SyntheticRows(1, 300, dspec),
                                       cluster.now());
    cluster.AdvanceTime(6.0);
    Predicate p;
    p.And("size", CmpOp::kGe, AttrValue(int64_t{1000}));
    std::vector<double> costs;
    for (int i = 0; i < 20; ++i) {
      auto r = cluster.client().Search(p, "by_size");  // no arrival stamp
      EXPECT_TRUE(r.ok());
      costs.push_back(r->cost.seconds());
    }
    auto counters = cluster.Stats().metrics.counters;
    return std::make_pair(costs, counters.at("net.bytes_sent"));
  };
  auto [costs_off, bytes_off] = run(false);
  auto [costs_on, bytes_on] = run(true);
  EXPECT_EQ(costs_off, costs_on);  // exact, element-wise
  EXPECT_EQ(bytes_off, bytes_on);
}

// --- FpsCopier tick-size invariance (regression) -------------------------

TEST(CopierTest, CopyCountIsTickSizeInvariant) {
  fs::Vfs coarse_vfs, fine_vfs;
  workload::FpsCopier coarse(&coarse_vfs, /*fps=*/7.0, "/dst", /*seed=*/3);
  workload::FpsCopier fine(&fine_vfs, /*fps=*/7.0, "/dst", /*seed=*/3);

  ASSERT_TRUE(coarse.AdvanceTo(9.5).ok());
  // The same window walked in uneven small steps (including steps smaller
  // than one inter-copy gap) must produce the same copies.
  for (double t = 0.05; t < 9.5; t += 0.05) ASSERT_TRUE(fine.AdvanceTo(t).ok());
  ASSERT_TRUE(fine.AdvanceTo(9.5).ok());
  EXPECT_EQ(coarse.TotalCopied(), fine.TotalCopied());
  EXPECT_EQ(coarse.TotalCopied(), static_cast<uint64_t>(9.5 * 7.0));
  EXPECT_EQ(coarse_vfs.ns().NumFiles(), fine_vfs.ns().NumFiles());
}

TEST(CopierTest, NonMonotoneClockNeverDoubleCounts) {
  fs::Vfs vfs;
  workload::FpsCopier copier(&vfs, /*fps=*/10.0, "/dst");
  ASSERT_TRUE(copier.AdvanceTo(2.0).ok());
  EXPECT_EQ(copier.TotalCopied(), 20u);
  // A clock that jumps backwards (or re-delivers the same instant) copies
  // nothing extra.
  EXPECT_EQ(*copier.AdvanceTo(1.0), 0u);
  EXPECT_EQ(*copier.AdvanceTo(2.0), 0u);
  EXPECT_EQ(copier.TotalCopied(), 20u);
  // And the schedule picks up exactly where virtual time left off.
  EXPECT_EQ(*copier.AdvanceTo(3.0), 10u);
}

// --- open-loop chaos soak ------------------------------------------------

// Engine traffic (including a flood phase that sheds) runs across a flaky
// network, a permanent node wipe, and journal recovery.  Every update the
// engine saw acknowledged must be queryable at the end; every update that
// was shed (and whose file was never acknowledged elsewhere) must NOT be.
TEST(OpenLoopSoakTest, ZeroAcknowledgedWriteLossAcrossWipeAndRecovery) {
  ClusterConfig cfg;
  cfg.index_nodes = 4;
  cfg.master.acg_policy.cluster_target = 8;
  cfg.master.acg_policy.split_threshold = 1000;
  cfg.master.acg_policy.merge_limit = 1000;
  cfg.recovery_journal = true;
  cfg.admission_control = true;
  cfg.admission_queue_bound = 32;
  PropellerCluster cluster(cfg);
  ASSERT_TRUE(cluster.client().CreateIndex(SizeIndex()).ok());
  cluster.AdvanceTime(1.0);

  std::map<FileId, int64_t> model;          // acked updates, last write wins
  std::set<FileId> shed_files, failed_files;
  auto sink = [&](const Arrival& a, Fate fate, const Status&, double) {
    if (a.op != OpKind::kUpdate) return;
    switch (fate) {
      case Fate::kOk:
        model[a.file] = *OpenLoopEngine::UpdateFor(a).attrs.FindInt("size");
        break;
      case Fate::kShed:
        shed_files.insert(a.file);
        break;
      case Fate::kFailed:
        failed_files.insert(a.file);
        break;
    }
  };
  auto run_phase = [&](uint64_t seed, double offered_qps, uint64_t requests) {
    TrafficSpec spec;
    spec.offered_qps = offered_qps;
    spec.duration_s = static_cast<double>(requests) / offered_qps;
    spec.start_s = cluster.now();
    spec.seed = seed;
    spec.num_files = 300;
    spec.tenants = {{"mixed", 1.0, 0.6, 0.9}};
    OpenLoopEngine engine(spec);
    RunOptions opts;
    opts.sink = sink;
    return engine.Run(cluster, opts);
  };
  // Checks that everything acknowledged so far is queryable, exactly.
  auto check_no_loss = [&](const char* phase) {
    SCOPED_TRACE(phase);
    Predicate p;
    p.And("size", CmpOp::kGe, AttrValue(int64_t{1}));
    auto r = cluster.client().Search(p, "by_size");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    std::set<FileId> got(r->files.begin(), r->files.end());
    for (const auto& [f, size] : model) {
      EXPECT_TRUE(got.count(f) != 0u)
          << "acknowledged write to file " << f << " lost";
    }
    // Shed batches must have had zero side effects: a file only ever
    // touched by shed updates cannot exist anywhere.
    for (FileId f : shed_files) {
      if (model.count(f) != 0u || failed_files.count(f) != 0u) continue;
      EXPECT_TRUE(got.count(f) == 0u)
          << "file " << f << " was only ever shed, yet it is indexed";
    }
  };

  // Phase 1 — clean traffic well under capacity.
  RunStats p1 = run_phase(21, 50'000, 1500);
  EXPECT_GT(p1.ok, 0u);
  EXPECT_EQ(p1.failed, 0u);
  cluster.AdvanceTime(1.0);
  check_no_loss("after clean phase");

  // Phase 2 — flood far past capacity: admission sheds most of it.
  RunStats p2 = run_phase(22, 20e6, 1500);
  EXPECT_GT(p2.shed, 0u);
  cluster.AdvanceTime(1.0);
  check_no_loss("after flood phase");

  // Phase 3 — flaky search path (updates stay clean, the model stays
  // authoritative) while open-loop traffic keeps arriving.
  auto plan = std::make_shared<net::FaultPlan>(0x10adu);
  plan->AddRule(net::FaultRule{.method = "in.search",
                               .drop_prob = 0.2,
                               .delay_prob = 0.2,
                               .delay_s = 0.01});
  cluster.transport().SetFaultPlan(plan);
  (void)run_phase(23, 50'000, 1000);
  cluster.transport().SetFaultPlan(nullptr);
  cluster.AdvanceTime(1.0);
  check_no_loss("after flaky-network phase");

  // Phase 4 — permanent loss of the most loaded node; the journal rebuilds
  // its groups on survivors.
  size_t victim = 0;
  for (size_t i = 1; i < cluster.num_index_nodes(); ++i) {
    if (cluster.index_node(i).NumGroups() >
        cluster.index_node(victim).NumGroups()) {
      victim = i;
    }
  }
  ASSERT_GT(cluster.index_node(victim).NumGroups(), 0u);
  cluster.KillIndexNode(victim, /*wipe=*/true);
  for (int i = 0; i < 6; ++i) cluster.AdvanceTime(1.0);  // detector fires
  ASSERT_GE(cluster.Stats().recoveries, 1u);
  check_no_loss("after wipe and recovery");

  // Phase 5 — the cluster keeps taking open-loop traffic afterwards.
  RunStats p5 = run_phase(24, 50'000, 1000);
  EXPECT_GT(p5.ok, 0u);
  cluster.AdvanceTime(1.0);
  check_no_loss("after post-recovery phase");
  EXPECT_GT(model.size(), 0u);
  EXPECT_GT(shed_files.size(), 0u) << "the flood phase should have shed updates";
}

}  // namespace
}  // namespace propeller::load
