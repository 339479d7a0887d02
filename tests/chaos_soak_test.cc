// Seeded chaos soak: a Postmark-style create/update/search workload runs
// while transport faults fire and Index Nodes are killed (one permanently,
// mid-workload) and revived.  The cluster runs the wall-clock parallel
// engine with the shared recovery journal and degraded-search mode on, so
// the test is meaningful under TSan (ctest -L fault).
//
// Determinism: the workload and fault schedules are driven by fixed seeds
// (override with PROPELLER_CHAOS_SEED=<n> to soak a single custom seed).
// Under parallel execution the *order* of fault draws follows the thread
// schedule, so assertions inside faulty phases are schedule-robust
// (results must be a subset of the model, exact when not degraded); exact
// equality is asserted in the fault-free phases, including the final
// post-recovery sweep which must see every acknowledged record.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/cluster.h"
#include "net/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace propeller::core {
namespace {

// --- observability consistency (runs with the tracer on for the whole
// soak: faults, kills, and recoveries must never corrupt the span tree or
// make a counter go backwards) ---

std::map<std::string, uint64_t> MergedCounters(const PropellerCluster& c) {
  obs::MetricsSnapshot merged;
  for (const auto& [name, snap] : c.PerNodeMetrics()) merged.Merge(snap);
  return merged.counters;
}

// Every counter present in `prev` must still exist and be >= its previous
// value — node wipes and recoveries must not reset cluster-wide totals.
void ExpectCountersMonotone(const std::map<std::string, uint64_t>& prev,
                            const std::map<std::string, uint64_t>& cur,
                            const char* phase) {
  for (const auto& [name, v] : prev) {
    auto it = cur.find(name);
    ASSERT_TRUE(it != cur.end()) << name << " vanished during " << phase;
    EXPECT_GE(it->second, v) << name << " went backwards during " << phase;
  }
}

// No orphan spans: within each trace, every non-root parent_id must
// resolve to a recorded span.  Kills and fault-injected drops end spans
// early; they must never lose a parent.
void ExpectNoOrphanSpans(const std::vector<obs::Span>& spans) {
  std::map<uint64_t, std::set<uint64_t>> ids_by_trace;
  for (const auto& s : spans) ids_by_trace[s.trace_id].insert(s.span_id);
  for (const auto& s : spans) {
    if (s.parent_id == 0) continue;
    EXPECT_TRUE(ids_by_trace[s.trace_id].count(s.parent_id) != 0u)
        << "orphan span '" << s.name << "' (node " << s.node << ")";
    EXPECT_LE(s.start_s, s.end_s) << s.name;
  }
}

using index::AttrValue;
using index::CmpOp;

IndexSpec SizeIndex() { return {"by_size", index::IndexType::kBTree, {"size"}}; }

class ChaosSoak {
 public:
  explicit ChaosSoak(uint64_t seed, int replication_factor = 1) : rng_(seed) {
    ClusterConfig cfg;
    cfg.index_nodes = 5;
    cfg.master.acg_policy.cluster_target = 8;
    cfg.master.acg_policy.split_threshold = 1000;
    cfg.master.acg_policy.merge_limit = 1000;
    cfg.parallel_execution = true;
    cfg.recovery_journal = true;
    cfg.master.replication_factor = replication_factor;
    cfg.client.allow_partial_search = true;
    cfg.client.retry.max_attempts = 3;
    cluster_ = std::make_unique<PropellerCluster>(cfg);
    cluster_->tracer().Enable();  // soak with full tracing overhead on
    EXPECT_TRUE(cluster_->client().CreateIndex(SizeIndex()).ok());
    cluster_->AdvanceTime(1.0);  // establish heartbeat history
  }

  // Postmark-ish transaction mix: mostly touch existing files, sometimes
  // create new ones.  Only acknowledged batches enter the model.
  void RunUpdates(int batches, int batch_size) {
    for (int b = 0; b < batches; ++b) {
      std::vector<FileUpdate> updates;
      std::map<FileId, int64_t> staged;
      for (int i = 0; i < batch_size; ++i) {
        FileId f;
        if (model_.empty() || rng_.Bernoulli(0.3)) {
          f = next_file_++;
        } else {
          auto it = model_.begin();
          std::advance(it, static_cast<long>(rng_.Uniform(model_.size())));
          f = it->first;
        }
        int64_t size = rng_.UniformInt(1, 1'000'000);
        FileUpdate u;
        u.file = f;
        u.attrs.Set("size", AttrValue(size));
        updates.push_back(std::move(u));
        staged[f] = size;  // last write in the batch wins
      }
      auto r = cluster_->client().BatchUpdate(std::move(updates),
                                              cluster_->now());
      if (r.ok()) {
        for (const auto& [f, size] : staged) model_[f] = size;
      }
      // else: a partial batch failure — conservatively keep the model's
      // old values out of the faulty buckets by tracking nothing.  The
      // chaos phases only run updates while the transport is clean, so
      // this branch firing means the test's phase discipline broke.
      cluster_->AdvanceTime(0.1);
    }
  }

  // One range search; checks it against the model.  `expect_exact` demands
  // a clean full answer; otherwise a degraded (partial) answer must still
  // be sound: a subset of the model's matches with the failures named.
  void CheckSearch(bool expect_exact) {
    int64_t threshold = rng_.UniformInt(1, 1'000'000);
    Predicate p;
    p.And("size", CmpOp::kGe, AttrValue(threshold));
    std::set<FileId> expected;
    for (const auto& [f, size] : model_) {
      if (size >= threshold) expected.insert(f);
    }

    auto r = cluster_->client().Search(p, "by_size");
    if (!r.ok()) {
      // Even with retries a whole fan-out can exhaust its attempts; that
      // is only acceptable while faults are active.
      EXPECT_FALSE(expect_exact) << r.status().ToString();
      return;
    }
    std::set<FileId> got(r->files.begin(), r->files.end());
    if (expect_exact) {
      EXPECT_FALSE(r->partial) << "degraded answer in a fault-free phase";
      EXPECT_EQ(got, expected);
    } else {
      for (FileId f : got) {
        EXPECT_TRUE(expected.count(f) != 0u)
            << "file " << f << " returned but never acknowledged at size >= "
            << threshold;
      }
      if (!r->partial) {
        EXPECT_EQ(got, expected);
      } else {
        EXPECT_FALSE(r->node_errors.empty());
      }
    }
  }

  PropellerCluster& cluster() { return *cluster_; }
  Rng& rng() { return rng_; }
  size_t model_size() const { return model_.size(); }

 private:
  Rng rng_;
  std::unique_ptr<PropellerCluster> cluster_;
  std::map<FileId, int64_t> model_;
  FileId next_file_ = 1;
};

void RunSoak(uint64_t seed, int replication_factor = 1) {
  SCOPED_TRACE("chaos seed " + std::to_string(seed) + " r=" +
               std::to_string(replication_factor));
  ChaosSoak soak(seed, replication_factor);
  PropellerCluster& cluster = soak.cluster();

  // Phase 1 — clean warm-up: exact answers required.
  soak.RunUpdates(/*batches=*/6, /*batch_size=*/40);
  for (int i = 0; i < 3; ++i) soak.CheckSearch(/*expect_exact=*/true);
  auto counters_p1 = MergedCounters(cluster);

  // Phase 2 — flaky network on the search path: drops and delays, no
  // stage-path faults so the model stays authoritative.
  auto plan = std::make_shared<net::FaultPlan>(seed ^ 0xfau);
  plan->AddRule(net::FaultRule{.method = "in.search",
                               .drop_prob = 0.15,
                               .delay_prob = 0.25,
                               .delay_s = 0.05});
  cluster.transport().SetFaultPlan(plan);
  for (int i = 0; i < 8; ++i) {
    soak.CheckSearch(/*expect_exact=*/false);
    cluster.AdvanceTime(0.2);
  }
  cluster.transport().SetFaultPlan(nullptr);
  for (int i = 0; i < 2; ++i) soak.CheckSearch(/*expect_exact=*/true);
  auto counters_p2 = MergedCounters(cluster);
  ExpectCountersMonotone(counters_p1, counters_p2, "flaky-network phase");

  // Phase 3 — transient outage: a node goes dark and comes back before
  // anything is permanent.  Degraded searches must name only real nodes.
  size_t flaky = soak.rng().Uniform(cluster.num_index_nodes());
  cluster.KillIndexNode(flaky);
  for (int i = 0; i < 3; ++i) soak.CheckSearch(/*expect_exact=*/false);
  cluster.ReviveIndexNode(flaky);
  cluster.AdvanceTime(1.0);
  soak.CheckSearch(/*expect_exact=*/true);
  auto counters_p3 = MergedCounters(cluster);
  ExpectCountersMonotone(counters_p2, counters_p3, "transient-outage phase");

  // Phase 4 — permanent mid-workload loss: more updates land, then a
  // loaded node is wiped for good.  After the master's failure detector
  // re-homes its groups from the journal, every acknowledged record must
  // be queryable again, exactly.
  soak.RunUpdates(/*batches=*/4, /*batch_size=*/40);
  size_t victim = 0;
  for (size_t i = 0; i < cluster.num_index_nodes(); ++i) {
    if (cluster.index_node(i).NumGroups() >
        cluster.index_node(victim).NumGroups()) {
      victim = i;
    }
  }
  ASSERT_GT(cluster.index_node(victim).NumGroups(), 0u);
  NodeId victim_id = cluster.index_node(victim).id();
  cluster.KillIndexNode(victim, /*wipe=*/true);

  // Before recovery: degraded searches report exactly the lost node (it
  // is the only unreachable one and no probabilistic faults are active).
  {
    Predicate p;
    p.And("size", CmpOp::kGe, AttrValue(int64_t{1}));
    auto r = cluster.client().Search(p, "by_size");
    ASSERT_TRUE(r.ok());
    if (r->partial) {
      ASSERT_EQ(r->node_errors.size(), 1u);
      EXPECT_EQ(r->node_errors[0].node, victim_id);
    }
  }

  for (int i = 0; i < 6; ++i) cluster.AdvanceTime(1.0);  // detector fires
  ASSERT_TRUE(cluster.master().IsNodeDead(victim_id));
  ClusterStats stats = cluster.Stats();
  EXPECT_GE(stats.recoveries, 1u);
  EXPECT_GT(stats.groups_recovered, 0u);

  // Post-recovery: exact again, and the cluster keeps taking writes.
  for (int i = 0; i < 3; ++i) soak.CheckSearch(/*expect_exact=*/true);
  soak.RunUpdates(/*batches=*/3, /*batch_size=*/40);
  soak.CheckSearch(/*expect_exact=*/true);
  EXPECT_GT(soak.model_size(), 0u);

  // Observability held up through the whole soak: every recorded span tree
  // is parent-complete and cluster-wide counters only ever grew — even
  // across the wipe of a loaded node and its journal recovery.
  ExpectCountersMonotone(counters_p3, MergedCounters(cluster),
                         "node-loss/recovery phase");
  ExpectNoOrphanSpans(cluster.tracer().Spans());
  EXPECT_GT(cluster.tracer().SpanCount(), 0u);
}

TEST(ChaosSoakTest, SeededSoakSurvivesFaultsAndNodeLoss) {
  if (const char* env = std::getenv("PROPELLER_CHAOS_SEED")) {
    RunSoak(std::strtoull(env, nullptr, 10));
    return;
  }
  for (uint64_t seed : {11ull, 23ull, 47ull}) RunSoak(seed);
}

// The same soak — faults, a transient outage, a permanent wipe of a loaded
// node — at replication factor 2: every acknowledged write must survive
// (the final sweeps demand exact answers), with hedged reads and replica
// promotion active throughout.
TEST(ChaosSoakTest, ReplicatedSoakLosesNothingAtRTwo) {
  if (const char* env = std::getenv("PROPELLER_CHAOS_SEED")) {
    RunSoak(std::strtoull(env, nullptr, 10), /*replication_factor=*/2);
    return;
  }
  for (uint64_t seed : {11ull, 23ull}) RunSoak(seed, /*replication_factor=*/2);
}

}  // namespace
}  // namespace propeller::core
