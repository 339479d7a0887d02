// Simulated-clock distributed tracing: one client Search over a 4-IN
// cluster — with a retried (dropped) RPC and an injected delay from a
// seeded FaultPlan — must yield a single causal span tree covering the
// client, the master, and the index nodes, with simulated timestamps that
// are bit-identical across runs and across the serial / parallel execution
// engines.  A second scenario drives every client fan-out repair path
// (update repair, hedge, search repair) and pins its Chrome trace by
// digest, so the traces also hold still across commits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "net/fault.h"
#include "obs/export.h"
#include "obs/trace.h"

namespace propeller::core {
namespace {

using index::AttrValue;
using index::CmpOp;

constexpr NodeId kDropNode = PropellerCluster::kFirstIndexNodeId;       // 10
constexpr NodeId kDelayNode = PropellerCluster::kFirstIndexNodeId + 1;  // 11

ClusterConfig TracedConfig(bool parallel) {
  ClusterConfig cfg;
  cfg.index_nodes = 4;
  cfg.tracing = true;
  cfg.parallel_execution = parallel;
  cfg.client.fanout_threads = 4;
  cfg.index_node.search_threads = 4;
  cfg.client.retry.max_attempts = 3;
  // Small groups so the load below spreads across all four nodes.
  cfg.master.acg_policy.cluster_target = 8;
  cfg.master.acg_policy.split_threshold = 1000;
  cfg.master.acg_policy.merge_limit = 1000;
  return cfg;
}

std::unique_ptr<PropellerCluster> BuildCluster(const ClusterConfig& cfg) {
  auto cluster = std::make_unique<PropellerCluster>(cfg);
  EXPECT_TRUE(cluster->client()
                  .CreateIndex({"by_size", index::IndexType::kBTree, {"size"}})
                  .ok());
  std::vector<FileUpdate> updates;
  for (uint64_t f = 1; f <= 64; ++f) {
    FileUpdate u;
    u.file = f;
    u.attrs.Set("size", AttrValue(static_cast<int64_t>(f * 1000)));
    updates.push_back(std::move(u));
  }
  EXPECT_TRUE(cluster->client().BatchUpdate(std::move(updates),
                                            cluster->now()).ok());
  cluster->AdvanceTime(6.0);  // commit the staged batch
  return cluster;
}

// One traced search under a scripted fault plan: the first in.search to
// kDropNode is dropped (the retry passes), the first to kDelayNode carries
// +50ms of simulated latency.  Returns the recorded spans of that search.
std::vector<obs::Span> TracedFaultySearch(PropellerCluster& cluster) {
  auto plan = std::make_shared<net::FaultPlan>(99);
  plan->AddRule(net::FaultRule{.dst = kDropNode,
                               .method = "in.search",
                               .drop_prob = 1.0,
                               .max_triggers = 1});
  plan->AddRule(net::FaultRule{.dst = kDelayNode,
                               .method = "in.search",
                               .delay_prob = 1.0,
                               .delay_s = 0.05,
                               .max_triggers = 1});
  cluster.transport().SetFaultPlan(plan);
  cluster.tracer().Clear();  // keep only the search's tree
  Predicate p;
  p.And("size", CmpOp::kGe, AttrValue(int64_t{1}));
  auto r = cluster.client().Search(p, "by_size");
  cluster.transport().SetFaultPlan(nullptr);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (r.ok()) {
    EXPECT_FALSE(r->partial);  // the retry absorbed the drop
    EXPECT_EQ(r->files.size(), 64u);
    EXPECT_EQ(r->nodes_queried, 4u);
  }
  return cluster.tracer().Spans();
}

bool HasTag(const obs::Span& s, const std::string& k, const std::string& v) {
  for (const auto& [tk, tv] : s.tags) {
    if (tk == k && tv == v) return true;
  }
  return false;
}

TEST(ObsTraceTest, SearchWithRetryAndDelayYieldsOneCausalTree) {
  auto cluster = BuildCluster(TracedConfig(/*parallel=*/false));
  std::vector<obs::Span> spans = TracedFaultySearch(*cluster);
  ASSERT_FALSE(spans.empty());

  // Exactly one root, and it is the client's search span.
  std::vector<const obs::Span*> roots;
  for (const auto& s : spans) {
    if (s.parent_id == 0) roots.push_back(&s);
  }
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0]->name, "client.search");
  EXPECT_EQ(roots[0]->node, PropellerCluster::kFirstClientId);

  // Every span belongs to that trace and no span is orphaned: parents
  // resolve within the recorded set.
  std::set<uint64_t> ids;
  for (const auto& s : spans) ids.insert(s.span_id);
  for (const auto& s : spans) {
    EXPECT_EQ(s.trace_id, roots[0]->trace_id) << s.name;
    if (s.parent_id != 0) {
      EXPECT_TRUE(ids.count(s.parent_id) != 0u)
          << "orphan span " << s.name << " on node " << s.node;
    }
    EXPECT_LE(s.start_s, s.end_s) << s.name;
    EXPECT_GE(s.start_s, roots[0]->start_s - 1e-12) << s.name;
    EXPECT_LE(s.end_s, roots[0]->end_s + 1e-12) << s.name;
  }

  // The tree covers master and index-node work.
  auto count_name = [&](const std::string& n) {
    return std::count_if(spans.begin(), spans.end(),
                         [&](const obs::Span& s) { return s.name == n; });
  };
  EXPECT_EQ(count_name("mn.resolve_search"), 1);
  // 4 nodes answered + 1 dropped first attempt to kDropNode.
  EXPECT_EQ(count_name("in.search"), 5);
  EXPECT_GE(count_name("group.search"), 4);

  // The dropped attempt appears, tagged, on the transport span; the client
  // side shows two rpc attempts to that node plus one backoff sleep.
  int drops = 0, delays = 0, backoffs = 0, attempts_to_drop_node = 0;
  std::set<uint64_t> in_search_nodes;
  for (const auto& s : spans) {
    if (s.name == "in.search") {
      in_search_nodes.insert(s.node);
      if (HasTag(s, "fault", "drop")) ++drops;
      if (HasTag(s, "fault", "delay")) ++delays;
    }
    if (s.name == "backoff") ++backoffs;
    if (s.name == "rpc" && HasTag(s, "method", "in.search") &&
        HasTag(s, "to", std::to_string(kDropNode))) {
      ++attempts_to_drop_node;
    }
  }
  EXPECT_EQ(drops, 1);
  EXPECT_EQ(delays, 1);
  EXPECT_EQ(backoffs, 1);
  EXPECT_EQ(attempts_to_drop_node, 2);
  EXPECT_EQ(in_search_nodes.size(), 4u)
      << "every index node should host an in.search span";

  // The delayed node's successful span is at least delay_s long.
  double max_in_search = 0;
  for (const auto& s : spans) {
    if (s.name == "in.search" && s.node == kDelayNode &&
        !HasTag(s, "fault", "drop")) {
      max_in_search = std::max(max_in_search, s.end_s - s.start_s);
    }
  }
  EXPECT_GE(max_in_search, 0.05);
}

// Two identically-seeded runs export bit-identical traces: same span ids,
// same simulated timestamps, same tags — doubles compared exactly.
TEST(ObsTraceTest, TracesAreBitIdenticalAcrossRunsAndEngines) {
  auto run = [](bool parallel) {
    auto cluster = BuildCluster(TracedConfig(parallel));
    return TracedFaultySearch(*cluster);
  };
  std::vector<obs::Span> a = run(false);
  std::vector<obs::Span> b = run(false);  // same seed, fresh cluster
  std::vector<obs::Span> c = run(true);   // parallel execution engine

  auto expect_identical = [](const std::vector<obs::Span>& x,
                             const std::vector<obs::Span>& y,
                             const char* label) {
    ASSERT_EQ(x.size(), y.size()) << label;
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].trace_id, y[i].trace_id) << label << " #" << i;
      EXPECT_EQ(x[i].span_id, y[i].span_id) << label << " #" << i;
      EXPECT_EQ(x[i].parent_id, y[i].parent_id) << label << " #" << i;
      EXPECT_EQ(x[i].name, y[i].name) << label << " #" << i;
      EXPECT_EQ(x[i].node, y[i].node) << label << " #" << i;
      // Bit-identical simulated time, not approximately equal.
      EXPECT_EQ(x[i].start_s, y[i].start_s) << label << " " << x[i].name;
      EXPECT_EQ(x[i].end_s, y[i].end_s) << label << " " << x[i].name;
      EXPECT_EQ(x[i].tags, y[i].tags) << label << " " << x[i].name;
    }
  };
  expect_identical(a, b, "serial-vs-serial");
  expect_identical(a, c, "serial-vs-parallel");
}

// --- cross-commit pin ---------------------------------------------------

// 64-bit FNV-1a, as ProtoBytePin digests wire bytes.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t ClientCounter(PropellerClient& client, const std::string& k) {
  auto snap = client.MetricsSnapshot();
  auto it = snap.counters.find(k);
  return it == snap.counters.end() ? 0 : it->second;
}

// Appends the spans of one client operation to `spans`: the tracer is
// cleared first, so background ticks before it do not count.
template <class Op>
void TraceOf(PropellerCluster& cluster, std::vector<obs::Span>* spans, Op op) {
  cluster.tracer().Clear();
  op();
  std::vector<obs::Span> recorded = cluster.tracer().Spans();
  spans->insert(spans->end(), recorded.begin(), recorded.end());
}

// Every client fan-out path, traced.  On a replicated cluster (r = 2): a
// write whose primary drops every stage attempt (retries, then the update
// repair), and a search whose first branch's primary drops every attempt
// (retries, then a winning hedge).  On a caching cluster: a search whose
// cached route names a node that died and came back empty (the search
// repair).  Returns the Chrome trace of those three operations.
std::string RepairPathsTrace(bool parallel) {
  Predicate all;
  all.And("size", CmpOp::kGe, AttrValue(int64_t{1}));
  std::vector<obs::Span> spans;
  {
    ClusterConfig cfg = TracedConfig(parallel);
    cfg.master.replication_factor = 2;
    auto cluster = BuildCluster(cfg);
    PropellerClient& client = cluster->client();

    ResolveUpdateRequest where;
    where.files = {1};
    auto placed = Decode<ResolveUpdateResponse>(
        cluster->transport()
            .Call(100, PropellerCluster::kMasterId, "mn.resolve_update",
                  Encode(where))
            .payload);
    EXPECT_TRUE(placed.ok() && placed->placements.size() == 1u);
    if (!placed.ok() || placed->placements.size() != 1u) return {};
    auto plan = std::make_shared<net::FaultPlan>(7);
    plan->AddRule(net::FaultRule{.dst = placed->placements[0].node,
                                 .method = "in.stage_updates",
                                 .drop_prob = 1.0,
                                 .max_triggers = 3});
    cluster->transport().SetFaultPlan(plan);
    TraceOf(*cluster, &spans, [&] {
      FileUpdate u;
      u.file = 1;
      u.attrs.Set("size", AttrValue(int64_t{5000}));
      auto r = client.BatchUpdate({u}, cluster->now());
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    });
    EXPECT_EQ(ClientCounter(client, "client.placement_cache.stale_retries"),
              1u);

    auto targets = Decode<ResolveSearchResponse>(
        cluster->transport()
            .Call(100, PropellerCluster::kMasterId, "mn.resolve_search",
                  Encode(ResolveSearchRequest{}))
            .payload);
    EXPECT_TRUE(targets.ok() && !targets->targets.empty());
    if (!targets.ok() || targets->targets.empty()) return {};
    plan = std::make_shared<net::FaultPlan>(7);
    plan->AddRule(net::FaultRule{.dst = targets->targets[0].node,
                                 .method = "in.search",
                                 .drop_prob = 1.0,
                                 .max_triggers = 3});
    cluster->transport().SetFaultPlan(plan);
    TraceOf(*cluster, &spans, [&] {
      auto r = client.Search(all, "by_size");
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (r.ok()) {
        EXPECT_EQ(r->files.size(), 64u);
      }
    });
    cluster->transport().SetFaultPlan(nullptr);
    EXPECT_EQ(ClientCounter(client, "client.search.hedge_wins"), 1u);
  }
  {
    ClusterConfig cfg = TracedConfig(parallel);
    cfg.read_path_caching = true;
    cfg.recovery_journal = true;
    auto cluster = BuildCluster(cfg);
    PropellerClient& client = cluster->client();
    EXPECT_TRUE(client.Search(all, "by_size").ok());  // fills the cache
    cluster->KillIndexNode(1);
    cluster->AdvanceTime(4.0);
    cluster->ReviveIndexNode(1);
    cluster->AdvanceTime(1.0);
    TraceOf(*cluster, &spans, [&] {
      auto r = client.Search(all, "by_size");
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (r.ok()) {
        EXPECT_EQ(r->files.size(), 64u);
      }
    });
    EXPECT_EQ(ClientCounter(client, "client.placement_cache.stale_retries"),
              1u);
  }
  return obs::SpansToChromeTrace(spans);
}

// The traces of the repair paths, pinned by digest: a refactor of the
// client fan-out must leave every span, id, timestamp and tag in place,
// on both execution engines.  Span ids derive from start times, so a
// message that changes size on the wire moves the digest too.
TEST(ObsTracePin, RepairPathsTraceMatchesItsPinnedDigest) {
  constexpr uint64_t kPinned = 0x8e7df8723a60aabeull;
  for (bool parallel : {false, true}) {
    const uint64_t digest = Fnv1a(RepairPathsTrace(parallel));
    EXPECT_EQ(digest, kPinned)
        << (parallel ? "parallel" : "serial") << " engine: 0x" << std::hex
        << digest << "ull";
  }
}

}  // namespace
}  // namespace propeller::core
