// Fig. 9 / Table IV reproduction: Propeller cluster file-search latency
// ("finding the files larger than 16MB") on 50M- and 100M-file modelled
// datasets, scaling Index Nodes from 1 to 8, cold and warm.
//
// The super-linear warm scaling comes from per-node page caches: with 1-2
// nodes the combined index exceeds a node's memory and queries fault; with
// 4+ nodes each node's share fits in RAM (Section V-C).  Per-node cache
// capacity here is sized so that exact crossover happens, mirroring the
// paper's 4-16 GB nodes vs dataset index sizes.
// Beyond the paper's simulated numbers, this bench also reports wall-clock
// time and compares the serial engine against the wall-clock parallel
// execution engine (ClusterConfig::parallel_execution) on an 8-node /
// 8-group workload.  Simulated costs are asserted bit-identical between
// the two modes; only real elapsed time differs.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "core/cluster.h"
#include "core/query_parser.h"
#include "net/fault.h"
#include "workload/dataset.h"

using namespace propeller;

namespace {

struct Measurement {
  double cold_s = 0;
  double warm_s = 0;
  double warm_wall_s = 0;  // real elapsed time per warm search
};

// `emit_obs`: write the metrics + trace sidecars for this configuration
// (per-node search-latency percentiles and a traced warm search).
Measurement RunConfig(int nodes, uint64_t files, bool emit_obs = false) {
  core::ClusterConfig cfg;
  cfg.index_nodes = nodes;
  cfg.master.acg_policy.cluster_target = 1000;
  cfg.master.acg_policy.merge_limit = 1000;
  cfg.index_node.search_threads = 16;
  // Sized so the combined serialized K-D images outgrow 1-2 nodes'
  // memory but fit from ~4 nodes up — the paper's super-linear warm
  // scaling mechanism (Section V-C).
  cfg.index_node.io.cache_pages = std::max<uint64_t>(1024, files / 96);
  core::PropellerCluster cluster(cfg);
  auto& client = cluster.client();
  // The prototype's inode-attribute index is a serialized K-D tree that
  // must be memory-resident to query (Section V-E).
  (void)client.CreateIndex(
      {"by_attrs", index::IndexType::kKdTree, {"size", "mtime", "uid"}});

  workload::DatasetSpec spec;
  spec.num_files = files;
  for (uint64_t base = 0; base < files; base += 50'000) {
    uint64_t n = std::min<uint64_t>(50'000, files - base);
    (void)client.BatchUpdate(workload::SyntheticRows(base + 1, n, spec),
                             cluster.now());
    cluster.AdvanceTime(6.0);
  }

  auto query = core::ParseQuery("size>16m", 1'000'000);
  Measurement m;
  cluster.DropAllCaches();
  auto cold = client.Search(query->predicate);
  if (!cold.ok()) return m;
  m.cold_s = cold->cost.seconds();
  double warm_total = 0;
  Stopwatch wall;
  for (int i = 0; i < 10; ++i) {
    auto warm = client.Search(query->predicate);
    if (!warm.ok()) return m;
    warm_total += warm->cost.seconds();
  }
  m.warm_wall_s = wall.ElapsedSeconds() / 10.0;
  m.warm_s = warm_total / 10.0;
  if (emit_obs) {
    // Trace one warm search (tracing stays off for the timed runs above so
    // the wall-clock columns are undisturbed), then dump both sidecars.
    cluster.tracer().Enable();
    (void)client.Search(query->predicate);
    cluster.tracer().Disable();
    bench::WriteMetricsSidecar("bench_fig09_cluster_search",
                               cluster.PerNodeMetrics());
    bench::WriteTraceSidecar("bench_fig09_cluster_search", cluster.tracer());
  }
  return m;
}

// Serial vs parallel execution engine on an 8-node cluster partitioned
// into ~8 groups (one per node).  Both clusters are built identically and
// loaded with the same rows; the only difference is parallel_execution.
// The simulated search latency must be bit-identical — the engine changes
// wall-clock time, never the paper's modelled numbers.
void SerialVsParallelComparison() {
  const int kNodes = 8;
  const uint64_t files = bench::Scaled(64'000);
  auto build = [&](bool parallel) {
    core::ClusterConfig cfg;
    cfg.index_nodes = kNodes;
    cfg.parallel_execution = parallel;
    cfg.client.fanout_threads = kNodes;
    cfg.index_node.search_threads = kNodes;
    // One group per node: the group size target is the whole per-node
    // share, so the ACG layer never splits below it.
    cfg.master.acg_policy.cluster_target = files / kNodes;
    cfg.master.acg_policy.merge_limit = files / kNodes;
    // Everything cache-resident: the comparison isolates execution-engine
    // CPU time, not paging.
    cfg.index_node.io.cache_pages = 1u << 20;
    auto cluster = std::make_unique<core::PropellerCluster>(cfg);
    auto& client = cluster->client();
    (void)client.CreateIndex(
        {"by_attrs", index::IndexType::kKdTree, {"size", "mtime", "uid"}});
    workload::DatasetSpec spec;
    spec.num_files = files;
    for (uint64_t base = 0; base < files; base += 50'000) {
      uint64_t n = std::min<uint64_t>(50'000, files - base);
      (void)client.BatchUpdate(workload::SyntheticRows(base + 1, n, spec),
                               cluster->now());
      cluster->AdvanceTime(6.0);
    }
    return cluster;
  };
  auto serial = build(false);
  auto parallel = build(true);

  std::printf(
      "--- Serial vs parallel execution engine "
      "(%d nodes, %llu groups, %llu rows, hardware_concurrency=%u) ---\n",
      kNodes, static_cast<unsigned long long>(serial->TotalGroups()),
      static_cast<unsigned long long>(files),
      std::thread::hardware_concurrency());

  auto query = core::ParseQuery("size>16m", 1'000'000);
  auto s0 = serial->client().Search(query->predicate);
  auto p0 = parallel->client().Search(query->predicate);
  if (!s0.ok() || !p0.ok()) {
    std::printf("comparison search failed: %s / %s\n",
                s0.status().ToString().c_str(), p0.status().ToString().c_str());
    return;
  }
  const bool identical =
      s0->cost.seconds() == p0->cost.seconds() && s0->files == p0->files;
  std::printf("simulated warm latency: serial %s, parallel %s -> %s\n",
              bench::Secs(s0->cost.seconds()).c_str(),
              bench::Secs(p0->cost.seconds()).c_str(),
              identical ? "bit-identical (results match)" : "MISMATCH");

  const int kReps = 20;
  auto wall_per_search = [&](core::PropellerCluster& c) {
    Stopwatch sw;
    for (int i = 0; i < kReps; ++i) (void)c.client().Search(query->predicate);
    return sw.ElapsedSeconds() / kReps;
  };
  double serial_wall = wall_per_search(*serial);
  double parallel_wall = wall_per_search(*parallel);
  std::printf(
      "wall-clock warm latency (%d reps): serial %s, parallel %s "
      "(speedup %.2fx; bounded by hardware_concurrency=%u)\n\n",
      kReps, bench::Secs(serial_wall).c_str(),
      bench::Secs(parallel_wall).c_str(), serial_wall / parallel_wall,
      std::thread::hardware_concurrency());
}

// Read-path caching (ClusterConfig::read_path_caching) on warm repeated
// searches: with caching on, the per-search resolve RPC amortizes to zero
// (the client reuses its epoch-stamped placement cache) and every group
// answers repeats from its result memo.  Results must match exactly; the
// returned key/value pairs land in BENCH_fig09.json.
std::vector<std::pair<std::string, double>> ReadPathCachingComparison() {
  std::vector<std::pair<std::string, double>> results;
  const int kNodes = 4;
  const uint64_t files = bench::Scaled(64'000);
  auto build = [&](bool caching) {
    core::ClusterConfig cfg;
    cfg.index_nodes = kNodes;
    cfg.read_path_caching = caching;
    cfg.master.acg_policy.cluster_target = files / kNodes;
    cfg.master.acg_policy.merge_limit = files / kNodes;
    cfg.index_node.io.cache_pages = 1u << 20;
    auto cluster = std::make_unique<core::PropellerCluster>(cfg);
    auto& client = cluster->client();
    (void)client.CreateIndex(
        {"by_attrs", index::IndexType::kKdTree, {"size", "mtime", "uid"}});
    workload::DatasetSpec spec;
    spec.num_files = files;
    for (uint64_t base = 0; base < files; base += 50'000) {
      uint64_t n = std::min<uint64_t>(50'000, files - base);
      (void)client.BatchUpdate(workload::SyntheticRows(base + 1, n, spec),
                               cluster->now());
      cluster->AdvanceTime(6.0);
    }
    return cluster;
  };
  auto off = build(false);
  auto on = build(true);

  std::printf("--- Read-path caching on warm repeated searches (%d nodes) ---\n",
              kNodes);
  auto query = core::ParseQuery("size>16m", 1'000'000);
  auto resolve_calls = [](core::PropellerCluster& c) {
    auto snap = c.master().MetricsSnapshot();
    auto it = snap.counters.find("mn.calls.mn.resolve_search");
    return it == snap.counters.end() ? uint64_t{0} : it->second;
  };
  const int kReps = 20;
  auto measure = [&](core::PropellerCluster& c, double* avg_s,
                     double* resolves_per_search, std::vector<index::FileId>* files_out) {
    const uint64_t resolves_before = resolve_calls(c);
    // One untimed search warms the placement and result caches — the
    // steady state a long-lived client sees.
    auto first = c.client().Search(query->predicate);
    if (!first.ok()) return false;
    *files_out = first->files;
    double total = 0;
    for (int i = 0; i < kReps; ++i) {
      auto warm = c.client().Search(query->predicate);
      if (!warm.ok()) return false;
      total += warm->cost.seconds();
    }
    *avg_s = total / kReps;
    *resolves_per_search =
        static_cast<double>(resolve_calls(c) - resolves_before) / (kReps + 1);
    return true;
  };
  double off_s = 0, on_s = 0, off_resolves = 0, on_resolves = 0;
  std::vector<index::FileId> off_files, on_files;
  if (!measure(*off, &off_s, &off_resolves, &off_files) ||
      !measure(*on, &on_s, &on_resolves, &on_files)) {
    std::printf("caching comparison search failed\n");
    return results;
  }
  auto on_stats = on->Stats();
  const double hits =
      static_cast<double>(on_stats.metrics.counters["in.result_cache.hits"]);
  const double misses =
      static_cast<double>(on_stats.metrics.counters["in.result_cache.misses"]);
  std::printf(
      "simulated warm latency: caching off %s, on %s (%.2fx); results %s\n",
      bench::Secs(off_s).c_str(), bench::Secs(on_s).c_str(), off_s / on_s,
      off_files == on_files ? "match" : "MISMATCH");
  std::printf(
      "resolve RPCs per warm search: off %.2f, on %.2f; group result-cache "
      "hit rate %.1f%%\n\n",
      off_resolves, on_resolves, 100.0 * hits / std::max(1.0, hits + misses));
  results = {{"caching_off_warm_s", off_s},
             {"caching_on_warm_s", on_s},
             {"caching_warm_speedup", off_s / on_s},
             {"caching_off_resolves_per_search", off_resolves},
             {"caching_on_resolves_per_search", on_resolves},
             {"result_cache_hit_rate",
              hits / std::max(1.0, hits + misses)},
             {"results_match", off_files == on_files ? 1.0 : 0.0}};
  return results;
}

// Tail-tolerant reads under a sustained straggler: a 4-node cluster at
// replication factor 2 where one node's handler work stretches `kSlow`
// times.  With hedged reads on, a branch whose primary exceeds the
// client's learned latency quantile re-issues to the group's secondary
// and takes the first answer, so the p99 stays near the no-fault
// baseline; with hedging off every search waits out the straggler.
// Latencies are exact percentiles over per-search simulated costs.
std::vector<std::pair<std::string, double>> TailLatencyComparison() {
  std::vector<std::pair<std::string, double>> results;
  const int kNodes = 4;
  const double kSlow = 40.0;
  const uint64_t files = bench::Scaled(32'000);
  auto build = [&](bool hedged) {
    core::ClusterConfig cfg;
    cfg.index_nodes = kNodes;
    cfg.master.replication_factor = 2;
    cfg.client.hedge.enabled = hedged;
    cfg.master.acg_policy.cluster_target = files / kNodes;
    cfg.master.acg_policy.merge_limit = files / kNodes;
    cfg.index_node.io.cache_pages = 1u << 20;
    auto cluster = std::make_unique<core::PropellerCluster>(cfg);
    auto& client = cluster->client();
    (void)client.CreateIndex(
        {"by_attrs", index::IndexType::kKdTree, {"size", "mtime", "uid"}});
    workload::DatasetSpec spec;
    spec.num_files = files;
    for (uint64_t base = 0; base < files; base += 50'000) {
      uint64_t n = std::min<uint64_t>(50'000, files - base);
      (void)client.BatchUpdate(workload::SyntheticRows(base + 1, n, spec),
                               cluster->now());
      cluster->AdvanceTime(6.0);
    }
    return cluster;
  };
  auto hedged = build(true);
  auto unhedged = build(false);

  std::printf(
      "--- Tail-tolerant reads: r=2, one %gx straggler node (%d nodes) ---\n",
      kSlow, kNodes);
  auto query = core::ParseQuery("size>16m", 1'000'000);
  auto sample = [&](core::PropellerCluster& c, int reps,
                    std::vector<double>* out) {
    for (int i = 0; i < reps; ++i) {
      auto r = c.client().Search(query->predicate);
      if (!r.ok()) return false;
      out->push_back(r->cost.seconds());
    }
    return true;
  };
  auto pct = [](std::vector<double> v, double p) {
    std::sort(v.begin(), v.end());
    return v[static_cast<size_t>(p * static_cast<double>(v.size() - 1))];
  };

  // Warm-up trains each client's branch-latency quantile; the fault-free
  // samples double as the baseline distribution.
  std::vector<double> baseline, tail_on, tail_off;
  const int kReps = 40;
  if (!sample(*hedged, kReps, &baseline)) return results;
  {
    std::vector<double> discard;
    if (!sample(*unhedged, kReps, &discard)) return results;
  }

  // One sustained straggler; it must carry at least one primary or no
  // search branch routes through it (placement is deterministic, so pick
  // the first node that does).
  core::NodeId slow = 0;
  for (size_t i = 0; i < hedged->num_index_nodes() && slow == 0; ++i) {
    core::NodeId n = hedged->index_node(i).id();
    for (const auto& stat : hedged->index_node(i).GroupStats()) {
      if (hedged->master().ReplicasOfGroup(stat.group).front() == n) {
        slow = n;
        break;
      }
    }
  }
  for (core::PropellerCluster* c : {hedged.get(), unhedged.get()}) {
    auto plan = std::make_shared<net::FaultPlan>(1);
    plan->SetNodeSlowness(slow, kSlow);
    c->transport().SetFaultPlan(plan);
  }
  if (!sample(*hedged, kReps, &tail_on)) return results;
  if (!sample(*unhedged, kReps, &tail_off)) return results;

  auto client_counter = [](core::PropellerCluster& c, const char* k) {
    auto snap = c.client().MetricsSnapshot();
    auto it = snap.counters.find(k);
    return it == snap.counters.end() ? uint64_t{0} : it->second;
  };
  const double hedges =
      static_cast<double>(client_counter(*hedged, "client.search.hedges"));
  const double wins =
      static_cast<double>(client_counter(*hedged, "client.search.hedge_wins"));

  TablePrinter table({"percentile", "no fault", "straggler+hedge",
                      "straggler no hedge"});
  for (double p : {0.50, 0.95, 0.99}) {
    table.AddRow({Sprintf("p%.0f", p * 100), bench::Secs(pct(baseline, p)),
                  bench::Secs(pct(tail_on, p)),
                  bench::Secs(pct(tail_off, p))});
  }
  table.Print();
  const double base_p99 = pct(baseline, 0.99);
  const double on_p99 = pct(tail_on, 0.99);
  const double off_p99 = pct(tail_off, 0.99);
  std::printf(
      "p99 vs no-fault baseline: hedged %.2fx, unhedged %.2fx "
      "(hedges fired %.0f, won %.0f)\n\n",
      on_p99 / base_p99, off_p99 / base_p99, hedges, wins);
  results = {{"tail_baseline_p50_s", pct(baseline, 0.50)},
             {"tail_baseline_p99_s", base_p99},
             {"tail_hedged_p50_s", pct(tail_on, 0.50)},
             {"tail_hedged_p95_s", pct(tail_on, 0.95)},
             {"tail_hedged_p99_s", on_p99},
             {"tail_unhedged_p50_s", pct(tail_off, 0.50)},
             {"tail_unhedged_p95_s", pct(tail_off, 0.95)},
             {"tail_unhedged_p99_s", off_p99},
             {"tail_hedged_p99_ratio", on_p99 / base_p99},
             {"tail_unhedged_p99_ratio", off_p99 / base_p99},
             {"tail_hedges", hedges},
             {"tail_hedge_wins", wins}};
  return results;
}

}  // namespace

int main() {
  bench::Banner("bench_fig09_cluster_search", "Fig. 9 / Table IV",
                "Cluster search latency, 1..8 Index Nodes, cold & warm "
                "('find files larger than 16MB').");
  const uint64_t small = bench::Scaled(400'000);  // models 50M files
  const uint64_t big = bench::Scaled(800'000);    // models 100M files
  std::printf("modelled 50M -> %llu rows, 100M -> %llu rows\n\n",
              static_cast<unsigned long long>(small),
              static_cast<unsigned long long>(big));

  TablePrinter table({"index nodes", "50M cold", "100M cold", "50M warm",
                      "100M warm", "50M warm wall", "100M warm wall"});
  double first_warm_small = 0, first_warm_big = 0;
  std::vector<std::pair<std::string, double>> json;
  for (int nodes : {1, 2, 4, 6, 8}) {
    // The 8-node / 50M configuration also dumps the metrics + trace
    // sidecars (per-node search-latency p50/p95/p99 and a traced search).
    Measurement s = RunConfig(nodes, small, nodes == 8);
    Measurement b = RunConfig(nodes, big);
    if (nodes == 1) {
      first_warm_small = s.warm_s;
      first_warm_big = b.warm_s;
    }
    table.AddRow({Sprintf("%d", nodes), bench::Secs(s.cold_s),
                  bench::Secs(b.cold_s), bench::Secs(s.warm_s),
                  bench::Secs(b.warm_s), bench::Secs(s.warm_wall_s),
                  bench::Secs(b.warm_wall_s)});
    std::printf("  [%d nodes] warm speedup vs 1 node: 50M %.1fx, 100M %.1fx\n",
                nodes, first_warm_small / s.warm_s, first_warm_big / b.warm_s);
    json.emplace_back(Sprintf("nodes%d_50m_cold_s", nodes), s.cold_s);
    json.emplace_back(Sprintf("nodes%d_50m_warm_s", nodes), s.warm_s);
    json.emplace_back(Sprintf("nodes%d_100m_cold_s", nodes), b.cold_s);
    json.emplace_back(Sprintf("nodes%d_100m_warm_s", nodes), b.warm_s);
  }
  std::printf("\n");
  table.Print();
  std::printf(
      "\n('warm wall' columns are real elapsed time per search on this "
      "machine; the other columns are simulated time from the cost "
      "model.)\n\n");
  SerialVsParallelComparison();
  auto caching = ReadPathCachingComparison();
  json.insert(json.end(), caching.begin(), caching.end());
  auto tail = TailLatencyComparison();
  json.insert(json.end(), tail.begin(), tail.end());
  bench::WriteBenchJson("fig09", json);
  std::printf(
      "\nPaper (Table IV): cold 1497->175s (100M), warm 1.61->0.030s (100M); "
      "warm scaling is super-linear from 1->4 nodes because per-node index "
      "shares start fitting in memory.\n");
  return 0;
}
