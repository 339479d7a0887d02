// Fig. 10 reproduction: mixed workload on a 50M-file modelled dataset —
// 10,000 updates to one 1000-file group with one file-attribute search per
// 1,024 updates; background re-indexing (the commit timeout) fires every
// 500 updates.  Reports the per-request latency series and the average
// re-indexing latency for Propeller vs the SQL baseline (paper: 15.6us vs
// 3,980.9us — 250x).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "baseline/minisql.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "core/cluster.h"
#include "core/query_parser.h"
#include "workload/dataset.h"

using namespace propeller;

namespace {

constexpr uint64_t kGroupSize = 1000;
constexpr uint64_t kSearchEvery = 1024;
constexpr uint64_t kCommitEvery = 500;

struct Series {
  std::vector<double> update_latency_s;
  std::vector<double> search_latency_s;

  double AvgUpdate() const {
    double sum = 0;
    for (double v : update_latency_s) sum += v;
    return update_latency_s.empty() ? 0 : sum / update_latency_s.size();
  }
  double AvgSearch() const {
    double sum = 0;
    for (double v : search_latency_s) sum += v;
    return search_latency_s.empty() ? 0 : sum / search_latency_s.size();
  }
};

double P50(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main() {
  bench::Banner("bench_fig10_mixed_workload", "Fig. 10",
                "10k updates + 1 search / 1024 updates on one 1000-file "
                "group; 50M-file modelled dataset.");
  const uint64_t dataset = bench::Scaled(500'000);  // models 50M
  const uint64_t requests = bench::Scaled(10'000);
  workload::DatasetSpec spec;
  spec.num_files = dataset;
  auto query = core::ParseQuery("size>16m", 1'000'000);

  // ---------- Propeller (caching off = the paper's protocol; caching on
  // adds the read-path layers: placement cache + per-group result memo) ---
  auto run_propeller = [&](bool read_path_caching) {
    Series series;
    core::ClusterConfig cfg;
    cfg.index_nodes = 1;
    cfg.net.latency_us = 3;
    cfg.net.bandwidth_mb_per_s = 4000;
    cfg.master.acg_policy.cluster_target = kGroupSize;
    cfg.master.acg_policy.merge_limit = kGroupSize;
    cfg.read_path_caching = read_path_caching;
    core::PropellerCluster cluster(cfg);
    auto& client = cluster.client();
    (void)client.CreateIndex({"by_size", index::IndexType::kBTree, {"size"}});
    (void)client.CreateIndex({"by_mtime", index::IndexType::kBTree, {"mtime"}});
    // Populate the touched group (plus neighbors for realism).
    for (uint64_t base = 0; base < 32 * kGroupSize; base += 50'000) {
      uint64_t n = std::min<uint64_t>(50'000, 32 * kGroupSize - base);
      (void)client.BatchUpdate(workload::SyntheticRows(base + 1, n, spec),
                               cluster.now());
      cluster.AdvanceTime(6.0);
    }
    cluster.DropAllCaches();

    Rng rng(5);
    for (uint64_t r = 0; r < requests; ++r) {
      uint64_t id = rng.Uniform(kGroupSize) + 1;
      auto cost = client.BatchUpdate(workload::SyntheticRows(id, 1, spec),
                                     cluster.now());
      if (cost.ok()) series.update_latency_s.push_back(cost->seconds());
      if ((r + 1) % kCommitEvery == 0) {
        // Background timeout commit: happens off the request path.
        cluster.AdvanceTime(6.0);
      }
      if ((r + 1) % kSearchEvery == 0) {
        auto s = client.Search(query->predicate);
        if (s.ok()) series.search_latency_s.push_back(s->cost.seconds());
      }
    }
    if (!read_path_caching) {
      // Metrics sidecar: mixed-workload counters (WAL traffic, commit
      // timeouts, search/update latency percentiles) per node + merged.
      bench::WriteMetricsSidecar("bench_fig10_mixed_workload",
                                 cluster.PerNodeMetrics());
    }
    return series;
  };
  Series prop = run_propeller(false);
  Series prop_cached = run_propeller(true);

  // ---------- Write-read decoupling sweep (segmented on/off) ------------
  // Search latency as a function of the update rate on the hot group:
  // `rate` updates land between consecutive searches, and the background
  // commit tick fires only after the search.  The commit-barrier read path
  // drains the staged batch before answering, so its latency grows with
  // the rate; the segmented read path snapshots immutable segments plus a
  // cheap memtable overlay and stays flat.
  const uint64_t kSweepBaseRate = 20;
  const uint64_t kSweepRates[] = {1, 2, 5, 10};  // x kSweepBaseRate
  const uint64_t kSweepSearches = 30;
  auto run_sweep = [&](bool segmented, uint64_t rate) {
    core::ClusterConfig cfg;
    cfg.index_nodes = 1;
    cfg.net.latency_us = 3;
    cfg.net.bandwidth_mb_per_s = 4000;
    cfg.master.acg_policy.cluster_target = kGroupSize;
    cfg.master.acg_policy.merge_limit = kGroupSize;
    cfg.index_node.segmented_index = segmented;
    core::PropellerCluster cluster(cfg);
    auto& client = cluster.client();
    (void)client.CreateIndex({"by_size", index::IndexType::kBTree, {"size"}});
    (void)client.BatchUpdate(
        workload::SyntheticRows(1, 4 * kGroupSize, spec), cluster.now());
    cluster.AdvanceTime(6.0);

    Rng rng(7);
    std::vector<double> search_s;
    for (uint64_t s = 0; s < kSweepSearches; ++s) {
      for (uint64_t u = 0; u < rate; ++u) {
        uint64_t id = rng.Uniform(kGroupSize) + 1;
        (void)client.BatchUpdate(workload::SyntheticRows(id, 1, spec),
                                 cluster.now());
      }
      auto r = client.Search(query->predicate);
      if (r.ok()) search_s.push_back(r->cost.seconds());
      cluster.AdvanceTime(6.0);  // background seal/commit, off the read path
    }
    return P50(search_s);
  };
  std::vector<std::pair<std::string, double>> sweep_json;
  std::printf("\nSearch p50 vs update rate (updates between searches):\n");
  TablePrinter sweep({"rate", "commit-barrier p50", "segmented p50"});
  double barrier_base = 0, segmented_base = 0, barrier_10x = 0,
         segmented_10x = 0;
  for (uint64_t mult : kSweepRates) {
    uint64_t rate = mult * kSweepBaseRate;
    double barrier = run_sweep(false, rate);
    double seg = run_sweep(true, rate);
    if (mult == 1) {
      barrier_base = barrier;
      segmented_base = seg;
    }
    if (mult == 10) {
      barrier_10x = barrier;
      segmented_10x = seg;
    }
    sweep.AddRow({Sprintf("%llux (%llu)", (unsigned long long)mult,
                          (unsigned long long)rate),
                  bench::Secs(barrier), bench::Secs(seg)});
    sweep_json.emplace_back(
        Sprintf("sweep_rate%llu_barrier_p50_s", (unsigned long long)mult),
        barrier);
    sweep_json.emplace_back(
        Sprintf("sweep_rate%llu_segmented_p50_s", (unsigned long long)mult),
        seg);
  }
  sweep.Print();
  std::printf(
      "Degradation 1x -> 10x: commit-barrier %.2fx, segmented %.2fx "
      "(target: segmented <= 1.5x).\n",
      barrier_base > 0 ? barrier_10x / barrier_base : 0,
      segmented_base > 0 ? segmented_10x / segmented_base : 0);

  // ---------- MiniSql ----------
  Series sql;
  {
    baseline::MiniSqlConfig cfg;
    cfg.buffer_pool_pages = std::max<uint64_t>(1024, dataset / 4);
    baseline::MiniSql db(cfg);
    for (uint64_t id = 1; id <= dataset; ++id) {
      Rng row_rng(spec.seed ^ id);
      db.BulkLoad(workload::SyntheticRow(id, spec, row_rng));
    }
    db.io().DropCaches();

    // One unmeasured pass reaches steady state (the paper measures a
    // continuously-running server, not a cold start), then measure.
    Rng warm_rng(5);
    for (uint64_t r = 0; r < requests; ++r) {
      uint64_t id = warm_rng.Uniform(kGroupSize) + 1;
      Rng row_rng(id * 17 + r);
      (void)db.Upsert(workload::SyntheticRow(id, spec, row_rng));
    }
    Rng rng(5);
    for (uint64_t r = 0; r < requests; ++r) {
      uint64_t id = rng.Uniform(kGroupSize) + 1;
      Rng row_rng(id * 31 + r);
      sql.update_latency_s.push_back(
          db.Upsert(workload::SyntheticRow(id, spec, row_rng)).seconds());
      if ((r + 1) % kSearchEvery == 0) {
        sql.search_latency_s.push_back(db.Search(query->predicate).cost.seconds());
      }
    }
  }

  // ---------- Report ----------
  std::printf("Latency trace (sampled every %llu requests):\n",
              static_cast<unsigned long long>(requests / 20));
  TablePrinter trace({"request #", "propeller update", "minisql update"});
  for (uint64_t i = 0; i < prop.update_latency_s.size();
       i += std::max<uint64_t>(1, requests / 20)) {
    trace.AddRow({Sprintf("%llu", (unsigned long long)i),
                  bench::Secs(prop.update_latency_s[i]),
                  bench::Secs(sql.update_latency_s[i])});
  }
  trace.Print();

  std::printf("\nSummary (r=1000-style mixed workload):\n");
  TablePrinter summary({"system", "avg re-index latency", "avg search latency"});
  summary.AddRow({"propeller", Sprintf("%.1fus", prop.AvgUpdate() * 1e6),
                  bench::Secs(prop.AvgSearch())});
  summary.AddRow({"propeller+caching",
                  Sprintf("%.1fus", prop_cached.AvgUpdate() * 1e6),
                  bench::Secs(prop_cached.AvgSearch())});
  summary.AddRow({"minisql", Sprintf("%.1fus", sql.AvgUpdate() * 1e6),
                  bench::Secs(sql.AvgSearch())});
  summary.Print();
  std::printf(
      "\nRe-indexing latency ratio: %.0fx (paper: 15.6us vs 3980.9us = "
      "255x); read-path caching shaves the resolve RPC off each update "
      "(%.1fus -> %.1fus).\n",
      sql.AvgUpdate() / prop.AvgUpdate(), prop.AvgUpdate() * 1e6,
      prop_cached.AvgUpdate() * 1e6);
  std::vector<std::pair<std::string, double>> json = {
      {"propeller_update_s", prop.AvgUpdate()},
      {"propeller_search_s", prop.AvgSearch()},
      {"propeller_cached_update_s", prop_cached.AvgUpdate()},
      {"propeller_cached_search_s", prop_cached.AvgSearch()},
      {"minisql_update_s", sql.AvgUpdate()},
      {"minisql_search_s", sql.AvgSearch()},
      {"reindex_ratio", sql.AvgUpdate() / prop.AvgUpdate()},
      {"sweep_barrier_degradation_10x",
       barrier_base > 0 ? barrier_10x / barrier_base : 0},
      {"sweep_segmented_degradation_10x",
       segmented_base > 0 ? segmented_10x / segmented_base : 0}};
  json.insert(json.end(), sweep_json.begin(), sweep_json.end());
  bench::WriteBenchJson("fig10", json);
  return 0;
}
