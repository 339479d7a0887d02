// propeller_bench: runs one benchmark workload and prints every metric by
// name with its unit, then one JSON result line.
//
//   propeller_bench --workload <search_warm|search_cold|ingest|open_loop>
//                   [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (from an untraced pass plus a traced rerun of the same inputs).  The
// process exits non-zero when an audit finds a wrong search answer, a
// request fails, or (traced) the layer times do not add up.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "session.h"
#include "layers.h"
#include "workloads.h"

namespace pbench {
namespace {

// Set-ups per end-to-end run; setup_s is their median, which drops the
// slower first set-up (fresh heap) and one-off host stalls.
constexpr int kSetups = 5;
// Layer times of a sampled op must add up to its observed latency, and
// none may fall below zero by more than the rounding of the span
// arithmetic (simulated instants are absolute seconds; real costs are
// microseconds or more).
constexpr double kMaxResidual = 0.01;
constexpr double kLayerSlackS = 1e-9;

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "propeller_bench: %s\nusage: propeller_bench --workload "
               "<search_warm|search_cold|ingest|open_loop> [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke]\n",
               why);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (!(o.seconds > 0)) Usage("--seconds must be positive");
    } else if (flag == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
      if (!o.trace && std::strcmp(v, "0") != 0) Usage("--trace takes 0 or 1");
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') Usage(("bad number for " + flag).c_str());
  }
  if (o.workload.empty()) Usage("--workload is required");
  return o;
}

std::vector<double> Latencies(const Session& s, OpKind kind, int phase) {
  std::vector<double> out;
  for (const OpRecord& r : s.records()) {
    if (r.kind == kind && r.phase == phase && r.fate == Fate::kOk) {
      out.push_back(r.latency_s);
    }
  }
  return out;
}

void Tally(const Session& s, Outcome* out) {
  out->attempted += s.records().size();
  for (const OpRecord& r : s.records()) out->failed += r.fate == Fate::kFailed ? 1 : 0;
  std::printf("audit: %llu searches checked, audit_mismatches %llu\n",
              static_cast<unsigned long long>(s.audits()),
              static_cast<unsigned long long>(s.mismatches()));
  if (s.mismatches() > 0 || out->failed > 0) out->correct = false;
}

std::unique_ptr<core::PropellerCluster> SetupOnce(Workload& w, double* wall_s) {
  w.PrepareSetup();
  const double t0 = WallNow();
  auto c = w.Setup();
  *wall_s = WallNow() - t0;
  return c;
}

Outcome EndToEnd(const Options& o, Workload& w) {
  Outcome out;
  std::vector<double> setups;
  std::unique_ptr<core::PropellerCluster> cluster;
  for (int i = 0; i < kSetups; ++i) {
    cluster.reset();
    double wall = 0;
    cluster = SetupOnce(w, &wall);
    setups.push_back(wall);
  }
  std::printf("cluster: %zu index nodes, %llu groups, %llu index pages\n",
              cluster->num_index_nodes(),
              static_cast<unsigned long long>(cluster->TotalGroups()),
              static_cast<unsigned long long>(cluster->TotalIndexPages()));
  w.PrepareRun();
  Session s(*cluster, nullptr, w.reference(), w.audit_every());
  const double t_run = WallNow();
  s.StartClock(o.seconds, 0);
  w.Run(s);
  const double t_audit = WallNow();
  w.Audit(s);
  std::printf("phases: setup %.2fs (median of %d), run %.2fs, audit %.2fs\n",
              Median(setups), kSetups, t_audit - t_run, WallNow() - t_audit);
  Tally(s, &out);

  const std::vector<double> search = Latencies(s, OpKind::kSearch, w.search_phase());
  const std::vector<double> update = Latencies(s, OpKind::kUpdate, w.update_phase());
  // The update path's simulated cost barely depends on its inputs (a
  // resolve and a stage round trip), so its percentiles sit on a few
  // discrete values; the mean is the end-to-end metric, the percentiles
  // are printed for reference.
  double update_sum = 0;
  for (double v : update) update_sum += v;
  std::printf("samples: %zu searches, %zu updates (update p50 %.6g ms, p99 %.6g ms)\n",
              search.size(), update.size(), 1e3 * Percentile(update, 50),
              1e3 * Percentile(update, 99));
  if (search.empty() || update.empty()) out.correct = false;
  std::vector<Metric> steps;
  LoadMetrics(s, &steps);
  for (const Metric& m : steps) {
    if (m.value != 0) std::printf("staircase %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("throughput: %.6g requests per wall second inside cluster calls; "
              "calibration unit %.4g ms\n",
              s.WallOpsPerSecond(), 1e3 * s.CalibrationUnitSeconds());
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out.metrics = {
      {"search_p50_ms", 1e3 * Percentile(search, 50), "ms"},
      {"search_p99_ms", 1e3 * Percentile(search, 99), "ms"},
      {"update_mean_ms", 1e3 * update_sum / std::max<size_t>(1, update.size()), "ms"},
      {"ops_per_cal", s.OpsPerCalibration(), "1/cal"},
      {"setup_s", Median(setups), "s"},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MiB"},
  };
  return out;
}

double Counter(const propeller::obs::MetricsSnapshot& m, const char* name) {
  auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : static_cast<double>(it->second);
}

double HistSum(const propeller::obs::MetricsSnapshot& m, const char* name) {
  auto it = m.histograms.find(name);
  return it == m.histograms.end() ? 0 : it->second.sum;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

Outcome Traced(const Options& o, Workload& w) {
  Outcome out;
  double setup_wall = 0;
  // Untraced pass: the wall-clock baseline the tracing overhead is
  // measured against.  It runs half the time; the traced pass repeats
  // exactly as many loop units.
  uint64_t units = 0;
  double untraced_ops_per_s = 0;
  {
    auto cluster = SetupOnce(w, &setup_wall);
    w.PrepareRun();
    Session s(*cluster, nullptr, w.reference(), w.audit_every());
    s.StartClock(o.seconds / 2, 0);
    w.Run(s);
    units = s.units();
    untraced_ops_per_s = s.WallOpsPerSecond();
  }
  auto cluster = SetupOnce(w, &setup_wall);
  w.PrepareRun();
  core::PropellerCluster& c = *cluster;
  Tracing tracing(c, o.seed);
  Session s(c, &tracing, w.reference(), w.audit_every());
  const propeller::obs::MetricsSnapshot before = c.Stats().metrics;
  s.StartClock(std::numeric_limits<double>::infinity(), units);
  w.Run(s);
  const propeller::obs::MetricsSnapshot after = c.Stats().metrics;
  w.Audit(s);
  Tally(s, &out);

  auto delta = [&](const char* name) { return Counter(after, name) - Counter(before, name); };
  double ops = 0, updates = 0, ok_searches = 0, latency_sum = 0;
  for (const OpRecord& r : s.records()) {
    ++ops;
    updates += r.kind == OpKind::kUpdate ? 1 : 0;
    ok_searches += r.kind == OpKind::kSearch && r.fate == Fate::kOk ? 1 : 0;
    latency_sum += r.latency_s;
  }
  const auto& methods = tracing.methods();
  auto method = [&](const char* kind, const char* name) {
    auto k = methods.find(kind);
    if (k == methods.end()) return MethodStats{};
    auto m = k->second.find(name);
    return m == k->second.end() ? MethodStats{} : m->second;
  };
  // Requests the master serves for clients (heartbeats and the failure
  // detector's tick are background work).
  double master_calls = 0, master_wall = 0;
  if (auto k = methods.find("master"); k != methods.end()) {
    for (const auto& [name, m] : k->second) {
      if (name == "mn.heartbeat" || name == "mn.tick") continue;
      master_calls += static_cast<double>(m.calls);
      master_wall += m.wall_self_s;
    }
  }
  auto wall_us = [&](const char* name) {
    const MethodStats m = method("index_node", name);
    return 1e6 * Ratio(m.wall_self_s, static_cast<double>(m.calls));
  };
  double queue_peak = 0;
  for (size_t i = 0; i < c.num_index_nodes(); ++i) {
    const auto snap = c.index_node(i).MetricsSnapshot();
    auto it = snap.gauges.find("in.admit.queue_peak");
    if (it != snap.gauges.end()) queue_peak = std::max(queue_peak, it->second);
  }
  const LayerTimes& path = tracing.path();
  const double sampled = static_cast<double>(tracing.sampled_ops());
  const double cache_hits = delta("io.cache.hits");
  const double cache_misses = delta("io.cache.misses");
  const double traced_ops_per_s = s.WallOpsPerSecond();
  const double admitted = delta("in.admit.admitted");
  const double shed = delta("in.admit.shed");

  out.metrics = {
      {"client.wall_us_per_op", 1e6 * Ratio(s.client_self_wall_s(), ops), "us"},
      {"client.rpcs_per_op", Ratio(delta("client.rpc.attempts"), ops), "count"},
      {"client.placement_cache_hit_rate",
       Ratio(delta("client.placement_cache.hits"),
             delta("client.placement_cache.hits") +
                 delta("client.placement_cache.misses")),
       "ratio"},
      {"net.msgs_per_op", Ratio(delta("net.messages_sent"), ops), "count"},
      {"net.bytes_per_op", Ratio(delta("net.bytes_sent"), ops), "bytes"},
      {"net.sim_ms_per_op", 1e3 * Ratio(path.net, sampled), "ms"},
      {"master.calls_per_op", Ratio(master_calls, ops), "count"},
      {"master.wall_us_per_call", 1e6 * Ratio(master_wall, master_calls), "us"},
      {"master.sim_ms_per_op", 1e3 * Ratio(path.master, sampled), "ms"},
      {"master.acg_flushes_per_op",
       Ratio(static_cast<double>(method("master", "mn.flush_acg").calls), ops),
       "count"},
      {"master.groups", static_cast<double>(c.master().NumGroups()), "count"},
      {"index_node.search_wall_us", wall_us("in.search"), "us"},
      {"index_node.stage_wall_us", wall_us("in.stage_updates"), "us"},
      {"index_node.tick_wall_us", wall_us("in.tick"), "us"},
      {"index_node.stage_calls_per_update",
       Ratio(static_cast<double>(method("index_node", "in.stage_updates").calls),
             updates),
       "count"},
      // Worker-pool makespan beyond the slowest group plus admission wait;
      // exactly 0 when a node has no more groups than workers, so clamp
      // the rounding residue (at most kLayerSlackS per op, checked below).
      {"index_node.sim_share", std::max(0.0, Ratio(path.index_node, path.Total())),
       "ratio"},
      {"index_node.admit_wait_share",
       Ratio(HistSum(after, "in.admit.wait_s") - HistSum(before, "in.admit.wait_s"),
             latency_sum),
       "ratio"},
      {"index_node.shed_rate", Ratio(shed, admitted + shed), "ratio"},
      {"index_node.queue_peak", queue_peak, "count"},
      {"index.search_sim_ms_per_op", 1e3 * Ratio(path.index_search, sampled), "ms"},
      {"index.commit_share", Ratio(path.index_commit, path.Total()), "ratio"},
      {"index.wal_bytes_per_update", Ratio(delta("in.wal.bytes"), updates), "bytes"},
      {"index.result_cache_hit_rate",
       Ratio(delta("in.result_cache.hits"),
             delta("in.result_cache.hits") + delta("in.result_cache.misses")),
       "ratio"},
      {"sim.cache_hit_rate", Ratio(cache_hits, cache_hits + cache_misses), "ratio"},
      {"sim.cache_misses_per_op", Ratio(cache_misses, ops), "count"},
      {"sim.cache_evictions_per_op", Ratio(delta("io.cache.evictions"), ops), "count"},
  };
  LoadMetrics(s, &out.metrics);
  out.metrics.push_back({"trace.overhead_ratio",
                         Ratio(untraced_ops_per_s, traced_ops_per_s), "ratio"});
  out.metrics.push_back({"trace.max_residual", tracing.max_residual(), "ratio"});
  std::printf("critical path: worst layer-sum residual %.3g, most negative layer "
              "time %.3g s, over %.0f sampled ops\n",
              tracing.max_residual(), tracing.min_layer_s(), sampled);
  std::printf("searches: %.0f answered, %.1f results each on average\n", ok_searches,
              Ratio(static_cast<double>(s.search_results()), ok_searches));
  if (tracing.max_residual() > kMaxResidual ||
      tracing.min_layer_s() < -kLayerSlackS || sampled == 0) {
    out.correct = false;
  }
  return out;
}

void Print(const Options& o, const Outcome& out) {
  for (const Metric& m : out.metrics) {
    std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  if (o.smoke) std::printf("\"smoke\": true, ");
  std::printf("\"metrics\": {");
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace pbench

int main(int argc, char** argv) {
  using namespace pbench;
  const Options o = Parse(argc, argv);
  std::unique_ptr<Workload> w = MakeWorkload(o.workload, o);
  if (w == nullptr) Usage(("unknown workload " + o.workload).c_str());
  std::printf("workload %s seed %llu seconds %g trace %d%s\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0,
              o.smoke ? " (smoke: scaled down, never compared)" : "");
  const Outcome out = o.trace ? Traced(o, *w) : EndToEnd(o, *w);
  Print(o, out);
  return out.correct ? 0 : 1;
}
