// Fig. 12 (extension beyond the paper): saturation behavior under
// open-loop load.  A seeded Poisson arrival stream sweeps the offered
// rate across the cluster's capacity knee, twice per point: once with
// bounded admission queues (requests past the bound are shed with
// kOverloaded before any work) and once with the queue unbounded (the
// classic no-admission server: everything is accepted and waits).
//
// The expected picture, and what BENCH_fig12.json records: with admission
// control the goodput curve climbs to capacity and stays there — shed
// requests cost nothing, accepted requests keep a bounded sojourn, p99
// holds — while the unbounded arm collapses past the knee as the waiting
// line (and therefore every response time) grows without limit and
// completions blow the deadline.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "core/cluster.h"
#include "load/traffic_engine.h"
#include "workload/dataset.h"

using namespace propeller;

namespace {

constexpr uint64_t kSeed = 42;
constexpr size_t kQueueBound = 8;

// Multipliers over the estimated capacity; the knee sits inside the sweep.
const double kOfferedMult[] = {0.25, 0.5, 0.75, 1.0, 1.5, 2.5, 4.0};

struct ArmConfig {
  uint64_t num_files = 0;
  uint64_t requests = 0;
  double offered_qps = 0;
  size_t queue_bound = 0;  // 0 = unbounded (no-admission arm)
  bool admission = true;
  double deadline_s = 0.1;
};

// `node_service_p50_s` (optional) receives the index node's median
// in.search handler latency — the admission queue's typical service time.
// The median, not the mean: the first search after a cache drop costs
// four orders of magnitude more than steady state and would poison any
// mean-based estimate.
load::RunStats RunArm(const ArmConfig& arm,
                      double* node_service_p50_s = nullptr) {
  core::ClusterConfig cfg;
  cfg.index_nodes = 1;
  cfg.net.latency_us = 3;
  cfg.net.bandwidth_mb_per_s = 4000;
  cfg.admission_control = arm.admission;
  cfg.index_node.admission_queue_bound = arm.queue_bound;
  // Segmented groups (write-read decoupling): searches snapshot immutable
  // segments instead of draining the staged batch, so the service-time
  // distribution stays tight and the sweep measures queueing, not the
  // commit barrier's multi-ms drain spikes.
  cfg.index_node.segmented_index = true;
  core::PropellerCluster cluster(cfg);
  auto& client = cluster.client();
  (void)client.CreateIndex({"by_size", index::IndexType::kBTree, {"size"}});

  workload::DatasetSpec spec;
  spec.num_files = arm.num_files;
  for (uint64_t base = 0; base < arm.num_files; base += 10'000) {
    uint64_t n = std::min<uint64_t>(10'000, arm.num_files - base);
    (void)client.BatchUpdate(workload::SyntheticRows(base + 1, n, spec),
                             cluster.now());
    cluster.AdvanceTime(6.0);
  }

  load::TrafficSpec traffic;
  traffic.offered_qps = arm.offered_qps;
  traffic.duration_s = static_cast<double>(arm.requests) / arm.offered_qps;
  traffic.start_s = cluster.now();
  traffic.seed = kSeed;
  traffic.num_files = arm.num_files;
  traffic.tenants = {
      {"interactive", 0.7, 0.95, 0.9},  // search-heavy, hot head
      {"ingest", 0.3, 0.2, 0.6},        // update-heavy, flatter skew
  };
  load::OpenLoopEngine engine(traffic);

  load::RunOptions opts;
  opts.deadline_s = arm.deadline_s;
  load::RunStats stats = engine.Run(cluster, opts);
  if (node_service_p50_s != nullptr) {
    obs::MetricsSnapshot snap = cluster.index_node(0).MetricsSnapshot();
    auto it = snap.histograms.find("in.search.latency_s");
    *node_service_p50_s =
        it != snap.histograms.end() ? it->second.Percentile(50) : 0;
  }
  return stats;
}

}  // namespace

int main() {
  bench::Banner("bench_fig12_saturation", "Fig. 12 (extension)",
                "Open-loop saturation sweep: offered QPS vs goodput and "
                "tail latency, bounded admission queue vs unbounded.");

  const uint64_t num_files = bench::Scaled(5'000);
  // Floor on the per-point request count: past the knee the unbounded
  // queue's worst sojourn is ~N * service / 16, which must dwarf the
  // goodput deadline for the collapse to be visible even at tiny scales.
  const uint64_t requests_per_point =
      std::max<uint64_t>(bench::Scaled(2'000), 500);

  // --- calibration 1: unloaded latencies ---
  // Admission off entirely: the engine's stamps are ignored and every op
  // runs at its bare cost.
  ArmConfig calib;
  calib.num_files = num_files;
  calib.requests = std::max<uint64_t>(50, requests_per_point / 10);
  calib.offered_qps = 50;
  calib.admission = false;
  calib.deadline_s = 0;  // unloaded: everything acknowledged is good
  double service_s = 0;
  load::RunStats unloaded = RunArm(calib, &service_s);
  if (service_s <= 0) service_s = 1e-5;
  const double client_p50_s = unloaded.p50_s > 0 ? unloaded.p50_s : 1e-5;
  // Goodput deadline: double the typical unloaded latency plus a full
  // queue-bound of service times — far above the bounded queue's worst
  // admitted wait (bound/16 service times), far below the sojourns an
  // unbounded queue accumulates past the knee.
  const double deadline_s = 2.0 * client_p50_s + kQueueBound * service_s;

  // --- calibration 2: empirical capacity ---
  // Offer far more than the cluster can possibly serve with the bounded
  // queue on: admission sheds the excess for free and completes admitted
  // work at full speed, so the measured goodput IS the capacity — no
  // service-time modelling, no guessing what the op mix costs.
  ArmConfig probe;
  probe.num_files = num_files;
  probe.requests = requests_per_point;
  probe.offered_qps = 160.0 / client_p50_s;  // ~10x a 16-worker upper bound
  probe.queue_bound = kQueueBound;
  probe.deadline_s = deadline_s;
  load::RunStats saturated = RunArm(probe);
  const double capacity_qps =
      saturated.goodput_qps > 0 ? saturated.goodput_qps : 16.0 / service_s;
  std::printf(
      "calibration: node service p50 %s, unloaded client p50 %s (p99 %s); "
      "probe at %.0f qps -> capacity %.0f qps; goodput deadline %s\n\n",
      bench::Secs(service_s).c_str(), bench::Secs(client_p50_s).c_str(),
      bench::Secs(unloaded.p99_s).c_str(), probe.offered_qps, capacity_qps,
      bench::Secs(deadline_s).c_str());

  // --- the sweep ---
  // Every point runs the SAME simulated duration (sized so the knee point
  // offers ~requests_per_point arrivals).  With a fixed request count
  // instead, duration would shrink as offered grows and good/duration
  // would keep rising even while the good *fraction* collapses.
  const double window_s =
      static_cast<double>(requests_per_point) / capacity_qps;
  TablePrinter table({"offered qps", "admit goodput", "admit p99",
                      "shed %", "queue peak", "no-admit goodput",
                      "no-admit p99"});
  std::vector<std::pair<std::string, double>> json = {
      {"capacity_qps", capacity_qps},
      {"queue_bound", static_cast<double>(kQueueBound)},
      {"deadline_s", deadline_s}};
  std::vector<double> offered_axis, admit_goodput, noadmit_goodput;
  for (size_t i = 0; i < std::size(kOfferedMult); ++i) {
    ArmConfig arm;
    arm.num_files = num_files;
    arm.offered_qps = capacity_qps * kOfferedMult[i];
    arm.requests = static_cast<uint64_t>(window_s * arm.offered_qps) + 1;
    arm.deadline_s = deadline_s;

    arm.queue_bound = kQueueBound;
    load::RunStats admit = RunArm(arm);
    arm.queue_bound = 0;  // unbounded waiting line: nothing sheds
    load::RunStats noadmit = RunArm(arm);

    const double shed_rate =
        admit.offered > 0
            ? static_cast<double>(admit.shed) / static_cast<double>(admit.offered)
            : 0;
    offered_axis.push_back(arm.offered_qps);
    admit_goodput.push_back(admit.goodput_qps);
    noadmit_goodput.push_back(noadmit.goodput_qps);
    table.AddRow({Sprintf("%.0f (%.2gx)", arm.offered_qps, kOfferedMult[i]),
                  Sprintf("%.0f", admit.goodput_qps),
                  bench::Secs(admit.p99_s), Sprintf("%.1f", shed_rate * 100),
                  Sprintf("%.0f", admit.queue_peak),
                  Sprintf("%.0f", noadmit.goodput_qps),
                  bench::Secs(noadmit.p99_s)});
    const std::string p = Sprintf("p%zu_", i);
    json.emplace_back(p + "offered_qps", arm.offered_qps);
    json.emplace_back(p + "admit_goodput_qps", admit.goodput_qps);
    json.emplace_back(p + "admit_p50_s", admit.p50_s);
    json.emplace_back(p + "admit_p99_s", admit.p99_s);
    json.emplace_back(p + "admit_shed_rate", shed_rate);
    json.emplace_back(p + "admit_queue_peak", admit.queue_peak);
    json.emplace_back(p + "noadmit_goodput_qps", noadmit.goodput_qps);
    json.emplace_back(p + "noadmit_p50_s", noadmit.p50_s);
    json.emplace_back(p + "noadmit_p99_s", noadmit.p99_s);
    json.emplace_back(p + "noadmit_queue_peak", noadmit.queue_peak);
  }
  table.Print();

  // --- retention: goodput beyond the knee relative to the peak ---
  // The knee is where the admission arm's goodput peaks; retention is the
  // worst goodput at any offered rate past it, as a fraction of that
  // peak.  Admission control should hold >= ~0.8; the unbounded queue
  // collapses toward 0 as every completion blows the deadline.
  auto retention = [&](const std::vector<double>& goodput) {
    double peak = 0;
    size_t knee = 0;
    for (size_t i = 0; i < goodput.size(); ++i) {
      if (goodput[i] > peak) {
        peak = goodput[i];
        knee = i;
      }
    }
    double worst = 1.0;
    for (size_t i = knee + 1; i < goodput.size(); ++i) {
      if (peak > 0) worst = std::min(worst, goodput[i] / peak);
    }
    return worst;
  };
  const double admit_retention = retention(admit_goodput);
  const double noadmit_retention = retention(noadmit_goodput);
  std::printf(
      "\nGoodput retention beyond the knee: admission %.2f (target >= 0.8), "
      "no admission %.2f (collapses).\n",
      admit_retention, noadmit_retention);
  json.emplace_back("admit_retention_beyond_knee", admit_retention);
  json.emplace_back("noadmit_retention_beyond_knee", noadmit_retention);
  bench::WriteBenchJson("fig12", json);
  return 0;
}
