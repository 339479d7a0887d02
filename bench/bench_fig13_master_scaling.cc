// Fig. 13 (extension beyond the paper): the one master's load.  The paper's
// Master Node only routes, "so a single master scales to hundreds of Index
// Nodes".  Two questions, one figure:
//
//  (a) Who saturates first, the master or the index nodes?  An 8-node
//      cluster (read-path caching on, admission bound 8, cluster_target
//      32, MasterConfig::model_resolve_queue on) takes open-loop Poisson
//      traffic at rates doubling from 100k ops/s, in four mixes; every
//      update names one file, brand-new unless the mix says otherwise.
//      Master load is the share of arrival-stamped resolves that found the
//      master's virtual-time resolve queue busy (with Poisson arrivals,
//      about its utilisation) and their mean wait; index-node load is the
//      share of ops the admission queues shed.  The check: in the mixes
//      with 2% and 10% searches the master is < 80% busy at the first rate
//      where the index nodes shed >= 1% of ops (the top rate if none
//      does).  Otherwise the bench exits 1.
//
//  (b) Read-path caching: an end-to-end cluster runs a steady-state loop
//      (repeat updates + searches of known files) with read_path_caching
//      off and on.  Off, every op lands on the master; on, clients answer
//      repeat resolves from their epoch-keyed placement caches and the
//      master sees ~one resolve for the whole loop.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "core/cluster.h"

using namespace propeller;

namespace {

constexpr uint64_t kSeed = 1013;

index::FileUpdate Upsert(index::FileId f, int64_t size) {
  index::FileUpdate u;
  u.file = f;
  u.attrs.Set("size", index::AttrValue(size));
  return u;
}

// --- part (a): the master vs the index nodes, open loop ---------------------

struct Mix {
  const char* key;    // BENCH_fig13.json prefix
  const char* label;
  double search_frac;
  double new_file_frac;  // of the writes
  double top_qps;        // the sweep doubles from 100k ops/s up to this
  bool gated;            // part of the saturation check
};
constexpr Mix kMixes[] = {
    {"w90_s10", "90% new-file writes, 10% searches", 0.10, 1.0, 1.6e6, true},
    {"w98_s2", "98% new-file writes, 2% searches", 0.02, 1.0, 1.6e6, true},
    {"w50_s50", "50% writes (half new), 50% searches", 0.50, 0.5, 1.6e6,
     false},
    {"w100", "100% new-file writes", 0.0, 1.0, 6.4e6, false},
};

struct LoadPoint {
  double master_contended = 0;  // share of stamped resolves that waited
  double master_mean_wait_s = 0;
  double shed_share = 0;  // share of ops an admission queue shed
  uint64_t failed = 0;    // ops that failed other than by shedding
};

// One open-loop run of `ops` Poisson arrivals at `qps` on a fresh cluster
// whose `warm_files` files were placed, committed and searched unstamped
// first.
LoadPoint RunMix(const Mix& mix, double qps, uint64_t warm_files,
                 uint64_t ops) {
  core::ClusterConfig cfg;
  cfg.index_nodes = 8;
  cfg.read_path_caching = true;
  cfg.admission_control = true;
  cfg.index_node.admission_queue_bound = 8;
  cfg.master.acg_policy.cluster_target = 32;
  cfg.master.model_resolve_queue = true;
  core::PropellerCluster cluster(cfg);
  auto& client = cluster.client();
  (void)client.CreateIndex({"by_size", index::IndexType::kBTree, {"size"}});
  std::vector<index::FileUpdate> warm;
  for (index::FileId f = 1; f <= warm_files; ++f) {
    warm.push_back(Upsert(f, static_cast<int64_t>(f)));
  }
  (void)client.BatchUpdate(std::move(warm), cluster.now());
  cluster.AdvanceTime(1.0);
  // One unstamped search pages every group in: the first search after a
  // load costs orders of magnitude more than steady state, and stamped it
  // would hold a node's workers for most of a run.
  index::Predicate all;
  all.And("size", index::CmpOp::kGe, index::AttrValue(int64_t{0}));
  (void)client.Search(all, "by_size");

  Rng rng(kSeed);
  index::FileId next_file = warm_files + 1;
  uint64_t shed = 0;
  LoadPoint out;
  double t = cluster.now();
  for (uint64_t i = 0; i < ops; ++i) {
    t += rng.Exponential(1.0 / qps);
    // Walk the clock in tick-sized steps so commits and heartbeats fire on
    // their own cadence while the traffic runs.
    while (cluster.now() < t) {
      cluster.AdvanceTime(std::min(0.05, t - cluster.now()));
    }
    Status status = Status::Ok();
    if (rng.UniformDouble() < mix.search_frac) {
      // The newest files: selective, and never the same answer twice.
      index::Predicate p;
      p.And("size", index::CmpOp::kGe,
            index::AttrValue(static_cast<int64_t>(next_file) - 64));
      auto r = client.Search(p, "by_size", t);
      status = r.status();
      if (r.ok() && r->overloaded) status = Status::Overloaded("shed");
    } else {
      const index::FileId f = rng.UniformDouble() < mix.new_file_frac
                                  ? next_file++
                                  : 1 + rng.Uniform(next_file - 1);
      status = client
                   .BatchUpdate({Upsert(f, static_cast<int64_t>(f))}, t,
                                /*admission=*/true)
                   .status();
    }
    if (status.code() == StatusCode::kOverloaded) {
      ++shed;
    } else if (!status.ok()) {
      ++out.failed;
    }
  }

  const obs::MetricsSnapshot snap = cluster.master().MetricsSnapshot();
  const obs::HistogramSnapshot& wait =
      snap.histograms.at("mn.resolve_queue.wait_s");
  const uint64_t contended = snap.counters.at("mn.resolve_queue.contended");
  out.master_contended =
      wait.count == 0 ? 0 : double(contended) / double(wait.count);
  out.master_mean_wait_s = wait.Mean();
  out.shed_share = double(shed) / double(ops);
  return out;
}

// --- part (b): read-path caching, end to end -------------------------------

uint64_t MasterResolveCalls(const core::PropellerCluster& cluster) {
  auto counters = cluster.Stats().metrics.counters;
  uint64_t total = 0;
  for (const char* key :
       {"mn.calls.mn.resolve_update", "mn.calls.mn.resolve_search"}) {
    auto it = counters.find(key);
    if (it != counters.end()) total += it->second;
  }
  return total;
}

// Steady-state master resolve RPCs per op (one op = one update batch or
// one search).
double RunCachingArm(bool caching, uint64_t num_files, int steady_rounds) {
  core::ClusterConfig cfg;
  cfg.index_nodes = 8;
  cfg.master.acg_policy.cluster_target = 32;
  cfg.read_path_caching = caching;
  core::PropellerCluster cluster(cfg);
  (void)cluster.client().CreateIndex(
      {"by_size", index::IndexType::kBTree, {"size"}});
  std::vector<index::FileUpdate> warm;
  for (index::FileId f = 1; f <= num_files; ++f) {
    warm.push_back(Upsert(f, static_cast<int64_t>(f)));
  }
  // Warm-up: place everything, then one more round so every placement the
  // loop needs is known.
  (void)cluster.client().BatchUpdate(warm, cluster.now());
  cluster.AdvanceTime(1.0);
  (void)cluster.client().BatchUpdate(warm, cluster.now());

  const uint64_t before = MasterResolveCalls(cluster);
  index::Predicate p;
  p.And("size", index::CmpOp::kGe, index::AttrValue(int64_t{1}));
  for (int i = 0; i < steady_rounds; ++i) {
    (void)cluster.client().BatchUpdate(warm, cluster.now());
    (void)cluster.client().Search(p, "by_size");
    cluster.AdvanceTime(1.0);
  }
  return double(MasterResolveCalls(cluster) - before) /
         double(2 * steady_rounds);
}

}  // namespace

int main() {
  bench::Banner("bench_fig13_master_scaling", "Fig. 13 (extension)",
                "One master: open-loop master vs index-node load across "
                "four mixes, and read-path caching taking the master out of "
                "the steady-state resolve path.");

  const uint64_t warm_files = 2'000;
  const uint64_t ops = std::max<uint64_t>(bench::Scaled(20'000), 5'000);
  std::printf("8 index nodes, %llu warm files, %llu ops per rate\n\n",
              (unsigned long long)warm_files, (unsigned long long)ops);

  TablePrinter table({"mix", "rate (ops/s)", "master waited",
                      "master mean wait", "ops shed"});
  std::vector<std::pair<std::string, double>> json = {
      {"warm_files", double(warm_files)}, {"ops", double(ops)}};
  bool ok = true;
  uint64_t failed = 0;
  std::vector<std::string> verdicts;
  for (const Mix& mix : kMixes) {
    // The gate's rate: the first that sheds >= 1% of ops, else the top one.
    double gate_qps = 0;
    double gate_contended = 0;
    for (double qps = 1e5; qps <= mix.top_qps; qps *= 2) {
      const LoadPoint r = RunMix(mix, qps, warm_files, ops);
      failed += r.failed;
      table.AddRow({mix.label, Sprintf("%.0fk", qps / 1e3),
                    Sprintf("%.2f", r.master_contended),
                    bench::Secs(r.master_mean_wait_s),
                    Sprintf("%.1f%%", 100.0 * r.shed_share)});
      const std::string p = Sprintf("%s_%.0fk_", mix.key, qps / 1e3);
      json.emplace_back(p + "master_contended", r.master_contended);
      json.emplace_back(p + "master_mean_wait_s", r.master_mean_wait_s);
      json.emplace_back(p + "shed_share", r.shed_share);
      if (gate_qps == 0 && (r.shed_share >= 0.01 || qps * 2 > mix.top_qps)) {
        gate_qps = qps;
        gate_contended = r.master_contended;
      }
    }
    if (!mix.gated) continue;
    const bool master_first = gate_contended >= 0.8;
    verdicts.push_back(Sprintf(
        "%s: at %.0fk ops/s the master waited on %.2f of resolves (limit "
        "0.80) -> %s",
        mix.label, gate_qps / 1e3, gate_contended,
        master_first ? "FAIL: the master saturates first"
                     : "ok: the index nodes saturate first"));
    json.emplace_back(std::string(mix.key) + "_gate_qps", gate_qps);
    json.emplace_back(std::string(mix.key) + "_gate_master_contended",
                      gate_contended);
    ok = ok && !master_first;
  }
  table.Print();
  std::printf("\n");
  for (const std::string& v : verdicts) std::printf("%s\n", v.c_str());
  if (failed != 0) {
    std::printf("%llu ops failed other than by shedding\n",
                (unsigned long long)failed);
    ok = false;
  }

  // --- read-path caching ---
  const uint64_t caching_files = std::min<uint64_t>(bench::Scaled(20'000), 2'000);
  const int steady_rounds = 20;
  const double off = RunCachingArm(false, caching_files, steady_rounds);
  const double on = RunCachingArm(true, caching_files, steady_rounds);
  std::printf(
      "\nSteady-state master resolve RPCs per op: caching off %.3f, "
      "caching on %.3f\n",
      off, on);
  json.emplace_back("caching_off_master_resolves_per_op", off);
  json.emplace_back("caching_on_master_resolves_per_op", on);
  bench::WriteBenchJson("fig13", json);
  return ok ? 0 : 1;
}
