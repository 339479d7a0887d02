// Fig. 13 (extension beyond the paper): master metadata scaling.  Three
// questions, one figure:
//
//  (a) Sharding: an open-loop, arrival-stamped resolve storm (updates +
//      scatter search resolves) drives the master's virtual-time resolve
//      queues (MasterConfig::model_resolve_queue) at a rate several times
//      one shard's service capacity.  With one shard every resolve
//      serializes behind one queue and throughput pins at ~1x capacity;
//      with N shards the storm hash-spreads and throughput tracks the
//      offered rate.  BENCH_fig13.json records the curve; the acceptance
//      line is >= 3x resolve throughput at 8 shards vs 1.
//
//  (b) Read-path caching: an end-to-end cluster runs a steady-state loop
//      (repeat updates + searches of known files) with read_path_caching
//      off and on.  Off, every op lands on the master; on, clients answer
//      repeat resolves from their epoch-keyed placement caches and the
//      master sees ~one resolve for the whole loop.
//
//  (c) What sharding drops from the ACG: the master keeps an ACG edge only
//      when both files hash to the same shard.  For the git and thrift
//      build traces this reports the share of edge weight lost at 1, 2, 4
//      and 8 shards, and the groups one build process's files span after
//      the master places them (the partitions-touched cost behind Fig. 2(b)).
#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "acg/acg_builder.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "core/cluster.h"
#include "core/master_node.h"
#include "fs/vfs.h"
#include "trace/trace_gen.h"

using namespace propeller;

namespace {

constexpr uint64_t kSeed = 1013;
constexpr size_t kBatch = 4;          // files per resolve_update
constexpr double kSearchFrac = 0.1;   // scatter resolves in the mix
constexpr double kOverdrive = 6.0;    // offered rate vs 1-shard capacity

// Stub Index Node: accepts placement RPCs, does no work — part (a)
// isolates the master's resolve path.
class StubIndexNode : public net::RpcHandler {
 public:
  Response Handle(const std::string& method,
                  const std::string& /*payload*/) override {
    if (method == "in.migrate_out") {
      return {Status::Ok(), core::Encode(core::MigrateOutResponse{}),
              sim::Cost(1e-6)};
    }
    return {Status::Ok(), {}, sim::Cost(1e-7)};
  }
};

// Registers `stubs` as the master's index nodes (ids 10, 11, ...).
void AddStubNodes(net::Transport& transport, core::MasterNode& master,
                  std::vector<StubIndexNode>& stubs) {
  for (size_t i = 0; i < stubs.size(); ++i) {
    transport.Register(static_cast<net::NodeId>(10 + i), &stubs[i]);
    master.AddIndexNode(static_cast<net::NodeId>(10 + i));
  }
}

struct StormResult {
  double throughput_qps = 0;
  double p50_s = 0;
  double p99_s = 0;
  uint64_t contended = 0;  // resolves that waited behind a busy shard
};

StormResult RunStorm(int shards, uint64_t num_files, uint64_t ops,
                     double offered_qps) {
  core::MasterConfig cfg;
  cfg.acg_policy.cluster_target = 32;
  cfg.num_shards = shards;
  cfg.model_resolve_queue = true;
  net::Transport transport;
  core::MasterNode master(1, &transport, cfg);
  transport.Register(1, &master);
  std::vector<StubIndexNode> stubs(8);
  AddStubNodes(transport, master, stubs);
  (void)transport.Call(100, 1, "mn.create_index",
                       core::Encode(core::CreateIndexRequest{
                           {"by_size", index::IndexType::kBTree, {"size"}}}));

  // Pre-place the file population with unstamped resolves (arrival 0
  // bypasses the queue model): the storm then measures pure routing load
  // on a warm map, not placement churn.
  for (uint64_t base = 1; base <= num_files; base += 1000) {
    core::ResolveUpdateRequest req;
    for (uint64_t f = base; f <= std::min(num_files, base + 999); ++f) {
      req.files.push_back(f);
    }
    (void)transport.Call(100, 1, "mn.resolve_update", core::Encode(req));
  }

  // Seeded Poisson arrivals, executed in order; every op is stamped with
  // its arrival instant so the per-shard queues charge real waits.
  Rng rng(kSeed);
  double arrival = 1.0;
  const double first_arrival = arrival;
  double last_completion = arrival;
  std::vector<double> latencies;
  latencies.reserve(ops);
  StormResult out;
  for (uint64_t i = 0; i < ops; ++i) {
    arrival += rng.Exponential(1.0 / offered_qps);
    sim::Cost cost;
    if (rng.UniformDouble() < kSearchFrac) {
      core::ResolveSearchRequest req;
      req.index_name = "by_size";
      req.arrival_s = arrival;
      cost = transport.Call(100, 1, "mn.resolve_search", core::Encode(req))
                 .cost;
    } else {
      core::ResolveUpdateRequest req;
      for (size_t b = 0; b < kBatch; ++b) {
        req.files.push_back(1 + rng.Uniform(num_files));
      }
      req.arrival_s = arrival;
      cost = transport.Call(100, 1, "mn.resolve_update", core::Encode(req))
                 .cost;
    }
    latencies.push_back(cost.seconds());
    last_completion = std::max(last_completion, arrival + cost.seconds());
  }

  std::sort(latencies.begin(), latencies.end());
  auto pct = [&](double p) {
    return latencies[static_cast<size_t>(p * double(latencies.size() - 1))];
  };
  out.p50_s = pct(0.50);
  out.p99_s = pct(0.99);
  out.throughput_qps = double(ops) / (last_completion - first_arrival);
  const auto counters = master.MetricsSnapshot().counters;
  for (int s = 0; s < shards; ++s) {
    auto it = counters.find("mn.shard." + std::to_string(s) + ".contended");
    if (it != counters.end()) out.contended += it->second;
  }
  return out;
}

// --- part (b): read-path caching, end to end -------------------------------

index::FileUpdate Upsert(index::FileId f, int64_t size) {
  index::FileUpdate u;
  u.file = f;
  u.attrs.Set("size", index::AttrValue(size));
  return u;
}

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
  cfg.master.num_shards = 8;
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

// --- part (c): ACG locality under sharding ----------------------------------

// Records the files each process opens.
class ProcessFiles : public fs::AccessListener {
 public:
  void OnEvent(const fs::AccessEvent& ev) override {
    if (ev.type == fs::AccessEvent::Type::kOpen) by_pid[ev.pid].insert(ev.file);
  }
  std::map<uint64_t, std::set<index::FileId>> by_pid;
};

struct AcgTrace {
  acg::Acg acg;
  std::vector<std::set<index::FileId>> processes;
};

// One execution of `profile`: its captured ACG and each process's files.
AcgTrace CaptureTrace(const trace::AppProfile& profile, uint64_t seed) {
  fs::Vfs vfs;
  trace::TraceGenerator gen(profile, seed);
  (void)gen.Materialize(vfs);
  acg::AcgBuilder builder;
  ProcessFiles files;
  vfs.AddListener(&builder);
  vfs.AddListener(&files);
  uint64_t pid = 1;
  (void)gen.RunExecution(vfs, &pid);
  AcgTrace out;
  out.acg = builder.TakeDelta();
  for (auto& [p, set] : files.by_pid) out.processes.push_back(std::move(set));
  return out;
}

struct LocalityResult {
  double lost_weight_share = 0;  // cross-shard edge weight / total weight
  double groups_per_process = 0;
};

// Flushes the trace's ACG to an `shards`-way master (default ACG policy, 8
// stub nodes), then counts the distinct groups each process's files landed
// in.
LocalityResult MeasureLocality(const AcgTrace& t, uint32_t shards) {
  LocalityResult out;
  uint64_t lost = 0;
  t.acg.ForEachEdge([&](index::FileId a, index::FileId b, uint64_t w) {
    if (core::ShardOfFile(a, shards) != core::ShardOfFile(b, shards)) lost += w;
  });
  out.lost_weight_share = double(lost) / double(t.acg.TotalWeight());

  core::MasterConfig cfg;
  cfg.num_shards = static_cast<int>(shards);
  net::Transport transport;
  core::MasterNode master(1, &transport, cfg);
  transport.Register(1, &master);
  std::vector<StubIndexNode> stubs(8);
  AddStubNodes(transport, master, stubs);
  core::FlushAcgRequest flush;
  flush.delta = t.acg;
  (void)transport.Call(100, 1, "mn.flush_acg", core::Encode(flush));
  core::ResolveUpdateRequest req;
  req.files = t.acg.SortedVertices();
  auto resolved = core::Decode<core::ResolveUpdateResponse>(
      transport.Call(100, 1, "mn.resolve_update", core::Encode(req)).payload);
  if (!resolved.ok()) return out;
  std::map<index::FileId, index::GroupId> group_of;
  for (const auto& pl : resolved->placements) group_of[pl.file] = pl.group;
  uint64_t touched = 0;
  for (const std::set<index::FileId>& files : t.processes) {
    std::set<index::GroupId> groups;
    for (index::FileId f : files) groups.insert(group_of[f]);
    touched += groups.size();
  }
  out.groups_per_process = double(touched) / double(t.processes.size());
  return out;
}

}  // namespace

int main() {
  bench::Banner("bench_fig13_master_scaling", "Fig. 13 (extension)",
                "Sharded master metadata: open-loop resolve throughput vs "
                "shard count, read-path caching taking the master out of "
                "the steady-state resolve path, and the ACG locality "
                "sharding gives up.");

  const uint64_t num_files = bench::Scaled(20'000);
  const uint64_t ops = std::max<uint64_t>(bench::Scaled(30'000), 2'000);

  // One shard's service capacity for the mix (lookup_us per file routed;
  // a scatter search touches every group once).  The storm offers a fixed
  // kOverdrive multiple of it to every arm, so throughput ~= min(offered,
  // shards * capacity) and the curve is the scaling picture.
  core::MasterConfig defaults;
  const double groups = double(num_files) / 32.0;
  const double service_s =
      defaults.lookup_us / 1e6 *
      ((1.0 - kSearchFrac) * double(kBatch) + kSearchFrac * (groups + 1.0));
  const double capacity1_qps = 1.0 / service_s;
  const double offered_qps = kOverdrive * capacity1_qps;
  std::printf("mix service %.3gus -> 1-shard capacity %.0f resolves/s; "
              "offering %.0f/s (%.1fx)\n\n",
              service_s * 1e6, capacity1_qps, offered_qps, kOverdrive);

  TablePrinter table(
      {"shards", "throughput rps", "speedup", "p50", "p99", "contended"});
  std::vector<std::pair<std::string, double>> json = {
      {"num_files", double(num_files)},
      {"ops", double(ops)},
      {"offered_qps", offered_qps}};
  double base_qps = 0;
  double speedup8 = 0;
  for (int shards : {1, 2, 4, 8}) {
    StormResult r = RunStorm(shards, num_files, ops, offered_qps);
    if (shards == 1) base_qps = r.throughput_qps;
    const double speedup = base_qps > 0 ? r.throughput_qps / base_qps : 0;
    if (shards == 8) speedup8 = speedup;
    table.AddRow({Sprintf("%d", shards), Sprintf("%.0f", r.throughput_qps),
                  Sprintf("%.2fx", speedup), bench::Secs(r.p50_s),
                  bench::Secs(r.p99_s),
                  Sprintf("%llu", (unsigned long long)r.contended)});
    const std::string p = Sprintf("s%d_", shards);
    json.emplace_back(p + "throughput_qps", r.throughput_qps);
    json.emplace_back(p + "speedup", speedup);
    json.emplace_back(p + "p50_s", r.p50_s);
    json.emplace_back(p + "p99_s", r.p99_s);
    json.emplace_back(p + "contended", double(r.contended));
  }
  table.Print();
  std::printf("\n8-shard speedup %.2fx (target >= 3x)\n", speedup8);

  // --- read-path caching ---
  const uint64_t caching_files = std::min<uint64_t>(num_files, 2'000);
  const int steady_rounds = 20;
  const double off = RunCachingArm(false, caching_files, steady_rounds);
  const double on = RunCachingArm(true, caching_files, steady_rounds);
  std::printf(
      "\nSteady-state master resolve RPCs per op: caching off %.3f, "
      "caching on %.3f\n",
      off, on);
  json.emplace_back("caching_off_master_resolves_per_op", off);
  json.emplace_back("caching_on_master_resolves_per_op", on);

  // --- ACG locality under sharding ---
  std::printf("\nACG edge weight the sharded master drops, and groups one "
              "build process's files span:\n");
  TablePrinter locality(
      {"app", "shards", "edge weight lost", "groups per process"});
  const std::pair<const char*, AcgTrace> traces[] = {
      {"git", CaptureTrace(trace::GitProfile(), 3)},
      {"thrift", CaptureTrace(trace::ThriftProfile(), 2)}};
  for (const auto& [app, t] : traces) {
    for (uint32_t shards : {1u, 2u, 4u, 8u}) {
      LocalityResult r = MeasureLocality(t, shards);
      locality.AddRow({app, Sprintf("%u", shards),
                       Sprintf("%.1f%%", 100.0 * r.lost_weight_share),
                       Sprintf("%.2f", r.groups_per_process)});
      const std::string p = Sprintf("acg_%s_%u_shards_", app, shards);
      json.emplace_back(p + "lost_weight_share", r.lost_weight_share);
      json.emplace_back(p + "groups_per_process", r.groups_per_process);
    }
  }
  locality.Print();
  bench::WriteBenchJson("fig13", json);
  return 0;
}
