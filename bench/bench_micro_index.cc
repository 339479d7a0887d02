// Micro-benchmarks (google-benchmark) for the index substrate: real
// wall-clock throughput of the structures themselves, independent of the
// simulated-disk accounting.  Useful for regression-testing the library.
// The committed ledger is BENCH_micro.json at the repository root:
//   bench_micro_index --benchmark_out=BENCH_micro.json --benchmark_out_format=json
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/proto.h"
#include "graph/partitioner.h"
#include "index/attr.h"
#include "index/btree.h"
#include "index/hash_index.h"
#include "index/index_group.h"
#include "index/kdtree.h"
#include "index/record_store.h"
#include "sim/io_context.h"
#include "sim/server_queue.h"

namespace propeller {
namespace {

void BM_BTreeInsert(benchmark::State& state) {
  sim::IoContext io;
  index::BPlusTree tree(io.CreateStore());
  Rng rng(1);
  int64_t i = 0;
  for (auto _ : state) {
    tree.Insert(index::AttrValue(static_cast<int64_t>(rng.Next() % 1'000'000)),
                static_cast<index::FileId>(++i));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeScan(benchmark::State& state) {
  sim::IoContext io;
  index::BPlusTree tree(io.CreateStore());
  Rng rng(1);
  for (int64_t i = 0; i < state.range(0); ++i) {
    tree.Insert(index::AttrValue(static_cast<int64_t>(rng.Next() % 1'000'000)),
                static_cast<index::FileId>(i));
  }
  for (auto _ : state) {
    index::KeyRange range;
    range.lo = index::AttrValue(int64_t{400'000});
    range.hi = index::AttrValue(int64_t{410'000});
    auto r = tree.Scan(range);
    benchmark::DoNotOptimize(r.files);
  }
}
BENCHMARK(BM_BTreeScan)->Arg(10'000)->Arg(100'000);

// A group-sized tree, as one index group's B-tree answers one search
// term: 1000 postings spread evenly over `domain` keys, inserted in
// shuffled order, scanned over a 10-key range.  domain:1000 gives one
// posting per key (10 per scan); domain:50 is duplicate-heavy, 20
// postings per key (200 per scan).
void BM_BTreeScanGroup(benchmark::State& state) {
  const int64_t domain = state.range(0);
  sim::IoContext io;
  index::BPlusTree tree(io.CreateStore());
  Rng rng(1);
  std::vector<int64_t> keys(1000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<int64_t>(i) % domain;
  for (size_t i = keys.size() - 1; i > 0; --i) std::swap(keys[i], keys[rng.Uniform(i + 1)]);
  for (size_t i = 0; i < keys.size(); ++i) {
    tree.Insert(index::AttrValue(keys[i]), static_cast<index::FileId>(i + 1));
  }
  index::KeyRange range;
  range.lo = index::AttrValue(domain / 2);
  range.hi = index::AttrValue(domain / 2 + 9);
  size_t postings = 0;
  for (auto _ : state) {
    auto r = tree.Scan(range);
    postings = r.files.size();
    benchmark::DoNotOptimize(r.files);
  }
  state.counters["postings"] = static_cast<double>(postings);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeScanGroup)->ArgName("domain")->Arg(1000)->Arg(50);

// Candidate verification in one group: 14 candidates, all present,
// checked against a 2-term predicate in a store of 1000 four-attribute
// records with sparse FileIds.  64 candidate lists are used in turn.
void BM_RecordStoreAppendMatching(benchmark::State& state) {
  sim::IoContext io;
  index::RecordStore store(io.CreateStore());
  Rng rng(1);
  std::vector<index::FileId> files;
  while (files.size() < 1000) {
    const index::FileId f = 1 + (rng.Next() >> 40);
    index::AttrSet a;
    a.Set("size", index::AttrValue(static_cast<int64_t>(rng.Uniform(1 << 20))));
    a.Set("mtime", index::AttrValue(static_cast<int64_t>(rng.Uniform(1'000'000))));
    a.Set("uid", index::AttrValue(static_cast<int64_t>(rng.Uniform(4))));
    a.Set("path", index::AttrValue("/home/user/project/src/module-" +
                                   std::to_string(f) + ".cc"));
    if (!store.Put(f, std::move(a)).previous) files.push_back(f);
  }
  std::vector<std::vector<index::FileId>> lists(64);
  for (auto& list : lists) {
    for (int c = 0; c < 14; ++c) list.push_back(files[rng.Uniform(files.size())]);
  }
  index::Predicate pred;
  pred.And("size", index::CmpOp::kGe, index::AttrValue(int64_t{1} << 18))
      .And("mtime", index::CmpOp::kLt, index::AttrValue(int64_t{750'000}));
  std::vector<index::FileId> out;
  size_t i = 0;
  for (auto _ : state) {
    out.clear();
    store.AppendMatching(lists[i], pred, &out);
    benchmark::DoNotOptimize(out.data());
    i = (i + 1) & (lists.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordStoreAppendMatching);

void BM_HashLookup(benchmark::State& state) {
  sim::IoContext io;
  index::HashIndex h(io.CreateStore());
  Rng rng(1);
  for (int64_t i = 0; i < 100'000; ++i) {
    h.Insert(index::AttrValue(static_cast<int64_t>(i)),
             static_cast<index::FileId>(i));
  }
  for (auto _ : state) {
    auto r = h.Lookup(index::AttrValue(static_cast<int64_t>(rng.Uniform(100'000))));
    benchmark::DoNotOptimize(r.files);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashLookup);

void BM_KdRangeQuery(benchmark::State& state) {
  sim::IoContext io;
  index::KdTree t(io.CreateStore(), 3);
  Rng rng(1);
  for (int64_t i = 0; i < state.range(0); ++i) {
    t.Insert({rng.UniformDouble(), rng.UniformDouble(), rng.UniformDouble()},
             static_cast<index::FileId>(i));
  }
  t.Rebuild();
  for (auto _ : state) {
    index::KdBox box = index::KdBox::Unbounded(3);
    box.lo = {0.4, 0.4, 0.4};
    box.hi = {0.6, 0.6, 0.6};
    auto r = t.RangeQuery(box);
    benchmark::DoNotOptimize(r.files);
  }
}
BENCHMARK(BM_KdRangeQuery)->Arg(10'000)->Arg(100'000);

void BM_MultilevelBisect(benchmark::State& state) {
  Rng rng(5);
  const auto n = static_cast<graph::VertexId>(state.range(0));
  graph::WeightedGraph g(n);
  for (graph::VertexId v = 0; v < n; ++v) {
    for (int e = 0; e < 8; ++e) {
      g.AddEdge(v, static_cast<graph::VertexId>(rng.Uniform(n)), 1 + rng.Uniform(4));
    }
  }
  for (auto _ : state) {
    auto b = graph::MultilevelBisect(g);
    benchmark::DoNotOptimize(b.cut_weight);
  }
}
BENCHMARK(BM_MultilevelBisect)->Arg(1'000)->Arg(10'000)->Unit(benchmark::kMillisecond);

void BM_GroupStageUpdate(benchmark::State& state) {
  sim::IoContext io;
  index::IndexGroup group(1, &io);
  (void)group.CreateIndex({"by_size", index::IndexType::kBTree, {"size"}});
  Rng rng(1);
  uint64_t i = 0;
  for (auto _ : state) {
    index::FileUpdate u;
    u.file = ++i;
    u.attrs.Set("size", index::AttrValue(static_cast<int64_t>(rng.Next() % 1'000'000)));
    benchmark::DoNotOptimize(group.StageUpdate(std::move(u)));
    if (group.PendingUpdates() >= 10'000) {
      state.PauseTiming();
      group.Commit();
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GroupStageUpdate);

// Page-cache touches on a full 4096-page cache.  The argument is the miss
// percentage: 0 touches a resident working set; 30 draws uniformly from a
// working set 1/0.7 times the capacity, so every miss evicts.
void BM_PageCacheTouch(benchmark::State& state) {
  constexpr uint64_t kCapacity = 4096;
  const auto miss_pct = static_cast<uint64_t>(state.range(0));
  const uint64_t working_set = kCapacity * 100 / (100 - miss_pct);
  sim::PageCache cache(kCapacity);
  for (uint64_t p = 0; p < working_set; ++p) cache.Touch({1, p});
  Rng rng(1);
  std::vector<sim::PageId> pages(1 << 16);
  for (sim::PageId& id : pages) id = {1, rng.Uniform(working_set)};
  cache.ResetStats();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Touch(pages[i]));
    i = (i + 1) & (pages.size() - 1);
  }
  state.counters["miss_rate"] = 1.0 - cache.stats().HitRate();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageCacheTouch)->Arg(0)->Arg(30);

// Page-cache hits shaped like the benchmark's search_warm workload, which
// the single cache above hides: it fits in L2.  8 index nodes, each with a
// default-capacity cache, hold 16'693 index pages across 200 stores
// (store s lives on node s % 8).  The caches are filled interleaved, as
// the nodes load side by side, and are then touched round-robin, each in
// hashed page order, so consecutive touches land far apart in memory.
void BM_PageCacheTouchSpread(benchmark::State& state) {
  constexpr size_t kNodes = 8;
  constexpr uint64_t kStores = 200;
  constexpr uint64_t kPages = 16'693;
  std::vector<sim::PageCache> caches;
  for (size_t n = 0; n < kNodes; ++n) caches.emplace_back(sim::IoParams{}.cache_pages);
  std::vector<std::vector<sim::PageId>> pages(kNodes);
  for (uint64_t store = 0; store < kStores; ++store) {
    const uint64_t count = kPages / kStores + (store < kPages % kStores ? 1 : 0);
    for (uint64_t p = 0; p < count; ++p) pages[store % kNodes].push_back({store, p});
  }
  for (size_t i = 0; i < pages[0].size(); ++i) {
    for (size_t n = 0; n < kNodes; ++n) {
      if (i < pages[n].size()) caches[n].Touch(pages[n][i]);
    }
  }
  for (auto& node : pages) {
    std::sort(node.begin(), node.end(), [](const sim::PageId& a, const sim::PageId& b) {
      return sim::PageIdHash{}(a) < sim::PageIdHash{}(b);
    });
  }
  std::vector<std::pair<size_t, sim::PageId>> order;
  for (size_t i = 0; i < pages[0].size(); ++i) {
    for (size_t n = 0; n < kNodes; ++n) {
      if (i < pages[n].size()) order.emplace_back(n, pages[n][i]);
    }
  }
  for (auto& cache : caches) cache.ResetStats();
  size_t i = 0;
  for (auto _ : state) {
    const auto& [node, id] = order[i];
    benchmark::DoNotOptimize(caches[node].Touch(id));
    if (++i == order.size()) i = 0;
  }
  uint64_t misses = 0;
  for (const auto& cache : caches) misses += cache.stats().misses;
  state.counters["misses"] = static_cast<double>(misses);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageCacheTouchSpread);

// One committed group of `rows` files answering a 4-term size x mtime box
// through its size B-tree: each of the ~rows/4 candidates the scan returns
// is verified against the record store, the index node's search hot path.
// 1k rows stay cache-resident; at 200k rows the record reads miss the
// last-level cache, as they do on the benchmark's search_cold workload.
void BM_GroupSearchVerify(benchmark::State& state) {
  const auto rows = static_cast<index::FileId>(state.range(0));
  sim::IoContext io;
  index::IndexGroup group(1, &io);
  (void)group.CreateIndex({"by_size", index::IndexType::kBTree, {"size"}});
  Rng rng(1);
  for (index::FileId f = 1; f <= rows; ++f) {
    index::FileUpdate u;
    u.file = f;
    u.attrs.Set("size", index::AttrValue(static_cast<int64_t>(rng.Uniform(1 << 20))));
    u.attrs.Set("mtime", index::AttrValue(static_cast<int64_t>(rng.Uniform(1'000'000))));
    u.attrs.Set("uid", index::AttrValue(static_cast<int64_t>(rng.Uniform(4))));
    u.attrs.Set("path", index::AttrValue("/home/user/project/src/module-" +
                                         std::to_string(f) + ".cc"));
    group.StageUpdate(std::move(u));
  }
  group.Commit();
  index::Predicate box;
  box.And("size", index::CmpOp::kGe, index::AttrValue(int64_t{1} << 18))
      .And("size", index::CmpOp::kLt, index::AttrValue(int64_t{1} << 19))
      .And("mtime", index::CmpOp::kGe, index::AttrValue(int64_t{250'000}))
      .And("mtime", index::CmpOp::kLt, index::AttrValue(int64_t{750'000}));
  for (auto _ : state) {
    auto r = group.Search(box);
    benchmark::DoNotOptimize(r.files);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GroupSearchVerify)->Arg(1'000)->Arg(200'000);

// One attribute lookup in a 4-attribute record, the inner step of
// candidate verification.  bound:0 finds by name (a name compare per
// entry); bound:1 finds by the AttrId a search binds once (an id compare
// per entry).  Both look up the last entry, the worst case.
void BM_AttrSetFind(benchmark::State& state) {
  index::AttrSet attrs;
  attrs.Set("size", index::AttrValue(int64_t{4096}));
  attrs.Set("mtime", index::AttrValue(int64_t{1'000'000}));
  attrs.Set("uid", index::AttrValue(int64_t{1}));
  attrs.Set("path", index::AttrValue("/home/user/project/src/module.cc"));
  const bool bound = state.range(0) != 0;
  const index::AttrId path = index::AttrNames::Global().Intern("path");
  for (auto _ : state) {
    benchmark::DoNotOptimize(bound ? attrs.Find(path) : attrs.Find("path"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AttrSetFind)->ArgName("bound")->Arg(0)->Arg(1);

// The index node's admission queue: 16 servers, a waiting line capped at
// 64, one Admit (and, when admitted, one Finish) per op.  Seeded Poisson
// arrivals offer ~1.05x the servers' capacity, so the line stays near its
// bound and both the shed and the served branches run.
void BM_ServerQueue(benchmark::State& state) {
  constexpr size_t kServers = 16;
  Rng rng(1);
  std::vector<double> gaps(1 << 16);
  std::vector<double> services(gaps.size());
  for (size_t i = 0; i < gaps.size(); ++i) {
    gaps[i] = rng.Exponential(0.95 / kServers);
    services[i] = rng.Exponential(1.0);
  }
  sim::ServerQueue queue(kServers, 64);
  double arrival = 0;
  size_t i = 0;
  uint64_t shed = 0;
  for (auto _ : state) {
    arrival += gaps[i];
    if (queue.Admit(arrival)) {
      benchmark::DoNotOptimize(queue.Finish(arrival, services[i]));
    } else {
      ++shed;
    }
    i = (i + 1) & (gaps.size() - 1);
  }
  state.counters["shed_rate"] =
      static_cast<double>(shed) / static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServerQueue);

// The RPC codec on the two hot messages: a 64-update StageUpdatesRequest
// (one write batch) and a 16-group SearchRequest (one fan-out branch).
// Encode is what every call pays before the transport charges its size;
// Decode is what the receiving handler pays before any work.
core::StageUpdatesRequest WireStageBatch() {
  core::StageUpdatesRequest req;
  req.group = 7;
  req.now_s = 12.5;
  req.epoch = 3;
  req.replica_role = core::kReplicaRolePrimary;
  Rng rng(1);
  for (index::FileId f = 1; f <= 64; ++f) {
    index::FileUpdate u;
    u.file = f;
    u.attrs.Set("size", index::AttrValue(static_cast<int64_t>(rng.Uniform(1 << 20))));
    u.attrs.Set("mtime", index::AttrValue(static_cast<int64_t>(rng.Uniform(1'000'000))));
    u.attrs.Set("uid", index::AttrValue(static_cast<int64_t>(rng.Uniform(4))));
    u.attrs.Set("path", index::AttrValue("/home/user/project/src/module-" +
                                         std::to_string(f) + ".cc"));
    req.updates.push_back(std::move(u));
  }
  return req;
}

core::SearchRequest WireSearchFanout() {
  core::SearchRequest req;
  for (index::GroupId g = 1; g <= 16; ++g) req.groups.push_back(g * 3);
  req.predicate.And("size", index::CmpOp::kGe, index::AttrValue(int64_t{1} << 18))
      .And("mtime", index::CmpOp::kLt, index::AttrValue(int64_t{750'000}));
  req.epoch = 3;
  req.arrival_s = 12.5;
  return req;
}

template <class T>
void BM_WireEncode(benchmark::State& state, const T& msg) {
  for (auto _ : state) {
    std::string payload = core::Encode(msg);
    benchmark::DoNotOptimize(payload);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() *
                                               core::Encode(msg).size()));
}
BENCHMARK_CAPTURE(BM_WireEncode, stage_updates_64, WireStageBatch());
BENCHMARK_CAPTURE(BM_WireEncode, search_16_groups, WireSearchFanout());

template <class T>
void BM_WireDecode(benchmark::State& state, const T& msg) {
  const std::string payload = core::Encode(msg);
  for (auto _ : state) {
    auto decoded = core::Decode<T>(payload);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() *
                                               payload.size()));
}
BENCHMARK_CAPTURE(BM_WireDecode, stage_updates_64, WireStageBatch());
BENCHMARK_CAPTURE(BM_WireDecode, search_16_groups, WireSearchFanout());

}  // namespace
}  // namespace propeller

BENCHMARK_MAIN();
