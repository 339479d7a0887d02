// Micro-benchmarks (google-benchmark) for the index substrate: real
// wall-clock throughput of the structures themselves, independent of the
// simulated-disk accounting.  Useful for regression-testing the library.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/partitioner.h"
#include "index/btree.h"
#include "index/hash_index.h"
#include "index/index_group.h"
#include "index/kdtree.h"
#include "sim/io_context.h"

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

}  // namespace
}  // namespace propeller

BENCHMARK_MAIN();
