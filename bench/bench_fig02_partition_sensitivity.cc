// Fig. 2 reproduction: sensitivity of inline indexing to partition size
// and to inter-partition access concentration.
//
// Fig. 2(a): 50k random updates over a fixed number of files, which are
// evenly partitioned into groups of a given size (1k..8k files/group);
// each group maintains B-tree + hash + K-D indices on an HDD model.
// Larger groups -> deeper trees and bigger per-update working sets ->
// slower inline indexing.
//
// Fig. 2(b): 50k updates confined to 1..32 groups of a fixed size; more
// groups touched -> bigger combined working set vs the page cache ->
// slower (log scale in the paper).
//
// Writes every cell to BENCH_fig02.json and exits 1 when a 2(b) column
// rises less than kMinRise from 1 to 32 partitions touched: the commit
// barrier's per-update K-D image reload is what makes it rise, and
// without it the figure's case for ACG partitioning is gone.
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "index/index_group.h"
#include "sim/io_context.h"
#include "workload/dataset.h"

using namespace propeller;

namespace {

// Least 2(b) rise, 32 partitions touched over 1, that keeps the shape.
constexpr double kMinRise = 10.0;

struct Partitions {
  std::unique_ptr<sim::IoContext> io;
  std::vector<std::unique_ptr<index::IndexGroup>> groups;
  uint64_t files_per_group;
};

Partitions BuildPartitions(uint64_t total_files, uint64_t group_size) {
  Partitions p;
  // One machine with a page cache far smaller than the whole index set:
  // the paper's groups live on HDD and random updates cycle through all
  // groups, so a group's serialized K-D tree is usually evicted between
  // touches — its reload cost (proportional to group size) is what makes
  // bigger partitions slower in Fig. 2(a).
  sim::IoParams io;
  io.cache_pages = 512;  // ~2 MiB
  p.io = std::make_unique<sim::IoContext>(io);
  p.files_per_group = group_size;

  workload::DatasetSpec spec;
  Rng rng(13);
  uint64_t num_groups = (total_files + group_size - 1) / group_size;
  for (uint64_t gi = 0; gi < num_groups; ++gi) {
    auto group = std::make_unique<index::IndexGroup>(gi + 1, p.io.get());
    (void)group->CreateIndex({"by_size", index::IndexType::kBTree, {"size"}});
    (void)group->CreateIndex({"by_uid", index::IndexType::kHash, {"uid"}});
    (void)group->CreateIndex(
        {"by_attrs", index::IndexType::kKdTree, {"size", "mtime"}});
    for (uint64_t i = 0; i < group_size; ++i) {
      uint64_t id = gi * group_size + i;
      if (id >= total_files) break;
      group->StageUpdate(workload::SyntheticRow(id + 1, spec, rng));
    }
    group->Commit();
    p.groups.push_back(std::move(group));
  }
  return p;
}

// Issues `updates` random inline-indexing updates spread over the first
// `active_groups` groups; returns simulated execution time.
double RunUpdates(Partitions& p, uint64_t updates, uint64_t active_groups) {
  workload::DatasetSpec spec;
  Rng rng(29);
  sim::CostClock clock;
  active_groups = std::min<uint64_t>(active_groups, p.groups.size());
  for (uint64_t u = 0; u < updates; ++u) {
    uint64_t gi = rng.Uniform(active_groups);
    uint64_t fi = rng.Uniform(p.files_per_group);
    uint64_t id = gi * p.files_per_group + fi;
    auto& group = *p.groups[gi];
    clock.Advance(group.StageUpdate(workload::SyntheticRow(id + 1, spec, rng)));
    // Inline indexing: commit immediately (this experiment predates the
    // lazy cache; it measures raw partitioned index-update cost).
    clock.Advance(group.Commit());
  }
  return clock.total().seconds();
}

}  // namespace

int main() {
  bench::Banner("bench_fig02_partition_sensitivity", "Fig. 2(a) and 2(b)",
                "Inline-indexing cost vs partition size and vs number of "
                "partitions touched.");
  const uint64_t updates = bench::Scaled(50'000) / 10;  // default 5k: same
                                                        // shape, 10x faster
  std::printf("updates per configuration: %llu\n\n",
              static_cast<unsigned long long>(updates));
  std::vector<std::pair<std::string, double>> json;
  bool ok = true;

  {
    std::printf("-- Fig. 2(a): impact of partition size --\n");
    TablePrinter table({"files/partition", "50K files", "100K files",
                        "200K files"});
    for (uint64_t group_size : {1000, 2000, 4000, 8000}) {
      std::vector<std::string> row{Sprintf(
          "%llu", static_cast<unsigned long long>(group_size))};
      for (uint64_t total : {50'000, 100'000, 200'000}) {
        Partitions p = BuildPartitions(bench::Scaled(total), group_size);
        p.io->DropCaches();
        double secs = RunUpdates(p, updates, p.groups.size());
        row.push_back(bench::Secs(secs));
        json.emplace_back(Sprintf("a_%llu_per_part_%lluk_files_s",
                                  static_cast<unsigned long long>(group_size),
                                  static_cast<unsigned long long>(total / 1000)),
                          secs);
      }
      table.AddRow(std::move(row));
    }
    table.Print();
    std::printf(
        "Paper shape: execution time grows with partition size (500s -> "
        "2500s over 1k -> 8k at 50k updates).\n\n");
  }

  {
    std::printf("-- Fig. 2(b): impact of inter-partition access (log) --\n");
    TablePrinter table({"# partitions touched", "1K files/part",
                        "2K files/part", "4K files/part", "8K files/part"});
    const std::vector<uint64_t> sizes = {1000, 2000, 4000, 8000};
    std::vector<double> first(sizes.size());  // 1 partition touched
    std::vector<double> last(sizes.size());   // 32 partitions touched
    for (uint64_t touched : {1, 2, 4, 8, 16, 32}) {
      std::vector<std::string> row{
          Sprintf("%llu", static_cast<unsigned long long>(touched))};
      for (size_t c = 0; c < sizes.size(); ++c) {
        const uint64_t group_size = sizes[c];
        Partitions p = BuildPartitions(32 * group_size, group_size);
        p.io->DropCaches();
        double secs = RunUpdates(p, updates, touched);
        row.push_back(bench::Secs(secs));
        json.emplace_back(Sprintf("b_%llu_touched_%llu_per_part_s",
                                  static_cast<unsigned long long>(touched),
                                  static_cast<unsigned long long>(group_size)),
                          secs);
        if (touched == 1) first[c] = secs;
        if (touched == 32) last[c] = secs;
      }
      table.AddRow(std::move(row));
    }
    table.Print();
    std::printf(
        "Paper shape: time rises steeply (orders of magnitude on the log "
        "plot) as updates spread over more partitions.\n");
    for (size_t c = 0; c < sizes.size(); ++c) {
      const double rise = first[c] > 0 ? last[c] / first[c] : 0;
      const auto size = static_cast<unsigned long long>(sizes[c]);
      json.emplace_back(Sprintf("b_rise_%llu_per_part", size), rise);
      if (rise < kMinRise) {
        std::printf("FAIL: %llu files/part rises %.2fx from 1 to 32 "
                    "partitions touched (want >= %.0fx)\n",
                    size, rise, kMinRise);
        ok = false;
      }
    }
  }
  bench::WriteBenchJson("fig02", json);
  return ok ? 0 : 1;
}
