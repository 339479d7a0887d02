#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "baseline/brute_force.h"
#include "baseline/minisql.h"
#include "baseline/spotlight.h"
#include "common/rng.h"
#include "workload/copier.h"
#include "workload/dataset.h"
#include "workload/postmark.h"

namespace propeller::baseline {
namespace {

using index::AttrValue;
using index::CmpOp;
using index::FileUpdate;
using index::Predicate;

FileUpdate Row(index::FileId f, int64_t size, int64_t mtime, std::string path) {
  FileUpdate u;
  u.file = f;
  u.attrs.Set("size", AttrValue(size));
  u.attrs.Set("mtime", AttrValue(mtime));
  u.attrs.Set("path", AttrValue(std::move(path)));
  return u;
}

// ---------- MiniSql ----------

TEST(MiniSqlTest, UpsertSearchDelete) {
  MiniSql db;
  db.Upsert(Row(1, 100, 10, "/a/firefox/x.txt"));
  db.Upsert(Row(2, 200, 20, "/a/chrome/y.txt"));

  Predicate p;
  p.And("size", CmpOp::kGt, AttrValue(int64_t{150}));
  EXPECT_EQ(db.Search(p).files, (std::vector<index::FileId>{2}));

  Predicate kw;
  kw.And("path", CmpOp::kContainsWord, AttrValue("firefox"));
  EXPECT_EQ(db.Search(kw).files, (std::vector<index::FileId>{1}));

  db.Delete(1);
  EXPECT_TRUE(db.Search(kw).files.empty());
  EXPECT_EQ(db.NumRows(), 1u);
}

TEST(MiniSqlTest, UpsertReplacesOldPostings) {
  MiniSql db;
  db.Upsert(Row(1, 100, 10, "/a/x"));
  db.Upsert(Row(1, 5, 10, "/a/x"));
  Predicate p;
  p.And("size", CmpOp::kGt, AttrValue(int64_t{50}));
  EXPECT_TRUE(db.Search(p).files.empty());
  EXPECT_EQ(db.NumRows(), 1u);
}

TEST(MiniSqlTest, UpdateCostGrowsWithTableSize) {
  // The centralized pathology: per-update cost scales with the global
  // table, not with the working set.
  workload::DatasetSpec spec;
  MiniSqlConfig cfg;
  cfg.buffer_pool_pages = 1024;  // small pool so the tree outgrows it
  MiniSql small(cfg);
  MiniSql big(cfg);
  for (const auto& row : workload::SyntheticRows(1, 2'000, spec)) {
    small.BulkLoad(row);
  }
  for (const auto& row : workload::SyntheticRows(1, 200'000, spec)) {
    big.BulkLoad(row);
  }
  small.io().DropCaches();
  big.io().DropCaches();

  sim::Cost c_small, c_big;
  for (const auto& row : workload::SyntheticRows(500'000, 200, spec)) {
    c_small += small.Upsert(row);
  }
  for (const auto& row : workload::SyntheticRows(500'000, 200, spec)) {
    c_big += big.Upsert(row);
  }
  EXPECT_GT(c_big.seconds(), c_small.seconds() * 1.3)
      << "small=" << c_small.seconds() << " big=" << c_big.seconds();
}

TEST(MiniSqlTest, MixedConjunctionVerifiesResidual) {
  MiniSql db;
  db.Upsert(Row(1, 100, 10, "/p/firefox/a"));
  db.Upsert(Row(2, 100, 99, "/p/firefox/b"));
  Predicate p;
  p.And("path", CmpOp::kContainsWord, AttrValue("firefox"))
      .And("mtime", CmpOp::kLt, AttrValue(int64_t{50}));
  EXPECT_EQ(db.Search(p).files, (std::vector<index::FileId>{1}));
}

// Pins MiniSql's simulated search charges over a seeded sequence of
// multi-term searches served by each of its three indexes (size, mtime,
// keyword) and verified against the rows, on a 50-page buffer pool with
// upserts and deletes in between.  The page-cache counters, the bits of the
// summed search cost and an order-sensitive digest of every result were
// recorded before row verification was split into passes.
TEST(MiniSqlTest, SearchChargesAndResultsAreUnchanged) {
  MiniSqlConfig cfg;
  cfg.buffer_pool_pages = 50;
  MiniSql db(cfg);
  Rng rng(4242);
  sim::Cost total;
  uint64_t digest = 1469598103934665603ULL;  // FNV-1a
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 300; ++i) {
      auto f = static_cast<index::FileId>(rng.UniformInt(1, 3'000));
      if (rng.Bernoulli(0.1)) {
        db.Delete(f);
        continue;
      }
      FileUpdate u = Row(f, rng.UniformInt(0, 10'000), rng.UniformInt(0, 10'000),
                         "/src/m" + std::to_string(f % 7) + "/f.cc");
      u.attrs.Set("uid", AttrValue(rng.UniformInt(0, 3)));
      db.Upsert(u);
    }
    for (int q = 0; q < 6; ++q) {
      const int64_t lo = rng.UniformInt(0, 8'000);
      const int64_t uid = rng.UniformInt(0, 3);
      Predicate p;
      switch (q % 3) {
        case 0:  // by_size, verifies mtime
          p.And("size", CmpOp::kGe, AttrValue(lo))
              .And("size", CmpOp::kLt, AttrValue(lo + 1'500))
              .And("mtime", CmpOp::kGt, AttrValue(rng.UniformInt(0, 8'000)));
          break;
        case 1:  // by_mtime, verifies uid
          p.And("mtime", CmpOp::kGe, AttrValue(lo))
              .And("mtime", CmpOp::kLe, AttrValue(lo + 2'000))
              .And("uid", CmpOp::kEq, AttrValue(uid));
          break;
        default:  // by_keyword, verifies size
          p.And("path", CmpOp::kContainsWord, AttrValue("m" + std::to_string(uid)))
              .And("size", CmpOp::kLt, AttrValue(lo));
          break;
      }
      auto r = db.Search(p);
      total += r.cost;
      for (index::FileId f : r.files) digest = (digest ^ f) * 1099511628211ULL;
      digest = (digest ^ r.files.size()) * 1099511628211ULL;
    }
  }
  const sim::PageCacheStats stats = db.io().CacheStats();
  EXPECT_EQ(stats.hits, 49'725u);
  EXPECT_EQ(stats.misses, 1'867u);
  EXPECT_EQ(stats.evictions, 1'817u);
  EXPECT_EQ(std::bit_cast<uint64_t>(total.seconds()), 0x3ffd1dc994890ea6ULL)
      << std::hexfloat << total.seconds();
  EXPECT_EQ(digest, 0xa900c7de4ac60081ULL) << std::hex << digest;
}

// ---------- SpotlightSim ----------

struct SpotlightHarness {
  fs::Vfs vfs;
  SpotlightParams params;
  std::unique_ptr<SpotlightSim> spotlight;

  explicit SpotlightHarness(SpotlightParams p = {}) : params(std::move(p)) {
    spotlight = std::make_unique<SpotlightSim>(params, &vfs);
  }
};

TEST(SpotlightTest, OnlySupportedTypesIndexed) {
  SpotlightHarness h;
  ASSERT_TRUE(h.vfs.ns().CreateFile("/d/a.txt", 100, 1).ok());
  ASSERT_TRUE(h.vfs.ns().CreateFile("/d/b.vmdk", 100, 1).ok());
  ASSERT_TRUE(h.vfs.ns().CreateFile("/d/noext", 100, 1).ok());
  h.spotlight->RebuildAll(0);
  EXPECT_EQ(h.spotlight->IndexedFiles(), 1u);

  Predicate p;
  p.And("size", CmpOp::kGe, AttrValue(int64_t{0}));
  auto r = h.spotlight->Query(p, 0);
  EXPECT_EQ(r.files.size(), 1u) << "recall ceiling from type coverage";
}

TEST(SpotlightTest, CrawlDelayMakesResultsStale) {
  SpotlightHarness h;
  h.spotlight->RebuildAll(0);

  // Create a supported file through the VFS at t=0.
  auto open = h.vfs.Open(1, "/d/new.txt", fs::OpenMode::kWrite, true);
  ASSERT_TRUE(open.ok());
  ASSERT_TRUE(h.vfs.Write(open->fd, 100).ok());
  ASSERT_TRUE(h.vfs.Close(open->fd).ok());

  Predicate p;
  p.And("size", CmpOp::kGe, AttrValue(int64_t{0}));
  // Immediately: not yet crawled.
  h.spotlight->Tick(0.5);
  EXPECT_TRUE(h.spotlight->Query(p, 0.5).files.empty());
  // After the notification delay + crawl budget: indexed.
  h.spotlight->Tick(4.0);
  EXPECT_EQ(h.spotlight->Query(p, 4.0).files.size(), 1u);
}

TEST(SpotlightTest, HighFpsTriggersRebuildDropout) {
  SpotlightParams params;
  params.rebuild_backlog = 50;
  SpotlightHarness h(params);
  h.spotlight->RebuildAll(0);

  workload::FpsCopier copier(&h.vfs, /*fps=*/100.0, "/flood");
  Predicate p;
  p.And("size", CmpOp::kGe, AttrValue(int64_t{0}));

  bool saw_rebuild = false;
  for (double t = 1; t <= 30; t += 1) {
    ASSERT_TRUE(copier.AdvanceTo(t).ok());
    h.spotlight->Tick(t);
    auto r = h.spotlight->Query(p, t);
    if (r.rebuilding) saw_rebuild = true;
  }
  EXPECT_TRUE(saw_rebuild) << "100 FPS must overwhelm the crawler";
}

TEST(SpotlightTest, ColdQuerySlowerThanWarm) {
  SpotlightHarness h;
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(h.vfs.ns()
                    .CreateFile("/d/f" + std::to_string(i) + ".txt", 100, 1)
                    .ok());
  }
  h.spotlight->RebuildAll(0);
  Predicate p;
  p.And("size", CmpOp::kGe, AttrValue(int64_t{0}));
  auto cold = h.spotlight->Query(p, 0);
  auto warm = h.spotlight->Query(p, 0);
  EXPECT_GT(cold.cost.seconds(), warm.cost.seconds() * 10);
}

TEST(SpotlightTest, UnlinkRemovesFromIndexAfterCrawl) {
  SpotlightHarness h;
  ASSERT_TRUE(h.vfs.ns().CreateFile("/d/a.txt", 100, 1).ok());
  h.spotlight->RebuildAll(0);
  ASSERT_EQ(h.spotlight->IndexedFiles(), 1u);
  h.spotlight->Tick(1.0);
  ASSERT_TRUE(h.vfs.Unlink(1, "/d/a.txt").ok());
  h.spotlight->Tick(10.0);
  EXPECT_EQ(h.spotlight->IndexedFiles(), 0u);
}

// ---------- BruteForce ----------

TEST(BruteForceTest, FindsExactlyMatchingFiles) {
  fs::Vfs vfs;
  workload::DatasetSpec spec;
  spec.num_files = 500;
  ASSERT_TRUE(workload::BuildDataset(vfs, spec).ok());

  Predicate p;
  p.And("size", CmpOp::kGt, AttrValue(spec.large_size));
  BruteForceSearch brute(&vfs.ns());
  auto r = brute.Search(p);

  size_t expected = 0;
  vfs.ns().ForEachFile([&](const fs::FileStat& st) {
    if (st.size > spec.large_size) ++expected;
  });
  EXPECT_EQ(r.files.size(), expected);
  EXPECT_GT(expected, 0u);
}

TEST(BruteForceTest, WarmScanCheaperThanCold) {
  fs::Vfs vfs;
  workload::DatasetSpec spec;
  spec.num_files = 5'000;
  ASSERT_TRUE(workload::BuildDataset(vfs, spec).ok());
  BruteForceSearch brute(&vfs.ns());
  Predicate p;
  p.And("size", CmpOp::kGt, AttrValue(int64_t{0}));
  auto cold = brute.Search(p);
  auto warm = brute.Search(p);
  EXPECT_GT(cold.cost.seconds(), warm.cost.seconds() * 3);
}

// ---------- Workloads ----------

TEST(DatasetTest, BuildsRequestedShape) {
  fs::Vfs vfs;
  workload::DatasetSpec spec;
  spec.num_files = 1'000;
  spec.supported_ext_fraction = 0.5;
  ASSERT_TRUE(workload::BuildDataset(vfs, spec).ok());
  EXPECT_EQ(vfs.ns().NumFiles(), 1'000u);

  // Extension mix lands near the requested fraction.
  SpotlightParams params;
  size_t supported = 0;
  vfs.ns().ForEachFile([&](const fs::FileStat& st) {
    if (SpotlightSim::SupportedPath(params, st.path)) ++supported;
  });
  EXPECT_NEAR(static_cast<double>(supported) / 1000.0, 0.5, 0.08);

  auto updates = workload::UpdatesForNamespace(vfs.ns());
  EXPECT_EQ(updates.size(), 1'000u);
  EXPECT_NE(updates[0].attrs.Find("path"), nullptr);
}

TEST(CopierTest, CopiesAtRequestedRate) {
  fs::Vfs vfs;
  workload::FpsCopier copier(&vfs, /*fps=*/5.0, "/dst");
  auto n = copier.AdvanceTo(10.0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 50u);
  EXPECT_EQ(vfs.ns().NumFiles(), 50u);
  // Zero elapsed time copies nothing.
  EXPECT_EQ(*copier.AdvanceTo(10.0), 0u);
}

TEST(PostmarkTest, RunsAndReportsRates) {
  fs::Vfs vfs;  // native ext4-ish profile
  workload::PostmarkConfig cfg;
  cfg.num_files = 2'000;
  cfg.transactions = 2'000;
  workload::Postmark pm(cfg);
  auto r = pm.Run(vfs);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->files_per_second, 0.0);
  EXPECT_GT(r->elapsed_s, r->create_phase_s * 0.99);
  EXPECT_GT(r->write_mb, 0.0);
  EXPECT_GT(r->read_mb, 0.0);
}

TEST(PostmarkTest, FuseOverheadLowersFilesPerSecond) {
  workload::PostmarkConfig cfg;
  cfg.num_files = 2'000;
  cfg.transactions = 500;
  workload::Postmark pm(cfg);

  fs::Vfs ext4(fs::FsProfile{.name = "ext4", .meta_us = 60, .data_op_us = 5});
  fs::Vfs ptfs(fs::FsProfile{.name = "ptfs", .meta_us = 159, .data_op_us = 30});
  auto r_ext4 = pm.Run(ext4);
  auto r_ptfs = pm.Run(ptfs);
  ASSERT_TRUE(r_ext4.ok());
  ASSERT_TRUE(r_ptfs.ok());
  EXPECT_GT(r_ext4->files_per_second, r_ptfs->files_per_second * 1.5);
}

}  // namespace
}  // namespace propeller::baseline
