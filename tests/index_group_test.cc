#include "index/index_group.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <string>
#include <unordered_map>

#include "common/rng.h"
#include "sim/io_context.h"

namespace propeller::index {
namespace {

AttrSet FileAttrs(int64_t size, int64_t mtime, std::string path) {
  AttrSet a;
  a.Set("size", AttrValue(size));
  a.Set("mtime", AttrValue(mtime));
  a.Set("path", AttrValue(std::move(path)));
  return a;
}

FileUpdate Upsert(FileId f, int64_t size, int64_t mtime, std::string path) {
  FileUpdate u;
  u.file = f;
  u.attrs = FileAttrs(size, mtime, std::move(path));
  return u;
}

class IndexGroupTest : public ::testing::Test {
 protected:
  IndexGroupTest() : group_(1, &io_) {
    EXPECT_TRUE(group_.CreateIndex({"by_size", IndexType::kBTree, {"size"}}).ok());
    EXPECT_TRUE(group_.CreateIndex({"by_kw", IndexType::kKeyword, {"path"}}).ok());
    EXPECT_TRUE(group_
                    .CreateIndex({"by_attrs",
                                  IndexType::kKdTree,
                                  {"size", "mtime"}})
                    .ok());
  }

  sim::IoContext io_;
  IndexGroup group_;
};

TEST_F(IndexGroupTest, CreateIndexValidation) {
  EXPECT_EQ(group_.CreateIndex({"by_size", IndexType::kBTree, {"size"}}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(group_.CreateIndex({"", IndexType::kBTree, {"size"}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(group_.CreateIndex({"bad", IndexType::kBTree, {}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      group_.CreateIndex({"bad2", IndexType::kHash, {"a", "b"}}).code(),
      StatusCode::kInvalidArgument);
  EXPECT_TRUE(group_.HasIndex("by_size"));
  EXPECT_FALSE(group_.HasIndex("nope"));
}

TEST_F(IndexGroupTest, StagedUpdatesInvisibleUntilCommitButSearchCommits) {
  group_.StageUpdate(Upsert(1, 100, 10, "/a/b.txt"));
  EXPECT_EQ(group_.PendingUpdates(), 1u);
  EXPECT_EQ(group_.NumFiles(), 0u);  // not yet applied

  // Search triggers the commit (strong consistency).
  Predicate p;
  p.And("size", CmpOp::kGt, AttrValue(int64_t{50}));
  auto r = group_.Search(p);
  EXPECT_EQ(r.files, (std::vector<FileId>{1}));
  EXPECT_EQ(group_.PendingUpdates(), 0u);
  EXPECT_EQ(group_.NumFiles(), 1u);
}

TEST_F(IndexGroupTest, UpdateReplacesOldPostings) {
  group_.StageUpdate(Upsert(1, 100, 10, "/a/b.txt"));
  group_.Commit();
  group_.StageUpdate(Upsert(1, 5, 10, "/a/b.txt"));  // shrink the file
  group_.Commit();

  Predicate big;
  big.And("size", CmpOp::kGt, AttrValue(int64_t{50}));
  EXPECT_TRUE(group_.Search(big).files.empty()) << "stale posting survived";
  Predicate small;
  small.And("size", CmpOp::kLe, AttrValue(int64_t{5}));
  EXPECT_EQ(group_.Search(small).files, (std::vector<FileId>{1}));
}

TEST_F(IndexGroupTest, DeleteRemovesEverywhere) {
  group_.StageUpdate(Upsert(1, 100, 10, "/x/firefox/a"));
  group_.StageUpdate(Upsert(2, 200, 20, "/x/firefox/b"));
  group_.Commit();

  FileUpdate del;
  del.file = 1;
  del.is_delete = true;
  group_.StageUpdate(std::move(del));

  Predicate kw;
  kw.And("path", CmpOp::kContainsWord, AttrValue("firefox"));
  EXPECT_EQ(group_.Search(kw).files, (std::vector<FileId>{2}));
  EXPECT_EQ(group_.NumFiles(), 1u);
}

TEST_F(IndexGroupTest, ConjunctionVerifiesResidualTerms) {
  group_.StageUpdate(Upsert(1, 100, 10, "/a/firefox/x"));
  group_.StageUpdate(Upsert(2, 100, 99, "/a/firefox/y"));
  group_.StageUpdate(Upsert(3, 100, 10, "/a/chrome/z"));
  group_.Commit();

  Predicate p;
  p.And("path", CmpOp::kContainsWord, AttrValue("firefox"))
      .And("mtime", CmpOp::kLt, AttrValue(int64_t{50}));
  auto r = group_.Search(p);
  EXPECT_EQ(r.files, (std::vector<FileId>{1}));
  EXPECT_EQ(r.access_path, "keyword:by_kw");
}

TEST_F(IndexGroupTest, KdTreeServesTwoDimensionalRange) {
  IndexGroup g(2, &io_);
  ASSERT_TRUE(
      g.CreateIndex({"kd", IndexType::kKdTree, {"size", "mtime"}}).ok());
  for (FileId f = 1; f <= 50; ++f) {
    g.StageUpdate(Upsert(f, static_cast<int64_t>(f), static_cast<int64_t>(100 - f),
                         "/d/f"));
  }
  Predicate p;
  p.And("size", CmpOp::kGt, AttrValue(int64_t{10}))
      .And("size", CmpOp::kLe, AttrValue(int64_t{20}))
      .And("mtime", CmpOp::kGe, AttrValue(int64_t{85}));
  auto r = g.Search(p);
  // size in (10, 20], mtime = 100 - size >= 85  =>  size in (10, 15]
  std::sort(r.files.begin(), r.files.end());
  EXPECT_EQ(r.files, (std::vector<FileId>{11, 12, 13, 14, 15}));
  EXPECT_EQ(r.access_path, "kdtree:kd");
}

// Exclusive K-D bounds move to the adjacent double, not by 1.0: on a
// non-integer attribute served only by a K-D tree, `score > 1.5` must
// still find score 2.0, and `score < 1.5` must find 1.0.
TEST_F(IndexGroupTest, KdTreeExclusiveBoundsKeepNonIntegerMatches) {
  IndexGroup g(4, &io_);
  ASSERT_TRUE(g.CreateIndex({"kd", IndexType::kKdTree, {"score"}}).ok());
  for (FileId f = 1; f <= 4; ++f) {
    FileUpdate u;
    u.file = f;
    u.attrs.Set("score", AttrValue(0.5 * static_cast<double>(f)));  // 0.5..2.0
    g.StageUpdate(std::move(u));
  }
  Predicate above;
  above.And("score", CmpOp::kGt, AttrValue(1.5));
  auto r = g.Search(above);
  EXPECT_EQ(r.access_path, "kdtree:kd");
  EXPECT_EQ(r.files, (std::vector<FileId>{4}));
  Predicate below;
  below.And("score", CmpOp::kLt, AttrValue(1.5));
  EXPECT_EQ(g.Search(below).files, (std::vector<FileId>{1, 2}));
}

// A commit-barrier group bulk-builds a new index over its committed files
// and reports the build's cost; on an empty group the build costs nothing.
TEST_F(IndexGroupTest, CreateIndexBuildsOverCommittedFiles) {
  IndexGroup g(3, &io_);
  sim::Cost empty_build;
  ASSERT_TRUE(
      g.CreateIndex({"by_kw", IndexType::kKeyword, {"path"}}, &empty_build)
          .ok());
  EXPECT_EQ(empty_build.seconds(), 0.0);
  for (FileId f = 1; f <= 3; ++f) {
    g.StageUpdate(Upsert(f, static_cast<int64_t>(f * 100), 10, "/a/f"));
  }
  g.Commit();

  sim::Cost build;
  ASSERT_TRUE(
      g.CreateIndex({"by_size", IndexType::kBTree, {"size"}}, &build).ok());
  EXPECT_GT(build.seconds(), 0.0);
  Predicate p;
  p.And("size", CmpOp::kGt, AttrValue(int64_t{0}));
  auto r = g.Search(p);
  EXPECT_EQ(r.access_path, "btree:by_size");
  EXPECT_EQ(r.files, (std::vector<FileId>{1, 2, 3}));

  // The built index keeps taking in-place updates.
  g.StageUpdate(Upsert(4, 400, 10, "/a/f"));
  g.StageUpdate(Upsert(1, 0, 10, "/a/f"));
  EXPECT_EQ(g.Search(p).files, (std::vector<FileId>{2, 3, 4}));
}

TEST_F(IndexGroupTest, FullScanFallbackWhenNoIndexApplies) {
  IndexGroup g(3, &io_);  // no indices at all
  g.StageUpdate(Upsert(1, 100, 10, "/a"));
  g.StageUpdate(Upsert(2, 10, 10, "/b"));
  Predicate p;
  p.And("size", CmpOp::kGt, AttrValue(int64_t{50}));
  auto r = g.Search(p);
  EXPECT_EQ(r.files, (std::vector<FileId>{1}));
  EXPECT_EQ(r.access_path, "scan");
}

TEST_F(IndexGroupTest, WalRecoveryRestoresPendingUpdates) {
  group_.StageUpdate(Upsert(1, 100, 10, "/a"));
  group_.StageUpdate(Upsert(2, 200, 20, "/b"));

  // Crash: memory state lost; WAL survives.
  group_.SimulateCrashLosingMemoryState();
  EXPECT_EQ(group_.PendingUpdates(), 0u);
  ASSERT_TRUE(group_.RecoverPendingFromWal().ok());
  EXPECT_EQ(group_.PendingUpdates(), 2u);

  Predicate p;
  p.And("size", CmpOp::kGe, AttrValue(int64_t{100}));
  auto r = group_.Search(p);
  std::sort(r.files.begin(), r.files.end());
  EXPECT_EQ(r.files, (std::vector<FileId>{1, 2}));
}

TEST_F(IndexGroupTest, CommittedUpdatesNotReplayedAfterRecovery) {
  group_.StageUpdate(Upsert(1, 100, 10, "/a"));
  group_.Commit();  // truncates WAL
  group_.StageUpdate(Upsert(2, 200, 20, "/b"));
  group_.SimulateCrashLosingMemoryState();
  ASSERT_TRUE(group_.RecoverPendingFromWal().ok());
  EXPECT_EQ(group_.PendingUpdates(), 1u);  // only the uncommitted one
  group_.Commit();
  EXPECT_EQ(group_.NumFiles(), 2u);
}

// The oldest-pending stamp drives the commit-timeout tick on IndexNode.
// It used to live outside the group as a bare atomic (racy blind stores);
// these tests pin down its semantics now that it is guarded by the group
// mutex and maintained by StageUpdate/Commit themselves.
TEST_F(IndexGroupTest, OldestPendingStampSetByFirstStagedUpdate) {
  EXPECT_LT(group_.OldestPendingStagedAt(), 0.0) << "no pending -> no stamp";
  group_.StageUpdate(Upsert(1, 100, 10, "/a"), /*staged_at_s=*/5.0);
  EXPECT_DOUBLE_EQ(group_.OldestPendingStagedAt(), 5.0);
  // Later updates do not advance the stamp: the timeout is measured from
  // the OLDEST uncommitted update.
  group_.StageUpdate(Upsert(2, 200, 20, "/b"), /*staged_at_s=*/9.0);
  EXPECT_DOUBLE_EQ(group_.OldestPendingStagedAt(), 5.0);
}

TEST_F(IndexGroupTest, OldestPendingStampClearedByCommitAndSearch) {
  group_.StageUpdate(Upsert(1, 100, 10, "/a"), /*staged_at_s=*/5.0);
  group_.Commit();
  EXPECT_LT(group_.OldestPendingStagedAt(), 0.0);
  // Search commits pending updates (search-sees-latest), so it clears the
  // stamp too.
  group_.StageUpdate(Upsert(2, 200, 20, "/b"), /*staged_at_s=*/7.0);
  Predicate pred;
  pred.And("size", CmpOp::kGt, AttrValue(int64_t{0}));
  group_.Search(pred);
  EXPECT_LT(group_.OldestPendingStagedAt(), 0.0);
  // And the next staged update re-stamps from scratch.
  group_.StageUpdate(Upsert(3, 300, 30, "/c"), /*staged_at_s=*/11.0);
  EXPECT_DOUBLE_EQ(group_.OldestPendingStagedAt(), 11.0);
}

TEST_F(IndexGroupTest, UnstampedStagingLeavesStampAlone) {
  // WAL replay and migration install stage without a timestamp; they must
  // not fabricate a commit-timeout epoch.
  group_.StageUpdate(Upsert(1, 100, 10, "/a"));
  EXPECT_LT(group_.OldestPendingStagedAt(), 0.0);
  group_.StageUpdate(Upsert(2, 200, 20, "/b"), /*staged_at_s=*/4.0);
  EXPECT_DOUBLE_EQ(group_.OldestPendingStagedAt(), 4.0);
}

TEST_F(IndexGroupTest, OldestPendingStampSurvivesCrashRecovery) {
  group_.StageUpdate(Upsert(1, 100, 10, "/a"), /*staged_at_s=*/5.0);
  group_.SimulateCrashLosingMemoryState();
  // The stamp survives the simulated crash: recovered pending updates are
  // at least as old as the pre-crash epoch, so keeping it makes the
  // commit timeout fire no later than it should.
  ASSERT_TRUE(group_.RecoverPendingFromWal().ok());
  EXPECT_DOUBLE_EQ(group_.OldestPendingStagedAt(), 5.0);
  group_.Commit();
  EXPECT_LT(group_.OldestPendingStagedAt(), 0.0);
}

TEST_F(IndexGroupTest, RecoveryWithEmptyWalClearsStaleStamp) {
  group_.StageUpdate(Upsert(1, 100, 10, "/a"), /*staged_at_s=*/5.0);
  group_.Commit();  // WAL now contains only committed (skippable) records
  group_.StageUpdate(Upsert(2, 200, 20, "/b"), /*staged_at_s=*/8.0);
  group_.Commit();
  group_.SimulateCrashLosingMemoryState();
  ASSERT_TRUE(group_.RecoverPendingFromWal().ok());
  // Nothing pending after replay -> no stamp, so the tick path never sees
  // a phantom timeout for an empty pending queue.
  EXPECT_LT(group_.OldestPendingStagedAt(), 0.0);
}

TEST_F(IndexGroupTest, StagingIsCheaperThanCommitting) {
  // The entire point of the index cache: the critical-path cost (WAL
  // append) is orders of magnitude below the structure-update cost.
  io_.DropCaches();
  sim::Cost stage = group_.StageUpdate(Upsert(1, 100, 10, "/a/b/c"));
  io_.DropCaches();
  sim::Cost commit = group_.Commit();
  EXPECT_GT(commit.seconds(), stage.seconds() * 10);
}

TEST_F(IndexGroupTest, FileUpdateSerializationRoundTrip) {
  FileUpdate u = Upsert(42, 1, 2, "/x/y");
  u.is_delete = true;
  BinaryWriter w;
  u.Serialize(w);
  BinaryReader r(w.data());
  FileUpdate back;
  ASSERT_TRUE(FileUpdate::Deserialize(r, back).ok());
  EXPECT_EQ(back.file, 42u);
  EXPECT_TRUE(back.is_delete);
  EXPECT_EQ(back.attrs.Find("path")->as_string(), "/x/y");
}

TEST_F(IndexGroupTest, IndexSpecSerializationRoundTrip) {
  IndexSpec s{"kd", IndexType::kKdTree, {"size", "mtime", "uid"}};
  BinaryWriter w;
  s.Serialize(w);
  BinaryReader r(w.data());
  IndexSpec back;
  ASSERT_TRUE(IndexSpec::Deserialize(r, back).ok());
  EXPECT_EQ(back.name, "kd");
  EXPECT_EQ(back.type, IndexType::kKdTree);
  EXPECT_EQ(back.attrs.size(), 3u);
}

TEST_F(IndexGroupTest, ExtractKeywordsTokenizes) {
  auto words = ExtractKeywords("/usr/lib/firefox-3.6/libxul.so");
  EXPECT_NE(std::find(words.begin(), words.end(), "firefox"), words.end());
  EXPECT_NE(std::find(words.begin(), words.end(), "libxul"), words.end());
  EXPECT_NE(std::find(words.begin(), words.end(), "so"), words.end());
  EXPECT_TRUE(ExtractKeywords("///...").empty());
}

// Randomized consistency: interleave stage/commit/search and compare with a
// brute-force model, in both modes.  The index searches use is created
// mid-stream, over a group that already holds files.
TEST(IndexGroupFuzzTest, SearchAlwaysMatchesModel) {
  for (bool segmented : {false, true}) {
    SCOPED_TRACE(segmented ? "segmented" : "commit barrier");
    sim::IoContext io;
    IndexGroupOptions options;
    options.segmented = segmented;
    IndexGroup g(9, &io, options);
    Rng rng(321);
    std::map<FileId, int64_t> model;  // file -> size

    for (int step = 0; step < 300; ++step) {
      if (step == 150) {
        ASSERT_TRUE(
            g.CreateIndex({"by_size", IndexType::kBTree, {"size"}}).ok());
      }
      auto f = static_cast<FileId>(rng.Uniform(40));
      if (rng.Bernoulli(0.2) && model.count(f) != 0u) {
        FileUpdate del;
        del.file = f;
        del.is_delete = true;
        g.StageUpdate(std::move(del));
        model.erase(f);
      } else {
        auto size = rng.UniformInt(0, 1000);
        g.StageUpdate(Upsert(f, size, 0, "/f"));
        model[f] = size;
      }

      if (step % 7 == 0) {
        int64_t threshold = rng.UniformInt(0, 1000);
        Predicate p;
        p.And("size", CmpOp::kGt, AttrValue(threshold));
        auto r = g.Search(p);
        std::vector<FileId> expect;
        for (auto [file, size] : model) {
          if (size > threshold) expect.push_back(file);
        }
        std::sort(r.files.begin(), r.files.end());
        ASSERT_EQ(r.files, expect) << "step " << step << " via "
                                   << r.access_path;
      }
      if (step % 50 == 0) g.Commit();
    }
  }
}

// -0.0, 0.0 and 0 compare equal, so a single-term kEq served by a hash
// index (returned without verification) must find every spelling of zero.
// The default 64-bucket directory puts the raw bit patterns of -0.0 and
// 0.0 in different buckets.  Both modes: the commit-barrier path inserts
// key by key, the segmented path bulk-loads.
TEST(IndexGroupHashTest, SignedZeroKeysMatchBruteForce) {
  const std::vector<AttrValue> keys = {AttrValue(-0.0), AttrValue(0.0),
                                       AttrValue(int64_t{0}), AttrValue(1.0),
                                       AttrValue(int64_t{-1})};
  for (bool segmented : {false, true}) {
    sim::IoContext io;
    IndexGroupOptions options;
    options.segmented = segmented;
    IndexGroup g(3, &io, options);
    ASSERT_TRUE(g.CreateIndex({"by_x", IndexType::kHash, {"x"}}).ok());
    std::map<FileId, AttrSet> model;
    for (FileId f = 1; f <= 200; ++f) {
      FileUpdate u;
      u.file = f;
      u.attrs.Set("x", keys[f % keys.size()]);
      model[f] = u.attrs;
      g.StageUpdate(std::move(u));
    }
    g.Commit();
    for (const AttrValue& key : keys) {
      Predicate p;
      p.And("x", CmpOp::kEq, key);
      std::vector<FileId> expect;
      for (const auto& [file, attrs] : model) {
        if (p.Matches(attrs)) expect.push_back(file);
      }
      auto r = g.Search(p);
      std::sort(r.files.begin(), r.files.end());
      EXPECT_EQ(r.files, expect) << "x = " << key.ToString() << " via "
                                 << r.access_path << (segmented ? " (segmented)" : "");
    }
  }
}

// Pins the simulated charges of a seeded sequence of multi-term searches
// (B-tree candidates, then record-store verification) in both group modes
// on a 50-page cache.  The page-cache counters, the bits of the summed
// search cost and an order-sensitive digest of every result were recorded
// before the verification path was made copy-free (the charges) and before
// it was split into passes (the digest); a wall-clock change to the search
// path that moves a page touch, reorders the additions into a cost, or
// reorders a result changes them.
struct SimChargePin {
  bool segmented;
  uint64_t hits;
  uint64_t misses;
  uint64_t evictions;
  size_t matches;
  uint64_t cost_bits;
  uint64_t result_digest;
};

void PrintTo(const SimChargePin& pin, std::ostream* os) {
  *os << (pin.segmented ? "segmented" : "commit-barrier");
}

class SimChargePinTest : public ::testing::TestWithParam<SimChargePin> {};

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;

// Folds one search's result into an order-sensitive FNV-1a digest; the
// result size separates consecutive searches.
uint64_t Digest(uint64_t h, const std::vector<FileId>& files) {
  for (FileId f : files) h = (h ^ f) * 1099511628211ULL;
  return (h ^ files.size()) * 1099511628211ULL;
}

TEST_P(SimChargePinTest, SearchChargesAreUnchanged) {
  const SimChargePin pin = GetParam();
  sim::IoParams params;
  params.cache_pages = 50;
  sim::IoContext io(params);
  IndexGroupOptions options;
  options.segmented = pin.segmented;
  IndexGroup g(5, &io, options);
  ASSERT_TRUE(g.CreateIndex({"by_size", IndexType::kBTree, {"size"}}).ok());
  ASSERT_TRUE(g.CreateIndex({"by_kw", IndexType::kKeyword, {"path"}}).ok());
  Rng rng(2024);
  sim::Cost total;
  size_t matches = 0;
  uint64_t digest = kFnvOffset;
  // Segmented: which commit last staged each file, so a match can be traced
  // to a segment older than the newest one (it paid shadow probes).
  std::unordered_map<FileId, int> staged_in;
  int batch = 0;
  uint64_t batch_updates = 0;
  int older_segment_matches = 0;
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 250; ++i) {
      auto f = static_cast<FileId>(rng.UniformInt(1, 4'000));
      staged_in[f] = batch;
      ++batch_updates;
      if (rng.Bernoulli(0.1)) {
        FileUpdate del;
        del.file = f;
        del.is_delete = true;
        g.StageUpdate(std::move(del));
      } else {
        g.StageUpdate(Upsert(f, rng.UniformInt(0, 10'000), rng.UniformInt(0, 10'000),
                             "/src/m" + std::to_string(f % 9) + "/f.cc"));
      }
    }
    // Every third round searches a memtable.  After a commit the memtable
    // is empty; when the newest segment holds exactly the batch just
    // sealed, a match staged in an earlier batch was read from an older
    // segment, past a shadow probe against the newest.
    bool newest_is_batch = false;
    if (round % 3 != 2) {
      g.Commit();
      newest_is_batch = pin.segmented && g.NumSegments() >= 2 &&
                        g.SegmentUpdateCounts().back() == batch_updates;
      ++batch;
      batch_updates = 0;
    }
    for (int q = 0; q < 5; ++q) {
      const int64_t size_lo = rng.UniformInt(0, 8'000);
      const int64_t mtime_lo = rng.UniformInt(0, 8'000);
      Predicate p;
      p.And("size", CmpOp::kGe, AttrValue(size_lo))
          .And("size", CmpOp::kLt, AttrValue(size_lo + 1'000))
          .And("mtime", CmpOp::kGt, AttrValue(mtime_lo))
          .And("mtime", CmpOp::kLe, AttrValue(mtime_lo + 4'000));
      if (q == 4) p.And("path", CmpOp::kContainsWord, AttrValue("m3"));
      auto r = g.Search(p);
      total += r.cost;
      matches += r.files.size();
      digest = Digest(digest, r.files);
      if (newest_is_batch) {
        for (FileId f : r.files) older_segment_matches += staged_in[f] < batch - 1;
      }
    }
  }
  const sim::PageCacheStats stats = io.CacheStats();
  EXPECT_EQ(stats.hits, pin.hits);
  EXPECT_EQ(stats.misses, pin.misses);
  EXPECT_EQ(stats.evictions, pin.evictions);
  EXPECT_EQ(matches, pin.matches);
  EXPECT_EQ(std::bit_cast<uint64_t>(total.seconds()), pin.cost_bits)
      << std::hexfloat << total.seconds();
  EXPECT_EQ(digest, pin.result_digest) << std::hex << digest;
  if (pin.segmented) {
    EXPECT_GT(older_segment_matches, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SimChargePinTest,
    ::testing::Values(SimChargePin{.segmented = false,
                                   .hits = 114'927,
                                   .misses = 2'586,
                                   .evictions = 2'536,
                                   .matches = 2'094,
                                   .cost_bits = 0x402f1a1d6a9f056aULL,
                                   .result_digest = 0x08ceb91afcef6178ULL},
                      SimChargePin{.segmented = true,
                                   .hits = 6'814,
                                   .misses = 471,
                                   .evictions = 421,
                                   .matches = 2'094,
                                   .cost_bits = 0x3ffff382a3dec1e6ULL,
                                   .result_digest = 0xea876e07020bba10ULL}),
    [](const ::testing::TestParamInfo<SimChargePin>& info) {
      return info.param.segmented ? std::string("Segmented") : std::string("CommitBarrier");
    });

}  // namespace
}  // namespace propeller::index
