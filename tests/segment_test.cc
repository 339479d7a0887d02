// Segmented-index suite (IndexGroupOptions::segmented — write-read
// decoupling): segment lifecycle, shadowing/tombstone semantics, the
// tiered merge policy's tier and cap triggers and read-amplification
// bound, WAL recovery of the memtable, and snapshot searches running
// concurrently with seals and merges (the TSan target of the
// tsan-segments preset).
#include "index/index_group.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
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

FileUpdate Delete(FileId f) {
  FileUpdate u;
  u.file = f;
  u.is_delete = true;
  return u;
}

IndexGroupOptions SegmentedOptions(obs::MetricsRegistry* metrics = nullptr) {
  IndexGroupOptions o;
  o.segmented = true;
  o.metrics = metrics;
  return o;
}

// The merge policy's constants (index_group.cc): at most 4 live segments;
// 3 adjacent segments within a 4x size ratio merge as a tier.
constexpr size_t kMaxSegments = 4;

uint64_t Merges(obs::MetricsRegistry& metrics) {
  return metrics.GetCounter("in.merges").value();
}

Predicate SizeGt(int64_t threshold) {
  Predicate p;
  p.And("size", CmpOp::kGt, AttrValue(threshold));
  return p;
}

std::vector<FileId> Sorted(std::vector<FileId> files) {
  std::sort(files.begin(), files.end());
  return files;
}

class SegmentedGroupTest : public ::testing::Test {
 protected:
  SegmentedGroupTest() : group_(1, &io_, SegmentedOptions()) {
    EXPECT_TRUE(
        group_.CreateIndex({"by_size", IndexType::kBTree, {"size"}}).ok());
    EXPECT_TRUE(
        group_.CreateIndex({"by_kw", IndexType::kKeyword, {"path"}}).ok());
  }

  sim::IoContext io_;
  IndexGroup group_;
};

// The core of write-read decoupling: a search sees staged updates through
// the memtable overlay without forcing a commit, so nothing is drained.
TEST_F(SegmentedGroupTest, SearchSeesMemtableWithoutCommitting) {
  group_.StageUpdate(Upsert(1, 100, 10, "/a/b.txt"));
  EXPECT_EQ(group_.PendingUpdates(), 1u);

  auto r = group_.Search(SizeGt(50));
  EXPECT_EQ(r.files, (std::vector<FileId>{1}));
  // Still staged: the search never became a commit barrier.
  EXPECT_EQ(group_.PendingUpdates(), 1u);
  EXPECT_EQ(group_.NumSegments(), 0u);
}

TEST_F(SegmentedGroupTest, CommitSealsMemtableIntoSegment) {
  group_.StageUpdate(Upsert(1, 100, 10, "/a/b.txt"));
  group_.StageUpdate(Upsert(2, 10, 20, "/a/c.txt"));
  group_.Commit();
  EXPECT_EQ(group_.PendingUpdates(), 0u);
  EXPECT_EQ(group_.NumSegments(), 1u);
  EXPECT_EQ(group_.SegmentUpdateCounts(), (std::vector<uint64_t>{2}));
  EXPECT_EQ(group_.NumFiles(), 2u);

  auto r = group_.Search(SizeGt(50));
  EXPECT_EQ(r.files, (std::vector<FileId>{1}));
  EXPECT_EQ(r.access_path, "segments[1]:btree:by_size");
}

// Newest state wins across segments: a younger segment's upsert shadows an
// older segment's postings for the same file.
TEST_F(SegmentedGroupTest, YoungerSegmentShadowsOlder) {
  group_.StageUpdate(Upsert(1, 100, 10, "/a/b.txt"));
  group_.Commit();
  group_.StageUpdate(Upsert(1, 5, 10, "/a/b.txt"));  // shrink the file
  group_.Commit();
  ASSERT_EQ(group_.NumSegments(), 2u);

  EXPECT_TRUE(group_.Search(SizeGt(50)).files.empty())
      << "stale posting in the older segment survived";
  Predicate small;
  small.And("size", CmpOp::kLe, AttrValue(int64_t{5}));
  EXPECT_EQ(group_.Search(small).files, (std::vector<FileId>{1}));
  EXPECT_EQ(group_.NumFiles(), 1u);
}

TEST_F(SegmentedGroupTest, TombstonesShadowOlderSegments) {
  group_.StageUpdate(Upsert(1, 100, 10, "/x/firefox/a"));
  group_.StageUpdate(Upsert(2, 200, 20, "/x/firefox/b"));
  group_.Commit();
  group_.StageUpdate(Delete(1));
  group_.Commit();

  Predicate kw;
  kw.And("path", CmpOp::kContainsWord, AttrValue("firefox"));
  EXPECT_EQ(group_.Search(kw).files, (std::vector<FileId>{2}));
  EXPECT_EQ(group_.NumFiles(), 1u);
}

// A staged delete shadows committed segments through the memtable overlay,
// before any tombstone exists.
TEST_F(SegmentedGroupTest, StagedDeleteShadowsSegments) {
  group_.StageUpdate(Upsert(1, 100, 10, "/a"));
  group_.Commit();
  group_.StageUpdate(Delete(1));
  EXPECT_TRUE(group_.Search(SizeGt(0)).files.empty());
}

// Equal-sized seals form tiers: every third one merges its run.
TEST_F(SegmentedGroupTest, MergePolicyBoundsReadAmplification) {
  obs::MetricsRegistry metrics;
  IndexGroup g(2, &io_, SegmentedOptions(&metrics));
  ASSERT_TRUE(g.CreateIndex({"by_size", IndexType::kBTree, {"size"}}).ok());

  FileId next = 1;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 5; ++i) {
      g.StageUpdate(Upsert(next++, 100 + round, round, "/f"));
    }
    g.Commit();
    EXPECT_LE(g.NumSegments(), kMaxSegments)
        << "read amplification exceeded K after round " << round;
    // Merges fold, never drop: every staged update stays accounted for.
    auto counts = g.SegmentUpdateCounts();
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), uint64_t{0}),
              static_cast<uint64_t>(5 * (round + 1)));
  }
  EXPECT_GT(Merges(metrics), 0u);
  EXPECT_EQ(g.NumFiles(), static_cast<uint64_t>(next - 1));
  EXPECT_EQ(g.Search(SizeGt(0)).files.size(), static_cast<size_t>(next - 1));
}

// Seals that shrink 5x each never form a tier, so only the cap bounds
// them: the fifth seal merges the cheapest adjacent pair, the two newest.
TEST_F(SegmentedGroupTest, CapMergesCheapestAdjacentPair) {
  obs::MetricsRegistry metrics;
  IndexGroup g(4, &io_, SegmentedOptions(&metrics));
  FileId next = 1;
  for (int rows : {625, 125, 25, 5, 1}) {
    for (int i = 0; i < rows; ++i) g.StageUpdate(Upsert(next++, 100, 0, "/f"));
    g.Commit();
  }
  EXPECT_EQ(Merges(metrics), 1u);
  EXPECT_EQ(g.NumSegments(), kMaxSegments);
  EXPECT_EQ(g.SegmentUpdateCounts(),
            (std::vector<uint64_t>{625, 125, 25, 6}));
  EXPECT_EQ(g.NumFiles(), static_cast<uint64_t>(next - 1));
  EXPECT_EQ(g.Search(SizeGt(0)).files.size(), static_cast<size_t>(next - 1));
}

// Deleting everything and merging down to one segment drops the tombstones
// (a run starting at the oldest segment has nothing left to shadow).  Two
// seals of one-attribute rows and a third of their tombstones are close
// enough in size to merge as one tier.
TEST_F(SegmentedGroupTest, FullMergeRetiresTombstones) {
  obs::MetricsRegistry metrics;
  IndexGroup g(3, &io_, SegmentedOptions(&metrics));
  for (FileId first : {1, 11}) {
    for (FileId f = first; f < first + 10; ++f) {
      FileUpdate u;
      u.file = f;
      u.attrs.Set("size", AttrValue(int64_t{100}));
      g.StageUpdate(std::move(u));
    }
    g.Commit();
  }
  for (FileId f = 1; f <= 20; ++f) g.StageUpdate(Delete(f));
  g.Commit();
  EXPECT_EQ(Merges(metrics), 1u);
  EXPECT_EQ(g.SegmentUpdateCounts(), (std::vector<uint64_t>{40}));
  EXPECT_EQ(g.NumFiles(), 0u);
  EXPECT_TRUE(g.Search(SizeGt(0)).files.empty());
}

// An empty commit is epoch-neutral in segmented mode too: no seal, no
// merge, no cache invalidation.
TEST_F(SegmentedGroupTest, EmptyCommitIsEpochNeutral) {
  group_.StageUpdate(Upsert(1, 100, 10, "/a"));
  group_.Commit();
  uint64_t epoch = group_.CommitEpoch();
  size_t segments = group_.NumSegments();
  group_.Commit();  // nothing staged
  EXPECT_EQ(group_.CommitEpoch(), epoch);
  EXPECT_EQ(group_.NumSegments(), segments);
}

// Seals truncate the sealed WAL prefix, so crash recovery replays exactly
// the unsealed memtable — committed updates never replay twice.
TEST_F(SegmentedGroupTest, WalRecoveryRestoresMemtableOnly) {
  group_.StageUpdate(Upsert(1, 100, 10, "/a"));
  group_.Commit();  // sealed: WAL prefix gone
  group_.StageUpdate(Upsert(2, 200, 20, "/b"));
  group_.StageUpdate(Delete(1));

  group_.SimulateCrashLosingMemoryState();
  EXPECT_EQ(group_.PendingUpdates(), 0u);
  ASSERT_TRUE(group_.RecoverPendingFromWal().ok());
  EXPECT_EQ(group_.PendingUpdates(), 2u);

  auto r = group_.Search(SizeGt(0));
  EXPECT_EQ(r.files, (std::vector<FileId>{2}));
}

// A WAL truncation that happens while later stages are already appended
// behind the sealed prefix must keep exactly the unsealed tail.
TEST_F(SegmentedGroupTest, RecoveryAfterInterleavedSealsConverges) {
  for (int round = 0; round < 4; ++round) {
    group_.StageUpdate(Upsert(10 + round, 100 + round, round, "/f"));
    group_.Commit();  // seals this round's stage + last round's tail stage
    group_.StageUpdate(Upsert(20 + round, 200 + round, round, "/g"));
  }
  // Only the final tail stage (file 23) is unsealed.
  group_.SimulateCrashLosingMemoryState();
  ASSERT_TRUE(group_.RecoverPendingFromWal().ok());
  EXPECT_EQ(group_.PendingUpdates(), 1u);
  auto r = group_.Search(SizeGt(0));
  EXPECT_EQ(Sorted(r.files),
            (std::vector<FileId>{10, 11, 12, 13, 20, 21, 22, 23}));
}

// Randomized model equivalence: the segmented group must answer exactly
// like a brute-force map *and* like a commit-barrier twin fed the same
// updates, across interleaved stages, deletes, commits, and merges.
TEST(SegmentedFuzzTest, SearchMatchesModelAndCommitBarrierTwin) {
  sim::IoContext io;
  IndexGroup seg(9, &io, SegmentedOptions());
  IndexGroup barrier(10, &io);
  for (IndexGroup* g : {&seg, &barrier}) {
    ASSERT_TRUE(
        g->CreateIndex({"by_size", IndexType::kBTree, {"size"}}).ok());
  }
  Rng rng(321);
  std::map<FileId, int64_t> model;  // file -> size

  for (int step = 0; step < 400; ++step) {
    auto f = static_cast<FileId>(rng.Uniform(40));
    if (rng.Bernoulli(0.2) && model.count(f) != 0u) {
      seg.StageUpdate(Delete(f));
      barrier.StageUpdate(Delete(f));
      model.erase(f);
    } else {
      auto size = rng.UniformInt(0, 1000);
      seg.StageUpdate(Upsert(f, size, 0, "/f"));
      barrier.StageUpdate(Upsert(f, size, 0, "/f"));
      model[f] = size;
    }
    if (step % 11 == 0) {
      seg.Commit();
      barrier.Commit();
      ASSERT_EQ(seg.NumFiles(), model.size()) << "segmented, step " << step;
      ASSERT_EQ(barrier.NumFiles(), model.size()) << "barrier, step " << step;
    }
    if (step % 7 == 0) {
      int64_t threshold = rng.UniformInt(0, 1000);
      std::vector<FileId> expect;
      for (auto [file, size] : model) {
        if (size > threshold) expect.push_back(file);
      }
      auto r = Sorted(seg.Search(SizeGt(threshold)).files);
      ASSERT_EQ(r, expect) << "segmented diverged from model at " << step;
      ASSERT_EQ(r, Sorted(barrier.Search(SizeGt(threshold)).files))
          << "segmented diverged from commit-barrier twin at " << step;
    }
  }
  seg.Commit();
  EXPECT_EQ(seg.NumFiles(), static_cast<uint64_t>(model.size()));
}

// Snapshot stability: searchers run concurrently with a writer that seals
// and merges continuously.  Every search must land on a consistent
// snapshot (segments retired by a merge stay alive via the snapshot's
// shared_ptrs), and TSan must see no races — this is the load test the
// tsan-segments preset exists for.
TEST(SegmentedConcurrencyTest, SearchersStableDuringSealAndMerge) {
  sim::IoContext io;
  obs::MetricsRegistry metrics;
  IndexGroup g(11, &io, SegmentedOptions(&metrics));
  ASSERT_TRUE(g.CreateIndex({"by_size", IndexType::kBTree, {"size"}}).ok());

  // Files 1..kFiles always exist with size == file id; the writer churns
  // a disjoint id range so the invariant below holds mid-churn.
  constexpr FileId kFiles = 64;
  for (FileId f = 1; f <= kFiles; ++f) {
    g.StageUpdate(Upsert(f, static_cast<int64_t>(f), 0, "/stable"));
  }
  g.Commit();

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    FileId churn = 1000;
    for (int round = 0; round < 60; ++round) {
      for (int i = 0; i < 8; ++i) {
        g.StageUpdate(Upsert(churn, -1, 0, "/churn"));
        g.StageUpdate(Delete(churn));
        ++churn;
      }
      g.Commit();  // seal + (frequently) merge
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> searchers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 3; ++t) {
    searchers.emplace_back([&, t] {
      int64_t threshold = 16 * (t + 1);
      std::vector<FileId> expect;
      for (FileId f = 1; f <= kFiles; ++f) {
        if (static_cast<int64_t>(f) > threshold) expect.push_back(f);
      }
      while (!stop.load(std::memory_order_acquire)) {
        auto r = Sorted(g.Search(SizeGt(threshold)).files);
        if (r != expect) {
          failures.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
    });
  }
  writer.join();
  for (auto& th : searchers) th.join();
  EXPECT_EQ(failures.load(), 0) << "a snapshot saw torn state";
  EXPECT_GT(Merges(metrics), 0u);
  EXPECT_LE(g.NumSegments(), kMaxSegments);
  EXPECT_EQ(g.NumFiles(), static_cast<uint64_t>(kFiles));
}

// Segments bulk-built at seal time serve every index type the group had
// at that point, including multi-term queries needing residual
// verification against the segment's record store.
TEST(SegmentedAccessPathTest, AllIndexTypesServeFromSegments) {
  sim::IoContext io;
  IndexGroup g(12, &io, SegmentedOptions());
  ASSERT_TRUE(g.CreateIndex({"by_kw", IndexType::kKeyword, {"path"}}).ok());
  ASSERT_TRUE(
      g.CreateIndex({"kd", IndexType::kKdTree, {"size", "mtime"}}).ok());
  for (FileId f = 1; f <= 50; ++f) {
    g.StageUpdate(Upsert(f, static_cast<int64_t>(f),
                         static_cast<int64_t>(100 - f), "/d/firefox/f"));
  }
  g.Commit();

  Predicate kd;
  kd.And("size", CmpOp::kGt, AttrValue(int64_t{10}))
      .And("size", CmpOp::kLe, AttrValue(int64_t{20}))
      .And("mtime", CmpOp::kGe, AttrValue(int64_t{85}));
  auto r = g.Search(kd);
  EXPECT_EQ(Sorted(r.files), (std::vector<FileId>{11, 12, 13, 14, 15}));
  EXPECT_EQ(r.access_path, "segments[1]:kdtree:kd");

  Predicate kw;
  kw.And("path", CmpOp::kContainsWord, AttrValue("firefox"))
      .And("size", CmpOp::kLt, AttrValue(int64_t{3}));
  auto r2 = g.Search(kw);
  EXPECT_EQ(Sorted(r2.files), (std::vector<FileId>{1, 2}));
  EXPECT_EQ(r2.access_path, "segments[1]:keyword:by_kw");
}

}  // namespace
}  // namespace propeller::index
