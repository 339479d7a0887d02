// Hash index, K-D tree, record store, WAL, and attribute/query basics.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/rng.h"
#include "index/attr.h"
#include "index/hash_index.h"
#include "index/kdtree.h"
#include "index/query.h"
#include "index/record_store.h"
#include "index/wal.h"
#include "sim/io_context.h"

namespace propeller::index {
namespace {

// ---------- AttrValue / AttrSet ----------

TEST(AttrValueTest, TotalOrder) {
  EXPECT_LT(AttrValue(int64_t{1}), AttrValue(int64_t{2}));
  EXPECT_EQ(AttrValue(int64_t{5}), AttrValue(5.0));  // cross-type numeric
  EXPECT_LT(AttrValue(2.5), AttrValue(int64_t{3}));
  EXPECT_LT(AttrValue(int64_t{999}), AttrValue("a"));  // numerics before strings
  EXPECT_LT(AttrValue("abc"), AttrValue("abd"));
}

TEST(AttrValueTest, SerializeRoundTrip) {
  for (const AttrValue& v :
       {AttrValue(int64_t{-7}), AttrValue(3.25), AttrValue("hello/world")}) {
    BinaryWriter w;
    v.Serialize(w);
    BinaryReader r(w.data());
    AttrValue back;
    ASSERT_TRUE(AttrValue::Deserialize(r, back).ok());
    EXPECT_EQ(v, back);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(AttrSetTest, SetOverwritesAndFinds) {
  AttrSet a;
  a.Set("size", AttrValue(int64_t{10}));
  a.Set("size", AttrValue(int64_t{20}));
  ASSERT_NE(a.Find("size"), nullptr);
  EXPECT_EQ(a.Find("size")->as_int(), 20);
  EXPECT_EQ(a.Find("nope"), nullptr);
  EXPECT_EQ(a.size(), 1u);
}

TEST(AttrSetTest, SerializeRoundTrip) {
  AttrSet a;
  a.Set("size", AttrValue(int64_t{123}));
  a.Set("path", AttrValue("/usr/bin/gcc"));
  a.Set("score", AttrValue(0.5));
  BinaryWriter w;
  a.Serialize(w);
  BinaryReader r(w.data());
  AttrSet back;
  ASSERT_TRUE(AttrSet::Deserialize(r, back).ok());
  EXPECT_EQ(back.size(), 3u);
  EXPECT_EQ(back.Find("path")->as_string(), "/usr/bin/gcc");
}

// A decoded set with a repeated name would hide its second entry from Find
// while ByteSize still counted it; decoding refuses it instead.
TEST(AttrSetTest, DeserializeRejectsRepeatedName) {
  BinaryWriter w;
  w.PutU32(2);
  w.PutString("size");
  AttrValue(int64_t{1}).Serialize(w);
  w.PutString("size");
  AttrValue(int64_t{2}).Serialize(w);
  BinaryReader r(w.data());
  AttrSet back;
  Status s = AttrSet::Deserialize(r, back);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
}

TEST(BinaryReaderTest, RejectsTruncatedInput) {
  BinaryWriter w;
  w.PutString("hello");
  std::string data = w.data();
  BinaryReader r(std::string_view(data).substr(0, 6));  // cut mid-string
  std::string out;
  EXPECT_FALSE(r.GetString(out).ok());
}

// ---------- Query predicates ----------

TEST(QueryTest, TermMatching) {
  AttrSet a;
  a.Set("size", AttrValue(int64_t{100}));
  a.Set("path", AttrValue("/home/john/.mozilla/firefox/prefs.js"));

  EXPECT_TRUE((Term{"size", CmpOp::kGt, AttrValue(int64_t{50})}).Matches(a));
  EXPECT_FALSE((Term{"size", CmpOp::kGt, AttrValue(int64_t{100})}).Matches(a));
  EXPECT_TRUE((Term{"size", CmpOp::kGe, AttrValue(int64_t{100})}).Matches(a));
  EXPECT_TRUE(
      (Term{"path", CmpOp::kContainsWord, AttrValue("firefox")}).Matches(a));
  EXPECT_FALSE((Term{"path", CmpOp::kContainsWord, AttrValue("fire")}).Matches(a));
  EXPECT_FALSE((Term{"missing", CmpOp::kEq, AttrValue(int64_t{1})}).Matches(a));
}

TEST(QueryTest, ContainsWordTokenRules) {
  EXPECT_TRUE(ContainsWord("/usr/lib/firefox-3.6/x", "firefox"));
  EXPECT_TRUE(ContainsWord("firefox", "firefox"));
  EXPECT_TRUE(ContainsWord("a.firefox.b", "firefox"));
  EXPECT_FALSE(ContainsWord("firefoxy", "firefox"));
  EXPECT_FALSE(ContainsWord("myfirefox", "firefox"));
  EXPECT_TRUE(ContainsWord("anything", ""));
}

TEST(QueryTest, RangeForAttrIntersectsTerms) {
  Predicate p;
  p.And("size", CmpOp::kGt, AttrValue(int64_t{10}))
      .And("size", CmpOp::kLe, AttrValue(int64_t{100}))
      .And("mtime", CmpOp::kLt, AttrValue(int64_t{999}));
  auto r = RangeForAttr(p, "size");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->lo->as_int(), 10);
  EXPECT_FALSE(r->lo_inclusive);
  EXPECT_EQ(r->hi->as_int(), 100);
  EXPECT_TRUE(r->hi_inclusive);
  EXPECT_FALSE(RangeForAttr(p, "uid").has_value());

  // Contradictory equality terms still produce a (empty) range.
  Predicate q;
  q.And("x", CmpOp::kEq, AttrValue(int64_t{1}))
      .And("x", CmpOp::kEq, AttrValue(int64_t{2}));
  auto er = RangeForAttr(q, "x");
  ASSERT_TRUE(er.has_value());
  EXPECT_FALSE(er->Contains(AttrValue(int64_t{1})));
  EXPECT_FALSE(er->Contains(AttrValue(int64_t{2})));
}

// ---------- HashIndex ----------

class HashIndexTest : public ::testing::Test {
 protected:
  sim::IoContext io_;
};

TEST_F(HashIndexTest, InsertLookupRemove) {
  HashIndex h(io_.CreateStore());
  h.Insert(AttrValue("gcc"), 1);
  h.Insert(AttrValue("gcc"), 2);
  h.Insert(AttrValue("ld"), 3);
  auto r = h.Lookup(AttrValue("gcc"));
  std::sort(r.files.begin(), r.files.end());
  EXPECT_EQ(r.files, (std::vector<FileId>{1, 2}));
  h.Remove(AttrValue("gcc"), 1);
  EXPECT_EQ(h.Lookup(AttrValue("gcc")).files, (std::vector<FileId>{2}));
  EXPECT_TRUE(h.Lookup(AttrValue("clang")).files.empty());
  EXPECT_EQ(h.NumPostings(), 2u);
}

TEST_F(HashIndexTest, IntAndDoubleKeysCollide) {
  HashIndex h(io_.CreateStore());
  h.Insert(AttrValue(int64_t{5}), 1);
  EXPECT_EQ(h.Lookup(AttrValue(5.0)).files, (std::vector<FileId>{1}));
}

TEST_F(HashIndexTest, GrowsAndStaysCorrect) {
  HashIndex h(io_.CreateStore(), /*initial_buckets=*/2);
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    h.Insert(AttrValue(static_cast<int64_t>(i)), static_cast<FileId>(i));
  }
  EXPECT_GT(h.NumBuckets(), 2u);
  Rng rng(3);
  for (int q = 0; q < 100; ++q) {
    auto k = static_cast<int64_t>(rng.Uniform(n));
    auto r = h.Lookup(AttrValue(k));
    ASSERT_EQ(r.files.size(), 1u) << k;
    EXPECT_EQ(r.files[0], static_cast<FileId>(k));
  }
}

// ---------- KdTree ----------

class KdTreeTest : public ::testing::Test {
 protected:
  sim::IoContext io_;
};

TEST_F(KdTreeTest, RangeQueryMatchesBruteForce) {
  const size_t dims = 3;
  KdTree t(io_.CreateStore(), dims);
  Rng rng(99);
  std::vector<std::vector<double>> points;
  for (FileId f = 0; f < 500; ++f) {
    std::vector<double> p(dims);
    for (auto& x : p) x = static_cast<double>(rng.UniformInt(0, 50));
    t.Insert(p, f);
    points.push_back(std::move(p));
  }

  for (int q = 0; q < 40; ++q) {
    KdBox box = KdBox::Unbounded(dims);
    for (size_t d = 0; d < dims; ++d) {
      double a = static_cast<double>(rng.UniformInt(0, 50));
      double b = static_cast<double>(rng.UniformInt(0, 50));
      box.lo[d] = std::min(a, b);
      box.hi[d] = std::max(a, b);
    }
    auto got = t.RangeQuery(box);
    std::vector<FileId> expect;
    for (FileId f = 0; f < points.size(); ++f) {
      if (box.Contains(points[f])) expect.push_back(f);
    }
    std::sort(got.files.begin(), got.files.end());
    ASSERT_EQ(got.files, expect) << "query " << q;
  }
}

TEST_F(KdTreeTest, RemoveTombstonesAndRebuild) {
  KdTree t(io_.CreateStore(), 2);
  for (FileId f = 0; f < 100; ++f) {
    t.Insert({static_cast<double>(f), static_cast<double>(f % 10)}, f);
  }
  t.Remove({5.0, 5.0}, 5);
  EXPECT_EQ(t.NumPoints(), 99u);
  auto r = t.RangeQuery(KdBox::Unbounded(2));
  EXPECT_EQ(r.files.size(), 99u);
  EXPECT_EQ(std::count(r.files.begin(), r.files.end(), 5u), 0);

  t.Rebuild();
  EXPECT_EQ(t.NumPoints(), 99u);
  auto r2 = t.RangeQuery(KdBox::Unbounded(2));
  EXPECT_EQ(r2.files.size(), 99u);
}

TEST_F(KdTreeTest, RemoveFindsPointAfterRebuild) {
  KdTree t(io_.CreateStore(), 2);
  // Many duplicate axis coordinates to stress tie handling.
  for (FileId f = 0; f < 200; ++f) {
    t.Insert({static_cast<double>(f % 5), static_cast<double>(f % 3)}, f);
  }
  t.Rebuild();
  for (FileId f = 0; f < 200; ++f) {
    t.Remove({static_cast<double>(f % 5), static_cast<double>(f % 3)}, f);
  }
  EXPECT_EQ(t.NumPoints(), 0u);
  EXPECT_TRUE(t.RangeQuery(KdBox::Unbounded(2)).files.empty());
}

TEST_F(KdTreeTest, SortedInsertsTriggerRebuildAndRebalance) {
  KdTree t(io_.CreateStore(), 1);
  for (FileId f = 0; f < 2000; ++f) t.Insert({static_cast<double>(f)}, f);
  EXPECT_TRUE(t.NeedsRebuild());  // degenerate right spine
  uint32_t before = t.Depth();
  t.Rebuild();
  EXPECT_LT(t.Depth(), before / 10);
  EXPECT_FALSE(t.NeedsRebuild());
}

TEST_F(KdTreeTest, WarmQueryCheaperThanCold) {
  KdTree t(io_.CreateStore(), 2);
  Rng rng(1);
  for (FileId f = 0; f < 5000; ++f) {
    t.Insert({rng.UniformDouble(), rng.UniformDouble()}, f);
  }
  io_.DropCaches();
  KdBox box = KdBox::Unbounded(2);
  auto cold = t.RangeQuery(box);
  auto warm = t.RangeQuery(box);
  EXPECT_GT(cold.cost.seconds(), warm.cost.seconds() * 5)
      << "cold=" << cold.cost.seconds() << " warm=" << warm.cost.seconds();
}

// ---------- RecordStore ----------

TEST(RecordStoreTest, PutGetEraseAndPrevious) {
  sim::IoContext io;
  RecordStore rs(io.CreateStore());
  AttrSet a;
  a.Set("size", AttrValue(int64_t{1}));
  EXPECT_FALSE(rs.Put(7, a).previous.has_value());
  AttrSet b;
  b.Set("size", AttrValue(int64_t{2}));
  auto put2 = rs.Put(7, b);
  ASSERT_TRUE(put2.previous.has_value());
  EXPECT_EQ(put2.previous->Find("size")->as_int(), 1);
  std::vector<FileId> present;
  const FileId probe[] = {7, 8};
  rs.AppendMatching(probe, Predicate{}, &present);
  EXPECT_EQ(present, std::vector<FileId>{7});
  Predicate size2;
  size2.And("size", CmpOp::kEq, AttrValue(int64_t{2}));
  std::vector<FileId> updated;
  rs.AppendMatching(probe, size2, &updated);
  EXPECT_EQ(updated, std::vector<FileId>{7});
  auto erased = rs.Erase(7);
  ASSERT_TRUE(erased.previous.has_value());
  EXPECT_EQ(rs.NumRecords(), 0u);
  EXPECT_FALSE(rs.Erase(7).previous.has_value());
}

// Verification is a per-candidate page charge plus one charge-free batch
// that appends matches in candidate order (not FileId order) and skips
// absent files.
TEST(RecordStoreTest, ChargeReadThenAppendMatchingInCandidateOrder) {
  sim::IoContext io;
  RecordStore rs(io.CreateStore());
  for (FileId f = 1; f <= 6; ++f) {
    AttrSet a;
    a.Set("size", AttrValue(static_cast<int64_t>(f)));
    rs.Put(f, a);
  }
  io.DropCaches();
  const uint64_t misses = io.CacheStats().misses;
  const sim::Cost cold = rs.ChargeRead(5);
  EXPECT_EQ(io.CacheStats().misses, misses + 1);
  EXPECT_LT(rs.ChargeRead(5).seconds(), cold.seconds()) << "second read is a hit";

  const sim::PageCacheStats before = io.CacheStats();
  Predicate p;
  p.And("size", CmpOp::kGe, AttrValue(int64_t{2}));
  std::vector<FileId> out = {100};
  const std::vector<FileId> candidates = {5, 9, 2, 1, 4};
  rs.AppendMatching(candidates, p, &out);
  EXPECT_EQ(out, (std::vector<FileId>{100, 5, 2, 4}));
  const sim::PageCacheStats after = io.CacheStats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
}

// Seeded Put/Erase churn against a std::map reference.  Three phases
// (grow past 1024 records, shrink below 200, grow again) take the table
// through several growths and many erasures that shift probe runs back.
// FileIds mix a dense block, sparse ids and the largest FileId.  After
// every op the returned previous record, Contains, NumRecords and Bytes
// must agree with the reference; every 500 ops so must ForEachInMemory
// (FileId order) and AppendMatching over present, absent and repeated
// candidates.
TEST(RecordStoreTest, MatchesReferenceMapAcrossGrowthAndErase) {
  sim::IoContext io;
  RecordStore rs(io.CreateStore());
  std::map<FileId, AttrSet> ref;
  Rng rng(23);
  auto draw_file = [&]() -> FileId {
    switch (rng.Uniform(8)) {
      case 0:
        return rng.Next();  // sparse
      case 1:
        return rng.Bernoulli(0.1) ? ~FileId{0} : ~FileId{0} - rng.Uniform(4);
      default:
        return 1 + rng.Uniform(3000);  // dense
    }
  };
  auto version = [](const AttrSet& a) { return a.FindInt("v").value_or(-1); };
  uint64_t bytes = 0;
  int64_t next_version = 0;
  Predicate odd_small;
  odd_small.And("odd", CmpOp::kEq, AttrValue(int64_t{1}))
      .And("v", CmpOp::kLt, AttrValue(int64_t{30'000}));

  const struct {
    int ops;
    double put;
  } phases[] = {{6000, 0.8}, {6000, 0.2}, {6000, 0.8}};
  int op = 0;
  std::vector<size_t> phase_end_records;
  for (const auto& phase : phases) {
    for (int i = 0; i < phase.ops; ++i, ++op) {
      FileId file = draw_file();
      if (!ref.empty() && rng.Bernoulli(0.5)) {
        auto it = ref.begin();
        std::advance(it, static_cast<long>(rng.Uniform(ref.size())));
        file = it->first;  // an existing record half the time
      }
      auto old = ref.find(file);
      const int64_t want_prev = old == ref.end() ? -1 : version(old->second);
      if (rng.Bernoulli(phase.put)) {
        AttrSet a;
        const int64_t v = next_version++;
        a.Set("v", AttrValue(v));
        a.Set("odd", AttrValue(static_cast<int64_t>(file % 2)));
        if (v % 3 == 0) a.Set("path", AttrValue("/data/file-" + std::to_string(v)));
        bytes += a.ByteSize();
        if (old != ref.end()) bytes -= old->second.ByteSize();
        auto put = rs.Put(file, a);
        ref[file] = std::move(a);
        ASSERT_EQ(put.previous ? version(*put.previous) : -1, want_prev) << "op " << op;
      } else {
        auto erased = rs.Erase(file);
        if (old != ref.end()) {
          bytes -= old->second.ByteSize();
          ref.erase(old);
        }
        ASSERT_EQ(erased.previous ? version(*erased.previous) : -1, want_prev)
            << "op " << op;
      }
      ASSERT_EQ(rs.Contains(file), ref.count(file) != 0) << "op " << op;
      ASSERT_EQ(rs.NumRecords(), ref.size()) << "op " << op;
      ASSERT_EQ(rs.Bytes(), bytes) << "op " << op;

      if (op % 500 != 0) continue;
      std::vector<std::pair<FileId, int64_t>> got;
      rs.ForEachInMemory(
          [&](FileId f, const AttrSet& a) { got.emplace_back(f, version(a)); });
      std::vector<std::pair<FileId, int64_t>> want;
      for (const auto& [f, a] : ref) want.emplace_back(f, version(a));
      ASSERT_EQ(got, want) << "op " << op;

      std::vector<FileId> candidates;
      for (int c = 0; c < 64; ++c) candidates.push_back(draw_file());
      for (const auto& [f, a] : ref) {
        if (rng.Bernoulli(0.05)) candidates.push_back(f);
      }
      std::vector<FileId> matched = {0};
      rs.AppendMatching(candidates, odd_small, &matched);
      std::vector<FileId> expect = {0};
      for (FileId f : candidates) {
        auto it = ref.find(f);
        if (it != ref.end() && odd_small.Matches(it->second)) expect.push_back(f);
      }
      ASSERT_EQ(matched, expect) << "op " << op;
    }
    phase_end_records.push_back(ref.size());
  }
  // Grown past 1024 records (a 4096-slot table), shrunk, regrown.
  EXPECT_GT(phase_end_records[0], 1024u);
  EXPECT_LT(phase_end_records[1], 200u);
  EXPECT_GT(phase_end_records[2], 1024u);
}

// ---------- WAL ----------

TEST(WalTest, AppendReplayTruncate) {
  sim::IoContext io;
  WriteAheadLog wal(io.CreateStore());
  wal.Append("one");
  wal.Append("two");
  std::vector<std::string> seen;
  ASSERT_TRUE(wal.Replay([&](const std::string& r) {
                   seen.push_back(r);
                   return Status::Ok();
                 }).ok());
  EXPECT_EQ(seen, (std::vector<std::string>{"one", "two"}));
  wal.Truncate();
  EXPECT_EQ(wal.NumRecords(), 0u);
}

// ---------- Page cache behaviour ----------

TEST(PageCacheTest, LruEvictsOldest) {
  sim::PageCache cache(2);
  EXPECT_FALSE(cache.Touch({1, 1}));
  EXPECT_FALSE(cache.Touch({1, 2}));
  EXPECT_TRUE(cache.Touch({1, 1}));   // now MRU
  EXPECT_FALSE(cache.Touch({1, 3}));  // evicts page 2
  EXPECT_FALSE(cache.Touch({1, 2}));
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(PageCacheTest, InvalidateStoreDropsOnlyThatStore) {
  sim::PageCache cache(10);
  cache.Touch({1, 1});
  cache.Touch({2, 1});
  cache.InvalidateStore(1);
  EXPECT_FALSE(cache.Touch({1, 1}));
  EXPECT_TRUE(cache.Touch({2, 1}));
}

TEST(DiskModelTest, SequentialBeatsRandom) {
  sim::DiskModel disk;
  // 1000 random pages vs 1000 sequential pages: random is far slower.
  sim::Cost random;
  for (int i = 0; i < 1000; ++i) random += disk.RandomPageAccess();
  sim::Cost seq = disk.SequentialPages(1000);
  EXPECT_GT(random.seconds(), seq.seconds() * 20);
}

}  // namespace
}  // namespace propeller::index
