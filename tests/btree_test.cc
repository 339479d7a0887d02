#include "index/btree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/rng.h"
#include "sim/disk_model.h"
#include "sim/io_context.h"

namespace propeller::index {
namespace {

class BTreeTest : public ::testing::Test {
 protected:
  sim::IoContext io_;
};

TEST_F(BTreeTest, EmptyTreeScansEmpty) {
  BPlusTree t(io_.CreateStore());
  auto r = t.Scan(KeyRange::Everything());
  EXPECT_TRUE(r.files.empty());
  EXPECT_EQ(t.NumPostings(), 0u);
  EXPECT_EQ(t.Height(), 1u);
}

TEST_F(BTreeTest, InsertAndExactLookup) {
  BPlusTree t(io_.CreateStore());
  t.Insert(AttrValue(int64_t{42}), 1);
  t.Insert(AttrValue(int64_t{42}), 2);
  t.Insert(AttrValue(int64_t{7}), 3);
  auto r = t.Scan(KeyRange::Exactly(AttrValue(int64_t{42})));
  std::sort(r.files.begin(), r.files.end());
  EXPECT_EQ(r.files, (std::vector<FileId>{1, 2}));
}

TEST_F(BTreeTest, RangeScanBoundsSemantics) {
  BPlusTree t(io_.CreateStore(), /*order=*/4);
  for (int64_t k = 0; k < 100; ++k) t.Insert(AttrValue(k), static_cast<FileId>(k));

  KeyRange r;
  r.lo = AttrValue(int64_t{10});
  r.lo_inclusive = false;
  r.hi = AttrValue(int64_t{20});
  r.hi_inclusive = true;
  auto res = t.Scan(r);
  std::sort(res.files.begin(), res.files.end());
  std::vector<FileId> expect;
  for (FileId f = 11; f <= 20; ++f) expect.push_back(f);
  EXPECT_EQ(res.files, expect);
}

TEST_F(BTreeTest, StringKeysSortLexicographically) {
  BPlusTree t(io_.CreateStore(), /*order=*/4);
  t.Insert(AttrValue("banana"), 1);
  t.Insert(AttrValue("apple"), 2);
  t.Insert(AttrValue("cherry"), 3);
  KeyRange r;
  r.lo = AttrValue("apple");
  r.hi = AttrValue("banana");
  auto res = t.Scan(r);
  std::sort(res.files.begin(), res.files.end());
  EXPECT_EQ(res.files, (std::vector<FileId>{1, 2}));
}

TEST_F(BTreeTest, SplitsKeepInvariants) {
  BPlusTree t(io_.CreateStore(), /*order=*/4);
  for (int64_t k = 0; k < 1000; ++k) {
    t.Insert(AttrValue(k * 7 % 1000), static_cast<FileId>(k));
  }
  std::string err;
  EXPECT_TRUE(t.CheckInvariants(&err)) << err;
  EXPECT_GT(t.Height(), 2u);
  auto all = t.Scan(KeyRange::Everything());
  EXPECT_EQ(all.files.size(), 1000u);
}

TEST_F(BTreeTest, RemoveSpecificPosting) {
  BPlusTree t(io_.CreateStore());
  t.Insert(AttrValue(int64_t{5}), 100);
  t.Insert(AttrValue(int64_t{5}), 200);
  t.Remove(AttrValue(int64_t{5}), 100);
  auto r = t.Scan(KeyRange::Exactly(AttrValue(int64_t{5})));
  EXPECT_EQ(r.files, (std::vector<FileId>{200}));
  // Removing an absent posting is a no-op.
  t.Remove(AttrValue(int64_t{5}), 999);
  t.Remove(AttrValue(int64_t{777}), 1);
  EXPECT_EQ(t.NumPostings(), 1u);
  std::string err;
  EXPECT_TRUE(t.CheckInvariants(&err)) << err;
}

TEST_F(BTreeTest, DrainToEmptyAndReuse) {
  BPlusTree t(io_.CreateStore(), /*order=*/4);
  for (int64_t k = 0; k < 300; ++k) t.Insert(AttrValue(k), static_cast<FileId>(k));
  for (int64_t k = 0; k < 300; ++k) t.Remove(AttrValue(k), static_cast<FileId>(k));
  EXPECT_EQ(t.NumPostings(), 0u);
  std::string err;
  EXPECT_TRUE(t.CheckInvariants(&err)) << err;
  EXPECT_TRUE(t.Scan(KeyRange::Everything()).files.empty());
  // The tree must still accept inserts after being drained.
  t.Insert(AttrValue(int64_t{1}), 1);
  EXPECT_EQ(t.Scan(KeyRange::Everything()).files.size(), 1u);
  EXPECT_TRUE(t.CheckInvariants(&err)) << err;
}

TEST_F(BTreeTest, DeeperTreeCostsMorePages) {
  // Cost model sanity: a bigger tree touches more pages per insert.
  sim::IoContext cold(sim::IoParams{.disk = {}, .cache_pages = 0, .cache_hit_us = 2});
  BPlusTree small(cold.CreateStore(), 16);
  BPlusTree big(cold.CreateStore(), 16);
  for (int64_t k = 0; k < 50; ++k) small.Insert(AttrValue(k), 1);
  for (int64_t k = 0; k < 20000; ++k) big.Insert(AttrValue(k), 1);
  sim::Cost c_small = small.Insert(AttrValue(int64_t{7}), 2);
  sim::Cost c_big = big.Insert(AttrValue(int64_t{7}), 2);
  EXPECT_GT(c_big.seconds(), c_small.seconds());
}

// Scan must return what a filter over every key returns, and touch exactly
// the pages a key-by-key walk from the descent's leaf touches (stopping at
// the first key past `hi`).  Keys are the even numbers 0..198 in order-4
// leaves, and every lo in [-2, 201] is tried with several widths
// (negative ones give lo > hi), both bound kinds, and one-sided ranges, so
// lo falls on, between, and past each leaf's last key.  With no page
// cache every read is a miss; the per-scan miss counts are pinned by
// their sum and an order-sensitive hash, both recorded from that walk.
TEST_F(BTreeTest, ScanTouchesTheSamePagesAsAKeyByKeyWalk) {
  sim::IoContext cold(sim::IoParams{.disk = {}, .cache_pages = 0, .cache_hit_us = 2});
  BPlusTree t(cold.CreateStore(), /*order=*/4);
  std::vector<int64_t> keys;
  for (int64_t k = 0; k < 200; k += 2) {
    keys.push_back(k);
    t.Insert(AttrValue(k), static_cast<FileId>(k));
    t.Insert(AttrValue(k), static_cast<FileId>(k + 1));
  }
  const sim::Cost page_read = sim::DiskModel(cold.params().disk).RandomPageAccess();
  uint64_t pages_total = 0;
  uint64_t pages_hash = 0;
  auto check = [&](const KeyRange& range) {
    const uint64_t before = cold.CacheStats().misses;
    auto got = t.Scan(range);
    const uint64_t pages = cold.CacheStats().misses - before;
    sim::Cost walk_cost;
    for (uint64_t p = 0; p < pages; ++p) walk_cost += page_read;
    EXPECT_EQ(got.cost.seconds(), walk_cost.seconds());
    pages_total += pages;
    pages_hash = pages_hash * 1'000'003 + pages;
    std::vector<FileId> expect;
    for (int64_t k : keys) {
      if (!range.Contains(AttrValue(k))) continue;
      expect.push_back(static_cast<FileId>(k));
      expect.push_back(static_cast<FileId>(k + 1));
    }
    ASSERT_EQ(got.files, expect);
  };
  for (int64_t lo = -2; lo <= 201; ++lo) {
    for (int64_t width : {-5, -1, 0, 1, 2, 7, 40}) {
      for (int flags = 0; flags < 4; ++flags) {
        KeyRange r;
        r.lo = AttrValue(lo);
        r.lo_inclusive = (flags & 1) != 0;
        r.hi = AttrValue(lo + width);
        r.hi_inclusive = (flags & 2) != 0;
        check(r);
      }
    }
    for (bool inclusive : {false, true}) {
      KeyRange from;
      from.lo = AttrValue(lo);
      from.lo_inclusive = inclusive;
      check(from);
      KeyRange to;
      to.hi = AttrValue(lo);
      to.hi_inclusive = inclusive;
      check(to);
    }
  }
  EXPECT_EQ(pages_total, 56'264u);
  EXPECT_EQ(pages_hash, 14'623'608'998'753'568'032u);
}

// Leaf splits and removals move long posting runs.  Order-4 leaves first
// take 300 postings on each of four keys, inserted round-robin; then new
// keys between them split those leaves, and for every five postings
// inserted one is removed from the middle of some run.  After each step the tree must
// hold its invariants and list, for the whole range and for every key
// pair, the model's postings in order: keys ascending, each key's files
// in insertion order.
TEST_F(BTreeTest, LongRunsSurviveSplitsAndMidRunRemovals) {
  BPlusTree t(io_.CreateStore(), /*order=*/4);
  std::multimap<int64_t, FileId> model;
  auto insert = [&](int64_t key, FileId file) {
    t.Insert(AttrValue(key), file);
    model.emplace(key, file);
  };
  auto check = [&](const char* step) {
    std::string err;
    ASSERT_TRUE(t.CheckInvariants(&err)) << step << ": " << err;
    ASSERT_EQ(t.NumPostings(), model.size()) << step;
    std::vector<FileId> all;
    for (const auto& [key, file] : model) all.push_back(file);
    ASSERT_EQ(t.Scan(KeyRange::Everything()).files, all) << step;
    for (int64_t lo = 0; lo <= 40; lo += 3) {
      KeyRange range;
      range.lo = AttrValue(lo);
      range.hi = AttrValue(lo + 7);
      std::vector<FileId> expect;
      for (auto it = model.lower_bound(lo); it != model.end() && it->first <= lo + 7; ++it) {
        expect.push_back(it->second);
      }
      ASSERT_EQ(t.Scan(range).files, expect) << step << " [" << lo << "," << lo + 7 << "]";
    }
  };

  FileId next = 1;
  for (int round = 0; round < 300; ++round) {
    for (int64_t key : {0, 10, 20, 30}) insert(key, next++);
  }
  check("long runs");
  Rng rng(19);
  for (int64_t key : {5, 15, 25, 35, 1, 11, 21, 31, 2, 12, 22, 32, 3, 13, 23, 33}) {
    for (int k = 0; k < 40; ++k) insert(key, next++);
    // Remove one posting from the middle of a random run.
    for (int r = 0; r < 8; ++r) {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.Uniform(model.size())));
      t.Remove(AttrValue(it->first), it->second);
      model.erase(it);
    }
    check("split");
  }
  EXPECT_GT(t.Height(), 2u);
  // Drain every other key, so whole runs leave and leaves empty.
  for (auto it = model.begin(); it != model.end();) {
    if (it->first % 2 == 1) {
      t.Remove(AttrValue(it->first), it->second);
      it = model.erase(it);
    } else {
      ++it;
    }
  }
  check("drain");
}

struct FuzzParam {
  uint32_t order;
  int ops;
  uint64_t seed;
  int64_t key_space;
};

class BTreeFuzzTest : public ::testing::TestWithParam<FuzzParam> {};

// Property test: a random interleaving of inserts/removes must (a) keep
// structural invariants and (b) agree with a reference multimap on every
// range scan, in order.  The multimap keeps equal keys in insertion order
// and the removal below drops a key's first matching posting, as the tree
// does, so a scan must list keys ascending and each key's files in the
// order they were inserted.
TEST_P(BTreeFuzzTest, MatchesReferenceModel) {
  const FuzzParam p = GetParam();
  sim::IoContext io;
  BPlusTree t(io.CreateStore(), p.order);
  std::multimap<int64_t, FileId> model;
  Rng rng(p.seed);

  for (int op = 0; op < p.ops; ++op) {
    int64_t key = rng.UniformInt(0, p.key_space - 1);
    auto file = static_cast<FileId>(rng.Uniform(64));
    bool remove = rng.Bernoulli(0.4) && !model.empty();
    if (remove) {
      // Remove a (key,file) that exists half the time, a random one otherwise.
      if (rng.Bernoulli(0.5)) {
        auto it = model.begin();
        std::advance(it, static_cast<long>(rng.Uniform(model.size())));
        key = it->first;
        file = it->second;
      }
      t.Remove(AttrValue(key), file);
      for (auto [it, end] = model.equal_range(key); it != end; ++it) {
        if (it->second == file) {
          model.erase(it);
          break;
        }
      }
    } else {
      t.Insert(AttrValue(key), file);
      model.emplace(key, file);
    }

    if (op % 97 == 0) {
      std::string err;
      ASSERT_TRUE(t.CheckInvariants(&err)) << "op " << op << ": " << err;
    }
  }

  std::string err;
  ASSERT_TRUE(t.CheckInvariants(&err)) << err;
  ASSERT_EQ(t.NumPostings(), model.size());

  // Compare a batch of random range scans against the model.
  for (int q = 0; q < 25; ++q) {
    int64_t a = rng.UniformInt(0, p.key_space - 1);
    int64_t b = rng.UniformInt(0, p.key_space - 1);
    if (a > b) std::swap(a, b);
    KeyRange range;
    range.lo = AttrValue(a);
    range.hi = AttrValue(b);
    range.lo_inclusive = rng.Bernoulli(0.5);
    range.hi_inclusive = rng.Bernoulli(0.5);

    auto got = t.Scan(range);
    std::vector<FileId> expect;
    for (auto it = model.lower_bound(a); it != model.end() && it->first <= b; ++it) {
      if (it->first == a && !range.lo_inclusive) continue;
      if (it->first == b && !range.hi_inclusive) continue;
      expect.push_back(it->second);
    }
    ASSERT_EQ(got.files, expect) << "range [" << a << "," << b << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Orders, BTreeFuzzTest,
    ::testing::Values(FuzzParam{4, 2000, 11, 50}, FuzzParam{4, 2000, 12, 5000},
                      FuzzParam{8, 3000, 13, 200}, FuzzParam{16, 3000, 14, 64},
                      FuzzParam{64, 5000, 15, 1000},
                      FuzzParam{5, 2500, 16, 17},   // odd order, tiny keyspace
                      FuzzParam{128, 4000, 17, 100000},
                      // 6 keys, hundreds of postings each: removals land
                      // mid-run, and every leaf holds long runs.
                      FuzzParam{4, 6000, 18, 6}));

}  // namespace
}  // namespace propeller::index
