// The compact attribute layout: the 16-byte AttrValue, the process-wide
// AttrNames dictionary, and AttrSet's wire bytes staying independent of
// the ids the dictionary hands out.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "index/attr.h"
#include "index/query.h"

namespace propeller::index {
namespace {

// ---------- AttrValue ----------

TEST(AttrValueTest, IsSixteenBytes) { EXPECT_EQ(sizeof(AttrValue), 16u); }

TEST(AttrValueTest, CopyIsDeep) {
  AttrValue a("/usr/lib/firefox/prefs.js");
  AttrValue b(a);
  EXPECT_EQ(b.as_string(), "/usr/lib/firefox/prefs.js");
  EXPECT_NE(a.as_string().data(), b.as_string().data());
  AttrValue c(int64_t{7});
  c = a;
  EXPECT_EQ(c.as_string(), a.as_string());
  c = AttrValue(2.5);  // string -> double releases the buffer
  EXPECT_TRUE(c.is_double());
  EXPECT_EQ(c.as_double(), 2.5);
  EXPECT_EQ(a.as_string(), "/usr/lib/firefox/prefs.js");
}

TEST(AttrValueTest, MoveStealsAndLeavesIntZero) {
  AttrValue a("payload-string-longer-than-sso");
  const char* buffer = a.as_string().data();
  AttrValue b(std::move(a));
  EXPECT_EQ(b.as_string().data(), buffer);  // moved, not copied
  EXPECT_TRUE(a.is_int());                  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.as_int(), 0);
  AttrValue c(int64_t{3});
  c = std::move(b);
  EXPECT_EQ(c.as_string().data(), buffer);
  EXPECT_TRUE(b.is_int());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.as_int(), 0);
}

TEST(AttrValueTest, SelfAssignmentKeepsValue) {
  AttrValue s("self");
  AttrValue& alias = s;
  s = alias;
  EXPECT_EQ(s.as_string(), "self");
  s = std::move(alias);
  EXPECT_EQ(s.as_string(), "self");
  AttrValue d(1.5);
  AttrValue& dalias = d;
  d = dalias;
  EXPECT_EQ(d.as_double(), 1.5);
}

TEST(AttrValueTest, EmptyAndEmbeddedNulStrings) {
  AttrValue empty("");
  EXPECT_TRUE(empty.is_string());
  EXPECT_EQ(empty.as_string(), "");
  EXPECT_EQ(empty.ByteSize(), 5u);
  AttrValue empty_copy(empty);
  EXPECT_EQ(empty_copy, empty);

  const std::string with_nul("a\0b", 3);
  AttrValue nul(with_nul);
  EXPECT_EQ(nul.as_string().size(), 3u);
  EXPECT_EQ(nul.as_string(), std::string_view(with_nul));
  EXPECT_EQ(nul.ByteSize(), 8u);
  EXPECT_LT(AttrValue("a"), nul);  // "a" is a prefix of "a\0b"
  EXPECT_LT(nul, AttrValue("ab"));  // '\0' < 'b'

  for (const AttrValue& v : {empty, nul}) {
    BinaryWriter w;
    v.Serialize(w);
    BinaryReader r(w.data());
    AttrValue back;
    ASSERT_TRUE(AttrValue::Deserialize(r, back).ok());
    EXPECT_EQ(back.as_string(), v.as_string());
  }
}

TEST(AttrValueTest, NumericsOrderBeforeStrings) {
  EXPECT_LT(AttrValue(int64_t{INT64_MAX}), AttrValue(""));
  EXPECT_LT(AttrValue(INFINITY), AttrValue(""));
  EXPECT_GT(AttrValue("").Compare(AttrValue(-1.0)), 0);
  EXPECT_LT(AttrValue("abc"), AttrValue("abd"));
  EXPECT_LT(AttrValue("ab"), AttrValue("abc"));
  // Bytes compare unsigned, as std::string does.
  EXPECT_LT(AttrValue("a"), AttrValue("\xff"));
}

TEST(AttrValueTest, IntDoubleCrossCompare) {
  EXPECT_EQ(AttrValue(int64_t{5}).Compare(AttrValue(5.0)), 0);
  EXPECT_LT(AttrValue(int64_t{2}), AttrValue(2.5));
  EXPECT_LT(AttrValue(2.5), AttrValue(int64_t{3}));
  EXPECT_LT(AttrValue(-INFINITY), AttrValue(int64_t{INT64_MIN}));
  // Two ints compare exactly even where doubles would round them equal.
  EXPECT_LT(AttrValue(int64_t{(int64_t{1} << 60) + 1}),
            AttrValue(int64_t{(int64_t{1} << 60) + 2}));
}

TEST(AttrValueTest, ByteSizeUnchanged) {
  EXPECT_EQ(AttrValue(int64_t{-7}).ByteSize(), 9u);
  EXPECT_EQ(AttrValue(3.25).ByteSize(), 9u);
  EXPECT_EQ(AttrValue("hello/world").ByteSize(), 16u);
  for (const AttrValue& v :
       {AttrValue(int64_t{-7}), AttrValue(3.25), AttrValue("hello/world")}) {
    BinaryWriter w;
    v.Serialize(w);
    EXPECT_EQ(w.data().size(), v.ByteSize());
  }
}

// ---------- AttrNames ----------

TEST(AttrNamesTest, InternIsIdempotentAndLookupMissesUnknown) {
  AttrNames names;
  const AttrId size = names.Intern("size");
  const AttrId mtime = names.Intern("mtime");
  EXPECT_NE(size, mtime);
  EXPECT_EQ(names.Intern("size"), size);
  EXPECT_EQ(names.Lookup(std::string("mtime")), mtime);
  EXPECT_EQ(names.Lookup("never-interned"), kNoAttr);
  EXPECT_EQ(names.Name(size), "size");
  EXPECT_EQ(names.size(), 2u);
}

TEST(AttrNamesTest, NamesSurviveChunkGrowth) {
  AttrNames names;
  std::vector<AttrId> ids;
  for (int i = 0; i < 1000; ++i) ids.push_back(names.Intern("attr" + std::to_string(i)));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(static_cast<uint32_t>(ids[i]), static_cast<uint32_t>(i));
    EXPECT_EQ(names.Name(ids[i]), "attr" + std::to_string(i));
  }
}

TEST(AttrNamesTest, ConcurrentInternGivesOneIdPerName) {
  constexpr int kThreads = 8;
  constexpr int kNames = 300;  // past the first few chunk boundaries
  AttrNames names;
  std::vector<std::vector<std::pair<std::string, AttrId>>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread interns an overlapping window, half of them reversed.
      for (int k = 0; k < kNames; ++k) {
        const int i = (t % 2 == 0 ? k : kNames - 1 - k) + t * 10;
        std::string name = "n" + std::to_string(i);
        const AttrId id = names.Intern(name);
        EXPECT_EQ(names.Name(id), name);
        seen[t].emplace_back(std::move(name), id);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  std::map<std::string, AttrId> by_name;
  for (const auto& per_thread : seen) {
    for (const auto& [name, id] : per_thread) {
      auto [it, inserted] = by_name.emplace(name, id);
      EXPECT_EQ(it->second, id) << name << " got two ids";
    }
  }
  std::set<AttrId> ids;
  for (const auto& [name, id] : by_name) {
    EXPECT_TRUE(ids.insert(id).second) << "id shared by two names";
    EXPECT_LT(static_cast<uint32_t>(id), by_name.size());  // dense
    EXPECT_EQ(names.Name(id), name);
  }
  EXPECT_EQ(names.size(), by_name.size());
}

// ---------- AttrSet ----------

// Ids depend on interning order; the bytes must not.  Intern three fresh
// names in reverse, insert them forward, and compare with a buffer built
// field by field.
TEST(AttrSetTest, BytesIgnoreInterningOrder) {
  AttrNames& global = AttrNames::Global();
  const AttrId c = global.Intern("attr_test.gamma");
  const AttrId b = global.Intern("attr_test.beta");
  const AttrId a = global.Intern("attr_test.alpha");
  ASSERT_LT(static_cast<uint32_t>(c), static_cast<uint32_t>(b));
  ASSERT_LT(static_cast<uint32_t>(b), static_cast<uint32_t>(a));

  AttrSet set;
  set.Set("attr_test.alpha", AttrValue(int64_t{42}));
  set.Set(b, AttrValue(0.5));
  set.Set("attr_test.gamma", AttrValue("/x/y"));
  BinaryWriter got;
  set.Serialize(got);

  BinaryWriter want;
  want.PutU32(3);
  want.PutString("attr_test.alpha");
  want.PutU8(0);
  want.PutI64(42);
  want.PutString("attr_test.beta");
  want.PutU8(1);
  want.PutDouble(0.5);
  want.PutString("attr_test.gamma");
  want.PutU8(2);
  want.PutString("/x/y");
  EXPECT_EQ(got.data(), want.data());
  // ByteSize keeps its page-sizing formula, 4 + sum(5 + |name| + value),
  // one byte per entry above the encoding.
  EXPECT_EQ(set.ByteSize(), 4u + (5 + 15 + 9) + (5 + 14 + 9) + (5 + 15 + 9));
}

TEST(AttrSetTest, KeepsInsertionOrderAndOverwritesInPlace) {
  AttrSet set;
  set.Set("path", AttrValue("/a"));
  set.Set("size", AttrValue(int64_t{1}));
  set.Set("path", AttrValue("/b"));
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.entries()[0].name(), "path");
  EXPECT_EQ(set.entries()[0].value.as_string(), "/b");
  EXPECT_EQ(set.entries()[1].name(), "size");
}

TEST(AttrSetTest, BoundAndByNameFindAgree) {
  AttrSet set;
  set.Set("size", AttrValue(int64_t{10}));
  set.Set("path", AttrValue("/p"));
  const AttrId size = AttrNames::Global().Lookup("size");
  ASSERT_NE(size, kNoAttr);
  EXPECT_EQ(set.Find(size), set.Find("size"));
  EXPECT_EQ(set.Find(kNoAttr), nullptr);
  EXPECT_EQ(set.Find("attr_test.absent"), nullptr);
}

TEST(BoundPredicateTest, MatchesLikePredicate) {
  AttrSet set;
  set.Set("size", AttrValue(int64_t{100}));
  set.Set("path", AttrValue("/home/john/firefox/prefs.js"));
  Predicate p;
  p.And("size", CmpOp::kGe, AttrValue(int64_t{100}))
      .And("path", CmpOp::kContainsWord, AttrValue("firefox"));
  EXPECT_TRUE(BoundPredicate(p).Matches(set));
  EXPECT_TRUE(p.Matches(set));
  // A term on a name the record lacks matches nothing.
  p.And("attr_test.never_set", CmpOp::kEq, AttrValue(int64_t{1}));
  EXPECT_FALSE(BoundPredicate(p).Matches(set));
  EXPECT_FALSE(p.Matches(set));
  // Binding before any record carries a name still finds it later.
  Predicate late;
  late.And("attr_test.late", CmpOp::kEq, AttrValue(int64_t{1}));
  const BoundPredicate bound(late);
  set.Set("attr_test.late", AttrValue(int64_t{1}));
  EXPECT_TRUE(bound.Matches(set));
  EXPECT_TRUE(BoundPredicate(Predicate{}).Matches(set));
}

}  // namespace
}  // namespace propeller::index
