#include "core/query_parser.h"

#include <gtest/gtest.h>

#include <cmath>

namespace propeller::core {
namespace {

using index::CmpOp;

constexpr int64_t kNow = 1'000'000;

TEST(QueryParserTest, PaperQueryOne) {
  // "size > 1GB & mtime < 1 day"
  auto q = ParseQuery("size>1g & mtime<1day", kNow);
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->predicate.terms.size(), 2u);
  EXPECT_EQ(q->predicate.terms[0].attr, "size");
  EXPECT_EQ(q->predicate.terms[0].op, CmpOp::kGt);
  EXPECT_EQ(q->predicate.terms[0].value.as_int(), 1024LL * 1024 * 1024);
  // "modified < 1 day ago" flips around now.
  EXPECT_EQ(q->predicate.terms[1].attr, "mtime");
  EXPECT_EQ(q->predicate.terms[1].op, CmpOp::kGt);
  EXPECT_EQ(q->predicate.terms[1].value.as_int(), kNow - 86400);
}

TEST(QueryParserTest, PaperQueryTwo) {
  // keyword "firefox" & mtime < 1 week
  auto q = ParseQuery("keyword:firefox & mtime<1week", kNow);
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->predicate.terms.size(), 2u);
  EXPECT_EQ(q->predicate.terms[0].attr, "path");
  EXPECT_EQ(q->predicate.terms[0].op, CmpOp::kContainsWord);
  EXPECT_EQ(q->predicate.terms[0].value.as_string(), "firefox");
  EXPECT_EQ(q->predicate.terms[1].value.as_int(), kNow - 7 * 86400);
}

TEST(QueryParserTest, QueryDirectoryForm) {
  auto q = ParseQuery("/foo/bar/?size>1m", kNow);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->directory, "/foo/bar");
  // size term + path-component term for the directory leaf.
  ASSERT_EQ(q->predicate.terms.size(), 2u);
  EXPECT_EQ(q->predicate.terms[0].value.as_int(), 1024 * 1024);
  EXPECT_EQ(q->predicate.terms[1].op, CmpOp::kContainsWord);
  EXPECT_EQ(q->predicate.terms[1].value.as_string(), "bar");
}

TEST(QueryParserTest, OperatorsAndSuffixes) {
  auto q = ParseQuery("size>=16m && uid=7 & score<0.5 & name=\"a b\"", kNow);
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->predicate.terms.size(), 4u);
  EXPECT_EQ(q->predicate.terms[0].op, CmpOp::kGe);
  EXPECT_EQ(q->predicate.terms[0].value.as_int(), 16 * 1024 * 1024);
  EXPECT_EQ(q->predicate.terms[1].op, CmpOp::kEq);
  EXPECT_EQ(q->predicate.terms[2].value.as_double(), 0.5);
  EXPECT_EQ(q->predicate.terms[3].value.as_string(), "a b");
}

TEST(QueryParserTest, RejectsBadSyntax) {
  EXPECT_FALSE(ParseQuery("", kNow).ok());
  EXPECT_FALSE(ParseQuery("size", kNow).ok());
  EXPECT_FALSE(ParseQuery(">5", kNow).ok());
  EXPECT_FALSE(ParseQuery("size>", kNow).ok());
  EXPECT_FALSE(ParseQuery("keyword:", kNow).ok());
  EXPECT_FALSE(ParseQuery("mtime=1day", kNow).ok()) << "age needs an ordering op";
}

// NaN is unordered, so as a bound it would match every file (=) or none
// (>); the parser refuses it.  Infinities are ordered and stay legal.
TEST(QueryParserTest, RejectsNanButAcceptsInfinity) {
  for (const char* text : {"size=nan", "size>nan", "size<-nan", "size>=NAN"}) {
    auto q = ParseQuery(text, kNow);
    ASSERT_FALSE(q.ok()) << text;
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument) << text;
  }
  auto q = ParseQuery("size<inf", kNow);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->predicate.terms.size(), 1u);
  EXPECT_TRUE(q->predicate.terms[0].value.is_double());
  EXPECT_TRUE(std::isinf(q->predicate.terms[0].value.as_double()));
}

TEST(QueryParserTest, BareStringValue) {
  auto q = ParseQuery("owner=alice", kNow);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->predicate.terms[0].value.as_string(), "alice");
}

}  // namespace
}  // namespace propeller::core
