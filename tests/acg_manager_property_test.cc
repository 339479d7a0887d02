// Property tests: AcgManager invariants under random delta streams, and
// wire-format robustness against corrupted payloads.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <type_traits>

#include "acg/acg_manager.h"
#include "common/rng.h"
#include "core/proto.h"

namespace propeller::acg {
namespace {

// gtest names an unprinted parameter by its raw bytes, so the struct has no
// padding (stack garbage would leak into the test name): `deltas` is 64-bit,
// which prints the same bytes as an int plus zeroed padding.
struct StreamParam {
  uint64_t seed;
  int64_t deltas;
  uint64_t file_space;
  uint64_t cluster_target;
  uint64_t split_threshold;
};
static_assert(std::has_unique_object_representations_v<StreamParam>);

class AcgManagerPropertyTest : public ::testing::TestWithParam<StreamParam> {};

// Invariants after any sequence of deltas and split passes:
//  (1) every file maps to exactly one live group;
//  (2) group membership sets partition the file set (sizes sum up);
//  (3) no group exceeds the split threshold after a split pass;
//  (4) intra+cross weight equals the total weight ever ingested.
TEST_P(AcgManagerPropertyTest, InvariantsHoldUnderRandomStreams) {
  const StreamParam p = GetParam();
  AcgPolicy policy;
  policy.cluster_target = p.cluster_target;
  policy.split_threshold = p.split_threshold;
  policy.merge_limit = p.split_threshold;
  AcgManager mgr(policy);
  Rng rng(p.seed);

  uint64_t ingested_weight = 0;
  std::set<FileId> all_files;

  for (int d = 0; d < p.deltas; ++d) {
    Acg delta;
    int edges = static_cast<int>(rng.Uniform(40)) + 1;
    for (int e = 0; e < edges; ++e) {
      FileId a = rng.Uniform(p.file_space) + 1;
      FileId b = rng.Uniform(p.file_space) + 1;
      uint64_t w = 1 + rng.Uniform(5);
      if (a == b) continue;
      delta.AddEdge(a, b, w);
      ingested_weight += w;
      all_files.insert(a);
      all_files.insert(b);
    }
    // Occasionally vertex-only files (creations).
    if (rng.Bernoulli(0.3)) {
      FileId f = rng.Uniform(p.file_space) + 1;
      delta.AddVertex(f);
      all_files.insert(f);
    }
    mgr.ApplyDelta(delta);
    if (d % 7 == 0) mgr.SplitOversizedGroups();
  }
  mgr.SplitOversizedGroups();

  // (1) + (2): group sizes partition the mapped files.
  EXPECT_EQ(mgr.NumFiles(), all_files.size());
  uint64_t sum = 0;
  for (GroupId g : mgr.Groups()) sum += mgr.GroupSize(g);
  EXPECT_EQ(sum, all_files.size());
  for (FileId f : all_files) {
    auto g = mgr.GroupOf(f);
    ASSERT_TRUE(g.has_value()) << "file " << f << " unmapped";
    EXPECT_GT(mgr.GroupSize(*g), 0u);
  }

  // (3): splits enforce the threshold (a single split halves, so allow
  // one round's slack of threshold itself).
  for (GroupId g : mgr.Groups()) {
    EXPECT_LE(mgr.GroupSize(g), p.split_threshold)
        << "group " << g << " oversized after split pass";
  }

  // (4): weight conservation.
  EXPECT_EQ(mgr.IntraGroupWeight() + mgr.CrossGroupWeight(), ingested_weight);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, AcgManagerPropertyTest,
    ::testing::Values(StreamParam{1, 50, 200, 20, 60},
                      StreamParam{2, 100, 500, 50, 120},
                      StreamParam{3, 200, 100, 10, 30},
                      StreamParam{4, 30, 2000, 100, 400},
                      StreamParam{5, 150, 50, 5, 25},
                      StreamParam{6, 80, 300, 1, 40}));  // tiny fill groups

TEST(AcgManagerPropertyTest, SplitPreservesMembershipExactly) {
  AcgPolicy policy;
  policy.split_threshold = 40;
  policy.cluster_target = 1000;
  policy.merge_limit = 1000;
  AcgManager mgr(policy);
  Acg delta;
  for (FileId i = 0; i < 100; ++i) delta.AddEdge(i + 1, (i + 1) % 100 + 1, 2);
  mgr.ApplyDelta(delta);

  std::set<FileId> before;
  for (GroupId g : mgr.Groups()) {
    EXPECT_EQ(mgr.GroupSize(g), 100u);
  }
  for (FileId f = 1; f <= 100; ++f) before.insert(f);

  auto plans = mgr.SplitOversizedGroups();
  ASSERT_FALSE(plans.empty());
  std::set<FileId> after;
  for (FileId f = 1; f <= 100; ++f) {
    ASSERT_TRUE(mgr.GroupOf(f).has_value());
    after.insert(f);
  }
  EXPECT_EQ(before, after);
}

}  // namespace
}  // namespace propeller::acg

namespace propeller::core {
namespace {

// Fuzz: truncations and bit flips of valid payloads must decode to an
// error (or to a *valid* alternative message), never crash.
TEST(ProtoFuzzTest, TruncationsNeverCrash) {
  StageUpdatesRequest req;
  req.group = 42;
  req.now_s = 1.5;
  for (FileId f = 1; f <= 5; ++f) {
    FileUpdate u;
    u.file = f;
    u.attrs.Set("size", index::AttrValue(int64_t{100}));
    u.attrs.Set("path", index::AttrValue("/a/b/c"));
    req.updates.push_back(std::move(u));
  }
  std::string payload = Encode(req);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    auto r = Decode<StageUpdatesRequest>(payload.substr(0, cut));
    EXPECT_FALSE(r.ok()) << "truncation at " << cut << " decoded";
  }
}

TEST(ProtoFuzzTest, BitFlipsNeverCrash) {
  ResolveSearchResponse resp;
  resp.targets = {{10, {1, 2, 3}}, {11, {4}}};
  std::string payload = Encode(resp);
  Rng rng(9);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = payload;
    size_t pos = rng.Uniform(mutated.size());
    mutated[pos] = static_cast<char>(rng.Next());
    auto r = Decode<ResolveSearchResponse>(mutated);
    // Either rejected or decoded into *some* structurally valid message;
    // both are fine — the requirement is no crash/UB.
    (void)r;
  }
}

TEST(ProtoFuzzTest, AcgDeltaRejectsZeroWeightEdges) {
  BinaryWriter w;
  w.PutU64(0);  // no vertices
  w.PutU64(1);  // one edge
  w.PutU64(1);
  w.PutU64(2);
  w.PutU64(0);  // weight 0: invalid
  BinaryReader r(w.data());
  acg::Acg out;
  EXPECT_FALSE(acg::Acg::Deserialize(r, out).ok());
}

}  // namespace
}  // namespace propeller::core
