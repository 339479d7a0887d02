#include "graph/partitioner.h"

#include <gtest/gtest.h>

#include <type_traits>

#include "common/rng.h"
#include "graph/components.h"

namespace propeller::graph {
namespace {

// Two dense clusters joined by a single light edge: the partitioner must
// find the obvious cut.
WeightedGraph TwoClusters(VertexId per_side, Weight intra_w, Weight bridge_w,
                          uint64_t seed) {
  WeightedGraph g(per_side * 2);
  Rng rng(seed);
  auto connect_clique_ish = [&](VertexId base) {
    for (VertexId i = 0; i < per_side; ++i) {
      // ring + random chords keeps the cluster connected and dense-ish
      g.AddEdge(base + i, base + (i + 1) % per_side, intra_w);
      g.AddEdge(base + i, base + static_cast<VertexId>(rng.Uniform(per_side)),
                intra_w);
    }
  };
  connect_clique_ish(0);
  connect_clique_ish(per_side);
  g.AddEdge(0, per_side, bridge_w);
  return g;
}

TEST(WeightedGraphTest, AccumulatesParallelEdges) {
  WeightedGraph g(3);
  g.AddEdge(0, 1, 2);
  g.AddEdge(1, 0, 3);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.TotalEdgeWeight(), 5u);
  ASSERT_EQ(g.Neighbors(0).size(), 1u);
  EXPECT_EQ(g.Neighbors(0)[0].weight, 5u);
}

TEST(WeightedGraphTest, IgnoresSelfLoops) {
  WeightedGraph g(2);
  g.AddEdge(0, 0, 5);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.TotalEdgeWeight(), 0u);
}

TEST(ConnectedComponentsTest, FindsComponents) {
  WeightedGraph g(6);
  g.AddEdge(0, 1, 1);
  g.AddEdge(1, 2, 1);
  g.AddEdge(3, 4, 1);
  ComponentInfo info = ConnectedComponents(g);
  EXPECT_EQ(info.num_components, 3u);
  EXPECT_EQ(info.component_of[0], info.component_of[2]);
  EXPECT_EQ(info.component_of[3], info.component_of[4]);
  EXPECT_NE(info.component_of[0], info.component_of[3]);
  EXPECT_NE(info.component_of[5], info.component_of[0]);
}

TEST(MultilevelBisectTest, FindsObviousCut) {
  WeightedGraph g = TwoClusters(/*per_side=*/50, /*intra_w=*/10,
                                /*bridge_w=*/1, /*seed=*/7);
  Bisection b = MultilevelBisect(g);
  EXPECT_EQ(b.cut_weight, 1u);
  EXPECT_EQ(b.side_weight[0], 50u);
  EXPECT_EQ(b.side_weight[1], 50u);
}

TEST(MultilevelBisectTest, HandlesTinyGraphs) {
  WeightedGraph g0(0);
  EXPECT_EQ(MultilevelBisect(g0).side.size(), 0u);

  WeightedGraph g1(1);
  Bisection b1 = MultilevelBisect(g1);
  ASSERT_EQ(b1.side.size(), 1u);
  EXPECT_EQ(b1.cut_weight, 0u);

  WeightedGraph g2(2);
  g2.AddEdge(0, 1, 3);
  Bisection b2 = MultilevelBisect(g2);
  EXPECT_EQ(b2.side_weight[0], 1u);
  EXPECT_EQ(b2.side_weight[1], 1u);
  EXPECT_EQ(b2.cut_weight, 3u);
}

TEST(MultilevelBisectTest, DisconnectedComponentsZeroCut) {
  // Two disjoint rings of equal size: a perfect bisection has zero cut.
  WeightedGraph g(200);
  for (VertexId i = 0; i < 100; ++i) g.AddEdge(i, (i + 1) % 100, 5);
  for (VertexId i = 0; i < 100; ++i) g.AddEdge(100 + i, 100 + (i + 1) % 100, 5);
  Bisection b = MultilevelBisect(g);
  EXPECT_EQ(b.cut_weight, 0u);
  EXPECT_EQ(b.side_weight[0], 100u);
}

// gtest names an unprinted parameter by its raw bytes, so the struct has no
// padding (stack garbage would leak into the test name): `n` is widened to
// 64 bits, which prints the same bytes as a VertexId plus zeroed padding.
struct RandomGraphParam {
  uint64_t n;
  uint64_t edges;
  uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<RandomGraphParam>);

class BisectPropertyTest : public ::testing::TestWithParam<RandomGraphParam> {};

// Property sweep: on arbitrary random graphs the bisection must (a) cover
// every vertex, (b) respect the balance bound, (c) report a cut weight that
// matches recomputation, and (d) beat or match the streaming baseline.
TEST_P(BisectPropertyTest, InvariantsHold) {
  const RandomGraphParam p = GetParam();
  Rng rng(p.seed);
  WeightedGraph g(static_cast<VertexId>(p.n));
  for (uint64_t e = 0; e < p.edges; ++e) {
    auto u = static_cast<VertexId>(rng.Uniform(p.n));
    auto v = static_cast<VertexId>(rng.Uniform(p.n));
    g.AddEdge(u, v, 1 + rng.Uniform(9));
  }

  PartitionOptions opts;
  opts.seed = p.seed ^ 0xabcdef;
  Bisection b = MultilevelBisect(g, opts);

  ASSERT_EQ(b.side.size(), p.n);
  Bisection recomputed = EvaluateBisection(g, b.side);
  EXPECT_EQ(recomputed.cut_weight, b.cut_weight);
  EXPECT_EQ(recomputed.side_weight[0], b.side_weight[0]);

  // Balance: within epsilon + slack of one max vertex weight.
  const double total = static_cast<double>(g.TotalVertexWeight());
  const double hi = static_cast<double>(
      std::max(b.side_weight[0], b.side_weight[1]));
  EXPECT_LE(hi, (1.0 + opts.balance_epsilon) * total / 2.0 + 1.0)
      << "imbalance " << b.Imbalance();

  Bisection streaming = StreamingBisect(g, opts);
  EXPECT_LE(b.cut_weight, streaming.cut_weight * 2)
      << "multilevel should not be drastically worse than streaming";
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, BisectPropertyTest,
    ::testing::Values(RandomGraphParam{16, 30, 1}, RandomGraphParam{64, 200, 2},
                      RandomGraphParam{256, 1000, 3},
                      RandomGraphParam{1024, 5000, 4},
                      RandomGraphParam{1024, 512, 5},   // sparse, disconnected
                      RandomGraphParam{4096, 20000, 6},
                      RandomGraphParam{333, 4444, 7},
                      RandomGraphParam{2, 1, 8}));

TEST(MultilevelKwayTest, FourCliquesFourParts) {
  // Four cliques joined in a ring by light edges: 4-way partitioning must
  // recover the cliques.
  WeightedGraph g(80);
  for (VertexId c = 0; c < 4; ++c) {
    for (VertexId i = 0; i < 20; ++i) {
      for (VertexId j = i + 1; j < 20; ++j) {
        g.AddEdge(c * 20 + i, c * 20 + j, 5);
      }
    }
  }
  for (VertexId c = 0; c < 4; ++c) g.AddEdge(c * 20, ((c + 1) % 4) * 20, 1);

  KwayPartition p = MultilevelKway(g, 4);
  EXPECT_EQ(p.cut_weight, 4u);
  for (Weight w : p.part_weight) EXPECT_EQ(w, 20u);
  // Each clique intact.
  for (VertexId c = 0; c < 4; ++c) {
    for (VertexId i = 1; i < 20; ++i) {
      EXPECT_EQ(p.part[c * 20 + i], p.part[c * 20]) << "clique " << c;
    }
  }
}

TEST(MultilevelKwayTest, OddKAndEdgeCases) {
  WeightedGraph g(90);
  for (VertexId i = 0; i + 1 < 90; ++i) g.AddEdge(i, i + 1, 1);
  KwayPartition p3 = MultilevelKway(g, 3);
  ASSERT_EQ(p3.part_weight.size(), 3u);
  for (Weight w : p3.part_weight) {
    EXPECT_GE(w, 25u);
    EXPECT_LE(w, 35u);
  }
  // k=1: everything in part 0, zero cut.
  KwayPartition p1 = MultilevelKway(g, 1);
  EXPECT_EQ(p1.cut_weight, 0u);
  EXPECT_EQ(p1.part_weight[0], 90u);
  // Empty graph.
  WeightedGraph empty(0);
  EXPECT_TRUE(MultilevelKway(empty, 4).part.empty());
  // k > n: parts may be empty but assignment stays valid.
  WeightedGraph tiny(2);
  tiny.AddEdge(0, 1, 1);
  KwayPartition pbig = MultilevelKway(tiny, 8);
  EXPECT_LT(pbig.part[0], 8u);
  EXPECT_LT(pbig.part[1], 8u);
}

TEST(MultilevelKwayTest, CutMatchesRecount) {
  Rng rng(77);
  WeightedGraph g(300);
  for (int e = 0; e < 2000; ++e) {
    g.AddEdge(static_cast<VertexId>(rng.Uniform(300)),
              static_cast<VertexId>(rng.Uniform(300)), 1 + rng.Uniform(5));
  }
  KwayPartition p = MultilevelKway(g, 5);
  Weight cut = 0;
  for (VertexId v = 0; v < 300; ++v) {
    for (const Neighbor& nb : g.Neighbors(v)) {
      if (nb.to > v && p.part[nb.to] != p.part[v]) cut += nb.weight;
    }
  }
  EXPECT_EQ(cut, p.cut_weight);
  Weight total = 0;
  for (Weight w : p.part_weight) total += w;
  EXPECT_EQ(total, g.TotalVertexWeight());
}

TEST(StreamingBisectTest, BalancedOnPathGraph) {
  WeightedGraph g(100);
  for (VertexId i = 0; i + 1 < 100; ++i) g.AddEdge(i, i + 1, 1);
  Bisection b = StreamingBisect(g);
  double total = static_cast<double>(g.TotalVertexWeight());
  EXPECT_LE(std::max(b.side_weight[0], b.side_weight[1]),
            (1.0 + 0.05) * total / 2.0 + 1.0);
}

}  // namespace
}  // namespace propeller::graph
