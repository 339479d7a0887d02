// Concurrency coverage for the wall-clock parallel execution engine.
//
// Two properties are pinned down:
//   1. Determinism — with parallel execution enabled, search results AND
//      simulated costs are bit-identical to the serial engine (the paper
//      figures must not depend on the execution mode).
//   2. Safety — multiple real client threads searching and staging updates
//      against the same cluster race nothing: every mid-flight search sees
//      between the pre-update and post-update result sets, and the final
//      state matches a serial reference run.  Run this one under
//      ThreadSanitizer (-DPROPELLER_SANITIZE=thread, see README.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "core/query_parser.h"
#include "workload/dataset.h"

namespace propeller::core {
namespace {

constexpr uint64_t kBaseFiles = 3000;
constexpr uint64_t kExtraFiles = 600;
constexpr char kQuery[] = "size>16m";

ClusterConfig MakeConfig(bool parallel) {
  ClusterConfig cfg;
  cfg.index_nodes = 4;
  cfg.parallel_execution = parallel;
  cfg.client.fanout_threads = 4;
  cfg.index_node.search_threads = 4;
  cfg.master.acg_policy.cluster_target = 250;
  cfg.master.acg_policy.merge_limit = 250;
  return cfg;
}

workload::DatasetSpec Spec() {
  workload::DatasetSpec spec;
  spec.num_files = kBaseFiles + kExtraFiles;
  // Make the query land a healthy fraction of files in both id ranges.
  spec.large_file_fraction = 0.25;
  return spec;
}

std::unique_ptr<PropellerCluster> MakeLoadedCluster(bool parallel) {
  auto cluster = std::make_unique<PropellerCluster>(MakeConfig(parallel));
  auto& client = cluster->client();
  EXPECT_TRUE(
      client.CreateIndex({"by_size", index::IndexType::kBTree, {"size"}}).ok());
  auto load = client.BatchUpdate(workload::SyntheticRows(1, kBaseFiles, Spec()),
                                 cluster->now());
  EXPECT_TRUE(load.ok());
  cluster->AdvanceTime(6.0);
  return cluster;
}

std::set<index::FileId> SearchSet(PropellerClient& client) {
  auto parsed = ParseQuery(kQuery, 1'000'000);
  EXPECT_TRUE(parsed.ok());
  auto out = client.Search(parsed->predicate);
  EXPECT_TRUE(out.ok());
  return {out->files.begin(), out->files.end()};
}

TEST(ParallelSearchTest, ParallelModeIsBitIdenticalToSerial) {
  auto serial = MakeLoadedCluster(false);
  auto parallel = MakeLoadedCluster(true);

  auto parsed = ParseQuery(kQuery, 1'000'000);
  ASSERT_TRUE(parsed.ok());
  for (int round = 0; round < 3; ++round) {
    auto s = serial->client().Search(parsed->predicate);
    auto p = parallel->client().Search(parsed->predicate);
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(s->files, p->files);
    EXPECT_EQ(s->nodes_queried, p->nodes_queried);
    // Bit-identical simulated latency, not just approximately equal.
    EXPECT_EQ(s->cost.seconds(), p->cost.seconds());
  }
}

TEST(ParallelSearchTest, SegmentedModeIsBitIdenticalAcrossExecutionModes) {
  // Snapshot searches against immutable segments have no execution-order
  // freedom to hide in either: serial and parallel engines must agree on
  // results AND simulated costs with the segmented index on, across
  // staged-overlay reads, seals, and merges.
  auto build = [](bool parallel) {
    ClusterConfig cfg = MakeConfig(parallel);
    cfg.index_node.segmented_index = true;
    auto cluster = std::make_unique<PropellerCluster>(cfg);
    EXPECT_TRUE(
        cluster->client()
            .CreateIndex({"by_size", index::IndexType::kBTree, {"size"}})
            .ok());
    EXPECT_TRUE(cluster->client()
                    .BatchUpdate(workload::SyntheticRows(1, kBaseFiles, Spec()),
                                 cluster->now())
                    .ok());
    return cluster;
  };
  auto serial = build(false);
  auto parallel = build(true);

  auto parsed = ParseQuery(kQuery, 1'000'000);
  ASSERT_TRUE(parsed.ok());
  auto step = [&](PropellerCluster& cluster, int round) {
    if (round > 0) {
      // Fresh updates each round: searches overlay the memtable, then the
      // commit-timeout tick seals a new segment (and eventually merges).
      EXPECT_TRUE(cluster.client()
                      .BatchUpdate(workload::SyntheticRows(
                                       kBaseFiles + round * kExtraFiles + 1,
                                       kExtraFiles, Spec()),
                                   cluster.now())
                      .ok());
      cluster.AdvanceTime(6.0);
    }
    return cluster.client().Search(parsed->predicate);
  };
  for (int round = 0; round < 4; ++round) {
    auto s = step(*serial, round);
    auto p = step(*parallel, round);
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(s->files, p->files) << "round " << round;
    EXPECT_EQ(s->nodes_queried, p->nodes_queried) << "round " << round;
    EXPECT_EQ(s->cost.seconds(), p->cost.seconds()) << "round " << round;
  }
}

TEST(ParallelSearchTest, DefaultRetryPolicyIsCostNeutralWithoutFaults) {
  // Regression for the resilience layer: with no fault plan installed and
  // the retry policy at its defaults, every result and simulated cost must
  // be bit-identical to a no-retry configuration — retries only engage on
  // kUnavailable, jitter is only drawn on an actual retry, and the
  // recovery journal is off by default.
  auto build = [](int max_attempts) {
    ClusterConfig cfg = MakeConfig(false);
    cfg.client.retry.max_attempts = max_attempts;
    auto cluster = std::make_unique<PropellerCluster>(cfg);
    EXPECT_TRUE(
        cluster->client()
            .CreateIndex({"by_size", index::IndexType::kBTree, {"size"}})
            .ok());
    auto load = cluster->client().BatchUpdate(
        workload::SyntheticRows(1, kBaseFiles, Spec()), cluster->now());
    EXPECT_TRUE(load.ok());
    cluster->AdvanceTime(6.0);
    return std::make_pair(std::move(cluster), load->seconds());
  };
  auto [defaults, d_load] = build(ClientConfig{}.retry.max_attempts);
  auto [no_retry, nr_load] = build(1);
  EXPECT_EQ(d_load, nr_load);

  auto parsed = ParseQuery(kQuery, 1'000'000);
  ASSERT_TRUE(parsed.ok());
  for (int round = 0; round < 3; ++round) {
    auto d = defaults->client().Search(parsed->predicate);
    auto n = no_retry->client().Search(parsed->predicate);
    ASSERT_TRUE(d.ok());
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(d->files, n->files);
    EXPECT_EQ(d->cost.seconds(), n->cost.seconds());
    EXPECT_FALSE(d->partial);
  }
}

TEST(ParallelSearchTest, BatchUpdateCostsMatchSerialExactly) {
  auto serial = MakeLoadedCluster(false);
  auto parallel = MakeLoadedCluster(true);

  auto extra = workload::SyntheticRows(kBaseFiles + 1, kExtraFiles, Spec());
  auto s = serial->client().BatchUpdate(extra, serial->now());
  auto p = parallel->client().BatchUpdate(std::move(extra), parallel->now());
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(s->seconds(), p->seconds());
  EXPECT_EQ(SearchSet(serial->client()), SearchSet(parallel->client()));
}

TEST(ParallelSearchTest, ConcurrentClientsMatchSerialRun) {
  // SyntheticRows streams one RNG per call, so generate the extra rows once
  // and hand out slices — chunked regeneration would change the attributes.
  const std::vector<index::FileUpdate> extra_rows =
      workload::SyntheticRows(kBaseFiles + 1, kExtraFiles, Spec());

  // Serial reference: base + extra rows, fully committed.
  auto reference = MakeLoadedCluster(false);
  ASSERT_TRUE(
      reference->client().BatchUpdate(extra_rows, reference->now()).ok());
  reference->AdvanceTime(6.0);
  const std::set<index::FileId> expected_final = SearchSet(reference->client());

  // System under test: parallel engine, real threads.
  auto cluster = MakeLoadedCluster(true);
  const std::set<index::FileId> expected_base = SearchSet(cluster->client());
  ASSERT_TRUE(expected_base.size() < expected_final.size())
      << "extra rows must add matches or the test is vacuous";

  constexpr int kStagers = 2;
  constexpr int kSearchers = 3;
  constexpr int kSearchRounds = 8;
  // Every thread gets its own client; AddClient is not thread-safe, so
  // create them all up front.
  std::vector<PropellerClient*> stage_clients;
  std::vector<PropellerClient*> search_clients;
  for (int i = 0; i < kStagers; ++i) stage_clients.push_back(&cluster->AddClient());
  for (int i = 0; i < kSearchers; ++i)
    search_clients.push_back(&cluster->AddClient());

  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  const double stage_now = cluster->now();
  for (int t = 0; t < kStagers; ++t) {
    threads.emplace_back([&, t] {
      // Disjoint row slices so stagers never write the same file.
      const uint64_t slice = kExtraFiles / kStagers;
      const uint64_t begin = static_cast<uint64_t>(t) * slice;
      const uint64_t end =
          t == kStagers - 1 ? kExtraFiles : begin + slice;
      // Stage in several small batches to maximize interleaving.
      for (uint64_t off = begin; off < end; off += 100) {
        uint64_t n = std::min<uint64_t>(100, end - off);
        std::vector<index::FileUpdate> batch(
            extra_rows.begin() + static_cast<long>(off),
            extra_rows.begin() + static_cast<long>(off + n));
        auto r = stage_clients[t]->BatchUpdate(std::move(batch), stage_now);
        if (!r.ok()) ++violations;
      }
    });
  }
  for (int t = 0; t < kSearchers; ++t) {
    threads.emplace_back([&, t] {
      auto parsed = ParseQuery(kQuery, 1'000'000);
      for (int round = 0; round < kSearchRounds; ++round) {
        auto out = search_clients[t]->Search(parsed->predicate);
        if (!out.ok()) {
          ++violations;
          continue;
        }
        std::set<index::FileId> got(out->files.begin(), out->files.end());
        // Monotonic window: every base match is visible (base data is
        // committed and never deleted) and nothing outside the final set
        // can ever appear.
        if (!std::includes(got.begin(), got.end(), expected_base.begin(),
                           expected_base.end())) {
          ++violations;
        }
        if (!std::includes(expected_final.begin(), expected_final.end(),
                           got.begin(), got.end())) {
          ++violations;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(violations.load(), 0);

  // Quiesced, the parallel cluster must agree with the serial reference.
  cluster->AdvanceTime(6.0);
  EXPECT_EQ(SearchSet(cluster->client()), expected_final);
}

}  // namespace
}  // namespace propeller::core
