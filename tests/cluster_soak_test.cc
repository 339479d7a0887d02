// Randomized end-to-end soak: interleaves updates, deletes, ACG flushes
// (which trigger merges and splits), timeout commits, node crashes, and a
// master failover — checking after every phase that search results match
// a reference model exactly.  This is the strongest consistency guarantee
// the paper claims ("file-search results must be strongly consistent with
// the file content") under the messiest schedule we can generate.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <type_traits>

#include "common/rng.h"
#include "core/cluster.h"

namespace propeller::core {
namespace {

using index::AttrValue;
using index::CmpOp;

// gtest names an unprinted parameter by its raw bytes, so the struct has no
// padding (stack garbage would leak into the test name): `rounds` is 64-bit,
// which prints the same bytes as an int plus zeroed padding.
struct SoakParam {
  uint64_t seed;
  int64_t rounds;
  uint64_t file_space;
  uint64_t split_threshold;
};
static_assert(std::has_unique_object_representations_v<SoakParam>);

class ClusterSoakTest : public ::testing::TestWithParam<SoakParam> {};

TEST_P(ClusterSoakTest, SearchAlwaysMatchesModel) {
  const SoakParam p = GetParam();
  ClusterConfig cfg;
  cfg.index_nodes = 4;
  cfg.master.acg_policy.cluster_target = 25;
  cfg.master.acg_policy.split_threshold = p.split_threshold;
  cfg.master.acg_policy.merge_limit = p.split_threshold;
  // Synchronous metadata replication: flush (and therefore replicate to
  // the standby) after every mutation, so the mid-run failover is
  // lossless and exact consistency is checkable.  The lossy
  // flush-interval mode is exercised by failover_test.cc.
  cfg.master.metadata_flush_interval = 1;
  PropellerCluster cluster(cfg);
  cluster.EnableStandbyMaster();
  auto& client = cluster.client();
  ASSERT_TRUE(
      client.CreateIndex({"by_size", index::IndexType::kBTree, {"size"}}).ok());

  Rng rng(p.seed);
  std::map<FileId, int64_t> model;  // file -> size
  bool failed_over = false;

  auto check = [&](const char* when, int round) {
    int64_t threshold = rng.UniformInt(0, 1000);
    Predicate pred;
    pred.And("size", CmpOp::kGt, AttrValue(threshold));
    auto r = client.Search(pred, "by_size");
    ASSERT_TRUE(r.ok()) << when << " round " << round << ": "
                        << r.status().ToString();
    std::vector<FileId> expect;
    for (auto [f, size] : model) {
      if (size > threshold) expect.push_back(f);
    }
    ASSERT_EQ(r->files, expect) << when << " round " << round
                                << " threshold " << threshold;
  };

  for (int round = 0; round < p.rounds; ++round) {
    // 1. A batch of upserts and deletes.
    std::vector<FileUpdate> batch;
    int ops = static_cast<int>(rng.Uniform(20)) + 1;
    for (int i = 0; i < ops; ++i) {
      FileId f = rng.Uniform(p.file_space) + 1;
      if (rng.Bernoulli(0.25) && model.count(f) != 0u) {
        FileUpdate del;
        del.file = f;
        del.is_delete = true;
        batch.push_back(std::move(del));
        model.erase(f);
      } else {
        int64_t size = rng.UniformInt(0, 1000);
        FileUpdate u;
        u.file = f;
        u.attrs.Set("size", AttrValue(size));
        batch.push_back(std::move(u));
        model[f] = size;
      }
    }
    ASSERT_TRUE(client.BatchUpdate(std::move(batch), cluster.now()).ok());

    // 2. Occasionally ship causal edges among known files -> merges/splits.
    if (rng.Bernoulli(0.4) && model.size() >= 2) {
      acg::Acg delta;
      for (int e = 0; e < 5; ++e) {
        auto pick = [&] {
          auto it = model.begin();
          std::advance(it, static_cast<long>(rng.Uniform(model.size())));
          return it->first;
        };
        delta.AddEdge(pick(), pick(), 1 + rng.Uniform(4));
      }
      FlushAcgRequest freq;
      freq.delta = delta;
      auto call = cluster.transport().Call(PropellerCluster::kFirstClientId,
                                           PropellerCluster::kMasterId,
                                           "mn.flush_acg", Encode(freq));
      ASSERT_TRUE(call.status.ok());
    }

    // 3. Occasionally let the commit timeout fire.
    if (rng.Bernoulli(0.3)) cluster.AdvanceTime(6.0);

    // 4. Occasionally crash-and-recover a random index node.
    if (rng.Bernoulli(0.15)) {
      size_t victim = rng.Uniform(cluster.num_index_nodes());
      ASSERT_TRUE(cluster.index_node(victim).CrashAndRecover().ok());
    }

    // 5. Fail over to the standby once, mid-run.
    if (!failed_over && round == p.rounds / 2) {
      ASSERT_TRUE(cluster.FailoverToStandby().ok());
      failed_over = true;
    }

    check("after round", round);
  }

  // Final sanity: a full sweep matches the model.
  Predicate all;
  all.And("size", CmpOp::kGe, AttrValue(int64_t{0}));
  auto r = client.Search(all, "by_size");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->files.size(), model.size());
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ClusterSoakTest,
    ::testing::Values(SoakParam{1, 60, 80, 60}, SoakParam{2, 60, 300, 100},
                      SoakParam{3, 40, 40, 30},   // churn-heavy, tiny groups
                      SoakParam{4, 80, 150, 50},
                      SoakParam{5, 50, 500, 200}));

}  // namespace
}  // namespace propeller::core
