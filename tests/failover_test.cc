// Master high-availability (extension): standby replication + failover.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/cluster.h"

namespace propeller::core {
namespace {

using index::AttrValue;
using index::CmpOp;

FileUpdate Upsert(FileId f, int64_t size) {
  FileUpdate u;
  u.file = f;
  u.attrs.Set("size", AttrValue(size));
  u.attrs.Set("path", AttrValue("/d/f"));
  return u;
}

ClusterConfig Config() {
  ClusterConfig cfg;
  cfg.index_nodes = 3;
  cfg.master.acg_policy.cluster_target = 10;
  cfg.master.metadata_flush_interval = 1'000'000;  // only explicit flushes
  return cfg;
}

TEST(FailoverTest, FailoverWithoutStandbyRefused) {
  PropellerCluster cluster(Config());
  EXPECT_EQ(cluster.FailoverToStandby().code(), StatusCode::kFailedPrecondition);
}

TEST(FailoverTest, SearchSurvivesFailover) {
  PropellerCluster cluster(Config());
  auto& client = cluster.client();
  ASSERT_TRUE(client.CreateIndex({"by_size", index::IndexType::kBTree, {"size"}})
                  .ok());
  std::vector<FileUpdate> updates;
  for (FileId f = 1; f <= 50; ++f) updates.push_back(Upsert(f, 100));
  ASSERT_TRUE(client.BatchUpdate(std::move(updates), cluster.now()).ok());

  // Standby enabled after the data exists: seeding flush captures it all.
  cluster.EnableStandbyMaster();
  ASSERT_TRUE(cluster.FailoverToStandby().ok());

  Predicate p;
  p.And("size", CmpOp::kEq, AttrValue(int64_t{100}));
  auto r = client.Search(p, "by_size");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->files.size(), 50u) << "routing lost across failover";
}

TEST(FailoverTest, UpdatesAfterFailoverRouteToExistingGroups) {
  PropellerCluster cluster(Config());
  auto& client = cluster.client();
  ASSERT_TRUE(client.CreateIndex({"by_size", index::IndexType::kBTree, {"size"}})
                  .ok());
  std::vector<FileUpdate> updates;
  for (FileId f = 1; f <= 20; ++f) updates.push_back(Upsert(f, 1));
  ASSERT_TRUE(client.BatchUpdate(std::move(updates), cluster.now()).ok());
  cluster.EnableStandbyMaster();

  uint64_t groups_before = cluster.master().NumGroups();
  ASSERT_TRUE(cluster.FailoverToStandby().ok());

  // Re-updating known files must not create fresh groups.
  std::vector<FileUpdate> again;
  for (FileId f = 1; f <= 20; ++f) again.push_back(Upsert(f, 2));
  ASSERT_TRUE(client.BatchUpdate(std::move(again), cluster.now()).ok());
  EXPECT_EQ(cluster.master().NumGroups(), groups_before);

  Predicate p;
  p.And("size", CmpOp::kEq, AttrValue(int64_t{2}));
  auto r = client.Search(p, "by_size");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->files.size(), 20u);
}

TEST(FailoverTest, MutationsSinceLastFlushAreRederived) {
  PropellerCluster cluster(Config());
  auto& client = cluster.client();
  ASSERT_TRUE(client.CreateIndex({"by_size", index::IndexType::kBTree, {"size"}})
                  .ok());
  cluster.EnableStandbyMaster();  // flush point: catalog only

  // These placements happen after the last replicated flush.
  std::vector<FileUpdate> updates;
  for (FileId f = 1; f <= 10; ++f) updates.push_back(Upsert(f, 5));
  ASSERT_TRUE(client.BatchUpdate(std::move(updates), cluster.now()).ok());

  ASSERT_TRUE(cluster.FailoverToStandby().ok());
  // The standby does not know files 1..10; new updates re-place them and
  // search still returns each file exactly once (client-side dedup plus
  // delete-on-migrate keep results consistent).
  std::vector<FileUpdate> again;
  for (FileId f = 1; f <= 10; ++f) again.push_back(Upsert(f, 6));
  ASSERT_TRUE(client.BatchUpdate(std::move(again), cluster.now()).ok());

  Predicate p;
  p.And("size", CmpOp::kGe, AttrValue(int64_t{5}));
  auto r = client.Search(p, "by_size");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->files.size(), 10u);
}

TEST(FailoverTest, CatalogSurvivesFailover) {
  PropellerCluster cluster(Config());
  auto& client = cluster.client();
  ASSERT_TRUE(client.CreateIndex({"by_size", index::IndexType::kBTree, {"size"}})
                  .ok());
  cluster.EnableStandbyMaster();
  ASSERT_TRUE(cluster.FailoverToStandby().ok());
  // The replicated catalog still rejects duplicates and serves lookups.
  auto dup = client.CreateIndex({"by_size", index::IndexType::kBTree, {"size"}});
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  ASSERT_EQ(cluster.master().Catalog().size(), 1u);
}

// An unreplicated master must restore its load view from the image:
// placement right after a failover (before any heartbeat refreshes the
// loads) still goes to the less-loaded node.
TEST(FailoverTest, FailoverKeepsNodeLoads) {
  ClusterConfig cfg = Config();
  cfg.index_nodes = 2;
  cfg.master.acg_policy.cluster_target = 1;  // one group per new file
  PropellerCluster cluster(cfg);
  auto& client = cluster.client();
  ASSERT_TRUE(client.CreateIndex({"by_size", index::IndexType::kBTree, {"size"}})
                  .ok());

  // Four files, each opening its own group.
  const std::vector<FileId> files = {1, 2, 3, 4};
  // Three groups alternate across the two nodes: loads 2 and 1.
  std::vector<FileUpdate> updates;
  for (size_t i = 0; i < 3; ++i) updates.push_back(Upsert(files[i], 1));
  ASSERT_TRUE(client.BatchUpdate(std::move(updates), cluster.now()).ok());
  std::map<NodeId, int> load;
  for (size_t i = 0; i < 3; ++i) {
    auto group = cluster.master().acg_manager().GroupOf(files[i]);
    ASSERT_TRUE(group.has_value());
    ++load[cluster.master().NodeOfGroup(*group).value()];
  }
  ASSERT_EQ(load.size(), 2u);
  const NodeId lighter =
      load.begin()->second < load.rbegin()->second ? load.begin()->first
                                                   : load.rbegin()->first;
  ASSERT_EQ(load[lighter], 1);

  cluster.EnableStandbyMaster();
  ASSERT_TRUE(cluster.FailoverToStandby().ok());

  // No time passes, so no heartbeat refreshes the restored load view.
  std::vector<FileUpdate> next = {Upsert(files[3], 1)};
  ASSERT_TRUE(client.BatchUpdate(std::move(next), cluster.now()).ok());
  auto group = cluster.master().acg_manager().GroupOf(files[3]);
  ASSERT_TRUE(group.has_value());
  EXPECT_EQ(cluster.master().NodeOfGroup(*group).value(), lighter)
      << "restored master placed the new group ignoring node loads";
}

}  // namespace
}  // namespace propeller::core
