// Master-driven failure detection and Index Node recovery: heartbeat
// liveness tracking, journal-backed group re-homing, revival semantics,
// and the recovery-event stats surface.
#include <gtest/gtest.h>

#include <string>
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
  return u;
}

IndexSpec SizeIndex() { return {"by_size", index::IndexType::kBTree, {"size"}}; }

ClusterConfig RecoveryConfig(bool journal) {
  ClusterConfig cfg;
  cfg.index_nodes = 4;
  cfg.master.acg_policy.cluster_target = 10;
  cfg.master.acg_policy.split_threshold = 1000;
  cfg.master.acg_policy.merge_limit = 1000;
  cfg.recovery_journal = journal;
  return cfg;
}

Predicate Seed(PropellerCluster& cluster, int n, int64_t size = 7) {
  EXPECT_TRUE(cluster.client().CreateIndex(SizeIndex()).ok());
  std::vector<FileUpdate> updates;
  for (FileId f = 1; f <= static_cast<FileId>(n); ++f) {
    updates.push_back(Upsert(f, size));
  }
  EXPECT_TRUE(cluster.client().BatchUpdate(std::move(updates), cluster.now()).ok());
  Predicate p;
  p.And("size", CmpOp::kEq, AttrValue(size));
  return p;
}

size_t NodeWithGroups(PropellerCluster& cluster) {
  for (size_t i = 0; i < cluster.num_index_nodes(); ++i) {
    if (cluster.index_node(i).NumGroups() > 0) return i;
  }
  ADD_FAILURE() << "no node holds any group";
  return 0;
}

uint64_t CatchUps(IndexNode& node) {
  const obs::MetricsSnapshot snap = node.MetricsSnapshot();
  auto it = snap.counters.find("in.replica.catch_ups");
  return it == snap.counters.end() ? 0 : it->second;
}

// Advances the cluster clock in heartbeat-sized steps.
void Tick(PropellerCluster& cluster, int steps) {
  for (int i = 0; i < steps; ++i) cluster.AdvanceTime(1.0);
}

TEST(RecoveryTest, NodeDeclaredDeadOnlyAfterMissedHeartbeatWindow) {
  PropellerCluster cluster(RecoveryConfig(false));
  Seed(cluster, 40);
  Tick(cluster, 2);  // establish heartbeat history

  size_t victim = NodeWithGroups(cluster);
  NodeId victim_id = cluster.index_node(victim).id();
  cluster.KillIndexNode(victim);

  // Default window: 3 missed 1s heartbeats.  Two seconds of silence is
  // within the window; five is past it.
  Tick(cluster, 2);
  EXPECT_FALSE(cluster.master().IsNodeDead(victim_id))
      << "declared dead too eagerly";
  Tick(cluster, 3);
  EXPECT_TRUE(cluster.master().IsNodeDead(victim_id));
  EXPECT_EQ(cluster.master().DeadNodes(), std::vector<NodeId>{victim_id});
  std::vector<MasterNode::RecoveryEvent> events =
      cluster.master().RecoveryEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].node, victim_id);
}

TEST(RecoveryTest, LiveNodesNeverDeclaredDead) {
  PropellerCluster cluster(RecoveryConfig(false));
  Seed(cluster, 40);
  Tick(cluster, 30);
  for (size_t i = 0; i < cluster.num_index_nodes(); ++i) {
    EXPECT_FALSE(cluster.master().IsNodeDead(cluster.index_node(i).id()));
  }
  EXPECT_TRUE(cluster.master().RecoveryEvents().empty());
}

TEST(RecoveryTest, JournalRecoveryRestoresAllDataAfterPermanentLoss) {
  PropellerCluster cluster(RecoveryConfig(true));
  Predicate p = Seed(cluster, 60);
  Tick(cluster, 2);

  auto before = cluster.client().Search(p, "by_size");
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->files.size(), 60u);

  // Permanent machine loss: unreachable AND wiped.  Only the shared
  // journal can bring its groups back.
  size_t victim = NodeWithGroups(cluster);
  NodeId victim_id = cluster.index_node(victim).id();
  ASSERT_GT(cluster.index_node(victim).NumGroups(), 0u);
  cluster.KillIndexNode(victim, /*wipe=*/true);
  Tick(cluster, 5);  // detector fires and re-homes the groups

  ASSERT_TRUE(cluster.master().IsNodeDead(victim_id));
  auto after = cluster.client().Search(p, "by_size");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->files, before->files)
      << "journal replay must restore every record of the lost node";

  // No group routes to the dead node any more.
  std::vector<MasterNode::RecoveryEvent> events =
      cluster.master().RecoveryEvents();
  ASSERT_EQ(events.size(), 1u);
  const MasterNode::RecoveryEvent& event = events[0];
  EXPECT_GT(event.groups_moved, 0u);
  EXPECT_GT(event.records_restored, 0u);

  ClusterStats stats = cluster.Stats();
  EXPECT_EQ(stats.dead_nodes, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.groups_recovered, event.groups_moved);
  EXPECT_EQ(stats.records_restored, event.records_restored);

  // r = 1 heals through the replica-set path: each re-homed group is a set
  // of one seeded by a single in.catch_up, which leaves the new copy's
  // applied sequence at the journal's, so later anti-entropy passes never
  // replay it a second time.
  std::vector<uint64_t> catch_ups;
  uint64_t total_catch_ups = 0;
  for (size_t i = 0; i < cluster.num_index_nodes(); ++i) {
    const obs::MetricsSnapshot snap = cluster.index_node(i).MetricsSnapshot();
    auto lag = snap.gauges.find("in.replica.lag");
    ASSERT_NE(lag, snap.gauges.end()) << "node " << i;
    EXPECT_EQ(lag->second, 0.0) << "node " << i;
    catch_ups.push_back(CatchUps(cluster.index_node(i)));
    total_catch_ups += catch_ups.back();
  }
  EXPECT_EQ(total_catch_ups, event.groups_moved);
  Tick(cluster, 10);
  for (size_t i = 0; i < cluster.num_index_nodes(); ++i) {
    EXPECT_EQ(CatchUps(cluster.index_node(i)), catch_ups[i]) << "node " << i;
  }
}

TEST(RecoveryTest, WithoutJournalRoutingStaysValidButDataIsLost) {
  PropellerCluster cluster(RecoveryConfig(false));
  Predicate p = Seed(cluster, 60);
  Tick(cluster, 2);

  size_t victim = NodeWithGroups(cluster);
  cluster.KillIndexNode(victim, /*wipe=*/true);
  Tick(cluster, 5);

  // Empty replacement groups: searches succeed (no routing to the dead
  // node) but the victim's records are gone.
  auto after = cluster.client().Search(p, "by_size");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_LT(after->files.size(), 60u);
  std::vector<MasterNode::RecoveryEvent> events =
      cluster.master().RecoveryEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].records_restored, 0u);
}

TEST(RecoveryTest, RevivedNodeIsWipedAndRejoinsPlacementPool) {
  PropellerCluster cluster(RecoveryConfig(true));
  Predicate p = Seed(cluster, 60);
  Tick(cluster, 2);

  size_t victim = NodeWithGroups(cluster);
  NodeId victim_id = cluster.index_node(victim).id();
  cluster.KillIndexNode(victim);  // unreachable but state intact
  Tick(cluster, 5);
  ASSERT_TRUE(cluster.master().IsNodeDead(victim_id));

  // Its groups were re-homed while it was out; on revival the master
  // must wipe it (stale replicas would otherwise resurface) and re-admit.
  cluster.ReviveIndexNode(victim);
  Tick(cluster, 2);  // heartbeat resumes -> revival
  EXPECT_FALSE(cluster.master().IsNodeDead(victim_id));
  EXPECT_EQ(cluster.index_node(victim).NumGroups(), 0u)
      << "revived node must be reset after its groups moved";

  // Search is still complete (served by the re-homed groups)...
  auto r = cluster.client().Search(p, "by_size");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->files.size(), 60u);

  // ...and the revived node is a placement target again.
  std::vector<FileUpdate> more;
  for (FileId f = 1000; f < 1200; ++f) more.push_back(Upsert(f, 9));
  ASSERT_TRUE(cluster.client().BatchUpdate(std::move(more), cluster.now()).ok());
  EXPECT_GT(cluster.index_node(victim).NumGroups(), 0u)
      << "revived node never received new placements";
}

// Every node goes dark at once, state intact, and later comes back.  No
// live node could take any group meanwhile, so every set still names its
// old node; each revived node keeps its copies and nothing is lost.
TEST(RecoveryTest, EveryNodeDownThenRevivedKeepsItsData) {
  PropellerCluster cluster(RecoveryConfig(true));
  Predicate p = Seed(cluster, 60);
  Tick(cluster, 2);

  for (size_t i = 0; i < cluster.num_index_nodes(); ++i) {
    cluster.KillIndexNode(i);
  }
  Tick(cluster, 5);
  for (size_t i = 0; i < cluster.num_index_nodes(); ++i) {
    ASSERT_TRUE(cluster.master().IsNodeDead(cluster.index_node(i).id()));
  }

  for (size_t i = 0; i < cluster.num_index_nodes(); ++i) {
    cluster.ReviveIndexNode(i);
  }
  Tick(cluster, 5);
  for (size_t i = 0; i < cluster.num_index_nodes(); ++i) {
    EXPECT_FALSE(cluster.master().IsNodeDead(cluster.index_node(i).id()));
  }
  auto r = cluster.client().Search(p, "by_size");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->files.size(), 60u);
}

TEST(RecoveryTest, StagedButUncommittedUpdatesSurviveNodeLoss) {
  // The journal replicates on the staging path, so even updates that
  // never committed on the lost node are recoverable.
  PropellerCluster cluster(RecoveryConfig(true));
  ASSERT_TRUE(cluster.client().CreateIndex(SizeIndex()).ok());
  Tick(cluster, 1);
  std::vector<FileUpdate> updates;
  for (FileId f = 1; f <= 30; ++f) updates.push_back(Upsert(f, 5));
  ASSERT_TRUE(cluster.client().BatchUpdate(std::move(updates), cluster.now()).ok());

  size_t victim = NodeWithGroups(cluster);
  cluster.KillIndexNode(victim, /*wipe=*/true);
  Tick(cluster, 5);

  Predicate p;
  p.And("size", CmpOp::kEq, AttrValue(int64_t{5}));
  auto r = cluster.client().Search(p, "by_size");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->files.size(), 30u);
}

TEST(RecoveryTest, JournalCompactionTruncatesAtSealAndStillConverges) {
  // Segmented mode + journal: a commit-timeout tick seals each group and
  // checkpoints its journal to a base image, so the replayable history
  // stops growing with update volume — and recovery after a permanent
  // node loss must converge to the same state as before.
  ClusterConfig cfg = RecoveryConfig(true);
  cfg.index_node.segmented_index = true;
  PropellerCluster cluster(RecoveryConfig(true));
  PropellerCluster compacting(cfg);

  for (PropellerCluster* c : {&cluster, &compacting}) {
    ASSERT_TRUE(c->client().CreateIndex(SizeIndex()).ok());
    // Four generations of the same 40 files: the update history is 4x the
    // live state, so a checkpoint visibly shrinks the journal.
    for (int64_t gen = 1; gen <= 4; ++gen) {
      std::vector<FileUpdate> updates;
      for (FileId f = 1; f <= 40; ++f) updates.push_back(Upsert(f, gen));
      ASSERT_TRUE(
          c->client().BatchUpdate(std::move(updates), c->now()).ok());
      Tick(*c, 7);  // past the 5s commit timeout: seal (+ checkpoint)
    }
  }

  // Without compaction the journal retains all 160 records per cluster;
  // with it, each group's log collapsed to its live-state image and an
  // empty tail.
  uint64_t plain = cluster.Stats().journal_records;
  uint64_t compacted = compacting.Stats().journal_records;
  EXPECT_EQ(plain, 160u);
  EXPECT_EQ(compacted, 40u) << "checkpoint kept more than the live image";
  for (size_t i = 0; i < compacting.num_index_nodes(); ++i) {
    for (const auto& stat : compacting.index_node(i).GroupStats()) {
      EXPECT_EQ(compacting.recovery_journal()->NumTailRecords(stat.group), 0u)
          << "group " << stat.group << " tail survived the checkpoint";
    }
  }

  // Updates staged after the last checkpoint land in the tail...
  std::vector<FileUpdate> fresh;
  for (FileId f = 100; f < 110; ++f) fresh.push_back(Upsert(f, 9));
  ASSERT_TRUE(
      compacting.client().BatchUpdate(std::move(fresh), compacting.now()).ok());

  // ...and a kill/recover replays image + tail: every generation-4 file
  // and every fresh one comes back on the survivors.
  size_t victim = NodeWithGroups(compacting);
  cluster.KillIndexNode(victim, /*wipe=*/true);  // twin, for symmetry
  compacting.KillIndexNode(victim, /*wipe=*/true);
  Tick(compacting, 5);

  Predicate p;
  p.And("size", CmpOp::kEq, AttrValue(int64_t{4}));
  auto r = compacting.client().Search(p, "by_size");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->files.size(), 40u)
      << "recovery from checkpoint image lost committed records";
  Predicate pf;
  pf.And("size", CmpOp::kEq, AttrValue(int64_t{9}));
  auto rf = compacting.client().Search(pf, "by_size");
  ASSERT_TRUE(rf.ok()) << rf.status().ToString();
  EXPECT_EQ(rf->files.size(), 10u)
      << "recovery lost tail records staged after the checkpoint";
}

}  // namespace
}  // namespace propeller::core
