// Integration tests: client -> master -> index nodes, end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "core/cluster.h"
#include "net/fault.h"
#include "trace/trace_gen.h"

namespace propeller::core {
namespace {

using index::AttrSet;
using index::AttrValue;
using index::CmpOp;

FileUpdate Upsert(FileId f, int64_t size, int64_t mtime, std::string path) {
  FileUpdate u;
  u.file = f;
  u.attrs.Set("size", AttrValue(size));
  u.attrs.Set("mtime", AttrValue(mtime));
  u.attrs.Set("path", AttrValue(std::move(path)));
  return u;
}

IndexSpec SizeIndex() { return {"by_size", index::IndexType::kBTree, {"size"}}; }

class ClusterTest : public ::testing::Test {
 protected:
  static ClusterConfig SmallConfig() {
    ClusterConfig cfg;
    cfg.index_nodes = 4;
    cfg.master.acg_policy.cluster_target = 10;
    cfg.master.acg_policy.split_threshold = 1000;
    cfg.master.acg_policy.merge_limit = 1000;
    return cfg;
  }

  ClusterTest() : cluster_(SmallConfig()) {}

  PropellerCluster cluster_;
};

TEST_F(ClusterTest, CreateIndexThenUpdateThenSearch) {
  ASSERT_TRUE(cluster_.client().CreateIndex(SizeIndex()).ok());

  std::vector<FileUpdate> updates;
  for (FileId f = 1; f <= 100; ++f) {
    updates.push_back(Upsert(f, static_cast<int64_t>(f * 10), 0, "/data/f"));
  }
  auto up = cluster_.client().BatchUpdate(std::move(updates), cluster_.now());
  ASSERT_TRUE(up.ok());

  Predicate p;
  p.And("size", CmpOp::kGt, AttrValue(int64_t{900}));
  auto r = cluster_.client().Search(p, "by_size");
  ASSERT_TRUE(r.ok());
  // sizes 910..1000 -> files 91..100.
  EXPECT_EQ(r->files.size(), 10u);
  EXPECT_EQ(r->files.front(), 91u);
  EXPECT_EQ(r->files.back(), 100u);
}

// An index created after files are committed serves those files: the
// group bulk-builds it over its committed state.  A new index that started
// empty would be chosen by the next search and hide every file.
TEST(ClusterCreateIndexTest, IndexCreatedAfterCommitServesCommittedFiles) {
  PropellerCluster cluster{ClusterConfig{}};
  std::vector<FileUpdate> updates;
  for (FileId f = 1; f <= 50; ++f) {
    updates.push_back(Upsert(f, static_cast<int64_t>(f * 10), 0, "/data/f"));
  }
  ASSERT_TRUE(
      cluster.client().BatchUpdate(std::move(updates), cluster.now()).ok());
  cluster.AdvanceTime(6.0);  // past the 5 s commit timeout

  Predicate p;
  p.And("size", CmpOp::kGt, AttrValue(int64_t{0}));
  auto before = cluster.client().Search(p);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->files.size(), 50u);

  ASSERT_TRUE(cluster.client().CreateIndex(SizeIndex()).ok());
  auto after = cluster.client().Search(p);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->files.size(), 50u);
}

TEST_F(ClusterTest, SearchImmediatelyAfterUpdateIsConsistent) {
  // The heart of the paper: no crawl delay, recall is always 100%.
  ASSERT_TRUE(cluster_.client().CreateIndex(SizeIndex()).ok());
  for (int round = 0; round < 5; ++round) {
    std::vector<FileUpdate> updates;
    for (FileId f = 1; f <= 20; ++f) {
      FileId id = static_cast<FileId>(round) * 100 + f;
      updates.push_back(Upsert(id, 1'000'000 + round, 0, "/d/f"));
    }
    ASSERT_TRUE(cluster_.client().BatchUpdate(std::move(updates), cluster_.now()).ok());

    Predicate p;
    p.And("size", CmpOp::kGe, AttrValue(int64_t{1'000'000}));
    auto r = cluster_.client().Search(p, "by_size");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->files.size(), static_cast<size_t>((round + 1) * 20))
        << "stale search results in round " << round;
  }
}

TEST_F(ClusterTest, TimeoutCommitsStagedUpdates) {
  ASSERT_TRUE(cluster_.client().CreateIndex(SizeIndex()).ok());
  std::vector<FileUpdate> updates;
  for (FileId f = 1; f <= 10; ++f) updates.push_back(Upsert(f, 100, 0, "/d/f"));
  ASSERT_TRUE(cluster_.client().BatchUpdate(std::move(updates), cluster_.now()).ok());

  // Before the 5s timeout the updates are staged, not committed.
  uint64_t committed = 0;
  for (size_t i = 0; i < cluster_.num_index_nodes(); ++i) {
    for (auto& stat : cluster_.index_node(i).GroupStats()) committed += stat.files;
  }
  EXPECT_EQ(committed, 0u);

  cluster_.AdvanceTime(6.0);  // past the 5 s timeout
  committed = 0;
  for (size_t i = 0; i < cluster_.num_index_nodes(); ++i) {
    for (auto& stat : cluster_.index_node(i).GroupStats()) committed += stat.files;
  }
  EXPECT_EQ(committed, 10u);
}

TEST_F(ClusterTest, AcgFlushCoLocatesCausallyRelatedFiles) {
  ASSERT_TRUE(cluster_.client().CreateIndex(SizeIndex()).ok());

  fs::Vfs vfs;
  cluster_.client().AttachVfs(&vfs);
  // One process reads in.txt and writes out.txt -> same group.
  auto in = vfs.Open(1, "/app/in.txt", fs::OpenMode::kRead, true);
  auto out = vfs.Open(1, "/app/out.txt", fs::OpenMode::kWrite, true);
  ASSERT_TRUE(in.ok());
  ASSERT_TRUE(out.ok());
  vfs.Close(out->fd);
  vfs.Close(in->fd);
  ASSERT_TRUE(cluster_.client().FlushAcg().ok());

  FileId fin = vfs.ns().Stat("/app/in.txt")->id;
  FileId fout = vfs.ns().Stat("/app/out.txt")->id;
  const auto& mgr = cluster_.master().acg_manager();
  ASSERT_TRUE(mgr.GroupOf(fin).has_value());
  EXPECT_EQ(mgr.GroupOf(fin), mgr.GroupOf(fout));
  // The group exists on exactly one index node.
  auto node = cluster_.master().NodeOfGroup(*mgr.GroupOf(fin));
  ASSERT_TRUE(node.has_value());
}

TEST_F(ClusterTest, SplitMigratesFilesAndKeepsSearchComplete) {
  ClusterConfig cfg = SmallConfig();
  cfg.master.acg_policy.split_threshold = 50;
  cfg.master.acg_policy.cluster_target = 200;
  cfg.master.acg_policy.merge_limit = 200;
  PropellerCluster cluster(cfg);
  ASSERT_TRUE(cluster.client().CreateIndex(SizeIndex()).ok());

  // Build one big connected ACG of 120 files (two dense halves, weak link)
  // and index every file.
  acg::Acg delta;
  for (FileId i = 0; i < 60; ++i) {
    delta.AddEdge(1 + i, 1 + (i + 1) % 60, 10);
    delta.AddEdge(101 + i, 101 + (i + 1) % 60, 10);
  }
  delta.AddEdge(1, 101, 1);
  FlushAcgRequest freq;
  freq.delta = delta;
  auto call = cluster.transport().Call(PropellerCluster::kFirstClientId,
                                       PropellerCluster::kMasterId,
                                       "mn.flush_acg", Encode(freq));
  ASSERT_TRUE(call.status.ok());

  std::vector<FileUpdate> updates;
  for (FileId i = 0; i < 60; ++i) {
    updates.push_back(Upsert(1 + i, 100, 0, "/a/f"));
    updates.push_back(Upsert(101 + i, 100, 0, "/b/f"));
  }
  ASSERT_TRUE(cluster.client().BatchUpdate(std::move(updates), cluster.now()).ok());

  // The oversized group must have been split into two groups.
  const auto& mgr = cluster.master().acg_manager();
  EXPECT_NE(mgr.GroupOf(1), mgr.GroupOf(101));
  EXPECT_EQ(mgr.GroupOf(1), mgr.GroupOf(60));

  // And search still sees all 120 files exactly once.
  Predicate p;
  p.And("size", CmpOp::kGe, AttrValue(int64_t{100}));
  auto r = cluster.client().Search(p, "by_size");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->files.size(), 120u);
}

TEST_F(ClusterTest, LateMergeMigratesAcrossNodes) {
  ClusterConfig cfg = SmallConfig();
  cfg.master.acg_policy.cluster_target = 2;  // every pair becomes a group
  PropellerCluster cluster(cfg);
  ASSERT_TRUE(cluster.client().CreateIndex(SizeIndex()).ok());

  // Two independent pairs -> (likely) two groups on two nodes.
  acg::Acg d1;
  d1.AddEdge(1, 2);
  FlushAcgRequest f1;
  f1.delta = d1;
  cluster.transport().Call(100, 1, "mn.flush_acg", Encode(f1));
  acg::Acg d2;
  d2.AddEdge(10, 11);
  FlushAcgRequest f2;
  f2.delta = d2;
  cluster.transport().Call(100, 1, "mn.flush_acg", Encode(f2));

  std::vector<FileUpdate> updates;
  for (FileId f : {1, 2, 10, 11}) updates.push_back(Upsert(f, 50, 0, "/x/f"));
  ASSERT_TRUE(cluster.client().BatchUpdate(std::move(updates), cluster.now()).ok());

  const auto& mgr = cluster.master().acg_manager();
  ASSERT_NE(mgr.GroupOf(1), mgr.GroupOf(10));

  // A later causal edge joins the two groups; index data must follow.
  acg::Acg d3;
  d3.AddEdge(2, 10, 5);
  FlushAcgRequest f3;
  f3.delta = d3;
  auto call = cluster.transport().Call(100, 1, "mn.flush_acg", Encode(f3));
  ASSERT_TRUE(call.status.ok());
  EXPECT_EQ(mgr.GroupOf(1), mgr.GroupOf(10));

  Predicate p;
  p.And("size", CmpOp::kEq, AttrValue(int64_t{50}));
  auto r = cluster.client().Search(p, "by_size");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->files.size(), 4u) << "merge migration lost index data";
}

TEST_F(ClusterTest, IndexNodeCrashRecoversFromWal) {
  ASSERT_TRUE(cluster_.client().CreateIndex(SizeIndex()).ok());
  std::vector<FileUpdate> updates;
  for (FileId f = 1; f <= 30; ++f) updates.push_back(Upsert(f, 777, 0, "/d/f"));
  ASSERT_TRUE(cluster_.client().BatchUpdate(std::move(updates), cluster_.now()).ok());

  // Crash every index node before any commit happened.
  for (size_t i = 0; i < cluster_.num_index_nodes(); ++i) {
    ASSERT_TRUE(cluster_.index_node(i).CrashAndRecover().ok());
  }

  Predicate p;
  p.And("size", CmpOp::kEq, AttrValue(int64_t{777}));
  auto r = cluster_.client().Search(p, "by_size");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->files.size(), 30u) << "WAL recovery lost staged updates";
}

TEST_F(ClusterTest, MasterMetadataSnapshotRestore) {
  ASSERT_TRUE(cluster_.client().CreateIndex(SizeIndex()).ok());
  std::vector<FileUpdate> updates;
  for (FileId f = 1; f <= 25; ++f) updates.push_back(Upsert(f, 5, 0, "/d/f"));
  ASSERT_TRUE(cluster_.client().BatchUpdate(std::move(updates), cluster_.now()).ok());

  std::string image = cluster_.master().SnapshotMetadata();
  // Wipe + restore.
  ASSERT_TRUE(cluster_.master().RestoreMetadata(image).ok());

  // Routing still works: the same search answers fully.
  Predicate p;
  p.And("size", CmpOp::kEq, AttrValue(int64_t{5}));
  auto r = cluster_.client().Search(p, "by_size");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->files.size(), 25u);

  // And updates route to the same groups (no duplicate placement).
  const auto& mgr = cluster_.master().acg_manager();
  EXPECT_EQ(mgr.NumFiles(), 25u);
}

TEST_F(ClusterTest, DownNodeMakesSearchUnavailable) {
  ASSERT_TRUE(cluster_.client().CreateIndex(SizeIndex()).ok());
  std::vector<FileUpdate> updates;
  for (FileId f = 1; f <= 40; ++f) updates.push_back(Upsert(f, 9, 0, "/d/f"));
  ASSERT_TRUE(cluster_.client().BatchUpdate(std::move(updates), cluster_.now()).ok());

  // Find a node that actually holds groups and kill it.
  NodeId victim = 0;
  for (size_t i = 0; i < cluster_.num_index_nodes(); ++i) {
    if (cluster_.index_node(i).NumGroups() > 0) {
      victim = cluster_.index_node(i).id();
      break;
    }
  }
  ASSERT_NE(victim, 0u);
  cluster_.transport().SetNodeDown(victim, true);

  Predicate p;
  p.And("size", CmpOp::kEq, AttrValue(int64_t{9}));
  auto r = cluster_.client().Search(p, "by_size");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);

  // Bring it back: search works again.
  cluster_.transport().SetNodeDown(victim, false);
  auto r2 = cluster_.client().Search(p, "by_size");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->files.size(), 40u);
}

TEST_F(ClusterTest, NewGroupsAvoidDownNodes) {
  ASSERT_TRUE(cluster_.client().CreateIndex(SizeIndex()).ok());
  NodeId down = cluster_.index_node(0).id();
  cluster_.transport().SetNodeDown(down, true);

  std::vector<FileUpdate> updates;
  for (FileId f = 1; f <= 50; ++f) updates.push_back(Upsert(f, 1, 0, "/d/f"));
  ASSERT_TRUE(cluster_.client().BatchUpdate(std::move(updates), cluster_.now()).ok());
  EXPECT_EQ(cluster_.index_node(0).NumGroups(), 0u);

  cluster_.transport().SetNodeDown(down, false);
  Predicate p;
  p.And("size", CmpOp::kEq, AttrValue(int64_t{1}));
  auto r = cluster_.client().Search(p, "by_size");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->files.size(), 50u);
}

TEST_F(ClusterTest, UnknownIndexNameRejected) {
  auto r = cluster_.client().Search(Predicate{}, "nonexistent");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(ClusterTest, DuplicateIndexNameRejected) {
  ASSERT_TRUE(cluster_.client().CreateIndex(SizeIndex()).ok());
  auto again = cluster_.client().CreateIndex(SizeIndex());
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(ClusterTest, GroupsSpreadAcrossNodes) {
  ClusterConfig cfg = SmallConfig();
  cfg.master.acg_policy.cluster_target = 5;  // many small groups
  PropellerCluster cluster(cfg);
  ASSERT_TRUE(cluster.client().CreateIndex(SizeIndex()).ok());
  std::vector<FileUpdate> updates;
  for (FileId f = 1; f <= 200; ++f) updates.push_back(Upsert(f, 1, 0, "/d/f"));
  ASSERT_TRUE(cluster.client().BatchUpdate(std::move(updates), cluster.now()).ok());

  // Least-loaded placement must involve every node.
  for (size_t i = 0; i < cluster.num_index_nodes(); ++i) {
    EXPECT_GT(cluster.index_node(i).NumGroups(), 0u) << "node " << i << " idle";
  }
}

TEST_F(ClusterTest, MoreNodesReduceWarmSearchLatency) {
  // Table IV's mechanism: fan-out parallelism cuts per-search latency.
  auto run = [](int nodes) {
    ClusterConfig cfg = SmallConfig();
    cfg.index_nodes = nodes;
    cfg.master.acg_policy.cluster_target = 50;
    PropellerCluster cluster(cfg);
    EXPECT_TRUE(cluster.client().CreateIndex(SizeIndex()).ok());
    std::vector<FileUpdate> updates;
    for (FileId f = 1; f <= 2000; ++f) {
      updates.push_back(Upsert(f, static_cast<int64_t>(f), 0, "/d/f"));
    }
    EXPECT_TRUE(cluster.client().BatchUpdate(std::move(updates), cluster.now()).ok());
    Predicate p;
    p.And("size", CmpOp::kGt, AttrValue(int64_t{0}));
    // Warm it, then measure.
    (void)cluster.client().Search(p, "by_size");
    auto r = cluster.client().Search(p, "by_size");
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r->files.size(), 2000u);
    return r->cost.seconds();
  };
  double one = run(1);
  double eight = run(8);
  EXPECT_LT(eight, one) << "1 node: " << one << "s, 8 nodes: " << eight << "s";
}

TEST_F(ClusterTest, EndToEndTraceWorkflow) {
  // Full pipeline: trace -> vfs events -> ACG -> flush -> index -> search.
  // Group limits sized to the application (the paper's threshold is 50k;
  // GitProfile's ACG is one ~1000-file component).
  ClusterConfig cfg = SmallConfig();
  cfg.master.acg_policy.split_threshold = 5000;
  cfg.master.acg_policy.merge_limit = 5000;
  PropellerCluster cluster_(cfg);
  ASSERT_TRUE(cluster_.client().CreateIndex(SizeIndex()).ok());
  ASSERT_TRUE(cluster_.client()
                  .CreateIndex({"by_kw", index::IndexType::kKeyword, {"path"}})
                  .ok());

  fs::Vfs vfs;
  cluster_.client().AttachVfs(&vfs);
  trace::TraceGenerator gen(trace::GitProfile(), 3);
  ASSERT_TRUE(gen.Materialize(vfs).ok());
  uint64_t pid = 1;
  ASSERT_TRUE(gen.RunExecution(vfs, &pid).ok());
  ASSERT_TRUE(cluster_.client().FlushAcg().ok());

  // Index every file with its inode attributes.
  std::vector<FileUpdate> updates;
  vfs.ns().ForEachFile([&](const fs::FileStat& st) {
    FileUpdate u;
    u.file = st.id;
    u.attrs = st.ToAttrSet();
    updates.push_back(std::move(u));
  });
  const size_t total = updates.size();
  ASSERT_TRUE(cluster_.client().BatchUpdate(std::move(updates), cluster_.now()).ok());

  // All files have size >= 0.
  auto all = cluster_.client().SearchQuery("size>=0", vfs.now());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->files.size(), total);

  // Keyword search finds exactly the generated objects.
  auto objs = cluster_.client().SearchQuery("keyword:out", vfs.now());
  ASSERT_TRUE(objs.ok());
  EXPECT_EQ(objs->files.size(), 300u);  // GitProfile outputs

  // Causality grouping: intra-group weight should dwarf cross-group weight.
  const auto& mgr = cluster_.master().acg_manager();
  EXPECT_GT(mgr.IntraGroupWeight(), 0u);
  EXPECT_LT(mgr.CrossGroupWeight(), mgr.IntraGroupWeight() / 5);
}

// --- one setting per mechanism: nested role settings reach their roles ---

uint64_t Counter(const obs::MetricsSnapshot& snap, const std::string& name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

// Replication follows from the master's replica count alone (the client
// learns it from the replica sets in resolve responses); the client's own
// hedge switch then decides whether a straggler's branches hedge.
TEST(ClusterConfigTest, ClientHedgeSwitchHoldsUnderReplication) {
  auto hedges = [](bool hedge_enabled) -> uint64_t {
    ClusterConfig cfg;
    cfg.index_nodes = 4;
    cfg.master.replication_factor = 2;
    cfg.master.acg_policy.cluster_target = 50;
    cfg.master.acg_policy.merge_limit = 50;
    cfg.client.hedge.enabled = hedge_enabled;
    cfg.client.hedge.min_samples = 4;
    cfg.client.hedge.min_s = 1e-6;
    // A fast network leaves branch latency to the handlers, which is what
    // the straggler's slowness multiplies.
    cfg.net.latency_us = 3;
    cfg.net.bandwidth_mb_per_s = 4000;
    PropellerCluster cluster(cfg);
    EXPECT_NE(cluster.recovery_journal(), nullptr)
        << "r > 1 turns the replication log on";
    auto& client = cluster.client();
    EXPECT_TRUE(client.CreateIndex(SizeIndex()).ok());
    std::vector<FileUpdate> updates;
    for (FileId f = 1; f <= 400; ++f) {
      updates.push_back(Upsert(f, static_cast<int64_t>(f * 10), 0, "/r/f"));
    }
    EXPECT_TRUE(client.BatchUpdate(std::move(updates), cluster.now()).ok());
    cluster.AdvanceTime(6.0);

    Predicate p;
    p.And("size", CmpOp::kGe, AttrValue(int64_t{1}));
    // Warm searches train the hedge quantile past the cold first touch.
    for (int i = 0; i < 40; ++i) {
      EXPECT_TRUE(client.Search(p, "by_size").ok());
    }
    // One 40x straggler, the primary of the first group node 0 hosts.
    auto stats = cluster.index_node(0).GroupStats();
    EXPECT_FALSE(stats.empty());
    if (stats.empty()) return 0;
    const NodeId slow =
        cluster.master().ReplicasOfGroup(stats[0].group).front();
    auto plan = std::make_shared<net::FaultPlan>(1);
    plan->SetNodeSlowness(slow, 40.0);
    cluster.transport().SetFaultPlan(plan);
    for (int i = 0; i < 4; ++i) {
      auto r = client.Search(p, "by_size");
      EXPECT_TRUE(r.ok());
      if (r.ok()) {
        EXPECT_EQ(r->files.size(), 400u);
      }
    }
    return Counter(client.MetricsSnapshot(), "client.search.hedges");
  };
  EXPECT_GE(hedges(true), 1u) << "a replicated client hedges the straggler";
  EXPECT_EQ(hedges(false), 0u) << "hedge.enabled = false must stay off";
}

TEST(ClusterConfigTest, NodeAdmissionBoundReachesTheNodes) {
  // A stamped flood: 40 searches arriving at one instant on nodes with 16
  // workers each.  A waiting line of 64 absorbs it; a line of 1 sheds.
  auto shed = [](size_t bound) -> uint64_t {
    ClusterConfig cfg;
    cfg.index_nodes = 2;
    cfg.master.acg_policy.cluster_target = 50;
    cfg.admission_control = true;
    cfg.index_node.admission_queue_bound = bound;
    PropellerCluster cluster(cfg);
    auto& client = cluster.client();
    EXPECT_TRUE(client.CreateIndex(SizeIndex()).ok());
    std::vector<FileUpdate> updates;
    for (FileId f = 1; f <= 200; ++f) {
      updates.push_back(Upsert(f, static_cast<int64_t>(f), 0, "/a/f"));
    }
    EXPECT_TRUE(client.BatchUpdate(std::move(updates), cluster.now()).ok());
    cluster.AdvanceTime(6.0);
    Predicate p;
    p.And("size", CmpOp::kGe, AttrValue(int64_t{1}));
    const double arrival = cluster.now() + 1.0;
    for (int i = 0; i < 40; ++i) (void)client.Search(p, "by_size", arrival);
    return Counter(cluster.Stats().metrics, "in.admit.shed");
  };
  EXPECT_EQ(shed(64), 0u);
  EXPECT_GT(shed(1), 0u);
}

// Journal-only cluster (r = 1): the node derives replication from its
// journal, and since it appended every record itself it has nothing to
// catch up — anti-entropy must never replay the journal into its groups.
TEST(ClusterConfigTest, JournalOnlyClusterNeverReplaysItsJournal) {
  ClusterConfig cfg;
  cfg.index_nodes = 4;
  cfg.master.acg_policy.cluster_target = 10;
  cfg.recovery_journal = true;
  PropellerCluster cluster(cfg);
  auto& client = cluster.client();
  ASSERT_TRUE(client.CreateIndex(SizeIndex()).ok());
  constexpr uint64_t kFiles = 120;
  std::vector<FileUpdate> updates;
  for (FileId f = 1; f <= kFiles; ++f) {
    updates.push_back(Upsert(f, static_cast<int64_t>(f), 0, "/j/f"));
  }
  ASSERT_TRUE(client.BatchUpdate(std::move(updates), cluster.now()).ok());
  for (int i = 0; i < 10; ++i) cluster.AdvanceTime(1.0);

  EXPECT_EQ(cluster.Stats().journal_records, kFiles);
  uint64_t hosted = 0;
  for (size_t i = 0; i < cluster.num_index_nodes(); ++i) {
    IndexNode& node = cluster.index_node(i);
    for (const auto& stat : node.GroupStats()) hosted += stat.files;
    const obs::MetricsSnapshot snap = node.MetricsSnapshot();
    EXPECT_EQ(Counter(snap, "in.replica.catch_ups"), 0u) << "node " << i;
    auto lag = snap.gauges.find("in.replica.lag");
    if (lag != snap.gauges.end()) {
      EXPECT_EQ(lag->second, 0.0) << "node " << i;
    }
  }
  EXPECT_EQ(hosted, kFiles) << "every file lives in exactly one group";
  Predicate p;
  p.And("size", CmpOp::kGe, AttrValue(int64_t{1}));
  auto r = client.Search(p, "by_size");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->files.size(), kFiles);
  for (FileId f = 1; f <= kFiles; ++f) EXPECT_EQ(r->files[f - 1], f);
}

}  // namespace
}  // namespace propeller::core
