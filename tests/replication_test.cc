// Tail-tolerant reads: r-way group replication with hedged requests and
// straggler-aware recovery.
//
// Pinned-down properties:
//   1. Wire compatibility — every replication field (replica sets, stage
//      roles, seq acks, read floors) is trailing-optional: absent at r=1,
//      so the unreplicated wire format is byte-identical to before.
//   2. Quorum writes — at r=2 every group lives on two distinct nodes,
//      both replicas hold the data, and the primary acks journal commit
//      sequences the client tracks as read-your-writes floors.  A
//      dropped primary stage lands on the one repair pass; a missed
//      quorum fails naming the group.
//   3. Promotion — wiping a node permanently turns recovery into replica
//      promotion + journal catch-up; no acknowledged write is lost and the
//      dead node leaves every replica set.  A set whose seeds fail is
//      re-seeded by a later tick; a set with no live copy keeps its dead
//      members (searches fail or come back partial, never short) until a
//      later tick seeds it from the journal.
//   4. Read-your-writes — a lagging secondary answers kStaleReplica for a
//      floor it has not applied, and anti-entropy catch-up (in.tick)
//      closes the gap.  A search routed to a promoted copy below the
//      floor re-resolves and retries exactly once.
//   5. Hedged reads — a sustained straggler primary makes the client hedge
//      to the secondary; every fired hedge is a win or a cancellation, the
//      result set stays exact, and hedging strictly beats not hedging.
//      When primary and hedge both fail, the primary's error is returned.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/query_parser.h"
#include "net/fault.h"
#include "workload/dataset.h"

namespace propeller::core {
namespace {

using index::AttrValue;
using index::CmpOp;

constexpr uint64_t kBaseFiles = 2000;
constexpr char kQuery[] = "size>16m";

ClusterConfig MakeConfig(int replication_factor, bool hedged = true) {
  ClusterConfig cfg;
  cfg.index_nodes = 4;
  cfg.master.replication_factor = replication_factor;
  cfg.client.hedge.enabled = hedged;
  cfg.recovery_journal = true;
  cfg.master.acg_policy.cluster_target = 200;
  cfg.master.acg_policy.merge_limit = 200;
  // Trust the latency quantile early so short tests can train it.
  cfg.client.hedge.min_samples = 8;
  cfg.client.hedge.min_s = 1e-6;
  return cfg;
}

workload::DatasetSpec Spec() {
  workload::DatasetSpec spec;
  spec.num_files = kBaseFiles;
  spec.large_file_fraction = 0.25;
  return spec;
}

std::unique_ptr<PropellerCluster> MakeLoadedCluster(ClusterConfig cfg) {
  auto cluster = std::make_unique<PropellerCluster>(cfg);
  auto& client = cluster->client();
  EXPECT_TRUE(
      client.CreateIndex({"by_size", index::IndexType::kBTree, {"size"}}).ok());
  auto load = client.BatchUpdate(workload::SyntheticRows(1, kBaseFiles, Spec()),
                                 cluster->now());
  EXPECT_TRUE(load.ok());
  cluster->AdvanceTime(6.0);
  return cluster;
}

uint64_t ClientCounter(PropellerClient& client, const std::string& k) {
  auto snap = client.MetricsSnapshot();
  auto it = snap.counters.find(k);
  return it == snap.counters.end() ? 0 : it->second;
}

uint64_t NodeCounter(IndexNode& node, const std::string& k) {
  auto snap = node.MetricsSnapshot();
  auto it = snap.counters.find(k);
  return it == snap.counters.end() ? 0 : it->second;
}

// The group the master placed `file` in (0 if the resolve failed).
GroupId GroupOfFile(PropellerCluster& cluster, FileId file) {
  ResolveUpdateRequest req;
  req.files = {file};
  auto call = cluster.transport().Call(100, PropellerCluster::kMasterId,
                                       "mn.resolve_update", Encode(req));
  if (!call.status.ok()) return 0;
  auto resp = Decode<ResolveUpdateResponse>(call.payload);
  if (!resp.ok() || resp->placements.size() != 1) return 0;
  return resp->placements.front().group;
}

// One upsert of `file` with a size no base file has.
constexpr int64_t kHugeSize = int64_t{1} << 40;
std::vector<FileUpdate> HugeUpdate(FileId file) {
  FileUpdate u;
  u.file = file;
  u.attrs.Set("size", AttrValue(kHugeSize));
  return {u};
}

Predicate HugeFiles() {
  Predicate p;
  p.And("size", CmpOp::kGe, AttrValue(kHugeSize));
  return p;
}

size_t IndexOf(NodeId node) {
  return static_cast<size_t>(node - PropellerCluster::kFirstIndexNodeId);
}

// All group ids currently hosted anywhere in the cluster.
std::set<GroupId> AllGroups(PropellerCluster& cluster) {
  std::set<GroupId> groups;
  for (size_t i = 0; i < cluster.num_index_nodes(); ++i) {
    for (const auto& stat : cluster.index_node(i).GroupStats()) {
      groups.insert(stat.group);
    }
  }
  return groups;
}

// --- 1. wire compatibility -------------------------------------------------

TEST(ReplicationProtoTest, ReplicaSectionsAreAbsentWhenOff) {
  {
    ResolveSearchResponse resp;
    resp.targets.push_back({10, {1, 2}});
    const std::string without = Encode(resp);
    resp.replicas.push_back({1, {10, 11}});
    resp.replicas.push_back({2, {11, 10}});
    const std::string with = Encode(resp);
    EXPECT_LT(without.size(), with.size());

    auto plain = Decode<ResolveSearchResponse>(without);
    ASSERT_TRUE(plain.ok());
    EXPECT_TRUE(plain->replicas.empty());

    auto rt = Decode<ResolveSearchResponse>(with);
    ASSERT_TRUE(rt.ok());
    ASSERT_EQ(rt->replicas.size(), 2u);
    EXPECT_EQ(rt->replicas[0].group, 1u);
    EXPECT_EQ(rt->replicas[0].nodes, (std::vector<NodeId>{10, 11}));
    EXPECT_EQ(rt->replicas[1].nodes, (std::vector<NodeId>{11, 10}));
  }
  {
    ResolveUpdateResponse resp;
    resp.placements.push_back({7, 1, 10});
    const std::string without = Encode(resp);
    resp.replicas.push_back({1, {10, 12}});
    const std::string with = Encode(resp);
    EXPECT_LT(without.size(), with.size());
    auto rt = Decode<ResolveUpdateResponse>(with);
    ASSERT_TRUE(rt.ok());
    ASSERT_EQ(rt->replicas.size(), 1u);
    EXPECT_EQ(rt->replicas[0].nodes, (std::vector<NodeId>{10, 12}));
  }
  {
    StageUpdatesRequest req;
    req.group = 3;
    req.now_s = 1.0;
    const std::string without = Encode(req);
    req.replica_role = kReplicaRoleSecondary;
    const std::string with = Encode(req);
    auto plain = Decode<StageUpdatesRequest>(without);
    ASSERT_TRUE(plain.ok());
    EXPECT_EQ(plain->replica_role, kReplicaRoleNone);
    auto rt = Decode<StageUpdatesRequest>(with);
    ASSERT_TRUE(rt.ok());
    EXPECT_EQ(rt->replica_role, kReplicaRoleSecondary);
    EXPECT_EQ(rt->epoch, 0u);
  }
  {
    SearchRequest req;
    req.groups = {4, 5};
    req.predicate.And("size", CmpOp::kGt, AttrValue(int64_t{5}));
    const std::string without = Encode(req);
    req.epoch = 9;
    req.min_seqs.push_back({4, 17});
    const std::string with = Encode(req);
    EXPECT_LT(without.size(), with.size());
    auto plain = Decode<SearchRequest>(without);
    ASSERT_TRUE(plain.ok());
    EXPECT_TRUE(plain->min_seqs.empty());
    auto rt = Decode<SearchRequest>(with);
    ASSERT_TRUE(rt.ok());
    EXPECT_EQ(rt->epoch, 9u);
    ASSERT_EQ(rt->min_seqs.size(), 1u);
    EXPECT_EQ(rt->min_seqs[0].group, 4u);
    EXPECT_EQ(rt->min_seqs[0].seq, 17u);
  }
  {
    StageUpdatesResponse resp;
    resp.seq = 41;
    auto rt = Decode<StageUpdatesResponse>(Encode(resp));
    ASSERT_TRUE(rt.ok());
    EXPECT_EQ(rt->seq, 41u);
  }
  {
    CatchUpRequest req;
    req.group = 6;
    req.specs.push_back({"by_size", index::IndexType::kBTree, {"size"}});
    auto rt = Decode<CatchUpRequest>(Encode(req));
    ASSERT_TRUE(rt.ok());
    EXPECT_EQ(rt->group, 6u);
    ASSERT_EQ(rt->specs.size(), 1u);
    EXPECT_EQ(rt->specs[0].name, "by_size");

    CatchUpResponse resp;
    resp.records_replayed = 12;
    resp.seq = 30;
    auto rrt = Decode<CatchUpResponse>(Encode(resp));
    ASSERT_TRUE(rrt.ok());
    EXPECT_EQ(rrt->records_replayed, 12u);
    EXPECT_EQ(rrt->seq, 30u);

    DropGroupRequest drop;
    drop.group = 8;
    auto drt = Decode<DropGroupRequest>(Encode(drop));
    ASSERT_TRUE(drt.ok());
    EXPECT_EQ(drt->group, 8u);
  }
}

// --- 2. quorum writes & placement ------------------------------------------

TEST(ReplicationTest, WritesLandOnDistinctReplicasWithAckedSeqs) {
  auto cluster = MakeLoadedCluster(MakeConfig(/*replication_factor=*/2));
  auto groups = AllGroups(*cluster);
  ASSERT_FALSE(groups.empty());

  for (GroupId g : groups) {
    auto replicas = cluster->master().ReplicasOfGroup(g);
    ASSERT_EQ(replicas.size(), 2u) << "group " << g;
    EXPECT_NE(replicas[0], replicas[1]) << "group " << g;
    // Both copies actually exist and both saw the data.
    for (NodeId n : replicas) {
      auto& node = cluster->index_node(n - PropellerCluster::kFirstIndexNodeId);
      EXPECT_NE(node.FindGroup(g), nullptr)
          << "group " << g << " missing on replica " << n;
    }
    // The primary journaled the group's updates.
    EXPECT_GT(cluster->recovery_journal()->Seq(g), 0u) << "group " << g;
  }

  // Searches agree with an unreplicated cluster over the same workload.
  auto baseline = MakeLoadedCluster(MakeConfig(/*replication_factor=*/1));
  auto parsed = ParseQuery(kQuery, 1'000'000);
  ASSERT_TRUE(parsed.ok());
  auto replicated = cluster->client().Search(parsed->predicate);
  auto plain = baseline->client().Search(parsed->predicate);
  ASSERT_TRUE(replicated.ok());
  ASSERT_TRUE(plain.ok());
  ASSERT_FALSE(plain->files.empty());
  EXPECT_EQ(replicated->files, plain->files);
}

// The primary drops every attempt of a write's stage request.  The batch
// comes back UNAVAILABLE, and the one repair pass (re-resolve, re-ship the
// failed shipment) lands it once the drops stop.
TEST(ReplicationTest, DroppedPrimaryStageLandsOnTheRepairPass) {
  ClusterConfig cfg = MakeConfig(/*replication_factor=*/2);
  auto cluster = MakeLoadedCluster(cfg);
  const FileId file = 1;
  const GroupId g = GroupOfFile(*cluster, file);
  ASSERT_NE(g, 0u);
  const NodeId primary = cluster->master().ReplicasOfGroup(g).front();

  auto plan = std::make_shared<net::FaultPlan>(1);
  plan->AddRule(net::FaultRule{
      .dst = primary,
      .method = "in.stage_updates",
      .drop_prob = 1.0,
      .max_triggers = static_cast<uint64_t>(cfg.client.retry.max_attempts)});
  cluster->transport().SetFaultPlan(plan);
  auto updated = cluster->client().BatchUpdate(HugeUpdate(file),
                                               cluster->now());
  cluster->transport().SetFaultPlan(nullptr);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(
      ClientCounter(cluster->client(), "client.placement_cache.stale_retries"),
      1u);

  cluster->AdvanceTime(6.0);
  auto found = cluster->client().Search(HugeFiles());
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(found->files, (std::vector<FileId>{file}));
}

// r = 3 needs the primary plus one secondary.  When both secondaries fail
// every attempt, the write fails UNAVAILABLE and names the group, after
// one repair pass that misses the quorum the same way.
TEST(ReplicationTest, WriteQuorumMissFailsNamingTheGroup) {
  auto cluster = MakeLoadedCluster(MakeConfig(/*replication_factor=*/3));
  const FileId file = 1;
  const GroupId g = GroupOfFile(*cluster, file);
  ASSERT_NE(g, 0u);
  const std::vector<NodeId> replicas = cluster->master().ReplicasOfGroup(g);
  ASSERT_EQ(replicas.size(), 3u);

  auto plan = std::make_shared<net::FaultPlan>(1);
  for (size_t i = 1; i < replicas.size(); ++i) {
    plan->AddRule(net::FaultRule{.dst = replicas[i],
                                 .method = "in.stage_updates",
                                 .fail_prob = 1.0});
  }
  cluster->transport().SetFaultPlan(plan);
  auto updated = cluster->client().BatchUpdate(HugeUpdate(file),
                                               cluster->now());
  cluster->transport().SetFaultPlan(nullptr);
  ASSERT_FALSE(updated.ok());
  EXPECT_EQ(updated.status().code(), StatusCode::kUnavailable);
  const std::string message = updated.status().ToString();
  EXPECT_NE(message.find("write quorum not reached for group " +
                         std::to_string(g)),
            std::string::npos)
      << message;
  EXPECT_EQ(
      ClientCounter(cluster->client(), "client.placement_cache.stale_retries"),
      1u);
}

// --- 3. promotion after permanent node loss ---------------------------------

TEST(ReplicationTest, WipingAnyNodePromotesReplicasWithoutDataLoss) {
  auto cluster = MakeLoadedCluster(MakeConfig(/*replication_factor=*/2));
  auto parsed = ParseQuery(kQuery, 1'000'000);
  ASSERT_TRUE(parsed.ok());
  auto before = cluster->client().Search(parsed->predicate);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->files.empty());

  const NodeId dead_id = cluster->index_node(0).id();
  ASSERT_GT(cluster->index_node(0).NumGroups(), 0u)
      << "node 0 must hold replicas or the scenario is vacuous";
  cluster->KillIndexNode(0, /*wipe=*/true);
  for (int i = 0; i < 6; ++i) cluster->AdvanceTime(1.0);
  ASSERT_TRUE(cluster->master().IsNodeDead(dead_id));

  // Every acknowledged write survives — exact result set, no partial flag
  // needed (allow_partial_search is off).
  auto after = cluster->client().Search(parsed->predicate);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->files, before->files);

  // The dead node left every replica set and the survivors healed each
  // group back to two copies (three live nodes remain).
  for (GroupId g : AllGroups(*cluster)) {
    auto replicas = cluster->master().ReplicasOfGroup(g);
    ASSERT_EQ(replicas.size(), 2u) << "group " << g;
    EXPECT_NE(replicas[0], replicas[1]);
    for (NodeId n : replicas) EXPECT_NE(n, dead_id) << "group " << g;
  }
  auto stats = cluster->Stats();
  EXPECT_GE(stats.recoveries, 1u);
  EXPECT_GT(stats.groups_recovered, 0u);

  // The cluster keeps taking replicated writes afterwards.
  std::vector<FileUpdate> extra;
  FileUpdate u;
  u.file = 9'000'001;
  u.attrs.Set("size", AttrValue(int64_t{64} << 20));
  extra.push_back(u);
  ASSERT_TRUE(cluster->client().BatchUpdate(std::move(extra),
                                            cluster->now()).ok());
  cluster->AdvanceTime(6.0);
  auto final = cluster->client().Search(parsed->predicate);
  ASSERT_TRUE(final.ok());
  EXPECT_TRUE(std::find(final->files.begin(), final->files.end(),
                        FileId{9'000'001}) != final->files.end());
}

// Node 0 dies wiped while every in.catch_up the master sends fails.  Each
// of its sets keeps a live copy and drops the dead member, but no seed
// lands, so those sets hold one copy.  Once the fault clears, a later
// tick re-seeds every set back to two copies.
TEST(ReplicationTest, DegradedSetIsReseededByALaterTick) {
  auto cluster = MakeLoadedCluster(MakeConfig(/*replication_factor=*/2));
  auto parsed = ParseQuery(kQuery, 1'000'000);
  ASSERT_TRUE(parsed.ok());
  auto before = cluster->client().Search(parsed->predicate);
  ASSERT_TRUE(before.ok());
  const std::set<GroupId> groups = AllGroups(*cluster);

  auto plan = std::make_shared<net::FaultPlan>(1);
  net::FaultRule rule;
  rule.src = PropellerCluster::kMasterId;
  rule.method = "in.catch_up";
  rule.fail_prob = 1;
  plan->AddRule(rule);
  cluster->transport().SetFaultPlan(plan);

  const NodeId dead_id = cluster->index_node(0).id();
  ASSERT_GT(cluster->index_node(0).NumGroups(), 0u);
  cluster->KillIndexNode(0, /*wipe=*/true);
  for (int ticks = 0; !cluster->master().IsNodeDead(dead_id); ++ticks) {
    ASSERT_LT(ticks, 6) << "the master never declared node 0 dead";
    cluster->AdvanceTime(1.0);
  }
  size_t degraded = 0;
  for (GroupId g : groups) {
    if (cluster->master().ReplicasOfGroup(g).size() < 2) ++degraded;
  }
  ASSERT_GT(degraded, 0u) << "no set lost a copy; the scenario is vacuous";

  plan->ClearRules();
  for (int i = 0; i < 5; ++i) cluster->AdvanceTime(1.0);
  for (GroupId g : groups) {
    auto replicas = cluster->master().ReplicasOfGroup(g);
    ASSERT_EQ(replicas.size(), 2u) << "group " << g;
    EXPECT_NE(replicas[0], replicas[1]) << "group " << g;
    for (NodeId n : replicas) EXPECT_NE(n, dead_id) << "group " << g;
  }
  auto after = cluster->client().Search(parsed->predicate);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->files, before->files);
}

// Both copies of some groups die together while every journal replay and
// every group creation the master asks for fails.  No live copy of those
// groups exists, so their sets keep naming the dead nodes: a search fails
// UNAVAILABLE naming one, or comes back partial under
// allow_partial_search, and is never OK and short.  Once the faults
// clear, a later tick seeds fresh copies from the journal and drops the
// dead members: every file from before is found, and so is every write
// acknowledged while the faults held.
TEST(ReplicationTest, LosingEveryCopyWhileReplaysFailStillRehomesTheGroup) {
  auto cluster = MakeLoadedCluster(MakeConfig(/*replication_factor=*/2));
  auto parsed = ParseQuery(kQuery, 1'000'000);
  ASSERT_TRUE(parsed.ok());
  auto before = cluster->client().Search(parsed->predicate);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->files.empty());

  const NodeId dead0 = cluster->index_node(0).id();
  const NodeId dead1 = cluster->index_node(1).id();
  const std::set<GroupId> groups = AllGroups(*cluster);
  std::set<GroupId> lost;  // groups whose every copy dies
  for (GroupId g : groups) {
    auto replicas = cluster->master().ReplicasOfGroup(g);
    std::sort(replicas.begin(), replicas.end());
    if (replicas == std::vector<NodeId>{dead0, dead1}) lost.insert(g);
  }
  ASSERT_FALSE(lost.empty())
      << "no group lives on exactly nodes 0 and 1; the scenario is vacuous";

  auto plan = std::make_shared<net::FaultPlan>(1);
  for (const char* method : {"in.catch_up", "in.create_group"}) {
    net::FaultRule rule;
    rule.src = PropellerCluster::kMasterId;
    rule.method = method;
    rule.fail_prob = 1;
    plan->AddRule(rule);
  }
  cluster->transport().SetFaultPlan(plan);

  cluster->KillIndexNode(0, /*wipe=*/true);
  cluster->KillIndexNode(1, /*wipe=*/true);
  int ticks = 0;
  while (!cluster->master().IsNodeDead(dead0) ||
         !cluster->master().IsNodeDead(dead1)) {
    ASSERT_LT(ticks, 6) << "the master never declared both nodes dead";
    cluster->AdvanceTime(1.0);
    ++ticks;
  }
  for (; ticks < 6; ++ticks) cluster->AdvanceTime(1.0);
  for (GroupId g : lost) {
    auto replicas = cluster->master().ReplicasOfGroup(g);
    std::sort(replicas.begin(), replicas.end());
    EXPECT_EQ(replicas, (std::vector<NodeId>{dead0, dead1}))
        << "group " << g << " left its dead members with no live copy";
  }

  // While the faults hold, the lost groups' data is unreachable and every
  // search says so.
  auto strict = cluster->client().Search(parsed->predicate);
  ASSERT_FALSE(strict.ok()) << "a search missing the lost groups came back OK";
  EXPECT_EQ(strict.status().code(), StatusCode::kUnavailable);
  const std::string message = strict.status().ToString();
  EXPECT_TRUE(message.find("node " + std::to_string(dead0)) !=
                  std::string::npos ||
              message.find("node " + std::to_string(dead1)) !=
                  std::string::npos)
      << message;
  ClientConfig degraded_cfg;
  degraded_cfg.allow_partial_search = true;
  PropellerClient degraded(300, &cluster->transport(),
                           PropellerCluster::kMasterId, degraded_cfg);
  auto partial = degraded.Search(parsed->predicate);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_TRUE(partial->partial);
  ASSERT_FALSE(partial->node_errors.empty());
  for (const auto& e : partial->node_errors) {
    EXPECT_TRUE(e.node == dead0 || e.node == dead1) << "node " << e.node;
  }

  // Meanwhile a write to a group that kept a live copy is acknowledged,
  // and a write to a lost group is refused UNAVAILABLE, never acknowledged.
  std::vector<FileId> expected = before->files;
  std::sort(expected.begin(), expected.end());
  FileId written = 0, refused = 0;
  for (FileId f = 1; f <= kBaseFiles && (written == 0 || refused == 0); ++f) {
    if (std::binary_search(expected.begin(), expected.end(), f)) continue;
    FileId& slot = lost.count(GroupOfFile(*cluster, f)) == 0u ? written
                                                               : refused;
    if (slot == 0) slot = f;
  }
  ASSERT_NE(written, 0u);
  ASSERT_NE(refused, 0u) << "no small file in a lost group";
  auto grow = [&](FileId f) {
    FileUpdate u;
    u.file = f;
    u.attrs.Set("size", AttrValue(int64_t{32} << 20));
    return cluster->client().BatchUpdate({u}, cluster->now());
  };
  ASSERT_TRUE(grow(written).ok());
  expected.push_back(written);
  std::sort(expected.begin(), expected.end());
  Status lost_write = grow(refused).status();
  EXPECT_EQ(lost_write.code(), StatusCode::kUnavailable)
      << lost_write.ToString();

  plan->ClearRules();
  for (int i = 0; i < 2; ++i) cluster->AdvanceTime(1.0);
  ASSERT_TRUE(cluster->master().IsNodeDead(dead0));
  ASSERT_TRUE(cluster->master().IsNodeDead(dead1));

  for (GroupId g : groups) {
    auto replicas = cluster->master().ReplicasOfGroup(g);
    ASSERT_FALSE(replicas.empty()) << "group " << g;
    for (NodeId n : replicas) {
      EXPECT_NE(n, dead0) << "group " << g;
      EXPECT_NE(n, dead1) << "group " << g;
    }
  }
  // The refused write is not required to appear.
  auto after = cluster->client().Search(parsed->predicate);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  std::vector<FileId> found = after->files;
  std::erase(found, refused);
  std::sort(found.begin(), found.end());
  EXPECT_EQ(found, expected);
}

// Node 0 dies wiped while every in.catch_up the master sends fails, so its
// sets drop it but stay one copy short.  Then the sole survivor of one of
// them dies too, before any re-seed lands.  Once the fault clears, that
// set is re-seeded from the journal, and the replays are charged to the
// second death, the one its set still names; node 0's sets no longer name
// it, so its event is charged nothing.
TEST(ReplicationTest, SecondDeathOnADegradedSetIsChargedItsReplays) {
  auto cluster = MakeLoadedCluster(MakeConfig(/*replication_factor=*/2));
  auto parsed = ParseQuery(kQuery, 1'000'000);
  ASSERT_TRUE(parsed.ok());
  auto before = cluster->client().Search(parsed->predicate);
  ASSERT_TRUE(before.ok());
  const std::set<GroupId> groups = AllGroups(*cluster);

  auto plan = std::make_shared<net::FaultPlan>(1);
  net::FaultRule rule;
  rule.src = PropellerCluster::kMasterId;
  rule.method = "in.catch_up";
  rule.fail_prob = 1;
  plan->AddRule(rule);
  cluster->transport().SetFaultPlan(plan);

  auto declare_dead = [&](size_t index) {
    const NodeId id = cluster->index_node(index).id();
    cluster->KillIndexNode(index, /*wipe=*/true);
    for (int ticks = 0; !cluster->master().IsNodeDead(id); ++ticks) {
      ASSERT_LT(ticks, 6) << "the master never declared node " << id << " dead";
      cluster->AdvanceTime(1.0);
    }
  };
  const NodeId first = cluster->index_node(0).id();
  declare_dead(0);
  GroupId degraded = 0;
  for (GroupId g : groups) {
    if (cluster->master().ReplicasOfGroup(g).size() == 1) {
      degraded = g;
      break;
    }
  }
  ASSERT_NE(degraded, 0u) << "no set lost a copy; the scenario is vacuous";
  const NodeId second = cluster->master().ReplicasOfGroup(degraded).front();
  declare_dead(IndexOf(second));
  EXPECT_EQ(cluster->master().ReplicasOfGroup(degraded),
            std::vector<NodeId>{second});

  plan->ClearRules();
  for (int i = 0; i < 3; ++i) cluster->AdvanceTime(1.0);
  auto replicas = cluster->master().ReplicasOfGroup(degraded);
  ASSERT_EQ(replicas.size(), 2u);
  for (NodeId n : replicas) {
    EXPECT_NE(n, first);
    EXPECT_NE(n, second);
  }
  std::vector<MasterNode::RecoveryEvent> events =
      cluster->master().RecoveryEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].node, first);
  EXPECT_EQ(events[0].records_restored, 0u);
  EXPECT_EQ(events[1].node, second);
  EXPECT_GT(events[1].records_restored, 0u);

  auto after = cluster->client().Search(parsed->predicate);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->files, before->files);
}

// --- 4. read-your-writes across a lagging replica ---------------------------

TEST(ReplicationTest, LaggingReplicaAnswersStaleAndCatchesUpOnTick) {
  auto cluster = MakeLoadedCluster(MakeConfig(/*replication_factor=*/2));
  auto groups = AllGroups(*cluster);
  ASSERT_FALSE(groups.empty());
  const GroupId g = *groups.begin();
  auto replicas = cluster->master().ReplicasOfGroup(g);
  ASSERT_EQ(replicas.size(), 2u);
  const NodeId primary = replicas[0];
  const NodeId secondary = replicas[1];

  // Stage one update on the primary only (role-stamped, journal-appended)
  // — the secondary is now one record behind.
  StageUpdatesRequest sreq;
  sreq.group = g;
  sreq.now_s = cluster->now();
  sreq.replica_role = kReplicaRolePrimary;
  FileUpdate u;
  u.file = 9'500'000;
  u.attrs.Set("size", AttrValue(int64_t{32} << 20));
  sreq.updates.push_back(u);
  auto staged =
      cluster->transport().Call(100, primary, "in.stage_updates", Encode(sreq));
  ASSERT_TRUE(staged.status.ok());
  auto ack = Decode<StageUpdatesResponse>(staged.payload);
  ASSERT_TRUE(ack.ok());
  ASSERT_GT(ack->seq, 0u);
  EXPECT_EQ(ack->seq, cluster->recovery_journal()->Seq(g));

  // A search carrying that seq as a read floor: the primary serves it, the
  // lagging secondary must refuse rather than hide the write.
  SearchRequest query;
  query.groups = {g};
  query.predicate.And("size", CmpOp::kGt, AttrValue(int64_t{0}));
  query.min_seqs.push_back({g, ack->seq});
  const std::string query_payload = Encode(query);

  auto from_primary =
      cluster->transport().Call(100, primary, "in.search", query_payload);
  EXPECT_TRUE(from_primary.status.ok());
  auto from_secondary =
      cluster->transport().Call(100, secondary, "in.search", query_payload);
  EXPECT_EQ(from_secondary.status.code(), StatusCode::kStaleReplica);
  auto& secondary_node =
      cluster->index_node(secondary - PropellerCluster::kFirstIndexNodeId);
  EXPECT_GE(NodeCounter(secondary_node, "in.stale_replica"), 1u);

  // Anti-entropy rides the commit tick: the secondary replays the missing
  // journal tail, then serves the same floor with the write visible.
  cluster->AdvanceTime(0.5);
  EXPECT_GE(NodeCounter(secondary_node, "in.replica.catch_ups"), 1u);
  auto caught_up =
      cluster->transport().Call(100, secondary, "in.search", query_payload);
  ASSERT_TRUE(caught_up.status.ok());
  auto resp = Decode<SearchResponse>(caught_up.payload);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(std::find(resp->files.begin(), resp->files.end(),
                        FileId{9'500'000}) != resp->files.end());
}

// A write reaches only its primary (the secondary is down), then the
// primary dies while the secondary is still down.  The master promotes the
// secondary, but its promotion catch-up fails, so the promoted copy is
// below the client's read floor.  The search that routes to it re-resolves
// and retries once, never loops, and the copy's next anti-entropy tick
// closes the gap.
TEST(ReplicationTest, SearchOnPromotedCopyBelowTheFloorRetriesOnce) {
  auto cluster = MakeLoadedCluster(MakeConfig(/*replication_factor=*/2,
                                              /*hedged=*/false));
  const FileId file = 1;
  const GroupId g = GroupOfFile(*cluster, file);
  ASSERT_NE(g, 0u);
  const std::vector<NodeId> replicas = cluster->master().ReplicasOfGroup(g);
  ASSERT_EQ(replicas.size(), 2u);
  const NodeId primary = replicas[0];
  const NodeId secondary = replicas[1];

  // At r = 2 the quorum is the primary alone.
  cluster->KillIndexNode(IndexOf(secondary));
  ASSERT_TRUE(cluster->client().BatchUpdate(HugeUpdate(file),
                                            cluster->now()).ok());

  // The secondary (still unreachable, so it neither ticks nor answers the
  // promotion catch-up) reports in, so only the primary misses heartbeats.
  cluster->KillIndexNode(IndexOf(primary));
  HeartbeatRequest hb;
  hb.node = secondary;
  hb.now_s = cluster->now() + 4.0;
  hb.groups = cluster->index_node(IndexOf(secondary)).GroupStats();
  ASSERT_TRUE(cluster->transport()
                  .Call(secondary, PropellerCluster::kMasterId, "mn.heartbeat",
                        Encode(hb))
                  .status.ok());
  cluster->AdvanceTime(4.0);
  ASSERT_TRUE(cluster->master().IsNodeDead(primary));
  ASSERT_FALSE(cluster->master().IsNodeDead(secondary));
  ASSERT_EQ(cluster->master().ReplicasOfGroup(g).front(), secondary);
  cluster->ReviveIndexNode(IndexOf(secondary));

  auto stale = cluster->client().Search(HugeFiles());
  EXPECT_EQ(
      ClientCounter(cluster->client(), "client.search.stale_replica_retries"),
      1u);
  ASSERT_FALSE(stale.ok()) << "nothing closed the gap between the attempts";
  EXPECT_EQ(stale.status().code(), StatusCode::kStaleReplica);

  cluster->AdvanceTime(1.0);
  auto caught_up = cluster->client().Search(HugeFiles());
  ASSERT_TRUE(caught_up.ok()) << caught_up.status().ToString();
  EXPECT_EQ(caught_up->files, (std::vector<FileId>{file}));
  EXPECT_EQ(
      ClientCounter(cluster->client(), "client.search.stale_replica_retries"),
      1u);
}

// --- 5. hedged reads under a sustained straggler -----------------------------

TEST(ReplicationTest, HedgeFiresOnStragglerAndAccountingBalances) {
  auto hedged = MakeLoadedCluster(MakeConfig(/*replication_factor=*/2,
                                             /*hedged=*/true));
  auto unhedged = MakeLoadedCluster(MakeConfig(/*replication_factor=*/2,
                                               /*hedged=*/false));
  auto parsed = ParseQuery(kQuery, 1'000'000);
  ASSERT_TRUE(parsed.ok());

  // Warm-up trains the client's branch-latency quantile; no straggler yet,
  // so nothing hedges.
  std::vector<FileId> expected;
  for (int i = 0; i < 10; ++i) {
    auto warm = hedged->client().Search(parsed->predicate);
    ASSERT_TRUE(warm.ok());
    expected = warm->files;
    ASSERT_TRUE(unhedged->client().Search(parsed->predicate).ok());
  }
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(ClientCounter(hedged->client(), "client.search.hedges"), 0u);

  // One node turns into a sustained straggler (500x handler cost) on both
  // clusters.  It must be a primary for some group or no branch routes
  // through it.
  const NodeId slow = hedged->index_node(0).id();
  bool is_primary = false;
  for (GroupId g : AllGroups(*hedged)) {
    if (hedged->master().ReplicasOfGroup(g).front() == slow) is_primary = true;
  }
  ASSERT_TRUE(is_primary) << "node " << slow << " holds no primaries";
  for (PropellerCluster* c : {hedged.get(), unhedged.get()}) {
    auto plan = std::make_shared<net::FaultPlan>(1);
    plan->SetNodeSlowness(slow, 500.0);
    c->transport().SetFaultPlan(plan);
  }

  auto tail = hedged->client().Search(parsed->predicate);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->files, expected)
      << "a hedged answer must be exactly the unhedged answer";
  const uint64_t hedges =
      ClientCounter(hedged->client(), "client.search.hedges");
  const uint64_t wins =
      ClientCounter(hedged->client(), "client.search.hedge_wins");
  const uint64_t cancelled =
      ClientCounter(hedged->client(), "client.search.hedge_cancelled");
  EXPECT_GE(hedges, 1u) << "the straggler branch must hedge";
  EXPECT_GE(wins, 1u) << "the secondary must beat a 500x straggler";
  EXPECT_EQ(wins + cancelled, hedges)
      << "every fired hedge is either a win or a cancellation";

  // Hedging beats waiting for the straggler.
  auto slow_tail = unhedged->client().Search(parsed->predicate);
  ASSERT_TRUE(slow_tail.ok());
  EXPECT_EQ(slow_tail->files, expected);
  EXPECT_LT(tail->cost.seconds(), slow_tail->cost.seconds());
  EXPECT_EQ(ClientCounter(unhedged->client(), "client.search.hedges"), 0u);
}

// The first search branch's primary drops every attempt and its hedge's
// secondaries fail every attempt too.  The search fails with the primary's
// error, and the fired hedge counts as cancelled.  (Serial engine: the
// first branch runs, hedge included, before any other branch calls the
// secondaries.)
TEST(ReplicationTest, HedgeWithBothSidesFailedReturnsThePrimaryError) {
  ClusterConfig cfg = MakeConfig(/*replication_factor=*/2);
  auto cluster = MakeLoadedCluster(cfg);
  auto parsed = ParseQuery(kQuery, 1'000'000);
  ASSERT_TRUE(parsed.ok());

  ResolveSearchRequest rreq;
  auto rcall = cluster->transport().Call(100, PropellerCluster::kMasterId,
                                         "mn.resolve_search", Encode(rreq));
  ASSERT_TRUE(rcall.status.ok());
  auto targets = Decode<ResolveSearchResponse>(rcall.payload);
  ASSERT_TRUE(targets.ok());
  ASSERT_GT(targets->targets.size(), 1u);
  const NodeId first = targets->targets[0].node;
  std::set<NodeId> hedge_nodes;
  for (GroupId g : targets->targets[0].groups) {
    for (const GroupReplicaSet& rs : targets->replicas) {
      if (rs.group == g && rs.nodes.size() > 1) hedge_nodes.insert(rs.nodes[1]);
    }
  }
  ASSERT_FALSE(hedge_nodes.empty());

  const auto attempts = static_cast<uint64_t>(cfg.client.retry.max_attempts);
  auto plan = std::make_shared<net::FaultPlan>(1);
  plan->AddRule(net::FaultRule{.dst = first,
                               .method = "in.search",
                               .drop_prob = 1.0,
                               .max_triggers = attempts});
  for (NodeId n : hedge_nodes) {
    plan->AddRule(net::FaultRule{.dst = n,
                                 .method = "in.search",
                                 .fail_prob = 1.0,
                                 .max_triggers = attempts});
  }
  cluster->transport().SetFaultPlan(plan);
  auto r = cluster->client().Search(parsed->predicate);
  cluster->transport().SetFaultPlan(nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  const std::string message = r.status().ToString();
  EXPECT_NE(message.find("node " + std::to_string(first)), std::string::npos)
      << message;
  EXPECT_NE(message.find("request dropped"), std::string::npos) << message;
  EXPECT_EQ(message.find("injected failure"), std::string::npos) << message;

  const uint64_t hedges =
      ClientCounter(cluster->client(), "client.search.hedges");
  const uint64_t wins =
      ClientCounter(cluster->client(), "client.search.hedge_wins");
  const uint64_t cancelled =
      ClientCounter(cluster->client(), "client.search.hedge_cancelled");
  EXPECT_EQ(hedges, 1u);
  EXPECT_EQ(wins, 0u);
  EXPECT_EQ(wins + cancelled, hedges);
}

// --- 6. off-mode bit-identity ------------------------------------------------

TEST(ReplicationTest, FactorOneStaysOnTheLegacyWireFormat) {
  auto cluster = MakeLoadedCluster(MakeConfig(/*replication_factor=*/1));
  auto parsed = ParseQuery(kQuery, 1'000'000);
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(cluster->client().Search(parsed->predicate).ok());

  // No replication machinery ran.
  EXPECT_EQ(ClientCounter(cluster->client(), "client.search.hedges"), 0u);
  EXPECT_EQ(ClientCounter(cluster->client(), "client.search.hedge_wins"), 0u);
  EXPECT_EQ(
      ClientCounter(cluster->client(), "client.search.stale_replica_retries"),
      0u);

  // Resolve responses carry an empty replica-set list: re-encoding the
  // decoded response reproduces the wire bytes exactly, so nothing extra
  // rode along.
  ResolveSearchRequest rreq;
  auto rcall = cluster->transport().Call(100, PropellerCluster::kMasterId,
                                         "mn.resolve_search", Encode(rreq));
  ASSERT_TRUE(rcall.status.ok());
  auto decoded = Decode<ResolveSearchResponse>(rcall.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->replicas.empty());
  EXPECT_EQ(Encode(*decoded), rcall.payload);

  // Role-less stage requests are acked with commit sequence 0.
  auto groups = AllGroups(*cluster);
  ASSERT_FALSE(groups.empty());
  StageUpdatesRequest sreq;
  sreq.group = *groups.begin();
  sreq.now_s = cluster->now();
  FileUpdate u;
  u.file = 9'700'000;
  u.attrs.Set("size", AttrValue(int64_t{1} << 20));
  sreq.updates.push_back(u);
  auto scall =
      cluster->transport().Call(100, cluster->master().NodeOfGroup(*groups.begin())
                                         .value(),
                                "in.stage_updates", Encode(sreq));
  ASSERT_TRUE(scall.status.ok());
  auto ack = Decode<StageUpdatesResponse>(scall.payload);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->seq, 0u);
}

}  // namespace
}  // namespace propeller::core
