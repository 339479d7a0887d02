// Tail-tolerant reads: r-way group replication with hedged requests and
// straggler-aware recovery.
//
// Pinned-down properties:
//   1. Wire compatibility — every replication field (replica sets, stage
//      roles, seq acks, read floors) is trailing-optional: absent at r=1,
//      so the unreplicated wire format is byte-identical to before.
//   2. Quorum writes — at r=2 every group lives on two distinct nodes,
//      both replicas hold the data, and the primary acks journal commit
//      sequences the client tracks as read-your-writes floors.
//   3. Promotion — wiping a node permanently turns recovery into replica
//      promotion + journal catch-up; no acknowledged write is lost and the
//      dead node leaves every replica set.
//   4. Read-your-writes — a lagging secondary answers kStaleReplica for a
//      floor it has not applied, and anti-entropy catch-up (in.tick)
//      closes the gap.
//   5. Hedged reads — a sustained straggler primary makes the client hedge
//      to the secondary; every fired hedge is a win or a cancellation, the
//      result set stays exact, and hedging strictly beats not hedging.
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
  cfg.replication_factor = replication_factor;
  cfg.hedged_reads = hedged;
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
