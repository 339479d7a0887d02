// Sharded master & placement leases (DESIGN.md "Sharded master & leases"):
// per-shard epoch isolation, lease grant / renewal / expiry / revocation,
// delegated resolves answering bit-equal to the master, the shards=1
// off-mode staying bit-identical, and concurrent resolves staying clean
// under TSan (the `master` ctest label / tsan-master preset).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "core/master_node.h"

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

// First `count` file ids whose metadata lives on `shard` (of `n`).
std::vector<FileId> FilesOfShard(uint32_t shard, uint32_t n, size_t count) {
  std::vector<FileId> out;
  for (FileId f = 1; out.size() < count; ++f) {
    if (ShardOfFile(f, n) == shard) out.push_back(f);
  }
  return out;
}

uint64_t Counter(const PropellerCluster& cluster, const std::string& name) {
  auto counters = cluster.Stats().metrics.counters;
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

// --- direct master tests (stub index nodes) ------------------------------

class StubIndexNode : public net::RpcHandler {
 public:
  Response Handle(const std::string& method,
                  const std::string& /*payload*/) override {
    ++calls[method];
    if (method == "in.migrate_out") {
      MigrateOutResponse resp;
      return {Status::Ok(), Encode(resp), sim::Cost(0.001)};
    }
    return {Status::Ok(), {}, sim::Cost(0.0001)};
  }
  std::map<std::string, int> calls;
};

class ShardedMasterTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kShards = 4;

  ShardedMasterTest() : master_(1, &transport_, Config()) {
    transport_.Register(1, &master_);
    for (NodeId id = 10; id < 13; ++id) {
      transport_.Register(id, &stubs_[id - 10]);
      master_.AddIndexNode(id);
    }
  }

  static MasterConfig Config() {
    MasterConfig cfg;
    cfg.acg_policy.cluster_target = 4;
    cfg.num_shards = kShards;
    return cfg;
  }

  net::RpcHandler::Response Call(const std::string& method,
                                 const std::string& payload) {
    auto r = transport_.Call(100, 1, method, payload);
    return {r.status, r.payload, r.cost};
  }

  net::Transport transport_;
  StubIndexNode stubs_[3];
  MasterNode master_;
};

TEST_F(ShardedMasterTest, ResolveBumpsOnlyTheOwningShardsEpoch) {
  std::vector<uint64_t> before(kShards);
  for (uint32_t s = 0; s < kShards; ++s) {
    before[s] = master_.MetadataEpochOfShard(s);
  }

  // Place files that all live on shard 2: only that shard's epoch moves.
  ResolveUpdateRequest req;
  req.files = FilesOfShard(2, kShards, 3);
  ASSERT_TRUE(Call("mn.resolve_update", Encode(req)).status.ok());
  for (uint32_t s = 0; s < kShards; ++s) {
    if (s == 2) {
      EXPECT_GT(master_.MetadataEpochOfShard(s), before[s]);
    } else {
      EXPECT_EQ(master_.MetadataEpochOfShard(s), before[s])
          << "shard " << s << " epoch moved on another shard's mutation";
    }
  }
}

TEST_F(ShardedMasterTest, ResolveResponsesCarryPerShardEpochVector) {
  ResolveUpdateRequest req;
  req.files = FilesOfShard(0, kShards, 2);
  auto files1 = FilesOfShard(1, kShards, 2);
  req.files.insert(req.files.end(), files1.begin(), files1.end());
  auto resp = Call("mn.resolve_update", Encode(req));
  ASSERT_TRUE(resp.status.ok());
  auto decoded = Decode<ResolveUpdateResponse>(resp.payload);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->shard_epochs.size(), kShards);
  EXPECT_GT(decoded->shard_epochs[0], 0u);
  EXPECT_GT(decoded->shard_epochs[1], 0u);
  // Untouched shards publish nothing on this response.
  EXPECT_EQ(decoded->shard_epochs[3], 0u);
}

TEST_F(ShardedMasterTest, GroupIdsNeverCollideAcrossShards) {
  ResolveUpdateRequest req;
  for (FileId f = 1; f <= 64; ++f) req.files.push_back(f);
  auto resp = Call("mn.resolve_update", Encode(req));
  ASSERT_TRUE(resp.status.ok());
  auto decoded = Decode<ResolveUpdateResponse>(resp.payload);
  ASSERT_TRUE(decoded.ok());
  for (const auto& p : decoded->placements) {
    // A shard's groups carry its residue class, so the file's shard and
    // its group's shard must coincide — the invariant delegated routing
    // and per-shard cache eviction both lean on.
    EXPECT_EQ(ShardOfGroup(p.group, kShards), ShardOfFile(p.file, kShards))
        << "file " << p.file << " group " << p.group;
  }
}

TEST_F(ShardedMasterTest, LeaseLapsesWithoutRenewal) {
  MasterConfig cfg = Config();
  cfg.placement_leases = true;
  cfg.lease_duration_s = 2.0;
  net::Transport transport;
  StubIndexNode stub;
  MasterNode master(1, &transport, cfg);
  transport.Register(1, &master);
  transport.Register(10, &stub);
  master.AddIndexNode(10);

  // One heartbeat grants every shard to the only node.
  HeartbeatRequest hb;
  hb.node = 10;
  hb.now_s = 1.0;
  ASSERT_TRUE(transport.Call(10, 1, "mn.heartbeat", Encode(hb)).status.ok());
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(master.LeaseHolderOfShard(s), 10u);
  }

  // No renewal: the failure-detector tick past expiry lapses every lease.
  TickRequest tick;
  tick.now_s = 10.0;
  ASSERT_TRUE(transport.Call(1, 1, "mn.tick", Encode(tick)).status.ok());
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(master.LeaseHolderOfShard(s), 0u) << "shard " << s;
  }
  EXPECT_GE(master.MetricsSnapshot().counters.at("master.lease.expired"),
            kShards);
}

// --- cluster tests (leases + delegation end to end) ----------------------

ClusterConfig LeaseConfig(int shards) {
  ClusterConfig cfg;
  cfg.index_nodes = 4;
  cfg.master.acg_policy.cluster_target = 10;
  cfg.master_shards = shards;
  cfg.placement_leases = true;
  cfg.lease_duration_s = 3.0;
  return cfg;
}

TEST(MasterLeaseTest, HeartbeatsGrantAndRenewShardLeases) {
  PropellerCluster cluster(LeaseConfig(4));
  ASSERT_TRUE(cluster.client().CreateIndex(SizeIndex()).ok());
  std::vector<FileUpdate> updates;
  for (FileId f = 1; f <= 40; ++f) updates.push_back(Upsert(f, 100));
  ASSERT_TRUE(
      cluster.client().BatchUpdate(std::move(updates), cluster.now()).ok());

  cluster.AdvanceTime(1.0);  // first heartbeat round: grants
  for (uint32_t s = 0; s < 4; ++s) {
    const NodeId holder = cluster.master().LeaseHolderOfShard(s);
    EXPECT_NE(holder, 0u) << "shard " << s << " never granted";
    // Round-robin delegation: shard s -> node s % n.
    IndexNode& node = cluster.index_node(s % cluster.num_index_nodes());
    EXPECT_EQ(holder, node.id());
    EXPECT_TRUE(node.HasLease(s));
    EXPECT_EQ(node.LeaseEpoch(s), cluster.master().MetadataEpochOfShard(s));
  }
  EXPECT_GE(Counter(cluster, "master.lease.granted"), 4u);

  const uint64_t renewed_before = Counter(cluster, "master.lease.renewed");
  cluster.AdvanceTime(2.0);  // two more heartbeat rounds: renewals
  EXPECT_GT(Counter(cluster, "master.lease.renewed"), renewed_before);
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_NE(cluster.master().LeaseHolderOfShard(s), 0u);
  }
}

TEST(MasterLeaseTest, NodeDeathRevokesItsLeases) {
  ClusterConfig cfg = LeaseConfig(4);
  cfg.recovery_journal = true;  // groups survive the kill
  PropellerCluster cluster(cfg);
  ASSERT_TRUE(cluster.client().CreateIndex(SizeIndex()).ok());
  std::vector<FileUpdate> updates;
  for (FileId f = 1; f <= 40; ++f) updates.push_back(Upsert(f, 100));
  ASSERT_TRUE(
      cluster.client().BatchUpdate(std::move(updates), cluster.now()).ok());
  cluster.AdvanceTime(1.0);
  const NodeId victim = cluster.master().LeaseHolderOfShard(0);
  ASSERT_EQ(victim, cluster.index_node(0).id());

  const uint64_t expired_before = Counter(cluster, "master.lease.expired");
  cluster.KillIndexNode(0);
  // Enough missed heartbeats for the failure detector to declare it dead.
  for (int i = 0; i < 6; ++i) cluster.AdvanceTime(1.0);
  EXPECT_GT(Counter(cluster, "master.lease.expired"), expired_before);
  // The dead node's shards are unheld (nobody else heartbeats for them);
  // its surviving shards keep their holders.
  EXPECT_EQ(cluster.master().LeaseHolderOfShard(0), 0u);
  EXPECT_NE(cluster.master().LeaseHolderOfShard(1), 0u);

  // Searches still work: clients fall back to the master for the unheld
  // shard instead of trusting a dead delegate.
  Predicate p;
  p.And("size", CmpOp::kGe, AttrValue(int64_t{100}));
  auto r = cluster.client().Search(p, "by_size");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->files.size(), 40u);
}

TEST(MasterLeaseTest, DelegatedResolveMatchesMasterUnderChurn) {
  PropellerCluster cluster(LeaseConfig(4));
  ASSERT_TRUE(cluster.client().CreateIndex(SizeIndex()).ok());

  std::vector<FileId> known;
  for (int round = 0; round < 3; ++round) {
    // Churn: new files placed (and on later rounds, re-placed groups).
    std::vector<FileUpdate> updates;
    for (FileId f = 1; f <= 30; ++f) {
      FileId id = static_cast<FileId>(round) * 100 + f;
      updates.push_back(Upsert(id, 100));
      known.push_back(id);
    }
    ASSERT_TRUE(
        cluster.client().BatchUpdate(std::move(updates), cluster.now()).ok());
    cluster.AdvanceTime(1.0);  // heartbeat: mirrors re-pushed at new epochs

    // Every known file: the delegate's answer must equal the master's.
    ResolveUpdateRequest req;
    req.files = known;
    auto mcall = cluster.transport().Call(100, PropellerCluster::kMasterId,
                                          "mn.resolve_update", Encode(req));
    ASSERT_TRUE(mcall.status.ok());
    auto mresp = Decode<ResolveUpdateResponse>(mcall.payload);
    ASSERT_TRUE(mresp.ok());

    for (size_t i = 0; i < known.size(); ++i) {
      const uint32_t shard = ShardOfFile(known[i], 4);
      const NodeId holder = cluster.master().LeaseHolderOfShard(shard);
      ASSERT_NE(holder, 0u);
      ResolveUpdateRequest dreq;
      dreq.files = {known[i]};
      auto dcall = cluster.transport().Call(100, holder, "in.resolve_update",
                                            Encode(dreq));
      ASSERT_TRUE(dcall.status.ok()) << dcall.status.ToString();
      auto dresp = Decode<ResolveUpdateResponse>(dcall.payload);
      ASSERT_TRUE(dresp.ok());
      ASSERT_EQ(dresp->placements.size(), 1u);
      EXPECT_EQ(dresp->placements[0].group, mresp->placements[i].group)
          << "file " << known[i];
      EXPECT_EQ(dresp->placements[0].node, mresp->placements[i].node)
          << "file " << known[i];
    }
  }
}

TEST(MasterLeaseTest, SteadyStateResolvesBypassTheMaster) {
  PropellerCluster cluster(LeaseConfig(4));
  ASSERT_TRUE(cluster.client().CreateIndex(SizeIndex()).ok());
  std::vector<FileUpdate> warm;
  for (FileId f = 1; f <= 40; ++f) warm.push_back(Upsert(f, 100));
  // Warm-up: place the files, let the heartbeat grant leases and push
  // mirrors, then one more master round-trip teaches the client the (now
  // nonzero) lease-holder table.
  ASSERT_TRUE(cluster.client().BatchUpdate(warm, cluster.now()).ok());
  cluster.AdvanceTime(1.0);
  ASSERT_TRUE(cluster.client().BatchUpdate(warm, cluster.now()).ok());

  const uint64_t master_resolves =
      Counter(cluster, "mn.calls.mn.resolve_update") +
      Counter(cluster, "mn.calls.mn.resolve_search");
  Predicate p;
  p.And("size", CmpOp::kGe, AttrValue(int64_t{100}));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.client().BatchUpdate(warm, cluster.now()).ok());
    auto r = cluster.client().Search(p, "by_size");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->files.size(), 40u);
  }
  // Steady state: every resolve was answered by a delegate.
  EXPECT_EQ(Counter(cluster, "mn.calls.mn.resolve_update") +
                Counter(cluster, "mn.calls.mn.resolve_search"),
            master_resolves);
  EXPECT_GE(Counter(cluster, "client.resolve.delegated"), 20u);
}

// --- off-mode bit-identity ------------------------------------------------

TEST(MasterShardOffModeTest, ShardsOneLeasesOffIsBitIdentical) {
  auto run = [](bool configure) {
    ClusterConfig cfg;
    cfg.index_nodes = 4;
    cfg.master.acg_policy.cluster_target = 10;
    if (configure) {
      // Explicit off-values must not perturb anything the defaults do.
      cfg.master_shards = 1;
      cfg.placement_leases = false;
      cfg.model_resolve_queue = false;
    }
    PropellerCluster cluster(cfg);
    (void)cluster.client().CreateIndex(SizeIndex());
    std::vector<double> costs;
    for (int round = 0; round < 3; ++round) {
      std::vector<FileUpdate> updates;
      for (FileId f = 1; f <= 50; ++f) {
        updates.push_back(
            Upsert(static_cast<FileId>(round) * 100 + f, 100 + f));
      }
      auto u = cluster.client().BatchUpdate(std::move(updates), cluster.now());
      EXPECT_TRUE(u.ok());
      costs.push_back(u->seconds());
      cluster.AdvanceTime(1.0);
      Predicate p;
      p.And("size", CmpOp::kGe, AttrValue(int64_t{120}));
      auto r = cluster.client().Search(p, "by_size");
      EXPECT_TRUE(r.ok());
      costs.push_back(r->cost.seconds());
    }
    auto counters = cluster.Stats().metrics.counters;
    return std::make_pair(costs, counters.at("net.bytes_sent"));
  };
  auto [costs_default, bytes_default] = run(false);
  auto [costs_off, bytes_off] = run(true);
  EXPECT_EQ(costs_default, costs_off);  // exact, element-wise
  EXPECT_EQ(bytes_default, bytes_off);
}

TEST(MasterShardOffModeTest, ShardedClusterReturnsIdenticalSearchResults) {
  auto run = [](int shards) {
    ClusterConfig cfg;
    cfg.index_nodes = 4;
    cfg.master.acg_policy.cluster_target = 10;
    cfg.master_shards = shards;
    PropellerCluster cluster(cfg);
    (void)cluster.client().CreateIndex(SizeIndex());
    std::vector<FileUpdate> updates;
    for (FileId f = 1; f <= 200; ++f) {
      updates.push_back(Upsert(f, static_cast<int64_t>(f)));
    }
    EXPECT_TRUE(
        cluster.client().BatchUpdate(std::move(updates), cluster.now()).ok());
    Predicate p;
    p.And("size", CmpOp::kGe, AttrValue(int64_t{150}));
    auto r = cluster.client().Search(p, "by_size");
    EXPECT_TRUE(r.ok());
    return r->files;
  };
  // Routing differs (per-shard fill groups), results must not.
  EXPECT_EQ(run(1), run(8));
}

// --- concurrency (TSan target: tsan-master preset) -----------------------

TEST(MasterShardConcurrencyTest, ConcurrentResolvesAcrossShardsAreClean) {
  ClusterConfig cfg = LeaseConfig(4);
  cfg.master.acg_policy.cluster_target = 10;
  PropellerCluster cluster(cfg);
  ASSERT_TRUE(cluster.client().CreateIndex(SizeIndex()).ok());
  std::vector<FileUpdate> warm;
  for (FileId f = 1; f <= 80; ++f) warm.push_back(Upsert(f, 100));
  ASSERT_TRUE(cluster.client().BatchUpdate(warm, cluster.now()).ok());
  cluster.AdvanceTime(1.0);

  // Hammer the master's resolve surface from several threads while
  // heartbeats (lease grants) and delegated resolves run: the per-shard
  // mutexes must keep every path clean with no global lock.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cluster, t] {
      for (int i = 0; i < 50; ++i) {
        ResolveUpdateRequest req;
        for (FileId f = 1; f <= 20; ++f) {
          req.files.push_back(static_cast<FileId>(t) * 20 + f);
        }
        auto r = cluster.transport().Call(
            200 + static_cast<NodeId>(t), PropellerCluster::kMasterId,
            "mn.resolve_update", Encode(req));
        ASSERT_TRUE(r.status.ok());
        ResolveSearchRequest sreq;
        sreq.index_name = "by_size";
        auto s = cluster.transport().Call(
            200 + static_cast<NodeId>(t), PropellerCluster::kMasterId,
            "mn.resolve_search", Encode(sreq));
        ASSERT_TRUE(s.status.ok());
      }
    });
  }
  // Heartbeats concurrently re-grant leases against the resolve storm.
  std::thread hb([&cluster] {
    for (int i = 0; i < 20; ++i) {
      HeartbeatRequest req;
      req.node = cluster.index_node(0).id();
      req.now_s = cluster.now();
      req.groups = cluster.index_node(0).GroupStats();
      auto r = cluster.transport().Call(req.node, PropellerCluster::kMasterId,
                                        "mn.heartbeat", Encode(req));
      ASSERT_TRUE(r.status.ok());
    }
  });
  for (auto& t : threads) t.join();
  hb.join();
  // Sanity: the cluster still routes correctly after the storm.
  Predicate p;
  p.And("size", CmpOp::kGe, AttrValue(int64_t{100}));
  auto r = cluster.client().Search(p, "by_size");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->files.size(), 80u);
}

}  // namespace
}  // namespace propeller::core
