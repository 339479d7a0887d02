// Sharded master (DESIGN.md "Sharded master"): per-shard epoch isolation,
// the per-shard resolve queue model, the shards=1 off-mode staying
// bit-identical, and concurrent resolves staying clean under TSan (the
// `master` ctest label, run by the tsan preset).
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <thread>
#include <vector>

#include "common/rng.h"
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
    // its group's shard must coincide — the invariant per-shard cache
    // eviction leans on.
    EXPECT_EQ(ShardOfGroup(p.group, kShards), ShardOfFile(p.file, kShards))
        << "file " << p.file << " group " << p.group;
  }
}

// --- resolve queue model --------------------------------------------------

// Pins the per-shard resolve queues (model_resolve_queue) under a seeded
// storm of arrival-stamped resolves: the bits of the summed queueing wait
// and how many resolves waited on each shard.  Recorded before the shard
// queue became a sim::ServerQueue; a change to the recurrence moves them.
TEST(MasterResolveQueueTest, SeededStormIsPinned) {
  struct StormPin {
    uint32_t shards;
    uint64_t wait_sum_bits;
    std::vector<uint64_t> contended;
  };
  const StormPin pins[] = {{1, 0x3fa4df231c039be0ULL, {399}},
                           {4, 0x3f3d001951c75000ULL, {105, 111, 111, 108}}};
  for (const StormPin& pin : pins) {
    SCOPED_TRACE(testing::Message() << pin.shards << " shards");
    MasterConfig cfg;
    cfg.acg_policy.cluster_target = 8;
    cfg.num_shards = static_cast<int>(pin.shards);
    cfg.model_resolve_queue = true;
    net::Transport transport;
    MasterNode master(1, &transport, cfg);
    transport.Register(1, &master);
    StubIndexNode stubs[3];
    for (NodeId id = 10; id < 13; ++id) {
      transport.Register(id, &stubs[id - 10]);
      master.AddIndexNode(id);
    }
    ASSERT_TRUE(transport
                    .Call(100, 1, "mn.create_index",
                          Encode(CreateIndexRequest{SizeIndex()}))
                    .status.ok());
    // Place the population unstamped (arrival 0 bypasses the queues).
    ResolveUpdateRequest place;
    for (FileId f = 1; f <= 200; ++f) place.files.push_back(f);
    ASSERT_TRUE(
        transport.Call(100, 1, "mn.resolve_update", Encode(place)).status.ok());

    Rng rng(7);
    double arrival = 1.0;
    for (int i = 0; i < 400; ++i) {
      arrival += rng.Exponential(3e-6);
      net::Transport::CallResult r;
      if (rng.Bernoulli(0.2)) {
        ResolveSearchRequest req;
        req.index_name = "by_size";
        req.arrival_s = arrival;
        r = transport.Call(100, 1, "mn.resolve_search", Encode(req));
      } else {
        ResolveUpdateRequest req;
        for (int b = 0; b < 8; ++b) req.files.push_back(1 + rng.Uniform(200));
        req.arrival_s = arrival;
        r = transport.Call(100, 1, "mn.resolve_update", Encode(req));
      }
      ASSERT_TRUE(r.status.ok()) << "op " << i;
    }
    obs::MetricsSnapshot snap = master.MetricsSnapshot();
    const double wait_sum = snap.histograms["mn.shard.queue_wait_s"].sum;
    EXPECT_EQ(std::bit_cast<uint64_t>(wait_sum), pin.wait_sum_bits)
        << std::hexfloat << wait_sum;
    for (uint32_t s = 0; s < pin.shards; ++s) {
      EXPECT_EQ(snap.counters["mn.shard." + std::to_string(s) + ".contended"],
                pin.contended[s])
          << "shard " << s;
    }
  }
}

// --- off-mode bit-identity ------------------------------------------------

TEST(MasterShardOffModeTest, ShardsOneLeasesOffIsBitIdentical) {
  auto run = [](bool configure) {
    ClusterConfig cfg;
    cfg.index_nodes = 4;
    cfg.master.acg_policy.cluster_target = 10;
    if (configure) {
      // Explicit off-values must not perturb anything the defaults do.
      cfg.master.num_shards = 1;
      cfg.master.model_resolve_queue = false;
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
    cfg.master.num_shards = shards;
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

// --- concurrency (TSan target: the tsan preset's `master` label) ---------

TEST(MasterShardConcurrencyTest, ConcurrentResolvesAcrossShardsAreClean) {
  ClusterConfig cfg;
  cfg.index_nodes = 4;
  cfg.master.acg_policy.cluster_target = 10;
  cfg.master.num_shards = 4;
  PropellerCluster cluster(cfg);
  ASSERT_TRUE(cluster.client().CreateIndex(SizeIndex()).ok());
  std::vector<FileUpdate> warm;
  for (FileId f = 1; f <= 80; ++f) warm.push_back(Upsert(f, 100));
  ASSERT_TRUE(cluster.client().BatchUpdate(warm, cluster.now()).ok());
  cluster.AdvanceTime(1.0);

  // Hammer the master's resolve surface from several threads while
  // heartbeats run: the per-shard mutexes must keep every path clean with
  // no global lock.
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
  // Heartbeats concurrently restamp node loads against the resolve storm.
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
