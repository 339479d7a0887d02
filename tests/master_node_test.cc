// MasterNode unit tests: routing, placement, catalog, metadata flush, the
// resolve queue model, and concurrent resolves staying clean under TSan
// (the `master` ctest label, run by the tsan preset).  (Cross-component
// behaviour lives in cluster_test.cc; most of these exercise the master's
// RPC surface directly against stub index nodes.)
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

// Stub Index Node: accepts everything, records calls.
class StubIndexNode : public net::RpcHandler {
 public:
  Response Handle(const std::string& method,
                  const std::string& /*payload*/) override {
    ++calls[method];
    if (method == "in.migrate_out") {
      MigrateOutResponse resp;  // nothing stored: empty migration
      return {Status::Ok(), Encode(resp), sim::Cost(0.001)};
    }
    return {Status::Ok(), {}, sim::Cost(0.0001)};
  }
  std::map<std::string, int> calls;
};

class MasterNodeTest : public ::testing::Test {
 protected:
  MasterNodeTest() : master_(1, &transport_, Config()) {
    transport_.Register(1, &master_);
    for (NodeId id = 10; id < 13; ++id) {
      transport_.Register(id, &stubs_[id - 10]);
      master_.AddIndexNode(id);
    }
  }

  static MasterConfig Config() {
    MasterConfig cfg;
    cfg.acg_policy.cluster_target = 3;
    cfg.acg_policy.merge_limit = 100;
    cfg.metadata_flush_interval = 8;
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

TEST_F(MasterNodeTest, ResolveUpdatePlacesUnknownFiles) {
  ResolveUpdateRequest req;
  req.files = {1, 2, 3};
  auto resp = Call("mn.resolve_update", Encode(req));
  ASSERT_TRUE(resp.status.ok());
  auto decoded = Decode<ResolveUpdateResponse>(resp.payload);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->placements.size(), 3u);
  // cluster_target=3: all three land in the same fill group.
  EXPECT_EQ(decoded->placements[0].group, decoded->placements[1].group);
  // The group was created on exactly one node.
  int creates = 0;
  for (auto& stub : stubs_) creates += stub.calls["in.create_group"];
  EXPECT_EQ(creates, 1);

  // Resolving again returns identical placements, no new groups.
  auto resp2 = Call("mn.resolve_update", Encode(req));
  auto decoded2 = Decode<ResolveUpdateResponse>(resp2.payload);
  EXPECT_EQ(decoded2->placements[0].group, decoded->placements[0].group);
  EXPECT_EQ(decoded2->placements[0].node, decoded->placements[0].node);
}

TEST_F(MasterNodeTest, PlacementBalancesAcrossNodes) {
  // 9 files at cluster_target=3 -> 3 groups -> one per node.
  ResolveUpdateRequest req;
  for (FileId f = 1; f <= 9; ++f) req.files.push_back(f);
  ASSERT_TRUE(Call("mn.resolve_update", Encode(req)).status.ok());
  for (auto& stub : stubs_) {
    EXPECT_EQ(stub.calls["in.create_group"], 1) << "least-loaded placement";
  }
}

TEST_F(MasterNodeTest, CreateIndexBroadcastsToExistingGroups) {
  ResolveUpdateRequest files;
  files.files = {1};
  ASSERT_TRUE(Call("mn.resolve_update", Encode(files)).status.ok());

  CreateIndexRequest req;
  req.spec = {"by_size", index::IndexType::kBTree, {"size"}};
  ASSERT_TRUE(Call("mn.create_index", Encode(req)).status.ok());
  int pushes = 0;
  for (auto& stub : stubs_) pushes += stub.calls["in.create_group"];
  EXPECT_GE(pushes, 2);  // initial create + index push

  // Duplicate name rejected.
  EXPECT_EQ(Call("mn.create_index", Encode(req)).status.code(),
            StatusCode::kAlreadyExists);
  ASSERT_EQ(master_.Catalog().size(), 1u);
}

TEST_F(MasterNodeTest, ResolveSearchCoversEveryGroupExactlyOnce) {
  ResolveUpdateRequest files;
  for (FileId f = 1; f <= 9; ++f) files.files.push_back(f);
  ASSERT_TRUE(Call("mn.resolve_update", Encode(files)).status.ok());

  ResolveSearchRequest req;  // empty name: all groups
  auto resp = Call("mn.resolve_search", Encode(req));
  ASSERT_TRUE(resp.status.ok());
  auto decoded = Decode<ResolveSearchResponse>(resp.payload);
  ASSERT_TRUE(decoded.ok());
  size_t total_groups = 0;
  for (auto& t : decoded->targets) total_groups += t.groups.size();
  EXPECT_EQ(total_groups, master_.NumGroups());
  EXPECT_EQ(decoded->targets.size(), 3u);
}

TEST_F(MasterNodeTest, ResolveSearchUnknownIndexFails) {
  ResolveSearchRequest req;
  req.index_name = "missing";
  EXPECT_EQ(Call("mn.resolve_search", Encode(req)).status.code(),
            StatusCode::kNotFound);
}

TEST_F(MasterNodeTest, FlushAcgTriggersSplitOrchestration) {
  MasterConfig cfg = Config();
  cfg.acg_policy.split_threshold = 10;
  cfg.acg_policy.cluster_target = 100;
  cfg.acg_policy.merge_limit = 100;
  MasterNode master(2, &transport_, cfg);
  transport_.Register(2, &master);
  for (NodeId id = 10; id < 13; ++id) master.AddIndexNode(id);

  FlushAcgRequest req;
  for (FileId i = 0; i < 12; ++i) req.delta.AddEdge(100 + i, 100 + (i + 1) % 12);
  auto r = transport_.Call(100, 2, "mn.flush_acg", Encode(req));
  ASSERT_TRUE(r.status.ok());
  // 12 > threshold 10: a split ran -> migrate_out + install_group issued.
  int migrates = 0, installs = 0;
  for (auto& stub : stubs_) {
    migrates += stub.calls["in.migrate_out"];
    installs += stub.calls["in.install_group"];
  }
  EXPECT_EQ(migrates, 1);
  EXPECT_EQ(installs, 1);
  EXPECT_EQ(master.NumGroups(), 2u);
}

TEST_F(MasterNodeTest, MetadataFlushFiresOnInterval) {
  EXPECT_EQ(master_.FlushCount(), 0u);
  ResolveUpdateRequest req;
  for (FileId f = 1; f <= 30; ++f) req.files.push_back(f);
  ASSERT_TRUE(Call("mn.resolve_update", Encode(req)).status.ok());
  EXPECT_GE(master_.FlushCount(), 1u) << "30 mutations >> interval 8";
}

TEST_F(MasterNodeTest, SnapshotRestoreRoundTripsCatalogAndPlacement) {
  CreateIndexRequest idx;
  idx.spec = {"by_size", index::IndexType::kBTree, {"size"}};
  ASSERT_TRUE(Call("mn.create_index", Encode(idx)).status.ok());
  ResolveUpdateRequest req;
  for (FileId f = 1; f <= 6; ++f) req.files.push_back(f);
  ASSERT_TRUE(Call("mn.resolve_update", Encode(req)).status.ok());

  std::string image = master_.SnapshotMetadata();
  uint64_t groups_before = master_.NumGroups();
  auto node_of_g1 = master_.NodeOfGroup(1);

  ASSERT_TRUE(master_.RestoreMetadata(image).ok());
  EXPECT_EQ(master_.NumGroups(), groups_before);
  EXPECT_EQ(master_.NodeOfGroup(1), node_of_g1);
  ASSERT_EQ(master_.Catalog().size(), 1u);
  EXPECT_EQ(master_.Catalog()[0].name, "by_size");
  // File->group mapping restored: resolving again must not re-place.
  auto resp = Call("mn.resolve_update", Encode(req));
  auto decoded = Decode<ResolveUpdateResponse>(resp.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(master_.NumGroups(), groups_before);
}

// Group ids allocated after a restore continue past the highest restored
// id, so a new group never reuses the id of one the image carries.
TEST_F(MasterNodeTest, RestoredImageAllocatesPastRestoredGroupIds) {
  MetadataImage image;
  image.metadata_epoch = 3;
  const std::pair<GroupId, FileId> groups[] = {{1, 100}, {2, 200}, {5, 500}};
  for (const auto& [group, file] : groups) {
    image.replicas.push_back({group, {static_cast<NodeId>(10 + group % 3)}});
    acg::Acg a;
    a.AddVertex(file);
    BinaryWriter blob;
    a.Serialize(blob);
    image.acg_blobs.push_back({group, std::move(blob).Take()});
  }
  ASSERT_TRUE(master_.RestoreMetadata(Encode(image)).ok());
  EXPECT_EQ(master_.NumGroups(), 3u);
  EXPECT_EQ(master_.MetadataEpoch(), 4u);  // one past the flushed epoch

  ResolveUpdateRequest req;
  req.files = {500, 999};
  auto resp = Call("mn.resolve_update", Encode(req));
  ASSERT_TRUE(resp.status.ok());
  auto decoded = Decode<ResolveUpdateResponse>(resp.payload);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->placements.size(), 2u);
  EXPECT_EQ(decoded->placements[0].group, 5u);  // restored mapping
  EXPECT_EQ(decoded->placements[1].group, 6u);  // new file, new group
  EXPECT_EQ(decoded->metadata_epoch, 5u);
}

TEST_F(MasterNodeTest, CorruptMetadataImageRejected) {
  EXPECT_FALSE(master_.RestoreMetadata("garbage").ok());
}

// A metadata image is decoded strictly: one byte past a valid image is
// corruption, and the failed restore leaves every table as it was.
TEST_F(MasterNodeTest, MetadataImageWithATrailingByteIsRejectedUntouched) {
  CreateIndexRequest idx;
  idx.spec = {"by_size", index::IndexType::kBTree, {"size"}};
  ASSERT_TRUE(Call("mn.create_index", Encode(idx)).status.ok());
  ResolveUpdateRequest req;
  for (FileId f = 1; f <= 6; ++f) req.files.push_back(f);
  ASSERT_TRUE(Call("mn.resolve_update", Encode(req)).status.ok());
  const std::string image = master_.SnapshotMetadata();

  // Move the master past the image, then try to restore the padded image.
  idx.spec.name = "by_mtime";
  ASSERT_TRUE(Call("mn.create_index", Encode(idx)).status.ok());
  const std::string current = master_.SnapshotMetadata();
  const uint64_t epoch = master_.MetadataEpoch();
  Status st = master_.RestoreMetadata(image + '\0');
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_EQ(master_.SnapshotMetadata(), current);
  EXPECT_EQ(master_.MetadataEpoch(), epoch);
  EXPECT_EQ(master_.Catalog().size(), 2u);

  ASSERT_TRUE(master_.RestoreMetadata(image).ok());
  EXPECT_EQ(master_.Catalog().size(), 1u);
}

TEST_F(MasterNodeTest, UnknownMethodRejected) {
  EXPECT_EQ(Call("mn.nope", "").status.code(), StatusCode::kNotFound);
}

TEST_F(MasterNodeTest, HeartbeatUpdatesLoadView) {
  HeartbeatRequest hb;
  hb.node = 10;
  hb.groups = {{1, 100, 10}, {2, 50, 5}};
  EXPECT_TRUE(Call("mn.heartbeat", Encode(hb)).status.ok());
}

// With every index node down, placing a new file's group fails
// UNAVAILABLE naming the group, and no create reaches any node.
TEST_F(MasterNodeTest, PlacementWithEveryNodeDownIsUnavailable) {
  for (NodeId id = 10; id < 13; ++id) transport_.SetNodeDown(id, true);
  ResolveUpdateRequest req;
  req.files = {1};
  auto resp = Call("mn.resolve_update", Encode(req));
  EXPECT_EQ(resp.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(resp.status.ToString().find("group"), std::string::npos)
      << resp.status.ToString();
  for (auto& stub : stubs_) EXPECT_EQ(stub.calls["in.create_group"], 0);
  EXPECT_EQ(master_.NumGroups(), 0u);
}

// --- resolve queue model --------------------------------------------------

IndexSpec SizeIndex() { return {"by_size", index::IndexType::kBTree, {"size"}}; }

// Pins the resolve queue (model_resolve_queue) under a seeded storm of
// arrival-stamped resolves: the bits of the summed queueing wait and how
// many resolves waited.  Recorded before the queue became a
// sim::ServerQueue; a change to the recurrence moves them.
TEST(MasterResolveQueueTest, SeededStormIsPinned) {
  MasterConfig cfg;
  cfg.acg_policy.cluster_target = 8;
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
  // Place the population unstamped (arrival 0 bypasses the queue).
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
  const double wait_sum = snap.histograms["mn.resolve_queue.wait_s"].sum;
  EXPECT_EQ(std::bit_cast<uint64_t>(wait_sum), 0x3fa4df231c039be0ULL)
      << std::hexfloat << wait_sum;
  EXPECT_EQ(snap.counters["mn.resolve_queue.contended"], 399u);
}

// --- concurrency (TSan target: the tsan preset's `master` label) ---------

FileUpdate Upsert(FileId f, int64_t size) {
  FileUpdate u;
  u.file = f;
  u.attrs.Set("size", index::AttrValue(size));
  return u;
}

TEST(MasterConcurrencyTest, ConcurrentResolvesAndHeartbeatsAreClean) {
  ClusterConfig cfg;
  cfg.index_nodes = 4;
  cfg.master.acg_policy.cluster_target = 10;
  PropellerCluster cluster(cfg);
  ASSERT_TRUE(cluster.client().CreateIndex(SizeIndex()).ok());
  std::vector<FileUpdate> warm;
  for (FileId f = 1; f <= 80; ++f) warm.push_back(Upsert(f, 100));
  ASSERT_TRUE(cluster.client().BatchUpdate(warm, cluster.now()).ok());
  cluster.AdvanceTime(1.0);

  // Hammer the master's resolve surface from several threads while
  // heartbeats run: the metadata and liveness mutexes must keep every path
  // clean.
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
  p.And("size", index::CmpOp::kGe, index::AttrValue(int64_t{100}));
  auto r = cluster.client().Search(p, "by_size");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->files.size(), 80u);
}

}  // namespace
}  // namespace propeller::core
