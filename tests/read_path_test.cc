// Read-path scalability layers (read_path_caching): client placement
// caching with epoch invalidation, shared-lock group reads, and the
// per-group search-result cache.
//
// Pinned-down properties:
//   1. Wire compatibility — the trailing-optional epoch encoding leaves
//      epoch-0 messages byte-identical to the pre-epoch format.
//   2. Resolve amortization — repeat searches with caching on never touch
//      the master, and the per-group result cache answers them.
//   3. Staleness repair — a cached route invalidated by failure recovery
//      costs exactly one re-resolve + retry, then succeeds with full
//      results (composes with the recovery journal).
//   4. Equivalence — caching on/off agree on results; serial and parallel
//      execution stay bit-identical with caching on.
//   5. Read-your-writes — a client's own writes into groups created after
//      its search targets were cached are found by its next search.
//   6. Concurrency — many real threads searching one group under the
//      shared lock (and probing the result cache) race nothing.  Run under
//      ThreadSanitizer (-DPROPELLER_SANITIZE=thread, see README.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "core/query_parser.h"
#include "index/index_group.h"
#include "workload/dataset.h"

namespace propeller::core {
namespace {

constexpr uint64_t kBaseFiles = 3000;
constexpr char kQuery[] = "size>16m";

ClusterConfig MakeConfig(bool caching, bool parallel = false) {
  ClusterConfig cfg;
  cfg.index_nodes = 2;
  cfg.read_path_caching = caching;
  cfg.parallel_execution = parallel;
  cfg.client.fanout_threads = 4;
  cfg.index_node.search_threads = 4;
  cfg.master.acg_policy.cluster_target = 250;
  cfg.master.acg_policy.merge_limit = 250;
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

uint64_t MasterCounter(const PropellerCluster& cluster, const std::string& k) {
  auto snap = const_cast<PropellerCluster&>(cluster).master().MetricsSnapshot();
  auto it = snap.counters.find(k);
  return it == snap.counters.end() ? 0 : it->second;
}

uint64_t ClientCounter(PropellerClient& client, const std::string& k) {
  auto snap = client.MetricsSnapshot();
  auto it = snap.counters.find(k);
  return it == snap.counters.end() ? 0 : it->second;
}

// --- 1. wire compatibility -------------------------------------------------

TEST(ReadPathProtoTest, AllEpochCarryingMessagesRoundTrip) {
  {
    StageUpdatesRequest req;
    req.group = 7;
    req.now_s = 1.5;
    req.epoch = 9;
    auto rt = Decode<StageUpdatesRequest>(Encode(req));
    ASSERT_TRUE(rt.ok());
    EXPECT_EQ(rt->group, 7u);
    EXPECT_EQ(rt->epoch, 9u);
    req.epoch = 0;
    auto rt0 = Decode<StageUpdatesRequest>(Encode(req));
    ASSERT_TRUE(rt0.ok());
    EXPECT_EQ(rt0->epoch, 0u);
  }
  {
    ResolveSearchResponse resp;
    resp.targets.push_back({10, {1, 2}});
    resp.metadata_epoch = 3;
    auto rt = Decode<ResolveSearchResponse>(Encode(resp));
    ASSERT_TRUE(rt.ok());
    EXPECT_EQ(rt->metadata_epoch, 3u);
    ASSERT_EQ(rt->targets.size(), 1u);
    EXPECT_EQ(rt->targets[0].groups, (std::vector<GroupId>{1, 2}));
  }
  {
    ResolveUpdateResponse resp;
    resp.metadata_epoch = 11;
    auto rt = Decode<ResolveUpdateResponse>(Encode(resp));
    ASSERT_TRUE(rt.ok());
    EXPECT_EQ(rt->metadata_epoch, 11u);
  }
}

// --- 2. resolve amortization ----------------------------------------------

TEST(ReadPathCachingTest, RepeatSearchesSkipResolveAndHitResultCache) {
  auto cluster = MakeLoadedCluster(MakeConfig(/*caching=*/true));
  auto parsed = ParseQuery(kQuery, 1'000'000);
  ASSERT_TRUE(parsed.ok());

  auto first = cluster->client().Search(parsed->predicate);
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->files.empty());
  EXPECT_EQ(MasterCounter(*cluster, "mn.calls.mn.resolve_search"), 1u);

  auto second = cluster->client().Search(parsed->predicate);
  auto third = cluster->client().Search(parsed->predicate);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(second->files, first->files);
  EXPECT_EQ(third->files, first->files);
  // The resolve RPC amortizes to zero: still exactly one after 3 searches.
  EXPECT_EQ(MasterCounter(*cluster, "mn.calls.mn.resolve_search"), 1u);
  EXPECT_EQ(ClientCounter(cluster->client(), "client.placement_cache.hits"),
            2u);
  // Warm repeats are strictly cheaper (no resolve hop, result-cache hits on
  // every group) and deterministic among themselves.
  EXPECT_LT(second->cost.seconds(), first->cost.seconds());
  EXPECT_EQ(second->cost.seconds(), third->cost.seconds());
  // Every group answered the repeats from its memo.
  auto stats = cluster->Stats();
  EXPECT_GT(stats.metrics.counters["in.result_cache.hits"], 0u);
}

TEST(ReadPathCachingTest, BatchUpdatePlacementsAreCachedToo) {
  auto cluster = MakeLoadedCluster(MakeConfig(/*caching=*/true));
  const uint64_t resolved_after_load =
      MasterCounter(*cluster, "mn.calls.mn.resolve_update");
  ASSERT_GT(resolved_after_load, 0u);

  // Re-update the same (already placed) files: the client knows every
  // placement, so no further resolve_update RPC is needed.
  auto rows = workload::SyntheticRows(1, 64, Spec());
  ASSERT_TRUE(cluster->client().BatchUpdate(rows, cluster->now()).ok());
  EXPECT_EQ(MasterCounter(*cluster, "mn.calls.mn.resolve_update"),
            resolved_after_load);

  // Unknown files still resolve (a miss, not an error).
  auto fresh = workload::SyntheticRows(kBaseFiles + 1, 32, Spec());
  ASSERT_TRUE(cluster->client().BatchUpdate(fresh, cluster->now()).ok());
  EXPECT_GT(MasterCounter(*cluster, "mn.calls.mn.resolve_update"),
            resolved_after_load);
}

// --- 3. staleness repair (composes with failure recovery) ------------------

TEST(ReadPathCachingTest, StaleRouteAfterRecoveryRepairsWithOneResolve) {
  ClusterConfig cfg = MakeConfig(/*caching=*/true);
  cfg.recovery_journal = true;
  auto cluster = MakeLoadedCluster(cfg);
  auto parsed = ParseQuery(kQuery, 1'000'000);
  ASSERT_TRUE(parsed.ok());

  auto before = cluster->client().Search(parsed->predicate);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->nodes_queried, 2u)
      << "both nodes must own groups or the staleness scenario is vacuous";

  // Node 1 dies; the failure detector re-homes its groups onto node 0
  // (replaying the journal) and bumps the metadata epoch.  The client's
  // cached routing still names node 1.
  cluster->KillIndexNode(1);
  cluster->AdvanceTime(4.0);
  ASSERT_EQ(cluster->master().DeadNodes().size(), 1u);
  // Node 1 comes back empty-handed: its next heartbeat re-admits it after
  // an in.reset wipe, so epoch-stamped requests for its old groups now get
  // kStaleLocation instead of stale data.
  cluster->ReviveIndexNode(1);
  cluster->AdvanceTime(1.0);

  auto after = cluster->client().Search(parsed->predicate);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->files, before->files)
      << "journal recovery + cache repair must preserve the result set";
  EXPECT_EQ(
      ClientCounter(cluster->client(), "client.placement_cache.stale_retries"),
      1u);
  // Exactly one re-resolve: the first search's plus the repair's.
  EXPECT_EQ(MasterCounter(*cluster, "mn.calls.mn.resolve_search"), 2u);

  // The repaired cache is warm again: another search stays off the master.
  ASSERT_TRUE(cluster->client().Search(parsed->predicate).ok());
  EXPECT_EQ(MasterCounter(*cluster, "mn.calls.mn.resolve_search"), 2u);
}

// The write-side twin: a BatchUpdate whose cached placements name a node
// that died and whose groups the master re-homed.  The shipments to the
// dead node come back UNAVAILABLE, and one repair pass (drop the cache,
// re-resolve the failed files, re-ship them) lands every update.
TEST(ReadPathCachingTest, BatchUpdateThroughDeadCachedRouteRepairsOnce) {
  ClusterConfig cfg = MakeConfig(/*caching=*/true);
  cfg.recovery_journal = true;
  auto cluster = MakeLoadedCluster(cfg);
  cluster->KillIndexNode(1);
  cluster->AdvanceTime(4.0);
  ASSERT_EQ(cluster->master().DeadNodes().size(), 1u);

  // Every base file again, now with a size no base file has.
  const int64_t kHuge = int64_t{1} << 40;
  std::vector<FileUpdate> rows = workload::SyntheticRows(1, kBaseFiles, Spec());
  for (FileUpdate& u : rows) u.attrs.Set("size", index::AttrValue(kHuge));
  const uint64_t resolves =
      MasterCounter(*cluster, "mn.calls.mn.resolve_update");
  auto updated = cluster->client().BatchUpdate(rows, cluster->now());
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(
      ClientCounter(cluster->client(), "client.placement_cache.stale_retries"),
      1u);
  // The cache answered the first pass; the repair re-resolved once.
  EXPECT_EQ(MasterCounter(*cluster, "mn.calls.mn.resolve_update"),
            resolves + 1);

  cluster->AdvanceTime(6.0);
  Predicate huge;
  huge.And("size", index::CmpOp::kGe, index::AttrValue(kHuge));
  auto found = cluster->client().Search(huge);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(found->files.size(), kBaseFiles)
      << "every update must be searchable after the repair";
}

TEST(ReadPathCachingTest, IndexNodeRejectsStaleEpochRequests) {
  auto cluster = MakeLoadedCluster(MakeConfig(/*caching=*/true));
  const NodeId node = PropellerCluster::kFirstIndexNodeId;

  SearchRequest sreq;
  sreq.groups = {999'999};  // never placed anywhere
  sreq.epoch = 5;
  auto stale = cluster->transport().Call(100, node, "in.search", Encode(sreq));
  EXPECT_EQ(stale.status.code(), StatusCode::kStaleLocation);

  // Without an epoch the node keeps the historical contract: unknown
  // groups in a search fan-out are silently skipped.
  sreq.epoch = 0;
  auto skip = cluster->transport().Call(100, node, "in.search", Encode(sreq));
  EXPECT_TRUE(skip.status.ok());

  StageUpdatesRequest ureq;
  ureq.group = 999'999;
  ureq.epoch = 5;
  auto ustale =
      cluster->transport().Call(100, node, "in.stage_updates", Encode(ureq));
  EXPECT_EQ(ustale.status.code(), StatusCode::kStaleLocation);
  ureq.epoch = 0;
  auto unotfound =
      cluster->transport().Call(100, node, "in.stage_updates", Encode(ureq));
  EXPECT_EQ(unotfound.status.code(), StatusCode::kNotFound);
}

TEST(ReadPathCachingTest, MetadataEpochSurvivesSnapshotRestore) {
  ClusterConfig cfg = MakeConfig(/*caching=*/true);
  auto cluster = MakeLoadedCluster(cfg);
  const uint64_t epoch = cluster->master().MetadataEpoch();
  ASSERT_GT(epoch, 1u) << "placements must have bumped the epoch";

  MasterNode standby(99, &cluster->transport(), cfg.master);
  ASSERT_TRUE(standby.RestoreMetadata(cluster->master().SnapshotMetadata()).ok());
  // Restore resumes *past* the snapshot (+1) so a failed-over master can
  // never re-issue an epoch clients already cached under the old primary.
  EXPECT_GT(standby.MetadataEpoch(), epoch);
}

// --- 4. equivalence --------------------------------------------------------

TEST(ReadPathCachingTest, CachingOnAndOffAgreeOnResults) {
  auto off = MakeLoadedCluster(MakeConfig(/*caching=*/false));
  auto on = MakeLoadedCluster(MakeConfig(/*caching=*/true));
  auto parsed = ParseQuery(kQuery, 1'000'000);
  ASSERT_TRUE(parsed.ok());
  for (int round = 0; round < 3; ++round) {
    auto a = off->client().Search(parsed->predicate);
    auto b = on->client().Search(parsed->predicate);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->files, b->files);
    EXPECT_EQ(a->nodes_queried, b->nodes_queried);
  }
  // Caching off: the placement cache is never consulted, never filled.
  EXPECT_EQ(ClientCounter(off->client(), "client.placement_cache.hits"), 0u);
  EXPECT_EQ(ClientCounter(off->client(), "client.placement_cache.misses"), 0u);
}

TEST(ReadPathCachingTest, CachingOnStaysBitIdenticalAcrossExecutionModes) {
  auto serial = MakeLoadedCluster(MakeConfig(true, /*parallel=*/false));
  auto parallel = MakeLoadedCluster(MakeConfig(true, /*parallel=*/true));
  auto parsed = ParseQuery(kQuery, 1'000'000);
  ASSERT_TRUE(parsed.ok());
  for (int round = 0; round < 3; ++round) {
    auto s = serial->client().Search(parsed->predicate);
    auto p = parallel->client().Search(parsed->predicate);
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(s->files, p->files);
    // Bit-identical simulated latency, cache hits included.
    EXPECT_EQ(s->cost.seconds(), p->cost.seconds());
  }
}

// --- 5. read-your-writes across new groups --------------------------------

// Each round writes files no group holds yet, so placement opens new
// groups and bumps the metadata epoch; the client's own update resolve sees
// the new epoch, so its next search must not fan out to the cached targets
// that predate those groups.
TEST(ReadPathCachingTest, OwnWritesIntoNewGroupsAreSearchable) {
  ClusterConfig cfg;
  cfg.index_nodes = 8;
  cfg.read_path_caching = true;
  cfg.master.acg_policy.cluster_target = 32;
  PropellerCluster cluster(cfg);
  ASSERT_TRUE(cluster.client()
                  .CreateIndex({"by_size", index::IndexType::kBTree, {"size"}})
                  .ok());
  Predicate all;
  all.And("size", index::CmpOp::kGe, index::AttrValue(int64_t{0}));
  std::set<FileId> acked;
  for (int round = 0; round < 40; ++round) {
    std::vector<FileUpdate> updates;
    for (int i = 0; i < 50; ++i) {
      FileUpdate u;
      u.file = static_cast<FileId>(round * 50 + i + 1);
      u.attrs.Set("size", index::AttrValue(static_cast<int64_t>(u.file)));
      updates.push_back(std::move(u));
    }
    ASSERT_TRUE(cluster.client().BatchUpdate(updates, cluster.now()).ok());
    for (const FileUpdate& u : updates) acked.insert(u.file);
    cluster.AdvanceTime(0.25);
    auto found = cluster.client().Search(all, "by_size");
    ASSERT_TRUE(found.ok());
    const std::set<FileId> hits(found->files.begin(), found->files.end());
    size_t missing = 0;
    for (FileId f : acked) missing += hits.count(f) == 0u ? 1 : 0;
    EXPECT_EQ(missing, 0u) << "round " << round << " of " << acked.size()
                           << " acknowledged files";
  }
}

}  // namespace
}  // namespace propeller::core

// --- 6. group-level concurrency & result-cache semantics --------------------

namespace propeller::index {
namespace {

FileUpdate Upsert(FileId f, int64_t size, std::string path) {
  FileUpdate u;
  u.file = f;
  u.attrs.Set("size", AttrValue(size));
  u.attrs.Set("path", AttrValue(std::move(path)));
  return u;
}

TEST(GroupResultCacheTest, HitsUntilCommitInvalidates) {
  sim::IoContext io;
  obs::MetricsRegistry metrics;
  IndexGroup group(1, &io, {.metrics = &metrics, .result_cache = true});
  ASSERT_TRUE(
      group.CreateIndex({"by_size", IndexType::kBTree, {"size"}}).ok());
  for (FileId f = 1; f <= 50; ++f) {
    group.StageUpdate(Upsert(f, static_cast<int64_t>(f * 10), "/d/f"));
  }
  group.Commit();
  const uint64_t epoch_after_load = group.CommitEpoch();

  Predicate p;
  p.And("size", CmpOp::kGt, AttrValue(int64_t{250}));
  auto miss = group.Search(p);
  auto hit = group.Search(p);
  EXPECT_EQ(hit.files, miss.files);
  EXPECT_EQ(hit.access_path, "result-cache(" + miss.access_path + ")");
  EXPECT_LT(hit.cost.seconds(), miss.cost.seconds());
  auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.counters["in.result_cache.misses"], 1u);
  EXPECT_EQ(snap.counters["in.result_cache.hits"], 1u);
  EXPECT_EQ(group.CommitEpoch(), epoch_after_load);

  // A new update invalidates on the (search-triggered) commit: the next
  // search misses, recomputes, and sees the new file.
  group.StageUpdate(Upsert(100, 9'999, "/d/new"));
  auto fresh = group.Search(p);
  EXPECT_GT(group.CommitEpoch(), epoch_after_load);
  snap = metrics.Snapshot();
  EXPECT_EQ(snap.counters["in.result_cache.misses"], 2u);
  EXPECT_TRUE(std::find(fresh.files.begin(), fresh.files.end(), FileId{100}) !=
              fresh.files.end());
  EXPECT_EQ(fresh.files.size(), miss.files.size() + 1);
}

TEST(GroupResultCacheTest, EmptyCommitIsEpochNeutralAndKeepsCacheWarm) {
  // An empty commit (a tick firing on a group with nothing staged, or a
  // search racing a just-drained queue) must not invalidate memoized
  // results: the committed state did not change, so the cache stays warm
  // and the epoch stays put.  Regression guard for both group modes.
  for (bool segmented : {false, true}) {
    sim::IoContext io;
    obs::MetricsRegistry metrics;
    IndexGroupOptions options;
    options.metrics = &metrics;
    options.result_cache = true;
    options.segmented = segmented;
    IndexGroup group(1, &io, options);
    ASSERT_TRUE(
        group.CreateIndex({"by_size", IndexType::kBTree, {"size"}}).ok());
    group.StageUpdate(Upsert(1, 100, "/a"));
    group.Commit();

    Predicate p;
    p.And("size", CmpOp::kGt, AttrValue(int64_t{50}));
    group.Search(p);  // fill
    const uint64_t epoch = group.CommitEpoch();
    group.Commit();  // nothing staged
    EXPECT_EQ(group.CommitEpoch(), epoch)
        << (segmented ? "segmented" : "commit-barrier")
        << ": empty commit bumped the epoch";
    auto hit = group.Search(p);
    EXPECT_EQ(hit.access_path.rfind("result-cache(", 0), 0u)
        << (segmented ? "segmented" : "commit-barrier")
        << ": empty commit evicted a still-valid result";
    auto snap = metrics.Snapshot();
    EXPECT_EQ(snap.counters["in.result_cache.hits"], 1u);
    EXPECT_EQ(snap.counters["in.result_cache.misses"], 1u);
  }
}

TEST(GroupResultCacheTest, DisabledCacheNeverEngages) {
  sim::IoContext io;
  obs::MetricsRegistry metrics;
  IndexGroup group(1, &io, {.metrics = &metrics, .result_cache = false});
  ASSERT_TRUE(
      group.CreateIndex({"by_size", IndexType::kBTree, {"size"}}).ok());
  group.StageUpdate(Upsert(1, 100, "/a"));
  group.Commit();

  Predicate p;
  p.And("size", CmpOp::kGt, AttrValue(int64_t{50}));
  auto first = group.Search(p);
  auto second = group.Search(p);
  EXPECT_EQ(first.files, second.files);
  // Identical costs (no probe charge, no memo) and no cache counters at
  // all — the disabled path must be observably untouched.
  EXPECT_EQ(first.cost.seconds(), second.cost.seconds());
  EXPECT_EQ(first.access_path, second.access_path);
  auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.counters.count("in.result_cache.hits"), 0u);
  EXPECT_EQ(snap.counters.count("in.result_cache.misses"), 0u);
}

TEST(GroupSharedLockTest, ConcurrentSameGroupReadersAgree) {
  sim::IoContext io;
  obs::MetricsRegistry metrics;
  IndexGroup group(1, &io, {.metrics = &metrics, .result_cache = true});
  ASSERT_TRUE(
      group.CreateIndex({"by_size", IndexType::kBTree, {"size"}}).ok());
  for (FileId f = 1; f <= 500; ++f) {
    group.StageUpdate(Upsert(f, static_cast<int64_t>(f), "/base/f"));
  }
  group.Commit();

  Predicate p;
  p.And("size", CmpOp::kGt, AttrValue(int64_t{250}));
  const std::vector<FileId> expected = group.Search(p).files;

  constexpr int kReaders = 6;
  constexpr int kRounds = 200;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        if (group.Search(p).files != expected) ++mismatches;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  // With nothing staged, every search after the first is a shared-lock
  // result-cache hit.
  auto snap = metrics.Snapshot();
  EXPECT_EQ(snap.counters["in.result_cache.hits"] +
                snap.counters["in.result_cache.misses"],
            static_cast<uint64_t>(kReaders * kRounds + 1));
}

TEST(GroupSharedLockTest, ReadersRaceAWriterSafely) {
  sim::IoContext io;
  IndexGroup group(1, &io, {.result_cache = true});
  ASSERT_TRUE(
      group.CreateIndex({"by_size", IndexType::kBTree, {"size"}}).ok());
  constexpr FileId kBase = 300;
  constexpr FileId kExtra = 200;
  for (FileId f = 1; f <= kBase; ++f) {
    group.StageUpdate(Upsert(f, 1'000, "/base/f"));
  }
  group.Commit();

  Predicate p;
  p.And("size", CmpOp::kGt, AttrValue(int64_t{500}));
  std::atomic<int> violations{0};
  std::thread writer([&] {
    for (FileId f = kBase + 1; f <= kBase + kExtra; ++f) {
      group.StageUpdate(Upsert(f, 1'000, "/extra/f"));
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        // Search is a commit barrier, so every result is a consistent
        // prefix: all base files, never more than base + extra.
        const size_t n = group.Search(p).files.size();
        if (n < kBase || n > kBase + kExtra) ++violations;
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(violations.load(), 0);
  // Quiesced: everything staged is eventually visible.
  EXPECT_EQ(group.Search(p).files.size(), kBase + kExtra);
}

}  // namespace
}  // namespace propeller::index
