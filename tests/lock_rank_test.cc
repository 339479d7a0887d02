// Runtime lock-rank deadlock detector (common/mutex.h).
//
// Covers: the rank table matching the DESIGN.md lock order, rank-ordered
// acquisition passing, inversions and equal-rank nesting aborting (death
// tests), the kUnranked exemption, shared (reader) acquisitions obeying
// ranks, out-of-order release, and CondVar keeping the rank stack
// consistent across a wait.
#include "common/mutex.h"

#include <gtest/gtest.h>

#include <thread>

namespace propeller {
namespace {

bool ChecksEnabled() { return PROPELLER_LOCK_RANK_CHECKS != 0; }

// The documented lock order (DESIGN.md "Lock ranks & static enforcement"),
// outermost first.  If this test fails, either the enum or the table
// drifted — fix whichever is wrong, in both places.
TEST(LockRankTableTest, MatchesDesignDocOrder) {
  const LockRank design_order[] = {
      LockRank::kClientCache,     // core::PropellerClient::cache_mu_
      LockRank::kMaster,          // core::MasterNode::mu_
      LockRank::kMasterLiveness,  // core::MasterNode::liveness_mu_
      LockRank::kMasterMetadata,  // core::MasterNode::metadata_mu_
      LockRank::kTransportRouting,// net::Transport::mu_
      LockRank::kFaultPlan,       // net::FaultPlan::mu_
      LockRank::kIndexNodeAdmission, // core::IndexNode::admission_mu_
      LockRank::kIndexNodeGroups, // core::IndexNode::groups_mu_
      LockRank::kIndexNodeReplica,// core::IndexNode::replica_mu_
      LockRank::kGroupJournal,    // core::GroupJournal::mu_
      LockRank::kIndexGroupSeal,  // index::IndexGroup::seal_mu_
      LockRank::kIndexGroup,      // index::IndexGroup::mu_
      LockRank::kIndexGroupCache, // index::IndexGroup::cache_mu_
      LockRank::kIoContext,       // sim::IoContext::mu_
      LockRank::kThreadPool,      // ThreadPool::mu_
      LockRank::kMetricsRegistry, // obs::MetricsRegistry::mu_
      LockRank::kTracer,          // obs::Tracer::mu_
      LockRank::kAttrNames,       // index::AttrNames::mu_
  };
  for (size_t i = 1; i < std::size(design_order); ++i) {
    EXPECT_LT(static_cast<int>(design_order[i - 1]),
              static_cast<int>(design_order[i]))
        << "rank order broken between " << LockRankName(design_order[i - 1])
        << " and " << LockRankName(design_order[i]);
  }
  EXPECT_EQ(static_cast<int>(LockRank::kUnranked), 0);
}

TEST(LockRankTableTest, NamesAreStable) {
  EXPECT_STREQ(LockRankName(LockRank::kMaster), "kMaster");
  EXPECT_STREQ(LockRankName(LockRank::kIndexGroup), "kIndexGroup");
  EXPECT_STREQ(LockRankName(LockRank::kClientCache), "kClientCache");
  EXPECT_STREQ(LockRankName(LockRank::kIndexGroupCache), "kIndexGroupCache");
  EXPECT_STREQ(LockRankName(LockRank::kIndexGroupSeal), "kIndexGroupSeal");
  EXPECT_STREQ(LockRankName(LockRank::kIndexNodeReplica), "kIndexNodeReplica");
  EXPECT_STREQ(LockRankName(LockRank::kIndexNodeAdmission),
               "kIndexNodeAdmission");
  EXPECT_STREQ(LockRankName(LockRank::kMasterLiveness), "kMasterLiveness");
  EXPECT_STREQ(LockRankName(LockRank::kMasterMetadata), "kMasterMetadata");
  EXPECT_STREQ(LockRankName(LockRank::kAttrNames), "kAttrNames");
  EXPECT_STREQ(LockRankName(LockRank::kUnranked), "kUnranked");
}

TEST(LockRankTest, OrderedAcquisitionPasses) {
  Mutex master(LockRank::kMaster, "master");
  SharedMutex groups(LockRank::kIndexNodeGroups, "groups");
  Mutex group(LockRank::kIndexGroup, "group");
  Mutex io(LockRank::kIoContext, "io");
  {
    // The deepest real chain in the cluster: master -> groups map ->
    // group -> io.
    MutexLock l1(master);
    ReaderMutexLock l2(groups);
    MutexLock l3(group);
    MutexLock l4(io);
    if (ChecksEnabled()) {
      EXPECT_EQ(lock_rank_internal::HeldRankedLocks(), 4);
    }
  }
  if (ChecksEnabled()) {
    EXPECT_EQ(lock_rank_internal::HeldRankedLocks(), 0);
  }
}

TEST(LockRankTest, ReacquireAfterReleasePasses) {
  Mutex group(LockRank::kIndexGroup, "group");
  Mutex io(LockRank::kIoContext, "io");
  // Sequential (non-nested) acquisitions never violate rank order.
  { MutexLock l(io); }
  { MutexLock l(group); }
  {
    MutexLock l(group);
    MutexLock l2(io);
  }
}

TEST(LockRankTest, OutOfOrderReleaseIsLegal) {
  if (!ChecksEnabled()) GTEST_SKIP() << "lock-rank checks compiled out";
  // Hand-over-hand: acquire A then B, release A before B.
  Mutex a(LockRank::kIndexGroup, "a");
  Mutex b(LockRank::kIoContext, "b");
  a.lock();
  b.lock();
  a.unlock();
  EXPECT_EQ(lock_rank_internal::HeldRankedLocks(), 1);
  b.unlock();
  EXPECT_EQ(lock_rank_internal::HeldRankedLocks(), 0);
}

TEST(LockRankTest, UnrankedLocksAreExempt) {
  Mutex test_only;  // default: kUnranked
  Mutex group(LockRank::kIndexGroup, "group");
  {
    // Ranked-under-unranked and unranked-under-ranked both pass; the
    // exemption is what lets test scaffolding wrap arbitrary calls.
    MutexLock l1(test_only);
    MutexLock l2(group);
    if (ChecksEnabled()) {
      EXPECT_EQ(lock_rank_internal::HeldRankedLocks(), 1);
    }
  }
  {
    MutexLock l1(group);
    MutexLock l2(test_only);
  }
}

TEST(LockRankTest, EachThreadHasItsOwnStack) {
  if (!ChecksEnabled()) GTEST_SKIP() << "lock-rank checks compiled out";
  // A worker thread starts with an empty held-lock stack even while this
  // thread holds a high-rank lock.
  Mutex tracer(LockRank::kTracer, "tracer");
  MutexLock hold(tracer);
  std::thread t([] {
    EXPECT_EQ(lock_rank_internal::HeldRankedLocks(), 0);
    Mutex master(LockRank::kMaster, "master");
    MutexLock l(master);  // would violate on the parent thread's stack
    EXPECT_EQ(lock_rank_internal::HeldRankedLocks(), 1);
  });
  t.join();
}

TEST(LockRankTest, TryLockRecordsTheRank) {
  if (!ChecksEnabled()) GTEST_SKIP() << "lock-rank checks compiled out";
  Mutex group(LockRank::kIndexGroup, "group");
  ASSERT_TRUE(group.try_lock());
  EXPECT_EQ(lock_rank_internal::HeldRankedLocks(), 1);
  group.unlock();
  EXPECT_EQ(lock_rank_internal::HeldRankedLocks(), 0);
}

TEST(LockRankTest, CondVarWaitKeepsRankStackConsistent) {
  if (!ChecksEnabled()) GTEST_SKIP() << "lock-rank checks compiled out";
  Mutex mu(LockRank::kThreadPool, "pool");
  CondVar cv;
  bool ready = false;
  std::thread waker([&] {
    MutexLock lock(mu);
    ready = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    // Wait released and re-acquired mu through the rank-checked wrapper.
    EXPECT_EQ(lock_rank_internal::HeldRankedLocks(), 1);
  }
  waker.join();
  EXPECT_EQ(lock_rank_internal::HeldRankedLocks(), 0);
}

TEST(LockRankDeathTest, InversionAborts) {
  if (!ChecksEnabled()) GTEST_SKIP() << "lock-rank checks compiled out";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Taking the master lock while holding a group lock is the canonical
  // deadlock-in-waiting: another thread doing master -> group blocks
  // forever.  The detector must abort before blocking.
  EXPECT_DEATH(
      {
        Mutex group(LockRank::kIndexGroup, "group");
        Mutex master(LockRank::kMaster, "master");
        MutexLock l1(group);
        MutexLock l2(master);
      },
      "LOCK RANK VIOLATION");
}

TEST(LockRankDeathTest, ShardUnderClientCacheAborts) {
  if (!ChecksEnabled()) GTEST_SKIP() << "lock-rank checks compiled out";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The master's metadata mutex sits above the client's cache lock: a
  // client callback that resolved placements while holding its cache
  // (cache -> RPC -> metadata) would deadlock against the resolve path
  // proper, so taking the cache lock under the metadata mutex must abort.
  EXPECT_DEATH(
      {
        Mutex metadata(LockRank::kMasterMetadata, "metadata");
        Mutex cache(LockRank::kClientCache, "cache");
        MutexLock l1(metadata);
        MutexLock l2(cache);
      },
      "LOCK RANK VIOLATION");
}

TEST(LockRankDeathTest, EqualRankNestingAborts) {
  if (!ChecksEnabled()) GTEST_SKIP() << "lock-rank checks compiled out";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Two distinct locks of the same class deadlock just as easily (thread 1:
  // A then B; thread 2: B then A), so equal ranks are rejected too — this
  // is exactly the "never acquire a second group's mutex" DESIGN.md rule.
  EXPECT_DEATH(
      {
        Mutex group_a(LockRank::kIndexGroup, "group_a");
        Mutex group_b(LockRank::kIndexGroup, "group_b");
        MutexLock l1(group_a);
        MutexLock l2(group_b);
      },
      "LOCK RANK VIOLATION");
}

TEST(LockRankDeathTest, SharedAcquisitionObeysRanks) {
  if (!ChecksEnabled()) GTEST_SKIP() << "lock-rank checks compiled out";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Reader locks still deadlock writers when taken out of order.
  EXPECT_DEATH(
      {
        Mutex group(LockRank::kIndexGroup, "group");
        SharedMutex groups(LockRank::kIndexNodeGroups, "groups");
        MutexLock l1(group);
        ReaderMutexLock l2(groups);
      },
      "LOCK RANK VIOLATION");
}

TEST(LockRankDeathTest, ViolationMessageNamesBothLocks) {
  if (!ChecksEnabled()) GTEST_SKIP() << "lock-rank checks compiled out";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The abort output must print the attempted lock and the held stack so
  // the inversion is diagnosable from the crash alone.
  EXPECT_DEATH(
      {
        Mutex io(LockRank::kIoContext, "IoContext::mu_");
        Mutex group(LockRank::kIndexGroup, "IndexGroup::mu_");
        MutexLock l1(io);
        MutexLock l2(group);
      },
      "acquiring IndexGroup::mu_.*IoContext::mu_ \\(rank 50");
}

}  // namespace
}  // namespace propeller
