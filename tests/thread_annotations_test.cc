// Smoke tests for the annotated locking wrappers (common/mutex.h,
// common/thread_annotations.h).
//
// Under Clang with -Wthread-safety the annotated demo class below is what
// the analysis actually checks; under GCC the macros expand to nothing and
// this suite simply proves the wrappers compile and behave like the
// standard primitives they replace.
#include "common/mutex.h"
#include "common/thread_annotations.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace propeller {
namespace {

// A miniature version of the pattern used by every locked class in src/:
// a guarded counter with public locking methods and a private
// REQUIRES(mu_) helper.
class AnnotatedCounter {
 public:
  void Add(int delta) {
    MutexLock lock(mu_);
    AddLocked(delta);
  }

  int Get() const {
    MutexLock lock(mu_);
    return value_;
  }

  bool TryAdd(int delta) {
    if (!mu_.try_lock()) return false;
    AddLocked(delta);
    mu_.unlock();
    return true;
  }

 private:
  void AddLocked(int delta) REQUIRES(mu_) { value_ += delta; }

  mutable Mutex mu_{LockRank::kUnranked};
  int value_ GUARDED_BY(mu_) = 0;
};

// Reader/writer variant mirroring core::IndexNode's groups_mu_ usage.
class AnnotatedTable {
 public:
  void Put(int key, int value) {
    WriterMutexLock lock(mu_);
    entries_.push_back({key, value});
  }

  int CountKey(int key) const {
    ReaderMutexLock lock(mu_);
    int n = 0;
    for (const auto& e : entries_) {
      if (e.first == key) ++n;
    }
    return n;
  }

 private:
  mutable SharedMutex mu_{LockRank::kUnranked};
  std::vector<std::pair<int, int>> entries_ GUARDED_BY(mu_);
};

TEST(ThreadAnnotationsTest, MacrosExpandOnFunctionsAndMembers) {
  // The declarations above are the real assertion: GUARDED_BY / REQUIRES /
  // CAPABILITY must be benign under whichever compiler built this test.
  AnnotatedCounter c;
  c.Add(2);
  EXPECT_TRUE(c.TryAdd(3));
  EXPECT_EQ(c.Get(), 5);
}

TEST(ThreadAnnotationsTest, MutexLockIsExclusive) {
  AnnotatedCounter c;
  std::vector<std::thread> threads;
  constexpr int kThreads = 8;
  constexpr int kIters = 1000;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIters; ++i) c.Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Get(), kThreads * kIters);
}

TEST(ThreadAnnotationsTest, TryLockFailsWhenHeld) {
  Mutex mu(LockRank::kUnranked);
  mu.lock();
  std::thread t([&mu] { EXPECT_FALSE(mu.try_lock()); });
  t.join();
  mu.unlock();
  std::thread t2([&mu] {
    EXPECT_TRUE(mu.try_lock());
    mu.unlock();
  });
  t2.join();
}

TEST(ThreadAnnotationsTest, SharedMutexAllowsConcurrentReaders) {
  AnnotatedTable table;
  table.Put(1, 10);
  table.Put(1, 20);
  table.Put(2, 30);
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&table] {
      for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(table.CountKey(1), 2);
        EXPECT_EQ(table.CountKey(2), 1);
      }
    });
  }
  std::thread writer([&table] {
    for (int i = 0; i < 100; ++i) table.Put(3, i);
  });
  for (auto& t : readers) t.join();
  writer.join();
  EXPECT_EQ(table.CountKey(3), 100);
}

TEST(ThreadAnnotationsTest, CondVarSignalsAcrossThreads) {
  Mutex mu(LockRank::kUnranked);
  CondVar cv;
  int stage = 0;  // guarded by mu
  std::thread worker([&] {
    MutexLock lock(mu);
    while (stage != 1) cv.Wait(mu);
    stage = 2;
    cv.NotifyAll();
  });
  {
    MutexLock lock(mu);
    stage = 1;
    cv.NotifyAll();
    while (stage != 2) cv.Wait(mu);
  }
  worker.join();
  EXPECT_EQ(stage, 2);
}

TEST(ThreadAnnotationsTest, RankAccessorsReflectConstruction) {
  Mutex unranked(LockRank::kUnranked);
  EXPECT_EQ(unranked.rank(), LockRank::kUnranked);
  EXPECT_STREQ(unranked.name(), "mutex");
  Mutex named(LockRank::kIndexGroup, "test::mu_");
  EXPECT_EQ(named.rank(), LockRank::kIndexGroup);
  EXPECT_STREQ(named.name(), "test::mu_");
}

}  // namespace
}  // namespace propeller
