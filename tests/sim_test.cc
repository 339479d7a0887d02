// Simulation substrate: cost algebra, disk model, IoContext, net model,
// page cache, server queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <list>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "sim/cost.h"
#include "sim/disk_model.h"
#include "sim/io_context.h"
#include "sim/net_model.h"
#include "sim/server_queue.h"

namespace propeller::sim {
namespace {

TEST(CostTest, Algebra) {
  Cost a(1.5), b(0.5);
  EXPECT_DOUBLE_EQ((a + b).seconds(), 2.0);
  EXPECT_DOUBLE_EQ((a * 3).seconds(), 4.5);
  a += b;
  EXPECT_DOUBLE_EQ(a.seconds(), 2.0);
  EXPECT_LT(b, a);
  EXPECT_DOUBLE_EQ(Cost(0.001).millis(), 1.0);
  EXPECT_DOUBLE_EQ(Cost(0.001).micros(), 1000.0);
}

TEST(CostTest, ParallelMaxTakesSlowestBranch) {
  EXPECT_DOUBLE_EQ(Cost::ParallelMax({Cost(1), Cost(5), Cost(3)}).seconds(), 5.0);
  EXPECT_DOUBLE_EQ(Cost::ParallelMax({}).seconds(), 0.0);
}

TEST(CostClockTest, Accumulates) {
  CostClock clock;
  clock.Advance(Cost(1));
  clock.Advance(Cost(2));
  EXPECT_DOUBLE_EQ(clock.total().seconds(), 3.0);
  clock.Reset();
  EXPECT_DOUBLE_EQ(clock.total().seconds(), 0.0);
}

TEST(DiskModelTest, RandomAccessIncludesSeekAndRotation) {
  DiskModel disk;  // 8.5ms seek + 4.17ms rotation + 4KB transfer
  double ms = disk.RandomPageAccess().millis();
  EXPECT_GT(ms, 12.0);
  EXPECT_LT(ms, 14.0);
}

TEST(DiskModelTest, SequentialAmortizesSeek) {
  DiskModel disk;
  // 1000 sequential pages: one seek + bandwidth-bound transfer.
  double s = disk.SequentialPages(1000).seconds();
  EXPECT_LT(s, 0.06);
  EXPECT_GT(s, 0.04);  // ~4MB at 100MB/s + 12.7ms
  EXPECT_DOUBLE_EQ(disk.SequentialPages(0).seconds(), 0.0);
}

TEST(DiskModelTest, AppendHasNoSeek) {
  DiskModel disk;
  EXPECT_LT(disk.AppendBytes(4096).seconds(), 0.0001);
}

TEST(IoContextTest, CacheHitsAreCheapMissesAreNot) {
  IoContext io(IoParams{.disk = {}, .cache_pages = 16, .cache_hit_us = 2});
  PageStore store = io.CreateStore();
  double miss = store.Read(1).seconds();
  double hit = store.Read(1).seconds();
  EXPECT_GT(miss, 0.01);
  EXPECT_LT(hit, 1e-5);
  EXPECT_EQ(io.CacheStats().hits, 1u);
  EXPECT_EQ(io.CacheStats().misses, 1u);
}

TEST(IoContextTest, StoresAreIsolatedInCache) {
  IoContext io;
  PageStore a = io.CreateStore();
  PageStore b = io.CreateStore();
  a.Read(1);
  // Same page number, different store: still a miss.
  EXPECT_GT(b.Read(1).seconds(), 0.01);
}

TEST(IoContextTest, SequentialLoadWarmsCache) {
  IoContext io;
  PageStore store = io.CreateStore();
  double cold = store.SequentialLoad(100).seconds();
  double warm = store.SequentialLoad(100).seconds();
  EXPECT_GT(cold, warm * 10);
}

TEST(IoContextTest, InvalidateStoreForcesMisses) {
  IoContext io;
  PageStore store = io.CreateStore();
  store.Read(7);
  store.Invalidate();
  EXPECT_GT(store.Read(7).seconds(), 0.01);
}

TEST(IoContextTest, DropCachesClearsEverything) {
  IoContext io;
  PageStore store = io.CreateStore();
  store.Read(1);
  store.Read(2);
  EXPECT_EQ(io.CachedPages(), 2u);
  io.DropCaches();
  EXPECT_EQ(io.CachedPages(), 0u);
}

TEST(IoContextTest, CapacityZeroDisablesCaching) {
  IoContext io(IoParams{.disk = {}, .cache_pages = 0, .cache_hit_us = 2});
  PageStore store = io.CreateStore();
  store.Read(1);
  EXPECT_GT(store.Read(1).seconds(), 0.01) << "no cache -> always miss";
}

TEST(NetModelTest, LatencyPlusBandwidth) {
  NetModel net(NetParams{.latency_us = 100, .bandwidth_mb_per_s = 100});
  // 1 MB at 100 MB/s = 10ms + 0.1ms latency.
  EXPECT_NEAR(net.Send(1'000'000).millis(), 10.1, 0.01);
  // Round trip includes both directions.
  EXPECT_NEAR(net.RoundTrip(1'000'000, 0).millis(), 10.2, 0.01);
}

TEST(PageCacheStatsTest, HitRate) {
  PageCacheStats stats;
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.0);
  stats.hits = 3;
  stats.misses = 1;
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.75);
}

// Textbook LRU (list + map, one allocation per admission): the reference
// that the flat-array PageCache must match observable for observable.
class ReferenceLru {
 public:
  explicit ReferenceLru(uint64_t capacity) : capacity_(capacity) {}

  bool Touch(PageId id) {
    if (capacity_ == 0) {
      ++stats.misses;
      return false;
    }
    auto it = map_.find(id);
    if (it != map_.end()) {
      lru_.erase(it->second);
      lru_.push_front(id);
      it->second = lru_.begin();
      ++stats.hits;
      return true;
    }
    ++stats.misses;
    if (lru_.size() >= capacity_) {
      map_.erase(lru_.back());
      lru_.pop_back();
      ++stats.evictions;
    }
    lru_.push_front(id);
    map_[id] = lru_.begin();
    return false;
  }

  void InvalidateStore(uint64_t store) {
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (it->store == store) {
        map_.erase(*it);
        it = lru_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void Clear() {
    lru_.clear();
    map_.clear();
  }

  uint64_t size() const { return lru_.size(); }

  PageCacheStats stats;

 private:
  uint64_t capacity_;
  std::list<PageId> lru_;
  std::unordered_map<PageId, std::list<PageId>::iterator, PageIdHash> map_;
};

// Seeded random mixes of touches, store invalidations and clears: each
// touch must agree on hit or miss, and the counters and size must match.
TEST(PageCacheTest, MatchesReferenceLru) {
  const uint64_t capacities[] = {0, 1, 7, 64};
  for (uint64_t capacity : capacities) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(testing::Message() << "capacity " << capacity << ", seed " << seed);
      PageCache cache(capacity);
      ReferenceLru ref(capacity);
      Rng rng(seed);
      for (int step = 0; step < 20'000; ++step) {
        const uint64_t roll = rng.Uniform(1000);
        if (roll == 0) {
          cache.Clear();
          ref.Clear();
        } else if (roll < 4) {
          const uint64_t store = rng.Uniform(3);
          cache.InvalidateStore(store);
          ref.InvalidateStore(store);
        } else {
          // 3 stores x 40 pages, about twice the largest capacity: hits
          // and evictions both occur.
          const PageId id{rng.Uniform(3), rng.Uniform(40)};
          ASSERT_EQ(cache.Touch(id), ref.Touch(id)) << "step " << step;
        }
        ASSERT_EQ(cache.size(), ref.size()) << "step " << step;
      }
      EXPECT_EQ(cache.stats().hits, ref.stats.hits);
      EXPECT_EQ(cache.stats().misses, ref.stats.misses);
      EXPECT_EQ(cache.stats().evictions, ref.stats.evictions);
      if (capacity > 0) {
        EXPECT_GT(ref.stats.evictions, 0u);
      }
    }
  }
}

// The same agreement at sizes where the cache's index doubles many times:
// 64 stores x 100 pages under a capacity that evicts (4096) and one that
// never does (100'000), with store invalidations feeding released slots
// back through the free list and two clears, each refilled in order.
TEST(PageCacheTest, MatchesReferenceLruAcrossGrowthAndReuse) {
  constexpr uint64_t kStores = 64;
  constexpr uint64_t kPages = 100;
  const uint64_t capacities[] = {4096, 100'000};
  for (uint64_t capacity : capacities) {
    SCOPED_TRACE(testing::Message() << "capacity " << capacity);
    PageCache cache(capacity);
    ReferenceLru ref(capacity);
    Rng rng(capacity);
    uint64_t invalidations = 0;
    uint64_t peak = 0;
    auto touch = [&](PageId id, int step) {
      ASSERT_EQ(cache.Touch(id), ref.Touch(id)) << "step " << step;
      ASSERT_EQ(cache.size(), ref.size()) << "step " << step;
      peak = std::max(peak, cache.size());
    };
    for (int round = 0; round < 3; ++round) {
      if (round > 0) {
        cache.Clear();
        ref.Clear();
        ASSERT_EQ(cache.size(), 0u);
        for (uint64_t store = 0; store < kStores; ++store) {
          for (uint64_t page = 0; page < kPages; ++page) {
            touch({store, page}, -1);
            if (HasFatalFailure()) return;
          }
        }
      }
      for (int step = 0; step < 30'000; ++step) {
        if (rng.Uniform(500) == 0) {
          const uint64_t store = rng.Uniform(kStores);
          cache.InvalidateStore(store);
          ref.InvalidateStore(store);
          ASSERT_EQ(cache.size(), ref.size()) << "step " << step;
          ++invalidations;
        } else {
          touch({rng.Uniform(kStores), rng.Uniform(kPages)}, step);
          if (HasFatalFailure()) return;
        }
      }
    }
    EXPECT_EQ(cache.stats().hits, ref.stats.hits);
    EXPECT_EQ(cache.stats().misses, ref.stats.misses);
    EXPECT_EQ(cache.stats().evictions, ref.stats.evictions);
    EXPECT_GT(invalidations, 100u);
    if (capacity < kStores * kPages) {
      EXPECT_EQ(peak, capacity);
      EXPECT_GT(ref.stats.evictions, 0u);
    } else {
      EXPECT_EQ(peak, kStores * kPages);
      EXPECT_EQ(ref.stats.evictions, 0u);
    }
  }
}

// Clear drops the pages but not the counters: index nodes report cache
// stats across drop_caches from these monotone totals.
TEST(PageCacheTest, ClearKeepsCounters) {
  PageCache cache(2);
  EXPECT_FALSE(cache.Touch({1, 1}));
  EXPECT_FALSE(cache.Touch({1, 2}));
  EXPECT_TRUE(cache.Touch({1, 1}));
  EXPECT_FALSE(cache.Touch({1, 3}));  // evicts {1, 2}
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.Touch({1, 1}));
  EXPECT_TRUE(cache.Touch({1, 1}));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

// Slots are indexed by 32-bit integers; a capacity past that is refused
// rather than silently wrapped.  The largest legal one allocates nothing
// up front.
TEST(PageCacheTest, RejectsCapacityPastSlotIndexRange) {
  EXPECT_THROW(PageCache(uint64_t{UINT32_MAX} + 1), std::length_error);
  PageCache largest(UINT32_MAX);
  EXPECT_EQ(largest.capacity(), uint64_t{UINT32_MAX});
  EXPECT_FALSE(largest.Touch({1, 1}));
  EXPECT_TRUE(largest.Touch({1, 1}));
}

// Brute-force k-server queue: every Finish scans all k free-times for the
// earliest, and every Admit scans every finish ever recorded, marking the
// ones the arrival has passed — the reference ServerQueue's heaps must
// match decision for decision and bit for bit.
class ReferenceServerQueue {
 public:
  ReferenceServerQueue(size_t servers, size_t bound)
      : free_(servers, 0.0), bound_(bound) {}

  bool Admit(double arrival) {
    for (Recorded& r : finishes_) r.passed = r.passed || r.finish <= arrival;
    if (bound_ > 0 && Waiting() >= bound_) return false;
    ++unfinished_;
    return true;
  }

  ServerQueue::Slot Finish(double arrival, double service) {
    --unfinished_;
    size_t earliest = 0;
    for (size_t i = 1; i < free_.size(); ++i) {
      if (free_[i] < free_[earliest]) earliest = i;
    }
    const double start = std::max(arrival, free_[earliest]);
    free_[earliest] = start + service;
    finishes_.push_back({free_[earliest], false});
    return {start, free_[earliest]};
  }

  void Cancel() { --unfinished_; }

  size_t Waiting() const {
    size_t outstanding = unfinished_;
    for (const Recorded& r : finishes_) outstanding += r.passed ? 0 : 1;
    return outstanding > free_.size() ? outstanding - free_.size() : 0;
  }

 private:
  struct Recorded {
    double finish;
    bool passed;
  };
  std::vector<double> free_;
  std::vector<Recorded> finishes_;
  size_t unfinished_ = 0;
  size_t bound_;
};

// Seeded random Admit / Finish / Cancel sequences near saturation, with
// arrivals that sometimes step backwards (requests racing into a node):
// shed decisions, line lengths and every start and finish must agree.
TEST(ServerQueueTest, MatchesBruteForceModel) {
  for (size_t servers : {1, 4, 16}) {
    for (size_t bound : {0, 1, 4}) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(testing::Message() << "servers " << servers << ", bound "
                                        << bound << ", seed " << seed);
        ServerQueue queue(servers, bound);
        ReferenceServerQueue ref(servers, bound);
        Rng rng(seed);
        std::vector<double> held;  // arrivals of admitted, unreleased requests
        double clock = 1.0;
        uint64_t shed = 0;
        uint64_t waited = 0;
        for (int step = 0; step < 5'000; ++step) {
          if (!held.empty() && rng.Bernoulli(0.5)) {
            const size_t pick = rng.Uniform(held.size());
            const double arrival = held[pick];
            held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
            if (rng.Bernoulli(0.1)) {
              queue.Cancel();
              ref.Cancel();
            } else {
              const double service = rng.Exponential(1.0);
              const ServerQueue::Slot got = queue.Finish(arrival, service);
              const ServerQueue::Slot want = ref.Finish(arrival, service);
              ASSERT_EQ(std::bit_cast<uint64_t>(got.start),
                        std::bit_cast<uint64_t>(want.start))
                  << "step " << step;
              ASSERT_EQ(std::bit_cast<uint64_t>(got.finish),
                        std::bit_cast<uint64_t>(want.finish))
                  << "step " << step;
              waited += got.start > arrival;
            }
          } else {
            // Offered load ~1.1x the k servers' capacity.
            clock += rng.Exponential(0.9 / static_cast<double>(servers));
            const double arrival =
                rng.Bernoulli(0.1) ? clock - rng.UniformDouble() : clock;
            const bool admitted = queue.Admit(arrival);
            ASSERT_EQ(admitted, ref.Admit(arrival)) << "step " << step;
            if (admitted) {
              held.push_back(arrival);
            } else {
              ++shed;
            }
          }
          ASSERT_EQ(queue.Waiting(), ref.Waiting()) << "step " << step;
          if (bound > 0) {
            ASSERT_LE(queue.Waiting(), bound) << "step " << step;
          }
        }
        EXPECT_GT(waited, 0u);
        if (bound > 0) {
          EXPECT_GT(shed, 0u);
        } else {
          EXPECT_EQ(shed, 0u);
        }
      }
    }
  }
}

// LPT: every cost arrives at 0, longest first.  Three servers take 7, 5, 4;
// the 3s land on the 4 and the 5, the 2 on the first 7 — makespan 9.
TEST(ServerQueueTest, LongestFirstScheduleMakespan) {
  ServerQueue workers(3);
  double makespan = 0;
  ServerQueue::Slot last;
  for (double cost : {7.0, 5.0, 4.0, 3.0, 3.0, 2.0}) {
    last = workers.Finish(0, cost);
    makespan = std::max(makespan, last.finish);
  }
  EXPECT_EQ(makespan, 9.0);
  EXPECT_EQ(last.start, 7.0);
  EXPECT_EQ(last.finish, 9.0);
  EXPECT_EQ(workers.Waiting(), 3u);  // six finishes recorded, none passed

  // Zero servers clamp to one: the costs run back to back.
  ServerQueue single(0);
  EXPECT_EQ(single.Finish(0, 2.0).finish, 2.0);
  EXPECT_EQ(single.Finish(0, 3.0).start, 2.0);
}

}  // namespace
}  // namespace propeller::sim
