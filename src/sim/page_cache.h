// LRU page cache shared by all stores on one simulated machine.
//
// The cache is the mechanism behind several of the paper's results: the
// cold/warm search gap (Table IV/V), the super-linear cluster scaling once
// per-node index shares fit in RAM (Section V-C), and the partition-size
// sensitivity (Fig. 2).  Pages are identified by (store id, page number).
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace propeller::sim {

struct PageId {
  uint64_t store = 0;
  uint64_t page = 0;

  friend bool operator==(const PageId& a, const PageId& b) {
    return a.store == b.store && a.page == b.page;
  }
};

struct PageIdHash {
  size_t operator()(const PageId& id) const {
    uint64_t x = id.store * 0x9e3779b97f4a7c15ULL ^ id.page;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<size_t>(x);
  }
};

struct PageCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;

  double HitRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

// Exact LRU over a flat slot array.  Each cached page owns one `Slot`;
// the recency order is a doubly linked list of slot indices, and an
// open-addressing table (linear probing, power-of-two size, load <= 1/2,
// backward-shift deletion) maps a page to its slot.  Both arrays grow as
// pages are admitted, never up front to `capacity`.  A hit reads one
// table entry and relinks the page's slot beside its list neighbours; a
// miss on a full cache relabels the tail slot in place and allocates
// nothing.
class PageCache {
 public:
  // capacity_pages == 0 disables caching (every access misses).  Slot
  // indices are 32-bit, so a larger capacity than UINT32_MAX is rejected.
  explicit PageCache(uint64_t capacity_pages) : capacity_(capacity_pages) {
    if (capacity_ > kNone) throw std::length_error("PageCache capacity over 2^32 - 1 pages");
  }

  // Touches a page; returns true on hit.  On miss the page is admitted and
  // the LRU victim evicted if the cache is full.
  bool Touch(PageId id) {
    if (capacity_ == 0) {
      ++stats_.misses;
      return false;
    }
    if (const uint32_t s = Find(id); s != kNone) {
      MoveToFront(s);
      ++stats_.hits;
      return true;
    }
    ++stats_.misses;
    if (size_ >= capacity_) {
      const uint32_t s = tail_;
      Unindex(s);
      slots_[s].id = id;
      MoveToFront(s);
      Index(s);
      ++stats_.evictions;
      return false;
    }
    uint32_t s = free_;
    if (s != kNone) {
      free_ = slots_[s].next;
      slots_[s].id = id;
    } else {
      s = static_cast<uint32_t>(slots_.size());
      slots_.push_back({id, kNone, kNone});
    }
    ++size_;
    if (size_ * 2 > table_.size()) Grow();
    PushFront(s);
    Index(s);
    return false;
  }

  // Drops every cached page belonging to `store` (e.g. the store was
  // deleted or migrated off this machine).
  void InvalidateStore(uint64_t store) {
    for (uint32_t s = head_; s != kNone;) {
      const uint32_t next = slots_[s].next;
      if (slots_[s].id.store == store) {
        Unindex(s);
        Unlink(s);
        slots_[s].next = free_;
        free_ = s;
        --size_;
      }
      s = next;
    }
  }

  // Drops everything (models `echo 3 > drop_caches` before cold runs).
  // The hit/miss/eviction counters are kept.
  void Clear() {
    slots_.clear();
    std::fill(table_.begin(), table_.end(), kNone);
    head_ = tail_ = free_ = kNone;
    size_ = 0;
  }

  uint64_t capacity() const { return capacity_; }
  uint64_t size() const { return size_; }
  const PageCacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = {}; }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  struct Slot {
    PageId id;
    uint32_t prev;  // toward the most recently used end
    uint32_t next;  // toward the LRU victim; links the free list too
  };

  size_t Home(const PageId& id) const { return PageIdHash{}(id) & (table_.size() - 1); }

  // The slot holding `id`, or kNone.
  uint32_t Find(const PageId& id) const {
    if (table_.empty()) return kNone;
    const size_t mask = table_.size() - 1;
    for (size_t i = Home(id);; i = (i + 1) & mask) {
      const uint32_t s = table_[i];
      if (s == kNone || slots_[s].id == id) return s;
    }
  }

  // Adds slot `s` (its page is not in the table) at its first free probe.
  // Always inlined: every source file that touches pages compiles its own
  // copy of Touch and the linker keeps one of them, so a file that ran out
  // of inlining budget must not leave a slower Touch than the others (one
  // that called Index out of line cost ingest ~15% of its throughput).
  [[gnu::always_inline]] void Index(uint32_t s) {
    const size_t mask = table_.size() - 1;
    size_t i = Home(slots_[s].id);
    while (table_[i] != kNone) i = (i + 1) & mask;
    table_[i] = s;
  }

  // Removes slot `s` from the table, shifting later entries of its probe
  // run back so that no lookup crosses a hole.
  void Unindex(uint32_t s) {
    const size_t mask = table_.size() - 1;
    size_t hole = Home(slots_[s].id);
    while (table_[hole] != s) hole = (hole + 1) & mask;
    for (size_t i = (hole + 1) & mask; table_[i] != kNone; i = (i + 1) & mask) {
      // The entry at i may fill the hole unless its home lies cyclically
      // in (hole, i].
      const size_t home = Home(slots_[table_[i]].id);
      if (((i - home) & mask) >= ((i - hole) & mask)) {
        table_[hole] = table_[i];
        hole = i;
      }
    }
    table_[hole] = kNone;
  }

  void Grow() {
    const size_t buckets = std::max<size_t>(16, table_.size() * 2);
    const std::vector<uint32_t> old = std::exchange(table_, std::vector<uint32_t>(buckets, kNone));
    for (uint32_t s : old) {
      if (s != kNone) Index(s);
    }
  }

  void Unlink(uint32_t s) {
    Slot& slot = slots_[s];
    (slot.prev == kNone ? head_ : slots_[slot.prev].next) = slot.next;
    (slot.next == kNone ? tail_ : slots_[slot.next].prev) = slot.prev;
  }

  void PushFront(uint32_t s) {
    slots_[s].prev = kNone;
    slots_[s].next = head_;
    (head_ == kNone ? tail_ : slots_[head_].prev) = s;
    head_ = s;
  }

  void MoveToFront(uint32_t s) {
    if (s == head_) return;
    Unlink(s);
    PushFront(s);
  }

  uint64_t capacity_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> table_;  // slot index per bucket, kNone when empty
  uint32_t head_ = kNone;        // most recently used
  uint32_t tail_ = kNone;        // LRU victim
  uint32_t free_ = kNone;        // slots released by InvalidateStore
  uint64_t size_ = 0;
  PageCacheStats stats_;
};

}  // namespace propeller::sim
