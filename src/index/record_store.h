// Per-group record store: FileId -> AttrSet.
//
// Serves two purposes: (a) verifying residual predicate terms against
// candidates an index returned, and (b) supplying a file's previous
// attribute values so index updates can remove stale postings.  Modelled
// as a paged heap file addressed by FileId hash.
//
// In memory the records live in one open-addressing table of
// {FileId, AttrSet} slots (linear probing, power-of-two size, load <= 1/2,
// backward-shift deletion), so a lookup loads one slot and then the
// record's attribute list.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "index/attr.h"
#include "index/query.h"
#include "sim/io_context.h"

namespace propeller::index {

class RecordStore {
 public:
  explicit RecordStore(sim::PageStore store);

  // Verifying index candidates takes two calls.  First the caller charges
  // each candidate's record page with ChargeRead, in candidate order,
  // adding every cost straight into its running total.  Then one
  // AppendMatching call checks the whole candidate list.
  //
  // Charges the simulated read of the page that holds `file`'s record.
  sim::Cost ChargeRead(FileId file) const { return store_.Read(PageOf(file)); }

  // Appends to `out`, in candidate order, each candidate whose record is
  // present and satisfies `pred`.  Charges nothing and takes no lock: it
  // looks up every candidate's record (prefetching its attributes) before
  // it matches any, so the cache misses of independent lookups overlap
  // instead of running one after another.  Records are read in place, so
  // the caller keeps the store unchanged for the call: the owning group's
  // lock, or a search's hold on an immutable segment.
  void AppendMatching(std::span<const FileId> candidates, const Predicate& pred,
                      std::vector<FileId>* out) const;

  // Inserts or replaces; returns the previous attrs (if any) so the caller
  // can retire stale index postings, plus the cost.
  struct PutResult {
    std::optional<AttrSet> previous;
    sim::Cost cost;
  };
  PutResult Put(FileId file, AttrSet attrs);

  struct EraseResult {
    std::optional<AttrSet> previous;
    sim::Cost cost;
  };
  EraseResult Erase(FileId file);

  // Full scan (brute-force fallback); visits every record in FileId order.
  // Scan order reaches the wire (MigrateOutResponse records) and journal
  // checkpoint images, so it must not depend on hash-map internals.
  template <typename Fn>
  sim::Cost ForEach(Fn&& fn) const {
    sim::Cost cost = store_.SequentialLoad(NumPages());
    ForEachInMemory(fn);
    return cost;
  }

  // Cost-free scan for statistics (heartbeat gauges, segment accounting).
  // Must not touch the page cache — a simulated charge here would make
  // observability perturb the deterministic cost model.  Same FileId order
  // as ForEach.
  template <typename Fn>
  void ForEachInMemory(Fn&& fn) const {
    std::vector<const Slot*> rows;
    rows.reserve(size_);
    for (const Slot& slot : slots_) {
      if (slot.file != kFreeSlot) rows.push_back(&slot);
    }
    std::sort(rows.begin(), rows.end(),
              [](const Slot* a, const Slot* b) { return a->file < b->file; });
    for (const Slot* slot : rows) fn(slot->file, slot->attrs);
    if (max_id_row_) fn(kFreeSlot, *max_id_row_);
  }

  // Builds the store from a batch in one sequential write instead of
  // per-record random page touches.  Only valid on an empty store; rows
  // with duplicate FileIds keep the last occurrence.
  sim::Cost BulkLoad(std::vector<std::pair<FileId, AttrSet>> rows);

  // Membership probe without a simulated page touch: segment shadowing
  // checks charge their own flat per-probe cost at the caller.
  bool Contains(FileId file) const { return Find(file) != nullptr; }

  uint64_t NumRecords() const { return size_ + (max_id_row_ ? 1 : 0); }
  uint64_t NumPages() const { return 1 + bytes_ / kPageBytes; }
  uint64_t Bytes() const { return bytes_; }

 private:
  static constexpr uint64_t kPageBytes = 4096;
  // Marks a free slot.  The record of this FileId lives in `max_id_row_`.
  static constexpr FileId kFreeSlot = UINT64_MAX;

  struct Slot {
    FileId file = kFreeSlot;
    AttrSet attrs;
  };

  uint64_t PageOf(FileId file) const;

  // The slot `file` hashes to (Fibonacci hashing on the table's size).
  size_t Home(FileId file) const {
    return static_cast<size_t>((file * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  // The slot holding `file`, or the free slot that ends its probe run.
  // Needs a non-empty table.
  size_t Probe(FileId file) const {
    const size_t mask = slots_.size() - 1;
    size_t i = Home(file);
    while (slots_[i].file != file && slots_[i].file != kFreeSlot) i = (i + 1) & mask;
    return i;
  }
  // `file`'s record, or nullptr.
  const AttrSet* Find(FileId file) const {
    if (file == kFreeSlot) return max_id_row_ ? &*max_id_row_ : nullptr;
    if (slots_.empty()) return nullptr;
    const Slot& slot = slots_[Probe(file)];
    return slot.file == file ? &slot.attrs : nullptr;
  }
  // Inserts or replaces `file`'s record; returns the one it replaced.
  std::optional<AttrSet> Replace(FileId file, AttrSet attrs);
  // Removes `file`'s record; returns it.
  std::optional<AttrSet> Remove(FileId file);
  // Resizes the table to `buckets` (a power of two, at least twice the
  // records) and re-homes every record.
  void Rehash(size_t buckets);

  sim::PageStore store_;
  std::vector<Slot> slots_;
  size_t size_ = 0;    // records in `slots_`
  int shift_ = 64;     // 64 - log2(slots_.size())
  std::optional<AttrSet> max_id_row_;
  uint64_t bytes_ = 0;
};

}  // namespace propeller::index
