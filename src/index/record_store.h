// Per-group record store: FileId -> AttrSet.
//
// Serves two purposes: (a) verifying residual predicate terms against
// candidates an index returned, and (b) supplying a file's previous
// attribute values so index updates can remove stale postings.  Modelled
// as a paged heap file addressed by FileId hash.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
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
    std::vector<FileId> files;
    files.reserve(records_.size());
    for (const auto& [file, attrs] : records_) files.push_back(file);
    std::sort(files.begin(), files.end());
    for (FileId f : files) fn(f, records_.at(f));
  }

  // Builds the store from a batch in one sequential write instead of
  // per-record random page touches.  Only valid on an empty store; rows
  // with duplicate FileIds keep the last occurrence.
  sim::Cost BulkLoad(std::vector<std::pair<FileId, AttrSet>> rows);

  // Membership probe without a simulated page touch: segment shadowing
  // checks charge their own flat per-probe cost at the caller.
  bool Contains(FileId file) const { return records_.count(file) != 0u; }

  uint64_t NumRecords() const { return records_.size(); }
  uint64_t NumPages() const { return 1 + bytes_ / kPageBytes; }
  uint64_t Bytes() const { return bytes_; }

 private:
  static constexpr uint64_t kPageBytes = 4096;

  uint64_t PageOf(FileId file) const;

  sim::PageStore store_;
  std::unordered_map<FileId, AttrSet> records_;
  uint64_t bytes_ = 0;
};

}  // namespace propeller::index
