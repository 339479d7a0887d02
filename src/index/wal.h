// Write-ahead log for staged index updates.
//
// Index Nodes append every file-indexing request to a WAL before caching
// it in memory (Section IV); on a crash the uncommitted tail is replayed.
// Appends are charged as sequential log I/O.  The log content is kept so
// recovery tests can rebuild state from it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/io_context.h"

namespace propeller::index {

class WriteAheadLog {
 public:
  explicit WriteAheadLog(sim::PageStore store) : store_(store) {}

  // Appends one serialized record (length-prefixed on "disk").
  sim::Cost Append(std::string record) {
    sim::Cost cost = store_.Append(record.size() + 8);
    bytes_ += record.size() + 8;
    entries_.push_back(std::move(record));
    return cost;
  }

  // Replays every record since the last truncation, oldest first.
  template <typename Fn>
  Status Replay(Fn&& fn) const {
    for (const std::string& rec : entries_) {
      PROPELLER_RETURN_IF_ERROR(fn(rec));
    }
    return Status::Ok();
  }

  // Discards replayed/committed records (checkpoint).
  sim::Cost Truncate() {
    entries_.clear();
    bytes_ = 0;
    return store_.Append(8);  // truncation marker
  }

  // Discards the oldest `n` records only.  Used by segment seals: the
  // records folded into a sealed segment are durable there, while records
  // appended after the seal snapshot was taken stay replayable.
  sim::Cost TruncatePrefix(size_t n) {
    n = std::min(n, entries_.size());
    for (size_t i = 0; i < n; ++i) bytes_ -= entries_[i].size() + 8;
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<long>(n));
    return store_.Append(8);  // truncation marker
  }

  size_t NumRecords() const { return entries_.size(); }
  uint64_t Bytes() const { return bytes_; }

 private:
  sim::PageStore store_;
  std::vector<std::string> entries_;
  uint64_t bytes_ = 0;
};

}  // namespace propeller::index
