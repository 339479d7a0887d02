#include "core/group_journal.h"

#include "common/serialize.h"

namespace propeller::core {

sim::Cost GroupJournal::AppendLocked(index::GroupId group,
                                     const index::FileUpdate& update) {
  BinaryWriter w;
  update.Serialize(w);
  std::string rec = std::move(w).Take();
  sim::Cost cost = store_.Append(rec.size() + 8);  // length-prefixed on "disk"
  bytes_ += rec.size() + 8;
  logs_[group].tail.push_back(std::move(rec));
  return cost;
}

sim::Cost GroupJournal::Checkpoint(
    index::GroupId group, const std::vector<index::FileUpdate>& state) {
  MutexLock lock(mu_);
  GroupLog& log = logs_[group];
  // The image now covers every appended sequence; cursors behind this
  // point can no longer catch up incrementally.
  log.checkpoint_seq += log.tail.size();
  // Retire the old image + tail from the retained-bytes accounting.
  for (const std::string& rec : log.checkpoint) bytes_ -= rec.size() + 8;
  for (const std::string& rec : log.tail) bytes_ -= rec.size() + 8;
  log.checkpoint.clear();
  log.tail.clear();
  sim::Cost cost;
  uint64_t image_bytes = 0;
  for (const index::FileUpdate& u : state) {
    BinaryWriter w;
    u.Serialize(w);
    std::string rec = std::move(w).Take();
    image_bytes += rec.size() + 8;
    log.checkpoint.push_back(std::move(rec));
  }
  bytes_ += image_bytes;
  // One sequential write of the whole image (plus a truncation marker).
  cost += store_.SequentialLoad(image_bytes / 4096 + 1);
  cost += store_.Append(8);
  return cost;
}

sim::Cost GroupJournal::Append(index::GroupId group,
                               const index::FileUpdate& update,
                               uint64_t* seq) {
  MutexLock lock(mu_);
  sim::Cost cost = AppendLocked(group, update);
  if (seq != nullptr) {
    const GroupLog& log = logs_[group];
    *seq = log.checkpoint_seq + log.tail.size();
  }
  return cost;
}

sim::Cost GroupJournal::AppendBatch(
    index::GroupId group, const std::vector<index::FileUpdate>& updates,
    uint64_t* seq) {
  MutexLock lock(mu_);
  sim::Cost cost;
  for (const index::FileUpdate& u : updates) cost += AppendLocked(group, u);
  if (seq != nullptr) {
    const GroupLog& log = logs_[group];
    *seq = log.checkpoint_seq + log.tail.size();
  }
  return cost;
}

Status GroupJournal::Replay(
    index::GroupId group,
    const std::function<Status(const index::FileUpdate&)>& fn,
    sim::Cost* cost) const {
  std::vector<std::string> records;
  uint64_t record_bytes = 0;
  {
    MutexLock lock(mu_);
    auto it = logs_.find(group);
    if (it != logs_.end()) {
      records.reserve(it->second.checkpoint.size() + it->second.tail.size());
      records.insert(records.end(), it->second.checkpoint.begin(),
                     it->second.checkpoint.end());
      records.insert(records.end(), it->second.tail.begin(),
                     it->second.tail.end());
      for (const std::string& rec : records) record_bytes += rec.size() + 8;
    }
  }
  if (cost != nullptr) {
    // Sequential scan of the group's log segment from shared storage.
    *cost += store_.SequentialLoad(record_bytes / 4096 + 1);
  }
  for (const std::string& rec : records) {
    BinaryReader r(rec);
    index::FileUpdate u;
    PROPELLER_RETURN_IF_ERROR(index::FileUpdate::Deserialize(r, u));
    PROPELLER_RETURN_IF_ERROR(fn(u));
  }
  return Status::Ok();
}

Status GroupJournal::ReplayFrom(
    index::GroupId group, uint64_t after_seq,
    const std::function<Status(const index::FileUpdate&)>& fn,
    sim::Cost* cost) const {
  std::vector<std::string> records;
  uint64_t record_bytes = 0;
  {
    MutexLock lock(mu_);
    auto it = logs_.find(group);
    if (it != logs_.end()) {
      const GroupLog& log = it->second;
      if (after_seq < log.checkpoint_seq) {
        return Status::FailedPrecondition(
            "cursor predates checkpoint; full rebuild required");
      }
      const uint64_t have = log.checkpoint_seq + log.tail.size();
      if (after_seq < have) {
        const size_t skip = static_cast<size_t>(after_seq - log.checkpoint_seq);
        records.assign(log.tail.begin() + static_cast<long>(skip),
                       log.tail.end());
        for (const std::string& rec : records) record_bytes += rec.size() + 8;
      }
    }
  }
  if (cost != nullptr) {
    // Seek to the cursor, then a sequential scan of just the gap.
    *cost += store_.SequentialLoad(record_bytes / 4096 + 1);
  }
  for (const std::string& rec : records) {
    BinaryReader r(rec);
    index::FileUpdate u;
    PROPELLER_RETURN_IF_ERROR(index::FileUpdate::Deserialize(r, u));
    PROPELLER_RETURN_IF_ERROR(fn(u));
  }
  return Status::Ok();
}

uint64_t GroupJournal::Seq(index::GroupId group) const {
  MutexLock lock(mu_);
  auto it = logs_.find(group);
  if (it == logs_.end()) return 0;
  return it->second.checkpoint_seq + it->second.tail.size();
}

uint64_t GroupJournal::CheckpointSeq(index::GroupId group) const {
  MutexLock lock(mu_);
  auto it = logs_.find(group);
  return it == logs_.end() ? 0 : it->second.checkpoint_seq;
}

uint64_t GroupJournal::NumRecords(index::GroupId group) const {
  MutexLock lock(mu_);
  auto it = logs_.find(group);
  if (it == logs_.end()) return 0;
  return it->second.checkpoint.size() + it->second.tail.size();
}

uint64_t GroupJournal::NumTailRecords(index::GroupId group) const {
  MutexLock lock(mu_);
  auto it = logs_.find(group);
  return it == logs_.end() ? 0 : it->second.tail.size();
}

uint64_t GroupJournal::TotalBytes() const {
  MutexLock lock(mu_);
  return bytes_;
}

}  // namespace propeller::core
