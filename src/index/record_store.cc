#include "index/record_store.h"

namespace propeller::index {

RecordStore::RecordStore(sim::PageStore store) : store_(store) {}

uint64_t RecordStore::PageOf(FileId file) const {
  uint64_t pages = NumPages();
  uint64_t x = file * 0x9e3779b97f4a7c15ULL;
  x ^= x >> 29;
  return x % pages;
}

void RecordStore::AppendMatching(std::span<const FileId> candidates,
                                 const Predicate& pred,
                                 std::vector<FileId>* out) const {
  // Pass 1: look up every record and prefetch its attribute list.  No
  // lookup depends on another, so their cache misses overlap.
  std::vector<const AttrSet*> records(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    auto it = records_.find(candidates[i]);
    if (it == records_.end()) continue;
    records[i] = &it->second;
    __builtin_prefetch(it->second.entries().data());
  }
  // Pass 2: match, in candidate order.
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (records[i] != nullptr && pred.Matches(*records[i])) {
      out->push_back(candidates[i]);
    }
  }
}

RecordStore::PutResult RecordStore::Put(FileId file, AttrSet attrs) {
  PutResult out;
  uint64_t page = PageOf(file);
  out.cost = store_.Read(page);
  auto it = records_.find(file);
  if (it != records_.end()) {
    out.previous = std::move(it->second);
    bytes_ -= out.previous->ByteSize();
    bytes_ += attrs.ByteSize();
    it->second = std::move(attrs);
  } else {
    bytes_ += attrs.ByteSize();
    records_.emplace(file, std::move(attrs));
  }
  out.cost += store_.Write(page);
  return out;
}

sim::Cost RecordStore::BulkLoad(std::vector<std::pair<FileId, AttrSet>> rows) {
  records_.reserve(rows.size());
  for (auto& [file, attrs] : rows) {
    auto it = records_.find(file);
    if (it != records_.end()) {
      bytes_ -= it->second.ByteSize();
      bytes_ += attrs.ByteSize();
      it->second = std::move(attrs);
    } else {
      bytes_ += attrs.ByteSize();
      records_.emplace(file, std::move(attrs));
    }
  }
  // One sequential pass writes the whole heap file.
  return store_.SequentialLoad(NumPages());
}

RecordStore::EraseResult RecordStore::Erase(FileId file) {
  EraseResult out;
  uint64_t page = PageOf(file);
  out.cost = store_.Read(page);
  auto it = records_.find(file);
  if (it != records_.end()) {
    out.previous = std::move(it->second);
    bytes_ -= out.previous->ByteSize();
    records_.erase(it);
    out.cost += store_.Write(page);
  }
  return out;
}

}  // namespace propeller::index
