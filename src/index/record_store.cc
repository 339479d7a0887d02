#include "index/record_store.h"

#include <bit>

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
    const AttrSet* attrs = Find(candidates[i]);
    if (attrs == nullptr) continue;
    records[i] = attrs;
    __builtin_prefetch(attrs->entries().data());
  }
  // Pass 2: match, in candidate order, with the terms bound to their ids
  // once for the whole list.
  const BoundPredicate bound(pred);
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (records[i] != nullptr && bound.Matches(*records[i])) {
      out->push_back(candidates[i]);
    }
  }
}

std::optional<AttrSet> RecordStore::Replace(FileId file, AttrSet attrs) {
  if (file == kFreeSlot) return std::exchange(max_id_row_, std::move(attrs));
  if ((size_ + 1) * 2 > slots_.size()) Rehash(std::max<size_t>(16, slots_.size() * 2));
  Slot& slot = slots_[Probe(file)];
  if (slot.file == file) return std::exchange(slot.attrs, std::move(attrs));
  slot.file = file;
  slot.attrs = std::move(attrs);
  ++size_;
  return std::nullopt;
}

std::optional<AttrSet> RecordStore::Remove(FileId file) {
  if (file == kFreeSlot) return std::exchange(max_id_row_, std::nullopt);
  if (slots_.empty()) return std::nullopt;
  size_t hole = Probe(file);
  if (slots_[hole].file != file) return std::nullopt;
  std::optional<AttrSet> previous = std::move(slots_[hole].attrs);
  // Shift later entries of the probe run back so that no lookup crosses
  // the hole.
  const size_t mask = slots_.size() - 1;
  for (size_t i = (hole + 1) & mask; slots_[i].file != kFreeSlot; i = (i + 1) & mask) {
    // The entry at i may fill the hole unless its home lies cyclically in
    // (hole, i].
    const size_t home = Home(slots_[i].file);
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = std::move(slots_[i]);
      hole = i;
    }
  }
  slots_[hole] = Slot{};
  --size_;
  return previous;
}

void RecordStore::Rehash(size_t buckets) {
  std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(buckets));
  shift_ = 64 - std::countr_zero(buckets);
  for (Slot& slot : old) {
    if (slot.file != kFreeSlot) slots_[Probe(slot.file)] = std::move(slot);
  }
}

RecordStore::PutResult RecordStore::Put(FileId file, AttrSet attrs) {
  PutResult out;
  uint64_t page = PageOf(file);
  out.cost = store_.Read(page);
  bytes_ += attrs.ByteSize();
  out.previous = Replace(file, std::move(attrs));
  if (out.previous) bytes_ -= out.previous->ByteSize();
  out.cost += store_.Write(page);
  return out;
}

sim::Cost RecordStore::BulkLoad(std::vector<std::pair<FileId, AttrSet>> rows) {
  if (rows.size() * 2 > slots_.size()) {
    Rehash(std::max<size_t>(16, std::bit_ceil(rows.size() * 2)));
  }
  for (auto& [file, attrs] : rows) {
    bytes_ += attrs.ByteSize();
    if (auto previous = Replace(file, std::move(attrs))) bytes_ -= previous->ByteSize();
  }
  // One sequential pass writes the whole heap file.
  return store_.SequentialLoad(NumPages());
}

RecordStore::EraseResult RecordStore::Erase(FileId file) {
  EraseResult out;
  uint64_t page = PageOf(file);
  out.cost = store_.Read(page);
  out.previous = Remove(file);
  if (out.previous) {
    bytes_ -= out.previous->ByteSize();
    out.cost += store_.Write(page);
  }
  return out;
}

}  // namespace propeller::index
