#include "baseline/minisql.h"

#include <algorithm>

namespace propeller::baseline {

using index::AttrSet;
using index::AttrValue;
using index::FileId;
using index::KeyRange;

MiniSql::MiniSql(MiniSqlConfig config)
    : io_(sim::IoParams{.disk = config.disk,
                        .cache_pages = config.buffer_pool_pages,
                        .cache_hit_us = 2.0}),
      rows_(std::make_unique<index::RecordStore>(io_.CreateStore())),
      by_size_(std::make_unique<index::BPlusTree>(io_.CreateStore())),
      by_mtime_(std::make_unique<index::BPlusTree>(io_.CreateStore())),
      by_keyword_(std::make_unique<index::BPlusTree>(io_.CreateStore())),
      redo_log_(io_.CreateStore()) {}

sim::Cost MiniSql::IndexRow(FileId file, const AttrSet& attrs) {
  sim::Cost cost;
  if (const AttrValue* size = attrs.Find("size")) {
    cost += by_size_->Insert(*size, file);
  }
  if (const AttrValue* mtime = attrs.Find("mtime")) {
    cost += by_mtime_->Insert(*mtime, file);
  }
  if (const AttrValue* path = attrs.Find("path"); path && path->is_string()) {
    for (const std::string& word : index::ExtractKeywords(path->as_string())) {
      cost += by_keyword_->Insert(AttrValue(word), file);
    }
  }
  return cost;
}

sim::Cost MiniSql::DeindexRow(FileId file, const AttrSet& attrs) {
  sim::Cost cost;
  if (const AttrValue* size = attrs.Find("size")) {
    cost += by_size_->Remove(*size, file);
  }
  if (const AttrValue* mtime = attrs.Find("mtime")) {
    cost += by_mtime_->Remove(*mtime, file);
  }
  if (const AttrValue* path = attrs.Find("path"); path && path->is_string()) {
    for (const std::string& word : index::ExtractKeywords(path->as_string())) {
      cost += by_keyword_->Remove(AttrValue(word), file);
    }
  }
  return cost;
}

sim::Cost MiniSql::Upsert(const index::FileUpdate& update) {
  // Synchronous commit: redo-log append, then in-place B+tree updates.
  sim::Cost cost = redo_log_.Append(128 + update.attrs.ByteSize());
  auto put = rows_->Put(update.file, update.attrs);
  cost += put.cost;
  if (put.previous) cost += DeindexRow(update.file, *put.previous);
  cost += IndexRow(update.file, update.attrs);
  return cost;
}

sim::Cost MiniSql::Delete(FileId file) {
  sim::Cost cost = redo_log_.Append(64);
  auto erased = rows_->Erase(file);
  cost += erased.cost;
  if (erased.previous) cost += DeindexRow(file, *erased.previous);
  return cost;
}

void MiniSql::BulkLoad(const index::FileUpdate& update) {
  rows_->Put(update.file, update.attrs);
  if (const AttrValue* size = update.attrs.Find("size")) {
    by_size_->Insert(*size, update.file);
  }
  if (const AttrValue* mtime = update.attrs.Find("mtime")) {
    by_mtime_->Insert(*mtime, update.file);
  }
  if (const AttrValue* path = update.attrs.Find("path");
      path != nullptr && path->is_string()) {
    for (const std::string& word : index::ExtractKeywords(path->as_string())) {
      by_keyword_->Insert(AttrValue(word), update.file);
    }
  }
}

MiniSql::SearchResult MiniSql::Search(const index::Predicate& pred) {
  SearchResult out;

  // Planner: prefer the keyword index for ContainsWord terms, otherwise
  // the most constrained of the size/mtime indexes, else a full scan.
  std::vector<FileId> candidates;
  bool used_index = false;
  for (const index::Term& t : pred.terms) {
    if (t.op == index::CmpOp::kContainsWord && t.value.is_string()) {
      auto r = by_keyword_->Scan(KeyRange::Exactly(t.value));
      out.cost += r.cost;
      candidates = std::move(r.files);
      used_index = true;
      break;
    }
  }
  if (!used_index) {
    auto size_range = index::RangeForAttr(pred, "size");
    auto mtime_range = index::RangeForAttr(pred, "mtime");
    if (size_range) {
      auto r = by_size_->Scan(*size_range);
      out.cost += r.cost;
      candidates = std::move(r.files);
      used_index = true;
    } else if (mtime_range) {
      auto r = by_mtime_->Scan(*mtime_range);
      out.cost += r.cost;
      candidates = std::move(r.files);
      used_index = true;
    }
  }

  if (!used_index) {
    out.cost += rows_->ForEach([&](FileId f, const AttrSet& attrs) {
      if (pred.Matches(attrs)) out.files.push_back(f);
    });
    std::sort(out.files.begin(), out.files.end());
    return out;
  }

  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  for (FileId f : candidates) out.cost += rows_->ChargeRead(f);
  rows_->AppendMatching(candidates, pred, &out.files);
  return out;
}

}  // namespace propeller::baseline
