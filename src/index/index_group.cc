#include "index/index_group.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/logging.h"
#include "obs/trace.h"

namespace propeller::index {

const char* IndexTypeName(IndexType t) {
  switch (t) {
    case IndexType::kBTree:
      return "btree";
    case IndexType::kHash:
      return "hash";
    case IndexType::kKdTree:
      return "kdtree";
    case IndexType::kKeyword:
      return "keyword";
    case IndexType::kKdTreePaged:
      return "kdtree-paged";
  }
  return "?";
}

void IndexSpec::Serialize(BinaryWriter& w) const {
  w.PutString(name);
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU32(static_cast<uint32_t>(attrs.size()));
  for (const std::string& a : attrs) w.PutString(a);
}

Status IndexSpec::Deserialize(BinaryReader& r, IndexSpec& out) {
  PROPELLER_RETURN_IF_ERROR(r.GetString(out.name));
  uint8_t t = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU8(t));
  if (t > static_cast<uint8_t>(IndexType::kKdTreePaged)) {
    return Status::Corruption("bad IndexType");
  }
  out.type = static_cast<IndexType>(t);
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  out.attrs.clear();
  for (uint32_t i = 0; i < n; ++i) {
    std::string a;
    PROPELLER_RETURN_IF_ERROR(r.GetString(a));
    out.attrs.push_back(std::move(a));
  }
  return Status::Ok();
}

void FileUpdate::Serialize(BinaryWriter& w) const {
  w.PutU64(file);
  w.PutU8(is_delete ? 1 : 0);
  attrs.Serialize(w);
}

Status FileUpdate::Deserialize(BinaryReader& r, FileUpdate& out) {
  PROPELLER_RETURN_IF_ERROR(r.GetU64(out.file));
  uint8_t d = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU8(d));
  out.is_delete = d != 0;
  return AttrSet::Deserialize(r, out.attrs);
}

std::vector<std::string> ExtractKeywords(const std::string& path) {
  std::vector<std::string> words;
  // Exact upper bound on the token count — one pass to size, one to fill;
  // no per-token re-growth and no scratch string.
  size_t cap = 1;
  for (char c : path) {
    if (c == '/' || c == '.' || c == '-' || c == '_') ++cap;
  }
  words.reserve(cap);
  ForEachKeyword(path, [&](std::string_view w) { words.emplace_back(w); });
  return words;
}

IndexGroup::IndexGroup(GroupId id, sim::IoContext* io,
                       const IndexGroupOptions& options)
    : id_(id),
      io_(io),
      segmented_(options.segmented),
      max_segments_(std::max<size_t>(1, options.max_segments)),
      merge_size_ratio_(options.merge_size_ratio < 1.0
                            ? 1.0
                            : options.merge_size_ratio),
      merge_tier_run_(std::max<size_t>(2, options.merge_tier_run)),
      records_(io->CreateStore()),
      wal_(io->CreateStore()),
      result_cache_enabled_(options.result_cache) {
  if (options.metrics != nullptr) {
    obs::MetricsRegistry* metrics = options.metrics;
    wal_appends_ = &metrics->GetCounter("in.wal.appends");
    wal_bytes_ = &metrics->GetCounter("in.wal.bytes");
    staged_ = &metrics->GetCounter("in.updates.staged");
    committed_ = &metrics->GetCounter("in.updates.committed");
    if (result_cache_enabled_) {
      result_cache_hits_ = &metrics->GetCounter("in.result_cache.hits");
      result_cache_misses_ = &metrics->GetCounter("in.result_cache.misses");
    }
    if (segmented_) {
      seals_ = &metrics->GetCounter("in.seals");
      merges_ = &metrics->GetCounter("in.merges");
      segments_read_ = &metrics->GetCounter("in.search.segments_read");
      merge_latency_ = &metrics->GetHistogram("in.merge.latency_s");
    }
  }
}

namespace {

IndexGroupOptions LegacyOptions(obs::MetricsRegistry* metrics,
                                bool enable_result_cache) {
  IndexGroupOptions options;
  options.metrics = metrics;
  options.result_cache = enable_result_cache;
  return options;
}

}  // namespace

IndexGroup::IndexGroup(GroupId id, sim::IoContext* io,
                       obs::MetricsRegistry* metrics, bool enable_result_cache)
    : IndexGroup(id, io, LegacyOptions(metrics, enable_result_cache)) {}

Status IndexGroup::CreateIndex(const IndexSpec& spec) {
  WriterMutexLock lock(mu_);
  if (spec.name.empty()) return Status::InvalidArgument("index name empty");
  bool exists = std::any_of(
      indexes_.begin(), indexes_.end(),
      [&](const NamedIndex& i) { return i.spec.name == spec.name; });
  if (exists) return Status::AlreadyExists(spec.name);
  if (IsKdType(spec.type)) {
    if (spec.attrs.empty()) {
      return Status::InvalidArgument("kd-tree needs >= 1 dimension attr");
    }
  } else if (spec.attrs.size() != 1) {
    return Status::InvalidArgument("index needs exactly one attribute");
  }

  NamedIndex idx;
  idx.spec = spec;
  switch (spec.type) {
    case IndexType::kBTree:
      idx.btree = std::make_unique<BPlusTree>(io_->CreateStore());
      break;
    case IndexType::kHash:
    case IndexType::kKeyword:
      idx.hash = std::make_unique<HashIndex>(io_->CreateStore());
      break;
    case IndexType::kKdTree:
      idx.kd = std::make_unique<KdTree>(io_->CreateStore(), spec.attrs.size(),
                                        KdLayout::kSerialized);
      break;
    case IndexType::kKdTreePaged:
      idx.kd = std::make_unique<KdTree>(io_->CreateStore(), spec.attrs.size(),
                                        KdLayout::kPaged);
      break;
  }
  indexes_.push_back(std::move(idx));
  return Status::Ok();
}

bool IndexGroup::HasIndex(const std::string& name) const {
  ReaderMutexLock lock(mu_);
  return std::any_of(indexes_.begin(), indexes_.end(),
                     [&](const NamedIndex& i) { return i.spec.name == name; });
}

std::vector<IndexSpec> IndexGroup::Specs() const {
  ReaderMutexLock lock(mu_);
  std::vector<IndexSpec> out;
  out.reserve(indexes_.size());
  for (const NamedIndex& i : indexes_) out.push_back(i.spec);
  return out;
}

sim::Cost IndexGroup::StageUpdate(FileUpdate update, double staged_at_s) {
  WriterMutexLock lock(mu_);
  BinaryWriter w;
  update.Serialize(w);
  std::string record = std::move(w).Take();
  if (wal_appends_ != nullptr) {
    wal_appends_->Add(1);
    wal_bytes_->Add(record.size());
    staged_->Add(1);
  }
  sim::Cost cost = wal_.Append(std::move(record));
  pending_.push_back(std::move(update));
  has_pending_.store(true, std::memory_order_release);
  // Stamp only when no older pending update already owns the clock; the
  // commit that drains the queue resets it under this same lock.
  if (staged_at_s >= 0.0 && oldest_pending_staged_s_ < 0.0) {
    oldest_pending_staged_s_ = staged_at_s;
  }
  return cost;
}

sim::Cost IndexGroup::Commit() {
  if (!segmented_) {
    WriterMutexLock lock(mu_);
    return CommitLocked();
  }
  // Seal + merge pipeline; seal_mu_ keeps at most one build in flight.
  MutexLock seal_lock(seal_mu_);
  sim::Cost cost = SealMemtable();
  cost += RunMergePolicy();
  return cost;
}

sim::Cost IndexGroup::CommitLocked() {
  // Reset the oldest-pending clock unconditionally — even when pending_ is
  // already empty (a stale stamp left by SimulateCrashLosingMemoryState
  // would otherwise re-trigger the commit timeout forever).
  oldest_pending_staged_s_ = -1.0;
  sim::Cost cost;
  if (pending_.empty()) return cost;
  obs::SpanGuard span("group.commit", id_);
  span.Tag("group", id_);
  span.Tag("records", static_cast<uint64_t>(pending_.size()));
  if (committed_ != nullptr) committed_->Add(pending_.size());
  for (const FileUpdate& u : pending_) cost += Apply(u);
  pending_.clear();
  has_pending_.store(false, std::memory_order_release);
  cost += wal_.Truncate();
  // This commit changed committed state: memoized results are now stale.
  // Safe against concurrent fills — they hold shared mu_, we hold it
  // exclusively, so none can be in flight.
  {
    MutexLock cache_lock(cache_mu_);
    ++commit_epoch_;
    if (result_cache_enabled_) result_cache_.clear();
  }
  span.Advance(cost);
  return cost;
}

sim::Cost IndexGroup::Apply(const FileUpdate& update) {
  sim::Cost cost;
  if (update.is_delete) {
    auto erased = records_.Erase(update.file);
    cost += erased.cost;
    if (erased.previous) {
      for (const NamedIndex& idx : indexes_) {
        cost += RemovePostings(idx, update.file, *erased.previous);
      }
    }
    return cost;
  }
  auto put = records_.Put(update.file, update.attrs);
  cost += put.cost;
  for (const NamedIndex& idx : indexes_) {
    if (put.previous) cost += RemovePostings(idx, update.file, *put.previous);
    cost += InsertPostings(idx, update.file, update.attrs);
  }
  return cost;
}

sim::Cost IndexGroup::RemovePostings(const NamedIndex& idx, FileId file,
                                     const AttrSet& attrs) {
  sim::Cost cost;
  switch (idx.spec.type) {
    case IndexType::kBTree: {
      const AttrValue* v = attrs.Find(idx.spec.attrs[0]);
      if (v != nullptr) cost += idx.btree->Remove(*v, file);
      break;
    }
    case IndexType::kHash: {
      const AttrValue* v = attrs.Find(idx.spec.attrs[0]);
      if (v != nullptr) cost += idx.hash->Remove(*v, file);
      break;
    }
    case IndexType::kKeyword: {
      const AttrValue* v = attrs.Find(idx.spec.attrs[0]);
      if (v != nullptr && v->is_string()) {
        ForEachKeyword(v->as_string(), [&](std::string_view word) {
          cost += idx.hash->Remove(AttrValue(std::string(word)), file);
        });
      }
      break;
    }
    case IndexType::kKdTree:
    case IndexType::kKdTreePaged: {
      std::vector<double> point;
      point.reserve(idx.spec.attrs.size());
      for (const std::string& a : idx.spec.attrs) {
        const AttrValue* v = attrs.Find(a);
        if (v == nullptr || !v->is_numeric()) return cost;  // never indexed
        point.push_back(v->numeric());
      }
      cost += idx.kd->Remove(point, file);
      break;
    }
  }
  return cost;
}

sim::Cost IndexGroup::InsertPostings(const NamedIndex& idx, FileId file,
                                     const AttrSet& attrs) {
  sim::Cost cost;
  switch (idx.spec.type) {
    case IndexType::kBTree: {
      const AttrValue* v = attrs.Find(idx.spec.attrs[0]);
      if (v != nullptr) cost += idx.btree->Insert(*v, file);
      break;
    }
    case IndexType::kHash: {
      const AttrValue* v = attrs.Find(idx.spec.attrs[0]);
      if (v != nullptr) cost += idx.hash->Insert(*v, file);
      break;
    }
    case IndexType::kKeyword: {
      const AttrValue* v = attrs.Find(idx.spec.attrs[0]);
      if (v != nullptr && v->is_string()) {
        ForEachKeyword(v->as_string(), [&](std::string_view word) {
          cost += idx.hash->Insert(AttrValue(std::string(word)), file);
        });
      }
      break;
    }
    case IndexType::kKdTree:
    case IndexType::kKdTreePaged: {
      std::vector<double> point;
      point.reserve(idx.spec.attrs.size());
      for (const std::string& a : idx.spec.attrs) {
        const AttrValue* v = attrs.Find(a);
        if (v == nullptr || !v->is_numeric()) return cost;  // unindexable
        point.push_back(v->numeric());
      }
      cost += idx.kd->Insert(point, file);
      break;
    }
  }
  return cost;
}

const IndexGroup::NamedIndex* IndexGroup::ChooseAccessPathFor(
    const Predicate& pred, const std::vector<NamedIndex>& indexes) {
  const NamedIndex* best = nullptr;
  int best_score = 0;
  for (const NamedIndex& idx : indexes) {
    int score = 0;
    switch (idx.spec.type) {
      case IndexType::kHash: {
        // Exact-match only.
        for (const Term& t : pred.terms) {
          if (t.attr == idx.spec.attrs[0] && t.op == CmpOp::kEq) score = 100;
        }
        break;
      }
      case IndexType::kKeyword: {
        for (const Term& t : pred.terms) {
          if (t.attr == idx.spec.attrs[0] && t.op == CmpOp::kContainsWord) {
            score = 90;
          }
        }
        break;
      }
      case IndexType::kBTree: {
        auto range = RangeForAttr(pred, idx.spec.attrs[0]);
        if (range) score = (range->lo && range->hi) ? 80 : 60;
        break;
      }
      case IndexType::kKdTree:
      case IndexType::kKdTreePaged: {
        int constrained = 0;
        for (const std::string& a : idx.spec.attrs) {
          if (RangeForAttr(pred, a)) ++constrained;
        }
        // The paged layout does not pay the full-load tax: prefer it.
        if (constrained > 0) {
          score = (idx.spec.type == IndexType::kKdTreePaged ? 44 : 40) +
                  constrained;
        }
        break;
      }
    }
    if (score > best_score) {
      best_score = score;
      best = &idx;
    }
  }
  return best;
}

namespace {

// Tops up the group.search span to the search's full simulated cost (the
// nested commit span, when present, already advanced the ambient clock by
// its own share) and stamps the result tags.
void FinishSearchSpan(obs::SpanGuard& span,
                      const IndexGroup::SearchResult& out) {
  if (!span.active()) return;
  double inside = obs::CurrentTrace().now_s - span.start_s();
  double topup = out.cost.seconds() - inside;
  if (topup > 0) span.Advance(sim::Cost(topup));
  span.Tag("access_path", out.access_path);
  span.Tag("hits", static_cast<uint64_t>(out.files.size()));
}

// Simulated price of one result-cache probe (hash + compare of the
// predicate fingerprint).  Charged on hits *and* misses, so turning the
// cache on never under-counts work.
constexpr double kResultCacheProbeSeconds = 0.2e-6;

// Segmented mode (all CPU-side, deterministic):
// Scanning one memtable update into the search overlay (one ordered-map
// insert of a pointer, no copies).
constexpr double kMemtableScanPerUpdateSeconds = 0.05e-6;
// One membership probe against a younger segment's shadow set.
constexpr double kShadowProbeSeconds = 0.05e-6;
// Folding one staged update during a seal / one row during a merge.
constexpr double kSealFoldPerUpdateSeconds = 0.1e-6;

}  // namespace

IndexGroup::SearchResult IndexGroup::Search(const Predicate& pred) {
  // Segmented mode: snapshot search, never a commit barrier.
  if (segmented_) return SearchSegmented(pred);

  // Fast path: nothing staged — run under a shared lock so concurrent
  // searches of this group proceed in parallel.  The lock-free probe
  // avoids even the reader acquisition when an update was just staged; the
  // rechecks under the lock make the decision authoritative (a stage
  // racing past the atomic still holds exclusive mu_ until its update is
  // in pending_, so a reader that sees pending_ empty is consistent).
  if (!has_pending_.load(std::memory_order_acquire)) {
    ReaderMutexLock lock(mu_);
    if (pending_.empty() && oldest_pending_staged_s_ < 0.0) {
      SearchResult out;
      obs::SpanGuard span("group.search", id_);
      span.Tag("group", id_);
      SearchBodyLocked(pred, out);
      FinishSearchSpan(span, out);
      return out;
    }
  }

  // Slow path: drain staged updates first (strong consistency), which
  // needs the exclusive lock.  The shared lock was dropped above; the
  // commit re-checks pending_ under the exclusive lock, so a commit that
  // raced in between simply leaves nothing to do.
  WriterMutexLock lock(mu_);
  SearchResult out;
  // The commit span inside advances the ambient clock by its own cost; the
  // remainder of this search's cost is topped up before the span closes.
  obs::SpanGuard span("group.search", id_);
  span.Tag("group", id_);
  // Strong consistency: staged updates must be visible to this search.
  out.cost += CommitLocked();
  SearchBodyLocked(pred, out);
  FinishSearchSpan(span, out);
  return out;
}

std::vector<FileId> IndexGroup::IndexCandidates(const NamedIndex& idx,
                                                const Predicate& pred,
                                                SearchResult& out) {
  std::vector<FileId> candidates;
  switch (idx.spec.type) {
    case IndexType::kHash: {
      out.access_path = "hash:" + idx.spec.name;
      for (const Term& t : pred.terms) {
        if (t.attr == idx.spec.attrs[0] && t.op == CmpOp::kEq) {
          auto r = idx.hash->Lookup(t.value);
          out.cost += r.cost;
          candidates = std::move(r.files);
          break;
        }
      }
      break;
    }
    case IndexType::kKeyword: {
      out.access_path = "keyword:" + idx.spec.name;
      for (const Term& t : pred.terms) {
        if (t.attr == idx.spec.attrs[0] && t.op == CmpOp::kContainsWord) {
          auto r = idx.hash->Lookup(t.value);
          out.cost += r.cost;
          candidates = std::move(r.files);
          break;
        }
      }
      break;
    }
    case IndexType::kBTree: {
      out.access_path = "btree:" + idx.spec.name;
      auto range = RangeForAttr(pred, idx.spec.attrs[0]);
      auto r = idx.btree->Scan(range ? *range : KeyRange::Everything());
      out.cost += r.cost;
      candidates = std::move(r.files);
      break;
    }
    case IndexType::kKdTree:
    case IndexType::kKdTreePaged: {
      out.access_path = std::string(IndexTypeName(idx.spec.type)) + ":" +
                        idx.spec.name;
      KdBox box = KdBox::Unbounded(idx.spec.attrs.size());
      for (size_t d = 0; d < idx.spec.attrs.size(); ++d) {
        auto range = RangeForAttr(pred, idx.spec.attrs[d]);
        if (!range) continue;
        if (range->lo && range->lo->is_numeric()) {
          box.lo[d] = range->lo->numeric();
          // An exclusive bound moves to the adjacent double, so a point just
          // past it stays in the box whatever the attribute's domain (on
          // integer points this prunes exactly like a step of 1).
          if (!range->lo_inclusive) {
            box.lo[d] = std::nextafter(box.lo[d],
                                       std::numeric_limits<double>::infinity());
          }
        }
        if (range->hi && range->hi->is_numeric()) {
          box.hi[d] = range->hi->numeric();
          if (!range->hi_inclusive) {
            box.hi[d] = std::nextafter(box.hi[d],
                                       -std::numeric_limits<double>::infinity());
          }
        }
      }
      auto r = idx.kd->RangeQuery(box);
      out.cost += r.cost;
      candidates = std::move(r.files);
      break;
    }
  }
  return candidates;
}

void IndexGroup::SearchBodyLocked(const Predicate& pred,
                                  SearchResult& out) const {
  // Result-cache probe: memoized answers stay valid until the next commit
  // that applies updates (CommitLocked clears the memo under exclusive
  // mu_, which excludes this shared-locked probe).
  std::string fingerprint;
  if (result_cache_enabled_) {
    BinaryWriter w;
    pred.Serialize(w);
    fingerprint = std::move(w).Take();
    out.cost += sim::Cost(kResultCacheProbeSeconds);
    MutexLock cache_lock(cache_mu_);
    auto it = result_cache_.find(fingerprint);
    if (it != result_cache_.end()) {
      if (result_cache_hits_ != nullptr) result_cache_hits_->Add(1);
      out.files = it->second.files;
      out.access_path = "result-cache(" + it->second.access_path + ")";
      return;
    }
    if (result_cache_misses_ != nullptr) result_cache_misses_->Add(1);
  }
  // Fills the memo on the way out (a no-op when the cache is off).
  auto fill_cache = [&]() {
    if (!result_cache_enabled_) return;
    MutexLock cache_lock(cache_mu_);
    // Keep the memo bounded: a workload cycling through unbounded distinct
    // predicates resets it wholesale instead of growing without limit.
    if (result_cache_.size() >= 1024) result_cache_.clear();
    result_cache_[std::move(fingerprint)] =
        CachedResult{out.files, out.access_path};
  };

  const NamedIndex* idx = ChooseAccessPath(pred);
  if (idx == nullptr) {
    // Full scan of the record store.
    out.access_path = "scan";
    out.cost += records_.ForEach([&](FileId file, const AttrSet& attrs) {
      if (pred.Matches(attrs)) out.files.push_back(file);
    });
    fill_cache();
    return;
  }

  std::vector<FileId> candidates = IndexCandidates(*idx, pred, out);

  // Verify residual terms against the record store.
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  if (pred.terms.size() <= 1 && !IsKdType(idx->spec.type) &&
      idx->spec.type != IndexType::kKeyword) {
    // Single-term queries served exactly by a btree/hash index need no
    // verification pass.
    out.files = std::move(candidates);
    fill_cache();
    return;
  }
  // Charge every candidate's record page in order, then match them all.
  for (FileId f : candidates) out.cost += records_.ChargeRead(f);
  records_.AppendMatching(candidates, pred, &out.files);
  fill_cache();
}

// --- Segmented mode -------------------------------------------------------

std::shared_ptr<IndexGroup::Segment> IndexGroup::BuildSegment(
    std::vector<std::pair<FileId, AttrSet>> rows,
    std::unordered_set<FileId> tombstones,
    const std::vector<IndexSpec>& specs, sim::Cost* cost) const {
  auto seg = std::make_shared<Segment>(RecordStore(io_->CreateStore()));
  seg->tombstones = std::move(tombstones);
  seg->indexes.reserve(specs.size());
  for (const IndexSpec& spec : specs) {
    NamedIndex idx;
    idx.spec = spec;
    switch (spec.type) {
      case IndexType::kBTree: {
        idx.btree = std::make_unique<BPlusTree>(io_->CreateStore());
        std::vector<std::pair<AttrValue, FileId>> entries;
        entries.reserve(rows.size());
        for (const auto& [file, attrs] : rows) {
          const AttrValue* v = attrs.Find(spec.attrs[0]);
          if (v != nullptr) entries.emplace_back(*v, file);
        }
        *cost += idx.btree->BulkLoad(std::move(entries));
        break;
      }
      case IndexType::kHash: {
        idx.hash = std::make_unique<HashIndex>(io_->CreateStore());
        std::vector<std::pair<AttrValue, FileId>> entries;
        entries.reserve(rows.size());
        for (const auto& [file, attrs] : rows) {
          const AttrValue* v = attrs.Find(spec.attrs[0]);
          if (v != nullptr) entries.emplace_back(*v, file);
        }
        *cost += idx.hash->BulkLoad(std::move(entries));
        break;
      }
      case IndexType::kKeyword: {
        idx.hash = std::make_unique<HashIndex>(io_->CreateStore());
        std::vector<std::pair<AttrValue, FileId>> entries;
        for (const auto& [file, attrs] : rows) {
          const AttrValue* v = attrs.Find(spec.attrs[0]);
          if (v != nullptr && v->is_string()) {
            ForEachKeyword(v->as_string(), [&](std::string_view word) {
              entries.emplace_back(AttrValue(std::string(word)), file);
            });
          }
        }
        *cost += idx.hash->BulkLoad(std::move(entries));
        break;
      }
      case IndexType::kKdTree:
      case IndexType::kKdTreePaged: {
        idx.kd = std::make_unique<KdTree>(io_->CreateStore(),
                                          spec.attrs.size(),
                                          spec.type == IndexType::kKdTreePaged
                                              ? KdLayout::kPaged
                                              : KdLayout::kSerialized);
        std::vector<std::pair<std::vector<double>, FileId>> points;
        points.reserve(rows.size());
        for (const auto& [file, attrs] : rows) {
          std::vector<double> point;
          point.reserve(spec.attrs.size());
          for (const std::string& a : spec.attrs) {
            const AttrValue* v = attrs.Find(a);
            if (v == nullptr || !v->is_numeric()) break;  // unindexable
            point.push_back(v->numeric());
          }
          if (point.size() == spec.attrs.size()) {
            points.emplace_back(std::move(point), file);
          }
        }
        *cost += idx.kd->BulkLoad(std::move(points));
        break;
      }
    }
    seg->indexes.push_back(std::move(idx));
  }
  *cost += seg->records.BulkLoad(std::move(rows));
  return seg;
}

sim::Cost IndexGroup::SealMemtable() {
  std::shared_ptr<std::vector<FileUpdate>> batch;
  std::vector<IndexSpec> specs;
  size_t wal_records = 0;

  // Phase 1 (swap, exclusive mu_, cheap): take the memtable.  The batch
  // stays visible to searches through `sealing_` until publication.
  {
    WriterMutexLock lock(mu_);
    // Reset the oldest-pending clock even for a no-op (a stale stamp left
    // by a crash would re-trigger the commit timeout forever).
    oldest_pending_staged_s_ = -1.0;
    if (pending_.empty()) return {};  // epoch-neutral no-op
    batch = std::make_shared<std::vector<FileUpdate>>(std::move(pending_));
    pending_.clear();
    has_pending_.store(false, std::memory_order_release);
    sealing_ = batch;
    // Exactly the first batch->size() WAL records correspond to this
    // batch; stages that land during the build append behind them.
    wal_records = batch->size();
    specs.reserve(indexes_.size());
    for (const NamedIndex& idx : indexes_) specs.push_back(idx.spec);
  }

  obs::SpanGuard span("group.seal", id_);
  span.Tag("group", id_);
  span.Tag("records", static_cast<uint64_t>(batch->size()));

  // Phase 2 (build, no lock): fold the batch newest-wins and bulk-build
  // the segment.  Searches and stages proceed concurrently.
  sim::Cost cost(kSealFoldPerUpdateSeconds * static_cast<double>(batch->size()));
  std::map<FileId, const FileUpdate*> latest;
  for (const FileUpdate& u : *batch) latest[u.file] = &u;
  std::vector<std::pair<FileId, AttrSet>> rows;
  std::unordered_set<FileId> tombstones;
  rows.reserve(latest.size());
  for (const auto& [file, u] : latest) {
    if (u->is_delete) {
      tombstones.insert(file);
    } else {
      rows.emplace_back(file, u->attrs);
    }
  }
  std::shared_ptr<Segment> seg =
      BuildSegment(std::move(rows), std::move(tombstones), specs, &cost);
  seg->update_count = batch->size();
  seg->seq = ++next_segment_seq_;

  // Phase 3 (publish, exclusive mu_, cheap): splice the segment in, drop
  // the sealed WAL prefix, invalidate memoized results.
  {
    WriterMutexLock lock(mu_);
    segments_.push_back(std::move(seg));
    sealing_.reset();
    cost += wal_.TruncatePrefix(wal_records);
    MutexLock cache_lock(cache_mu_);
    ++commit_epoch_;
    if (result_cache_enabled_) result_cache_.clear();
  }
  if (committed_ != nullptr) committed_->Add(batch->size());
  if (seals_ != nullptr) seals_->Add(1);
  span.Advance(cost);
  return cost;
}

sim::Cost IndexGroup::RunMergePolicy() {
  sim::Cost total;
  for (;;) {
    std::vector<std::shared_ptr<const Segment>> segs;
    std::vector<IndexSpec> specs;
    {
      ReaderMutexLock lock(mu_);
      segs = segments_;
      specs.reserve(indexes_.size());
      for (const NamedIndex& idx : indexes_) specs.push_back(idx.spec);
    }

    auto seg_bytes = [&](size_t i) -> uint64_t {
      return std::max<uint64_t>(1, segs[i]->ByteSize());
    };
    // Trigger 1 (tier): the oldest run of >= merge_tier_run_ adjacent
    // segments whose sizes stay within merge_size_ratio_ of each other.
    size_t begin = 0;
    size_t end = 0;  // merge [begin, end); end == 0 means no trigger
    for (size_t i = 0; i + 1 < segs.size() && end == 0; ++i) {
      uint64_t lo = seg_bytes(i);
      uint64_t hi = lo;
      size_t j = i;
      while (j + 1 < segs.size()) {
        uint64_t nlo = std::min(lo, seg_bytes(j + 1));
        uint64_t nhi = std::max(hi, seg_bytes(j + 1));
        if (static_cast<double>(nhi) >
            merge_size_ratio_ * static_cast<double>(nlo)) {
          break;
        }
        ++j;
        lo = nlo;
        hi = nhi;
      }
      if (j - i + 1 >= merge_tier_run_) {
        begin = i;
        end = j + 1;
      }
    }
    // Trigger 2 (cap): over the read-amplification bound regardless of
    // tiers — merge the cheapest adjacent pair.
    if (end == 0 && segs.size() > max_segments_) {
      uint64_t best = std::numeric_limits<uint64_t>::max();
      for (size_t i = 0; i + 1 < segs.size(); ++i) {
        uint64_t pair = seg_bytes(i) + seg_bytes(i + 1);
        if (pair < best) {
          best = pair;
          begin = i;
          end = i + 2;
        }
      }
    }
    if (end == 0) return total;

    obs::SpanGuard span("group.merge", id_);
    span.Tag("group", id_);
    span.Tag("inputs", static_cast<uint64_t>(end - begin));

    // Read the run newest-first (no lock; the shared_ptrs keep the inputs
    // alive) and fold it newest-wins.
    sim::Cost cost;
    std::unordered_set<FileId> seen;
    std::vector<std::pair<FileId, AttrSet>> rows;
    std::unordered_set<FileId> tombstones;
    uint64_t update_count = 0;
    for (size_t si = end; si-- > begin;) {
      const Segment& seg = *segs[si];
      update_count += seg.update_count;
      cost += seg.records.ForEach([&](FileId file, const AttrSet& attrs) {
        if (seen.insert(file).second) rows.emplace_back(file, attrs);
      });
      for (FileId f : seg.tombstones) {
        if (seen.insert(f).second) tombstones.insert(f);
      }
    }
    // Tombstones only shadow *older* segments; when the run starts at the
    // oldest segment there is nothing left to shadow.
    if (begin == 0) tombstones.clear();
    std::sort(rows.begin(), rows.end(),
              [](const std::pair<FileId, AttrSet>& a,
                 const std::pair<FileId, AttrSet>& b) {
                return a.first < b.first;
              });
    cost += sim::Cost(kSealFoldPerUpdateSeconds *
                      static_cast<double>(rows.size() + tombstones.size()));
    std::shared_ptr<Segment> merged =
        BuildSegment(std::move(rows), std::move(tombstones), specs, &cost);
    merged->update_count = update_count;
    merged->seq = ++next_segment_seq_;

    // Publish: splice the replacement in.  seal_mu_ guarantees segments_
    // has not changed shape since the snapshot (stages/searches never
    // touch it), so positional splicing is exact.
    {
      WriterMutexLock lock(mu_);
      segments_.erase(segments_.begin() + static_cast<long>(begin),
                      segments_.begin() + static_cast<long>(end));
      segments_.insert(segments_.begin() + static_cast<long>(begin),
                       std::move(merged));
      MutexLock cache_lock(cache_mu_);
      ++commit_epoch_;
      if (result_cache_enabled_) result_cache_.clear();
    }
    if (merges_ != nullptr) merges_->Add(1);
    if (merge_latency_ != nullptr) merge_latency_->Observe(cost.seconds());
    span.Advance(cost);
    total += cost;
  }
}

IndexGroup::SearchResult IndexGroup::SearchSegmented(
    const Predicate& pred) const {
  SearchResult out;
  obs::SpanGuard span("group.search", id_);
  span.Tag("group", id_);

  // Snapshot: refcounted segment list + frozen memtable view, taken under
  // a brief shared lock.  Everything below runs against immutable state —
  // a seal or merge publishing concurrently retires nothing this search
  // still holds.
  std::vector<std::shared_ptr<const Segment>> segs;
  std::shared_ptr<const std::vector<FileUpdate>> sealing;
  std::vector<FileUpdate> pending;
  {
    ReaderMutexLock lock(mu_);
    segs = segments_;
    sealing = sealing_;
    pending = pending_;
  }

  // Memtable overlay: newest staged state per file; nullptr marks a
  // staged delete.  Includes the in-flight seal batch (strong
  // consistency: sealed-but-unpublished updates stay visible).
  const size_t memtable_updates =
      (sealing != nullptr ? sealing->size() : 0) + pending.size();
  out.cost += sim::Cost(kMemtableScanPerUpdateSeconds *
                        static_cast<double>(memtable_updates));
  std::map<FileId, const AttrSet*> overlay;
  if (sealing != nullptr) {
    for (const FileUpdate& u : *sealing) {
      overlay[u.file] = u.is_delete ? nullptr : &u.attrs;
    }
  }
  for (const FileUpdate& u : pending) {
    overlay[u.file] = u.is_delete ? nullptr : &u.attrs;
  }

  // Result cache: only the exactly-committed state is memoizable, so the
  // probe is gated on an empty overlay.  The fill re-checks the epoch —
  // a seal/merge published mid-search must not be overwritten by a
  // snapshot taken before it.
  std::string fingerprint;
  uint64_t probe_epoch = 0;
  const bool cache_eligible = result_cache_enabled_ && overlay.empty();
  if (cache_eligible) {
    BinaryWriter w;
    pred.Serialize(w);
    fingerprint = std::move(w).Take();
    out.cost += sim::Cost(kResultCacheProbeSeconds);
    MutexLock cache_lock(cache_mu_);
    probe_epoch = commit_epoch_;
    auto it = result_cache_.find(fingerprint);
    if (it != result_cache_.end()) {
      if (result_cache_hits_ != nullptr) result_cache_hits_->Add(1);
      out.files = it->second.files;
      out.access_path = "result-cache(" + it->second.access_path + ")";
      FinishSearchSpan(span, out);
      return out;
    }
    if (result_cache_misses_ != nullptr) result_cache_misses_->Add(1);
  }

  // Memtable matches first (FileId order — deterministic).
  for (const auto& [file, attrs] : overlay) {
    if (attrs != nullptr && pred.Matches(*attrs)) out.files.push_back(file);
  }

  // Segments newest -> oldest; a candidate counts only if no younger
  // state (overlay or younger segment) shadows it.
  if (segments_read_ != nullptr) {
    segments_read_->Add(static_cast<uint64_t>(segs.size()));
  }
  std::string seg_path;
  for (size_t si = segs.size(); si-- > 0;) {
    const Segment& seg = *segs[si];
    const NamedIndex* idx = ChooseAccessPathFor(pred, seg.indexes);
    std::vector<FileId> candidates;
    bool exact = false;
    if (idx == nullptr) {
      // Full scan of this segment's records: matches are already exact.
      exact = true;
      if (seg_path.empty()) seg_path = "scan";
      out.cost += seg.records.ForEach([&](FileId file, const AttrSet& attrs) {
        if (pred.Matches(attrs)) candidates.push_back(file);
      });
      std::sort(candidates.begin(), candidates.end());
    } else {
      SearchResult sub;
      candidates = IndexCandidates(*idx, pred, sub);
      out.cost += sub.cost;
      if (seg_path.empty()) seg_path = sub.access_path;
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
      exact = pred.terms.size() <= 1 && !IsKdType(idx->spec.type) &&
              idx->spec.type != IndexType::kKeyword;
    }
    // Keep the unshadowed candidates in place; a non-exact segment charges
    // each one's record page right after its shadow probes, then matches
    // them all in one batch.
    size_t live = 0;
    for (FileId f : candidates) {
      if (overlay.count(f) != 0u) continue;  // memtable shadows everything
      bool shadowed = false;
      for (size_t sj = si + 1; sj < segs.size() && !shadowed; ++sj) {
        out.cost += sim::Cost(kShadowProbeSeconds);
        shadowed = segs[sj]->Contains(f);
      }
      if (shadowed) continue;
      if (!exact) out.cost += seg.records.ChargeRead(f);
      candidates[live++] = f;
    }
    candidates.resize(live);
    if (exact) {
      out.files.insert(out.files.end(), candidates.begin(), candidates.end());
    } else {
      seg.records.AppendMatching(candidates, pred, &out.files);
    }
  }
  out.access_path = "segments[" + std::to_string(segs.size()) +
                    "]:" + (seg_path.empty() ? "none" : seg_path);

  if (cache_eligible) {
    MutexLock cache_lock(cache_mu_);
    if (commit_epoch_ == probe_epoch) {
      if (result_cache_.size() >= 1024) result_cache_.clear();
      result_cache_[std::move(fingerprint)] =
          CachedResult{out.files, out.access_path};
    }
  }
  FinishSearchSpan(span, out);
  return out;
}

uint64_t IndexGroup::NumFiles() const {
  ReaderMutexLock lock(mu_);
  if (!segmented_) return records_.NumRecords();
  return NumFilesSegmentedLocked();
}

uint64_t IndexGroup::NumFilesSegmentedLocked() const {
  std::unordered_set<FileId> seen;
  uint64_t live = 0;
  for (size_t si = segments_.size(); si-- > 0;) {
    const Segment& seg = *segments_[si];
    seg.records.ForEachInMemory([&](FileId file, const AttrSet&) {
      if (seen.insert(file).second) ++live;
    });
    for (FileId f : seg.tombstones) seen.insert(f);
  }
  return live;
}

// --------------------------------------------------------------------------

sim::Cost IndexGroup::MaintainIndexes() {
  // Segmented mode: segments are immutable and bulk-built balanced, so
  // there is nothing to maintain.
  if (segmented_) return {};
  WriterMutexLock lock(mu_);
  sim::Cost cost;
  for (NamedIndex& idx : indexes_) {
    if (IsKdType(idx.spec.type) && idx.kd->NeedsRebuild()) {
      cost += idx.kd->Rebuild();
    }
  }
  return cost;
}

Status IndexGroup::RecoverPendingFromWal() {
  WriterMutexLock lock(mu_);
  pending_.clear();
  Status s = wal_.Replay([&](const std::string& rec) {
    BinaryReader r(rec);
    FileUpdate u;
    PROPELLER_RETURN_IF_ERROR(FileUpdate::Deserialize(r, u));
    pending_.push_back(std::move(u));
    return Status::Ok();
  });
  // An empty WAL means nothing is pending: drop any pre-crash stamp so the
  // commit timeout does not fire for updates that no longer exist.
  if (pending_.empty()) oldest_pending_staged_s_ = -1.0;
  has_pending_.store(!pending_.empty(), std::memory_order_release);
  return s;
}

uint64_t IndexGroup::ApproxPages() const {
  ReaderMutexLock lock(mu_);
  auto index_pages = [](const std::vector<NamedIndex>& indexes) {
    uint64_t pages = 0;
    for (const NamedIndex& idx : indexes) {
      switch (idx.spec.type) {
        case IndexType::kBTree:
          pages += idx.btree->NumPages();
          break;
        case IndexType::kHash:
        case IndexType::kKeyword:
          pages += idx.hash->NumPages();
          break;
        case IndexType::kKdTree:
        case IndexType::kKdTreePaged:
          pages += idx.kd->NumPages();
          break;
      }
    }
    return pages;
  };
  uint64_t pages = records_.NumPages() + index_pages(indexes_);
  for (const auto& seg : segments_) {
    pages += seg->records.NumPages() + index_pages(seg->indexes);
  }
  return pages;
}

}  // namespace propeller::index
