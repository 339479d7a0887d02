#include "index/index_group.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

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

std::vector<std::string> ExtractKeywords(std::string_view path) {
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


namespace {

// Merge policy (segmented mode).  Merge when the committed segment count
// exceeds this (K: the per-search read-amplification bound)...
constexpr size_t kMaxSegments = 4;
// ...adjacent segments whose sizes stay within this ratio form one tier...
constexpr double kMergeSizeRatio = 4.0;
// ...and a tier of at least this many adjacent segments merges eagerly.
constexpr size_t kMergeTierRun = 3;

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

// The one per-type key extractor.  Calls `fn(key)` for each key `attrs`
// posts under `idx`: the attribute's value (B-tree, hash), one value per
// path word (keyword), or the point of the dimension attributes (K-D).
// Calls nothing when an attribute is missing or of the wrong kind.
template <typename Index, typename Fn>
void ForEachKey(const Index& idx, const AttrSet& attrs, Fn&& fn) {
  if (IsKdType(idx.spec.type)) {
    std::vector<double> point;
    point.reserve(idx.attr_ids.size());
    for (AttrId a : idx.attr_ids) {
      const AttrValue* v = attrs.Find(a);
      if (v == nullptr || !v->is_numeric()) return;  // unindexable
      point.push_back(v->numeric());
    }
    fn(std::move(point));
    return;
  }
  const AttrValue* v = attrs.Find(idx.attr_ids[0]);
  if (v == nullptr) return;
  if (idx.spec.type != IndexType::kKeyword) {
    fn(*v);
  } else if (v->is_string()) {
    ForEachKeyword(v->as_string(),
                   [&](std::string_view word) { fn(AttrValue(word)); });
  }
}

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

}  // namespace

IndexGroup::IndexGroup(GroupId id, sim::IoContext* io,
                       const IndexGroupOptions& options)
    : id_(id),
      io_(io),
      segmented_(options.segmented),
      // The commit barrier's one base segment; segmented mode starts with
      // none and publishes each from a seal.
      segments_(segmented_ ? SegmentList{}
                           : SegmentList{std::make_shared<Segment>(
                                 RecordStore(io->CreateStore()))}),
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

IndexGroup::NamedIndex IndexGroup::MakeIndex(const IndexSpec& spec) const {
  NamedIndex idx;
  idx.spec = spec;
  idx.attr_ids.reserve(spec.attrs.size());
  for (const std::string& a : spec.attrs) {
    idx.attr_ids.push_back(AttrNames::Global().Intern(a));
  }
  switch (spec.type) {
    case IndexType::kBTree:
      idx.btree = std::make_unique<BPlusTree>(io_->CreateStore());
      break;
    case IndexType::kHash:
    case IndexType::kKeyword:
      idx.hash = std::make_unique<HashIndex>(io_->CreateStore());
      break;
    case IndexType::kKdTree:
    case IndexType::kKdTreePaged:
      idx.kd = std::make_unique<KdTree>(io_->CreateStore(), spec.attrs.size(),
                                        spec.type == IndexType::kKdTreePaged
                                            ? KdLayout::kPaged
                                            : KdLayout::kSerialized);
      break;
  }
  return idx;
}

IndexGroup::NamedIndex IndexGroup::BuildIndex(const IndexSpec& spec,
                                              const Rows& rows,
                                              sim::Cost* cost) const {
  NamedIndex idx = MakeIndex(spec);
  std::vector<std::pair<AttrValue, FileId>> keys;
  std::vector<std::pair<std::vector<double>, FileId>> points;
  if (idx.kd != nullptr) {
    points.reserve(rows.size());
  } else {
    keys.reserve(rows.size());
  }
  for (const auto& [file, attrs] : rows) {
    ForEachKey(idx, attrs, [&](auto&& key) {
      if constexpr (std::is_same_v<std::decay_t<decltype(key)>, AttrValue>) {
        keys.emplace_back(std::forward<decltype(key)>(key), file);
      } else {
        points.emplace_back(std::move(key), file);
      }
    });
  }
  if (idx.btree != nullptr) {
    *cost += idx.btree->BulkLoad(std::move(keys));
  } else if (idx.hash != nullptr) {
    *cost += idx.hash->BulkLoad(std::move(keys));
  } else {
    *cost += idx.kd->BulkLoad(std::move(points));
  }
  return idx;
}

std::shared_ptr<IndexGroup::Segment> IndexGroup::BuildSegment(
    Rows rows, std::unordered_set<FileId> tombstones,
    const std::vector<IndexSpec>& specs, sim::Cost* cost) const {
  auto seg = std::make_shared<Segment>(RecordStore(io_->CreateStore()));
  seg->tombstones = std::move(tombstones);
  seg->indexes.reserve(specs.size());
  for (const IndexSpec& spec : specs) {
    seg->indexes.push_back(BuildIndex(spec, rows, cost));
  }
  *cost += seg->records.BulkLoad(std::move(rows));
  return seg;
}

Status IndexGroup::CreateIndex(const IndexSpec& spec, sim::Cost* cost) {
  WriterMutexLock lock(mu_);
  if (spec.name.empty()) return Status::InvalidArgument("index name empty");
  bool exists = std::any_of(specs_.begin(), specs_.end(),
                            [&](const IndexSpec& s) { return s.name == spec.name; });
  if (exists) return Status::AlreadyExists(spec.name);
  if (IsKdType(spec.type)) {
    if (spec.attrs.empty()) {
      return Status::InvalidArgument("kd-tree needs >= 1 dimension attr");
    }
  } else if (spec.attrs.size() != 1) {
    return Status::InvalidArgument("index needs exactly one attribute");
  }
  specs_.push_back(spec);
  if (segmented_) return Status::Ok();

  // Commit barrier: the base segment gets the index now, bulk-built over
  // every committed file.  An empty group reads and loads nothing.
  Segment& base = *segments_.front();
  if (base.records.NumRecords() == 0) {
    base.indexes.push_back(MakeIndex(spec));
    return Status::Ok();
  }
  Rows rows;
  rows.reserve(base.records.NumRecords());
  sim::Cost build = base.records.ForEach(
      [&](FileId file, const AttrSet& attrs) { rows.emplace_back(file, attrs); });
  base.indexes.push_back(BuildIndex(spec, rows, &build));
  if (cost != nullptr) *cost += build;
  return Status::Ok();
}

bool IndexGroup::HasIndex(const std::string& name) const {
  ReaderMutexLock lock(mu_);
  return std::any_of(specs_.begin(), specs_.end(),
                     [&](const IndexSpec& s) { return s.name == name; });
}

std::vector<IndexSpec> IndexGroup::Specs() const {
  ReaderMutexLock lock(mu_);
  return specs_;
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

void IndexGroup::PublishLocked() {
  MutexLock cache_lock(cache_mu_);
  ++commit_epoch_;
  if (result_cache_enabled_) result_cache_.clear();
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
  num_files_ = segments_.front()->records.NumRecords();
  PublishLocked();
  span.Advance(cost);
  return cost;
}

sim::Cost IndexGroup::Apply(const FileUpdate& update) {
  Segment& base = *segments_.front();
  // One index's postings of one record, summed before they join `cost`.
  auto postings = [&](const NamedIndex& idx, const AttrSet& attrs,
                      bool insert) {
    sim::Cost c;
    ForEachKey(idx, attrs, [&](const auto& key) {
      c += insert ? idx.Insert(key, update.file) : idx.Remove(key, update.file);
    });
    return c;
  };
  sim::Cost cost;
  if (update.is_delete) {
    auto erased = base.records.Erase(update.file);
    cost += erased.cost;
    if (erased.previous) {
      for (const NamedIndex& idx : base.indexes) {
        cost += postings(idx, *erased.previous, /*insert=*/false);
      }
    }
    return cost;
  }
  auto put = base.records.Put(update.file, update.attrs);
  cost += put.cost;
  for (const NamedIndex& idx : base.indexes) {
    if (put.previous) cost += postings(idx, *put.previous, /*insert=*/false);
    cost += postings(idx, update.attrs, /*insert=*/true);
  }
  return cost;
}

const IndexGroup::NamedIndex* IndexGroup::ChooseAccessPath(
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

IndexGroup::SearchResult IndexGroup::Search(const Predicate& pred) {
  SearchResult out;
  // A drain's nested group.commit span advances the ambient clock by its
  // own cost; FinishSearchSpan tops up the rest.
  obs::SpanGuard span("group.search", id_);
  span.Tag("group", id_);

  if (segmented_) {
    // Snapshot: refcounted segment list + frozen memtable view, taken
    // under a brief shared lock.  Everything below runs against immutable
    // state — a seal or merge publishing concurrently retires nothing this
    // search still holds.
    SegmentList segs;
    std::shared_ptr<const std::vector<FileUpdate>> sealing;
    std::vector<FileUpdate> pending;
    {
      ReaderMutexLock lock(mu_);
      segs = segments_;
      sealing = sealing_;
      pending = pending_;
    }
    // The overlay includes the in-flight seal batch (strong consistency:
    // sealed-but-unpublished updates stay visible).
    const size_t memtable_updates =
        (sealing != nullptr ? sealing->size() : 0) + pending.size();
    out.cost += sim::Cost(kMemtableScanPerUpdateSeconds *
                          static_cast<double>(memtable_updates));
    Overlay overlay;
    if (sealing != nullptr) {
      for (const FileUpdate& u : *sealing) {
        overlay[u.file] = u.is_delete ? nullptr : &u.attrs;
      }
    }
    for (const FileUpdate& u : pending) {
      overlay[u.file] = u.is_delete ? nullptr : &u.attrs;
    }
    SearchSegments(pred, overlay, segs, out);
    FinishSearchSpan(span, out);
    return out;
  }

  // Commit barrier, fast path: nothing staged — run under a shared lock so
  // concurrent searches of this group proceed in parallel.  The lock-free
  // probe avoids even the reader acquisition when an update was just
  // staged; the rechecks under the lock make the decision authoritative (a
  // stage racing past the atomic still holds exclusive mu_ until its
  // update is in pending_, so a reader that sees pending_ empty is
  // consistent).
  bool done = false;
  if (!has_pending_.load(std::memory_order_acquire)) {
    ReaderMutexLock lock(mu_);
    if (pending_.empty() && oldest_pending_staged_s_ < 0.0) {
      SearchSegments(pred, Overlay(), segments_, out);
      done = true;
    }
  }
  if (!done) {
    // Slow path: drain staged updates first (strong consistency), which
    // needs the exclusive lock.  The shared lock was dropped above; the
    // commit re-checks pending_ under the exclusive lock, so a commit that
    // raced in between simply leaves nothing to do.
    WriterMutexLock lock(mu_);
    out.cost += CommitLocked();
    SearchSegments(pred, Overlay(), segments_, out);
  }
  FinishSearchSpan(span, out);
  return out;
}

std::vector<FileId> IndexGroup::IndexCandidates(const NamedIndex& idx,
                                                const Predicate& pred,
                                                sim::Cost& cost) {
  std::vector<FileId> candidates;
  switch (idx.spec.type) {
    case IndexType::kHash:
    case IndexType::kKeyword: {
      const CmpOp op = idx.spec.type == IndexType::kHash
                           ? CmpOp::kEq
                           : CmpOp::kContainsWord;
      for (const Term& t : pred.terms) {
        if (t.attr == idx.spec.attrs[0] && t.op == op) {
          auto r = idx.hash->Lookup(t.value);
          cost += r.cost;
          candidates = std::move(r.files);
          break;
        }
      }
      break;
    }
    case IndexType::kBTree: {
      auto range = RangeForAttr(pred, idx.spec.attrs[0]);
      auto r = idx.btree->Scan(range ? *range : KeyRange::Everything());
      cost += r.cost;
      candidates = std::move(r.files);
      break;
    }
    case IndexType::kKdTree:
    case IndexType::kKdTreePaged: {
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
      cost += r.cost;
      candidates = std::move(r.files);
      break;
    }
  }
  return candidates;
}

void IndexGroup::SearchSegments(const Predicate& pred, const Overlay& overlay,
                                const SegmentList& segs,
                                SearchResult& out) const {
  // Result cache: only exactly-committed state is memoizable, so the probe
  // is gated on an empty overlay.  The fill re-checks the epoch — a
  // publish since the probe must not be overwritten by a search that read
  // the segments before it.
  std::string fingerprint;
  uint64_t probe_epoch = 0;
  const bool cacheable = result_cache_enabled_ && overlay.empty();
  if (cacheable) {
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
      return;
    }
    if (result_cache_misses_ != nullptr) result_cache_misses_->Add(1);
  }

  // Memtable matches first (FileId order — deterministic).
  if (!overlay.empty()) {
    const BoundPredicate bound(pred);
    for (const auto& [file, attrs] : overlay) {
      if (attrs != nullptr && bound.Matches(*attrs)) out.files.push_back(file);
    }
  }

  // Segments newest -> oldest; a candidate counts only if no younger
  // state (overlay or younger segment) shadows it.
  if (segments_read_ != nullptr) {
    segments_read_->Add(static_cast<uint64_t>(segs.size()));
  }
  std::string path;  // the newest segment's access path
  for (size_t si = segs.size(); si-- > 0;) {
    const Segment& seg = *segs[si];
    const NamedIndex* idx = ChooseAccessPath(pred, seg.indexes);
    std::vector<FileId> candidates;
    // Exact candidates already satisfy pred: no residual match.
    bool exact = true;
    if (idx == nullptr) {
      // Full scan of this segment's records, in FileId order.
      if (path.empty()) path = "scan";
      const BoundPredicate bound(pred);
      out.cost += seg.records.ForEach([&](FileId file, const AttrSet& attrs) {
        if (bound.Matches(attrs)) candidates.push_back(file);
      });
    } else {
      candidates = IndexCandidates(*idx, pred, out.cost);
      if (path.empty()) {
        path = std::string(IndexTypeName(idx->spec.type)) + ":" + idx->spec.name;
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());
      // Single-term queries served by a btree/hash index are exact.
      exact = pred.terms.size() <= 1 && !IsKdType(idx->spec.type) &&
              idx->spec.type != IndexType::kKeyword;
    }
    // Keep the unshadowed candidates in place; a non-exact segment charges
    // each one's record page right after its shadow probes, then matches
    // them all in one batch.  Nothing shadows the newest segment under an
    // empty overlay (always so for the commit barrier).
    const bool shadowable = !overlay.empty() || si + 1 < segs.size();
    size_t live = 0;
    for (FileId f : candidates) {
      if (shadowable) {
        if (overlay.count(f) != 0u) continue;  // memtable shadows everything
        bool shadowed = false;
        for (size_t sj = si + 1; sj < segs.size() && !shadowed; ++sj) {
          out.cost += sim::Cost(kShadowProbeSeconds);
          shadowed = segs[sj]->Contains(f);
        }
        if (shadowed) continue;
      }
      if (!exact) out.cost += seg.records.ChargeRead(f);
      candidates[live++] = f;
    }
    candidates.resize(live);
    if (!exact) {
      seg.records.AppendMatching(candidates, pred, &out.files);
    } else if (out.files.empty()) {
      out.files = std::move(candidates);
    } else {
      out.files.insert(out.files.end(), candidates.begin(), candidates.end());
    }
  }
  // The commit barrier's one segment reports its own path; segmented mode
  // labels the read amplification too.
  out.access_path = segmented_ ? "segments[" + std::to_string(segs.size()) +
                                     "]:" + (path.empty() ? "none" : path)
                               : std::move(path);

  if (cacheable) {
    MutexLock cache_lock(cache_mu_);
    if (commit_epoch_ == probe_epoch) {
      // Keep the memo bounded: a workload cycling through unbounded
      // distinct predicates resets it wholesale instead of growing.
      if (result_cache_.size() >= 1024) result_cache_.clear();
      result_cache_[std::move(fingerprint)] =
          CachedResult{out.files, out.access_path};
    }
  }
}

// --- Segmented mode -------------------------------------------------------

sim::Cost IndexGroup::SealMemtable() {
  std::shared_ptr<std::vector<FileUpdate>> batch;
  std::vector<IndexSpec> specs;
  SegmentList segs;
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
    specs = specs_;
    segs = segments_;
  }

  obs::SpanGuard span("group.seal", id_);
  span.Tag("group", id_);
  span.Tag("records", static_cast<uint64_t>(batch->size()));

  // Phase 2 (build, no lock): fold the batch newest-wins and bulk-build
  // the segment.  Searches and stages proceed concurrently.
  sim::Cost cost(kSealFoldPerUpdateSeconds * static_cast<double>(batch->size()));
  std::map<FileId, const FileUpdate*> latest;
  for (const FileUpdate& u : *batch) latest[u.file] = &u;
  Rows rows;
  std::unordered_set<FileId> tombstones;
  rows.reserve(latest.size());
  // Live-count change, against the segments this seal lands on (seal_mu_
  // keeps them as they are until the publish).
  uint64_t born = 0;
  uint64_t died = 0;
  for (const auto& [file, u] : latest) {
    bool was_live = false;
    for (size_t si = segs.size(); si-- > 0;) {
      if (segs[si]->Contains(file)) {
        was_live = segs[si]->records.Contains(file);
        break;
      }
    }
    if (u->is_delete) {
      tombstones.insert(file);
      died += was_live ? 1 : 0;
    } else {
      rows.emplace_back(file, u->attrs);
      born += was_live ? 0 : 1;
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
    num_files_ = num_files_ + born - died;
    PublishLocked();
  }
  if (committed_ != nullptr) committed_->Add(batch->size());
  if (seals_ != nullptr) seals_->Add(1);
  span.Advance(cost);
  return cost;
}

sim::Cost IndexGroup::RunMergePolicy() {
  sim::Cost total;
  for (;;) {
    SegmentList segs;
    std::vector<IndexSpec> specs;
    {
      ReaderMutexLock lock(mu_);
      segs = segments_;
      specs = specs_;
    }

    auto seg_bytes = [&](size_t i) -> uint64_t {
      return std::max<uint64_t>(1, segs[i]->ByteSize());
    };
    // Trigger 1 (tier): the oldest run of >= kMergeTierRun adjacent
    // segments whose sizes stay within kMergeSizeRatio of each other.
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
            kMergeSizeRatio * static_cast<double>(nlo)) {
          break;
        }
        ++j;
        lo = nlo;
        hi = nhi;
      }
      if (j - i + 1 >= kMergeTierRun) {
        begin = i;
        end = j + 1;
      }
    }
    // Trigger 2 (cap): over the read-amplification bound regardless of
    // tiers — merge the cheapest adjacent pair.
    if (end == 0 && segs.size() > kMaxSegments) {
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
    // alive) and fold it newest-wins.  The live set does not change.
    sim::Cost cost;
    std::unordered_set<FileId> seen;
    Rows rows;
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
      PublishLocked();
    }
    if (merges_ != nullptr) merges_->Add(1);
    if (merge_latency_ != nullptr) merge_latency_->Observe(cost.seconds());
    span.Advance(cost);
    total += cost;
  }
}

// --------------------------------------------------------------------------

sim::Cost IndexGroup::MaintainIndexes() {
  WriterMutexLock lock(mu_);
  sim::Cost cost;
  // Only a K-D tree grown by inserts can need a rebuild: a bulk-built one
  // is balanced and tombstone-free, so a sealed or merged segment is
  // never touched here.
  for (const auto& seg : segments_) {
    for (NamedIndex& idx : seg->indexes) {
      if (idx.kd != nullptr && idx.kd->NeedsRebuild()) cost += idx.kd->Rebuild();
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
  uint64_t pages = 0;
  for (const auto& seg : segments_) {
    pages += seg->records.NumPages();
    for (const NamedIndex& idx : seg->indexes) pages += idx.NumPages();
  }
  return pages;
}

}  // namespace propeller::index
