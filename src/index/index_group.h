// IndexGroup: the unit of partitioning.
//
// Each ACG maps to one IndexGroup living on exactly one Index Node.  A
// group bundles a record store with any number of *named* indices (B-tree,
// hash table, K-D tree, or keyword — Section IV: "users can define an
// arbitrary index with a globally unique name with the supported index
// structures").
//
// Real-time indexing follows the paper's protocol: updates are appended to
// a write-ahead log and staged in an in-memory cache; they are committed
// into the index structures on a timeout or — to keep results strongly
// consistent — by the next search request touching the group.
//
// The group runs in one of two modes:
//
//  * Commit-barrier (default, bit-compatible with earlier revisions):
//    Search drains staged updates under an exclusive lock before
//    answering, so one hot group's ingest stalls every read on it.
//
//  * Segmented (IndexGroupOptions::segmented — write-read decoupling):
//    committed state lives in a list of *immutable segments* (each a
//    record store + fully-built index structures + delete tombstones) and
//    writes accumulate in a mutable memtable (`pending_`).  Search takes a
//    cheap snapshot — the refcounted segment list plus a frozen memtable
//    view — under a brief shared lock and then runs entirely against
//    immutable state: it never blocks on, or waits for, a commit.  Commit
//    seals the memtable into a new segment in three phases (swap under
//    exclusive mu_, build with no lock held, publish under exclusive mu_)
//    and a tiered size-ratio merge policy bounds the number of live
//    segments — and therefore per-search read amplification — to ≤ K.
//    Newest state wins: the memtable overlay shadows every segment and a
//    younger segment shadows older ones (tombstones shadow deletes).
//
// Thread safety / locking order: every public method takes the group's own
// mutex, so one IndexGroup may be staged into, committed, and searched from
// concurrent threads (the Index Node's per-group search pool does this).
// The group mutex is a SharedMutex: mutating paths (stage, commit, create
// index, maintenance) take it exclusively, while pure read paths (Search
// with nothing staged, HasIndex, Specs, ApproxPages, ...) take it shared —
// so concurrent searches against the *same* group proceed in parallel.
// In commit-barrier mode Search stays a commit barrier (strong
// consistency): a lock-free `has_pending_` probe plus an
// under-the-reader-lock recheck decides whether the search can run shared
// or must upgrade (drop + reacquire exclusive) to drain staged updates
// first.  In segmented mode searches only ever take the shared lock (for
// the snapshot); `seal_mu_` serialises the seal/merge pipeline so at most
// one build is in flight, and the in-flight batch stays visible to
// searches through `sealing_` (strong consistency without the barrier).
// Distinct groups never share index structures, so cross-group parallelism
// needs no coordination beyond the (internally locked) shared IoContext.
// Lock order is strictly:
//
//     IndexNode::groups_mu_ -> IndexGroup::seal_mu_ -> IndexGroup::mu_
//         -> cache_mu_ -> IoContext::mu_
//
// (`cache_mu_` guards the per-group search-result memo; it nests inside
// mu_ because probes/fills run while holding at least a shared mu_.)
// Never acquire a second group's mutex while holding one, and never call
// back into IndexGroup from inside a ForEachRecord callback (the callback
// runs under mu_).  This order is one slice of the cluster-wide rank table
// (common/mutex.h LockRank, DESIGN.md "Lock ranks & static enforcement");
// debug builds abort on violation.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "index/attr.h"
#include "obs/metrics.h"
#include "index/btree.h"
#include "index/hash_index.h"
#include "index/kdtree.h"
#include "index/query.h"
#include "index/record_store.h"
#include "index/wal.h"
#include "sim/io_context.h"

namespace propeller::index {

using GroupId = uint64_t;

enum class IndexType : uint8_t {
  kBTree = 0,
  kHash = 1,
  kKdTree = 2,       // the prototype's serialized (load-whole) layout
  kKeyword = 3,
  kKdTreePaged = 4,  // paged on-disk K-D layout (the paper's future work)
};

const char* IndexTypeName(IndexType t);
inline bool IsKdType(IndexType t) {
  return t == IndexType::kKdTree || t == IndexType::kKdTreePaged;
}

struct IndexSpec {
  std::string name;                // globally unique index name
  IndexType type = IndexType::kBTree;
  // B-tree/hash/keyword: exactly one attribute.  K-D tree: the dimension
  // attributes, in order.
  std::vector<std::string> attrs;

  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, IndexSpec& out);
};

// One staged file-indexing request.
struct FileUpdate {
  FileId file = 0;
  AttrSet attrs;
  bool is_delete = false;

  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, FileUpdate& out);
};

// Construction-time knobs for one IndexGroup.
struct IndexGroupOptions {
  // Optional, not owned: receives WAL / staging / commit counters; the
  // hosting Index Node passes its own registry so per-node snapshots
  // aggregate all of that node's groups.
  obs::MetricsRegistry* metrics = nullptr;
  // Per-group search-result memo (read_path_caching); off, the search
  // path never touches the cache and costs are unchanged.
  bool result_cache = false;

  // --- Write-read decoupling (see the file comment) ---
  bool segmented = false;
  // Merge when the committed segment count exceeds this (K: the
  // per-search read-amplification bound).
  size_t max_segments = 4;
  // Adjacent segments whose sizes stay within this ratio form one tier...
  double merge_size_ratio = 4.0;
  // ...and a tier of at least this many adjacent segments merges eagerly.
  size_t merge_tier_run = 3;
};

class IndexGroup {
 public:
  // Default options: commit-barrier mode, no metrics, no result cache.
  IndexGroup(GroupId id, sim::IoContext* io,
             const IndexGroupOptions& options = {});

  // Not movable: the group owns a mutex (groups live behind unique_ptr on
  // their Index Node, so moves are never needed).
  IndexGroup(IndexGroup&&) = delete;
  IndexGroup& operator=(IndexGroup&&) = delete;

  GroupId id() const { return id_; }

  Status CreateIndex(const IndexSpec& spec);
  bool HasIndex(const std::string& name) const;
  std::vector<IndexSpec> Specs() const;

  // --- Real-time indexing path ---
  // WAL append + in-memory staging; cheap and on the I/O critical path.
  // `staged_at_s` (simulated seconds, optional) stamps the group's
  // oldest-pending clock for commit-timeout scheduling: the stamp is set
  // only when no older staged update is already waiting, and every commit
  // clears it — all under mu_, so a stage racing a commit can never leave
  // the stamp pointing at updates that no longer exist (or, worse, drop
  // the stamp for updates that do).
  sim::Cost StageUpdate(FileUpdate update, double staged_at_s = -1.0);
  // Commit-barrier mode: applies all staged updates to the index
  // structures and truncates the WAL.  Segmented mode: seals the memtable
  // into a new immutable segment (truncating the sealed WAL prefix) and
  // runs the merge policy.  A no-op when nothing is staged — and, in both
  // modes, epoch-neutral: the result cache survives an empty commit.
  sim::Cost Commit();
  size_t PendingUpdates() const {
    ReaderMutexLock lock(mu_);
    return pending_.size();
  }
  // Simulated time the oldest currently-pending update was staged, or a
  // negative value when nothing is pending (or nothing was stamped).
  double OldestPendingStagedAt() const {
    ReaderMutexLock lock(mu_);
    return oldest_pending_staged_s_;
  }

  // --- Search path ---
  struct SearchResult {
    std::vector<FileId> files;
    sim::Cost cost;
    std::string access_path;  // which index served the query (diagnostics)
  };
  // Commits pending updates first (strong consistency), then answers.
  // With nothing staged the search runs under a *shared* lock, so any
  // number of threads can search one group concurrently.
  SearchResult Search(const Predicate& pred);

  // Number of commits that actually applied updates (bumped whenever the
  // result cache is invalidated; test / introspection hook).  Segmented
  // mode also bumps it on every seal and merge publish.
  uint64_t CommitEpoch() const {
    MutexLock lock(cache_mu_);
    return commit_epoch_;
  }

  // --- Segmented-mode introspection ---
  bool segmented() const { return segmented_; }
  size_t NumSegments() const {
    ReaderMutexLock lock(mu_);
    return segments_.size();
  }
  // Staged updates folded into each live segment, oldest first (tests).
  std::vector<uint64_t> SegmentUpdateCounts() const {
    ReaderMutexLock lock(mu_);
    std::vector<uint64_t> out;
    out.reserve(segments_.size());
    for (const auto& seg : segments_) out.push_back(seg->update_count);
    return out;
  }

  // --- Maintenance (Propeller runs this off the critical path) ---
  // Rebuilds K-D trees that insert-order growth left unbalanced.
  sim::Cost MaintainIndexes();

  // --- Crash recovery ---
  // Rebuilds the staged-update cache from the WAL (models an Index Node
  // restart that lost its memory state but kept its log).
  Status RecoverPendingFromWal();
  // Drops in-memory staged state *without* touching the WAL (test hook
  // that simulates the crash itself).  The oldest-pending stamp survives,
  // like any other pre-crash memory of the scheduler; the next commit
  // clears it.
  void SimulateCrashLosingMemoryState() {
    WriterMutexLock lock(mu_);
    pending_.clear();
    has_pending_.store(false, std::memory_order_release);
  }

  // --- Split / migration support ---
  // Committed live files (excludes staged updates; segmented: newest
  // segment wins, tombstoned files excluded).  Cost-free statistic.
  uint64_t NumFiles() const;
  // All (file, attrs) currently committed; used to move files to a new
  // group during an ACG split.  `fn` runs under the group mutex — it must
  // not call back into this IndexGroup.  Segmented mode visits the live
  // (unshadowed, untombstoned) view, newest segment first.
  template <typename Fn>
  sim::Cost ForEachRecord(Fn&& fn) const {
    ReaderMutexLock lock(mu_);
    if (!segmented_) return records_.ForEach(fn);
    sim::Cost cost;
    std::unordered_set<FileId> seen;
    for (size_t si = segments_.size(); si-- > 0;) {
      const Segment& seg = *segments_[si];
      cost += seg.records.ForEach([&](FileId file, const AttrSet& attrs) {
        if (seen.insert(file).second) fn(file, attrs);
      });
      for (FileId f : seg.tombstones) seen.insert(f);
    }
    return cost;
  }
  // Size estimate for migration cost accounting.
  uint64_t ApproxPages() const;

 private:
  struct NamedIndex {
    IndexSpec spec;
    std::vector<AttrId> attr_ids;  // spec.attrs, bound once at creation
    std::unique_ptr<BPlusTree> btree;
    std::unique_ptr<HashIndex> hash;
    std::unique_ptr<KdTree> kd;
  };

  // One immutable committed unit of the segmented mode: a record store,
  // fully-built index structures for every spec the group had at seal
  // time, and the set of files the sealed batch deleted (tombstones
  // shadow older segments).  Never mutated after publication — searches
  // hold shared_ptrs, so a merge retiring a segment cannot pull it out
  // from under a running snapshot.
  struct Segment {
    explicit Segment(RecordStore store) : records(std::move(store)) {}
    uint64_t seq = 0;           // publication order (diagnostics)
    uint64_t update_count = 0;  // staged updates folded in (incl. merges)
    RecordStore records;
    std::unordered_set<FileId> tombstones;
    std::vector<NamedIndex> indexes;

    // Does this segment have the newest word on `file` among itself and
    // everything older?  (Callers charge their own probe cost.)
    bool Contains(FileId file) const {
      return records.Contains(file) || tombstones.count(file) != 0u;
    }
    uint64_t ByteSize() const {
      return records.Bytes() + 8 * tombstones.size();
    }
  };

  // Memoized answer for one predicate against the current committed state.
  struct CachedResult {
    std::vector<FileId> files;
    std::string access_path;  // path that produced it (re-reported on hits)
  };

  // The *Locked helpers require mu_ held by the caller; exclusive unless
  // marked REQUIRES_SHARED (shared suffices for pure reads, and exclusive
  // holders satisfy a shared requirement).
  sim::Cost CommitLocked() REQUIRES(mu_);
  sim::Cost Apply(const FileUpdate& update) REQUIRES(mu_);
  // A structure-less index for `spec` with its attribute names bound; the
  // caller adds the structure.
  static NamedIndex BindIndex(const IndexSpec& spec);
  sim::Cost RemovePostings(const NamedIndex& idx, FileId file,
                           const AttrSet& attrs) REQUIRES(mu_);
  sim::Cost InsertPostings(const NamedIndex& idx, FileId file,
                           const AttrSet& attrs) REQUIRES(mu_);
  // Picks the best index among `indexes` for `pred`; nullptr = full scan.
  static const NamedIndex* ChooseAccessPathFor(
      const Predicate& pred, const std::vector<NamedIndex>& indexes);
  const NamedIndex* ChooseAccessPath(const Predicate& pred) const
      REQUIRES_SHARED(mu_) {
    return ChooseAccessPathFor(pred, indexes_);
  }
  // Runs the chosen index's lookup: accumulates cost and the access-path
  // label into `out`, returns the raw candidate list (not yet verified).
  static std::vector<FileId> IndexCandidates(const NamedIndex& idx,
                                             const Predicate& pred,
                                             SearchResult& out);
  // The post-commit search body (access-path choice, lookups, residual
  // verification, result-cache probe/fill); accumulates into `out`.
  void SearchBodyLocked(const Predicate& pred, SearchResult& out) const
      REQUIRES_SHARED(mu_);

  // --- Segmented mode internals ---
  // Snapshot search (see the file comment); never blocks on a commit.
  SearchResult SearchSegmented(const Predicate& pred) const;
  uint64_t NumFilesSegmentedLocked() const REQUIRES_SHARED(mu_);
  // Builds one immutable segment from a folded batch: bulk-loads the
  // record store and one index per spec.  Runs with no lock held.
  std::shared_ptr<Segment> BuildSegment(
      std::vector<std::pair<FileId, AttrSet>> rows,
      std::unordered_set<FileId> tombstones,
      const std::vector<IndexSpec>& specs, sim::Cost* cost) const;
  // Seal phase: swap the memtable out (exclusive mu_), build the segment
  // (no lock), publish it + truncate the sealed WAL prefix (exclusive
  // mu_).  Epoch-neutral no-op when nothing is staged.
  sim::Cost SealMemtable() REQUIRES(seal_mu_);
  // Tiered size-ratio merge policy; loops until no trigger fires.  Each
  // round reads a run of adjacent segments (no lock), builds their
  // replacement, and splices it in (exclusive mu_).
  sim::Cost RunMergePolicy() REQUIRES(seal_mu_);

  GroupId id_;
  sim::IoContext* io_;
  const bool segmented_;
  const size_t max_segments_;
  const double merge_size_ratio_;
  const size_t merge_tier_run_;
  // Null when the group is unobserved (standalone tests / micro-benches).
  obs::Counter* wal_appends_ = nullptr;
  obs::Counter* wal_bytes_ = nullptr;
  obs::Counter* staged_ = nullptr;
  obs::Counter* committed_ = nullptr;
  obs::Counter* result_cache_hits_ = nullptr;
  obs::Counter* result_cache_misses_ = nullptr;
  obs::Counter* seals_ = nullptr;
  obs::Counter* merges_ = nullptr;
  obs::Counter* segments_read_ = nullptr;
  obs::Histogram* merge_latency_ = nullptr;

  // Serialises the seal/merge pipeline (segmented mode): at most one
  // build is in flight per group.  Ranked *before* mu_ — the pipeline
  // phases take mu_ briefly while holding it; searches never take it.
  mutable Mutex seal_mu_{LockRank::kIndexGroupSeal, "IndexGroup::seal_mu_"};
  // Publication counter for Segment::seq (only the pipeline writes it).
  uint64_t next_segment_seq_ GUARDED_BY(seal_mu_) = 0;
  // Guards all mutable group state (records, WAL, indexes, pending cache).
  // See the locking-order comment at the top of this header.
  mutable SharedMutex mu_{LockRank::kIndexGroup, "IndexGroup::mu_"};
  RecordStore records_ GUARDED_BY(mu_);
  WriteAheadLog wal_ GUARDED_BY(mu_);
  std::vector<NamedIndex> indexes_ GUARDED_BY(mu_);
  std::vector<FileUpdate> pending_ GUARDED_BY(mu_);
  // Segmented mode: committed segments, oldest first.  The shared_ptrs
  // are the snapshot mechanism — a search copies the vector under shared
  // mu_ and the segments stay alive however long the search runs.
  std::vector<std::shared_ptr<const Segment>> segments_ GUARDED_BY(mu_);
  // The batch an in-flight seal swapped out of `pending_` but has not yet
  // published.  Searches overlay it (with `pending_`) so sealed-but-
  // unpublished updates never disappear from view mid-seal.
  std::shared_ptr<const std::vector<FileUpdate>> sealing_ GUARDED_BY(mu_);
  // Simulated stage time of the oldest pending update; < 0 when unset.
  double oldest_pending_staged_s_ GUARDED_BY(mu_) = -1.0;
  // Lock-free mirror of !pending_.empty(): lets Search skip the exclusive
  // lock without first taking any lock.  Written under exclusive mu_;
  // readers confirm under (at least) shared mu_ before trusting it.
  std::atomic<bool> has_pending_{false};

  // --- Per-group search-result cache (read_path_caching) ---
  // Probes and fills run while holding at least shared mu_; invalidation
  // (CommitLocked) runs under exclusive mu_, so a fill can never race a
  // clear — cache_mu_ only serialises concurrent same-group readers.
  const bool result_cache_enabled_;
  mutable Mutex cache_mu_{LockRank::kIndexGroupCache, "IndexGroup::cache_mu_"};
  // Keyed by the predicate's serialized fingerprint.
  mutable std::unordered_map<std::string, CachedResult> result_cache_
      GUARDED_BY(cache_mu_);
  uint64_t commit_epoch_ GUARDED_BY(cache_mu_) = 0;
};

// Calls `fn(std::string_view token)` for each '/', '.', '-', '_'-delimited
// token of `path`.  The zero-allocation core of the keyword tokenizer: the
// posting hot path iterates tokens in place instead of materialising a
// vector<string> per file update.
template <typename Fn>
void ForEachKeyword(std::string_view path, Fn&& fn) {
  size_t start = 0;
  for (size_t i = 0; i <= path.size(); ++i) {
    const char c = i < path.size() ? path[i] : '/';
    if (c == '/' || c == '.' || c == '-' || c == '_') {
      if (i > start) fn(path.substr(start, i - start));
      start = i + 1;
    }
  }
}

// Splits a path into keyword tokens ('/', '.', '-', '_' delimited).
// Convenience wrapper over ForEachKeyword for callers that want a vector.
std::vector<std::string> ExtractKeywords(std::string_view path);

}  // namespace propeller::index
