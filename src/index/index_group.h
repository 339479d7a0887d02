// IndexGroup: the unit of partitioning.
//
// Each ACG maps to one IndexGroup living on exactly one Index Node.  A
// group bundles a record store with any number of *named* indices (B-tree,
// hash table, K-D tree, or keyword — Section IV: "users can define an
// arbitrary index with a globally unique name with the supported index
// structures").
//
// Real-time indexing follows the paper's protocol: updates are appended to
// a write-ahead log and staged in an in-memory cache (the memtable,
// `pending_`); they are committed on a timeout or — to keep results
// strongly consistent — by the next search request touching the group.
//
// Committed state is a list of *segments* under both commit policies.  A
// segment is a record store, one index structure per spec, and the set of
// files its batch deleted (tombstones).  One search body serves both
// policies: it layers the memtable over the segments, newest first — the
// memtable shadows every segment and a younger segment shadows older ones
// — and reads each segment through that segment's best index.  Only two
// things depend on the policy: how a commit publishes, and whether a
// search drains staged updates first.
//
//  * Commit barrier (default, the paper's protocol): one mutable base
//    segment.  A commit applies each staged update to its record store
//    and indexes in place.  Search drains staged updates under an
//    exclusive lock before answering, so one hot group's ingest stalls
//    every read on it, and a search never sees a memtable.
//
//  * Segmented (IndexGroupOptions::segmented — write-read decoupling):
//    a commit seals the memtable into a new *immutable* segment in three
//    phases (swap under exclusive mu_, bulk build with no lock held,
//    publish under exclusive mu_), and a tiered size-ratio merge publishes
//    immutable replacements that bound the live segment count — and so a
//    search's read amplification — to kMaxSegments.  Search takes a cheap
//    snapshot (the refcounted segment list plus a frozen memtable view)
//    under a brief shared lock and then runs against immutable state: it
//    never blocks on, or waits for, a commit.
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
// first, and the search body runs under that lock.  In segmented mode
// searches only ever take the shared lock (for the snapshot); `seal_mu_`
// serialises the seal/merge pipeline so at most one build is in flight,
// and the in-flight batch stays visible to searches through `sealing_`
// (strong consistency without the barrier).
// Distinct groups never share index structures, so cross-group parallelism
// needs no coordination beyond the (internally locked) shared IoContext.
// Lock order is strictly:
//
//     IndexNode::groups_mu_ -> IndexGroup::seal_mu_ -> IndexGroup::mu_
//         -> cache_mu_ -> IoContext::mu_
//
// (`cache_mu_` guards the per-group search-result memo and the commit
// epoch; probes and fills take it from the search body.)
// Never acquire a second group's mutex while holding one, and never call
// back into IndexGroup from inside a ForEachRecord callback (the callback
// runs under mu_).  This order is one slice of the cluster-wide rank table
// (common/mutex.h LockRank, DESIGN.md "Lock ranks & static enforcement");
// debug builds abort on violation.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
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
  // Write-read decoupling: seal and merge immutable segments instead of
  // the commit barrier (see the file comment).
  bool segmented = false;
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

  // Adds a named index.  Commit-barrier mode bulk-builds it over the files
  // already committed and adds that build's simulated cost to `*cost`
  // (when given; nothing on an empty group).  Segmented mode leaves the
  // published segments as they are — they are immutable, and a segment
  // with no index for a predicate is scanned — and every later seal and
  // merge builds the index.
  Status CreateIndex(const IndexSpec& spec, sim::Cost* cost = nullptr);
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
  // Commit-barrier mode: applies all staged updates to the base segment
  // and truncates the WAL.  Segmented mode: seals the memtable into a new
  // immutable segment (truncating the sealed WAL prefix) and runs the
  // merge policy.  A no-op when nothing is staged — and, in both modes,
  // epoch-neutral: the result cache survives an empty commit.
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
  // Sees every staged update: commit-barrier mode commits them first,
  // segmented mode reads them through the memtable overlay.  With nothing
  // staged the search runs under a *shared* lock, so any number of
  // threads can search one group concurrently.
  SearchResult Search(const Predicate& pred);

  // Number of publishes that changed committed state (each one clears the
  // result cache): commits that applied updates, and in segmented mode
  // every seal and merge.  Test / introspection hook.
  uint64_t CommitEpoch() const {
    MutexLock lock(cache_mu_);
    return commit_epoch_;
  }

  // --- Segment introspection ---
  bool segmented() const { return segmented_; }
  // Live committed segments: always 1 in commit-barrier mode.
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
  // Committed live files (excludes staged updates; newest segment wins,
  // tombstoned files excluded).  O(1), cost-free statistic.
  uint64_t NumFiles() const {
    ReaderMutexLock lock(mu_);
    return num_files_;
  }
  // All (file, attrs) currently committed; used to move files to a new
  // group during an ACG split.  `fn` runs under the group mutex — it must
  // not call back into this IndexGroup.  Visits the live (unshadowed,
  // untombstoned) view, newest segment first, each in FileId order.
  template <typename Fn>
  sim::Cost ForEachRecord(Fn&& fn) const {
    ReaderMutexLock lock(mu_);
    sim::Cost cost;
    // Files a younger segment already decided; the oldest segment adds
    // none, so one segment never fills it.
    std::unordered_set<FileId> seen;
    for (size_t si = segments_.size(); si-- > 0;) {
      const Segment& seg = *segments_[si];
      cost += seg.records.ForEach([&](FileId file, const AttrSet& attrs) {
        if (si == 0 ? seen.count(file) == 0 : seen.insert(file).second) {
          fn(file, attrs);
        }
      });
      if (si > 0) seen.insert(seg.tombstones.begin(), seg.tombstones.end());
    }
    return cost;
  }
  // Size estimate for migration cost accounting.
  uint64_t ApproxPages() const;

 private:
  // One index structure (the one its spec's type names) in one segment.
  struct NamedIndex {
    IndexSpec spec;
    std::vector<AttrId> attr_ids;  // spec.attrs, bound once at creation
    std::unique_ptr<BPlusTree> btree;
    std::unique_ptr<HashIndex> hash;
    std::unique_ptr<KdTree> kd;

    // Posts or retires one key from ForEachKey: a value (B-tree, hash,
    // keyword) or a point (K-D).
    sim::Cost Insert(const AttrValue& key, FileId file) const {
      return btree != nullptr ? btree->Insert(key, file)
                              : hash->Insert(key, file);
    }
    sim::Cost Insert(const std::vector<double>& point, FileId file) const {
      return kd->Insert(point, file);
    }
    sim::Cost Remove(const AttrValue& key, FileId file) const {
      return btree != nullptr ? btree->Remove(key, file)
                              : hash->Remove(key, file);
    }
    sim::Cost Remove(const std::vector<double>& point, FileId file) const {
      return kd->Remove(point, file);
    }
    uint64_t NumPages() const {
      if (btree != nullptr) return btree->NumPages();
      return hash != nullptr ? hash->NumPages() : kd->NumPages();
    }
  };

  using Rows = std::vector<std::pair<FileId, AttrSet>>;

  // One committed unit: a record store, an index structure for every spec
  // the group had when the segment was built, and the files its batch
  // deleted (tombstones shadow older segments).  The commit barrier's one
  // base segment is mutated in place under exclusive mu_; a segment the
  // seal pipeline publishes is never mutated again — searches hold
  // shared_ptrs, so a merge retiring it cannot pull it out from under a
  // running snapshot.
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
  using SegmentList = std::vector<std::shared_ptr<Segment>>;

  // Newest staged state per file, in FileId order; nullptr marks a staged
  // delete.  Shadows every segment.
  using Overlay = std::map<FileId, const AttrSet*>;

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
  // Bumps the commit epoch and clears the result cache.  Every change to
  // committed state ends here, under exclusive mu_.
  void PublishLocked() REQUIRES(mu_);

  // The one index builder: `spec` with its attribute names bound and its
  // structure allocated empty (MakeIndex), then bulk-loaded from `rows`
  // (BuildIndex, cost into `*cost`).
  NamedIndex MakeIndex(const IndexSpec& spec) const;
  NamedIndex BuildIndex(const IndexSpec& spec, const Rows& rows,
                        sim::Cost* cost) const;
  // Builds one immutable segment from a folded batch: one index per spec,
  // then the record store.  Runs with no lock held.
  std::shared_ptr<Segment> BuildSegment(Rows rows,
                                        std::unordered_set<FileId> tombstones,
                                        const std::vector<IndexSpec>& specs,
                                        sim::Cost* cost) const;

  // Picks the best index among `indexes` for `pred`; nullptr = full scan.
  static const NamedIndex* ChooseAccessPath(
      const Predicate& pred, const std::vector<NamedIndex>& indexes);
  // Runs the chosen index's lookup, adding its cost to `cost`; returns
  // the raw candidate list (not yet verified).
  static std::vector<FileId> IndexCandidates(const NamedIndex& idx,
                                             const Predicate& pred,
                                             sim::Cost& cost);
  // The one search body: result-cache probe, overlay matches, then each
  // segment newest first (access path, candidates, shadow filter,
  // residual match), then the cache fill; accumulates into `out`.  The
  // caller keeps `segs` unchanged for the call: shared mu_ (commit
  // barrier) or a snapshot of immutable segments (segmented).
  void SearchSegments(const Predicate& pred, const Overlay& overlay,
                      const SegmentList& segs, SearchResult& out) const;

  // --- Segmented mode ---
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
  // Guards all mutable group state (segments, WAL, specs, pending cache).
  // See the locking-order comment at the top of this header.
  mutable SharedMutex mu_{LockRank::kIndexGroup, "IndexGroup::mu_"};
  // Committed segments, oldest first.  The shared_ptrs are the segmented
  // mode's snapshot mechanism — a search copies the vector under shared
  // mu_ and the segments stay alive however long the search runs.
  SegmentList segments_ GUARDED_BY(mu_);
  WriteAheadLog wal_ GUARDED_BY(mu_);
  std::vector<IndexSpec> specs_ GUARDED_BY(mu_);
  std::vector<FileUpdate> pending_ GUARDED_BY(mu_);
  // Live committed files (NumFiles), kept by every publish.
  uint64_t num_files_ GUARDED_BY(mu_) = 0;
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
  // Probes and fills take cache_mu_ only; a fill is kept only when no
  // publish bumped commit_epoch_ since its probe, so a search over an
  // older snapshot never memoizes stale state.
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
