#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/rng.h"
#include "fs/vfs.h"
#include "load/traffic_engine.h"
#include "trace/app_profile.h"
#include "trace/trace_gen.h"
#include "workload/dataset.h"

namespace pbench {
namespace {

namespace fs = propeller::fs;
namespace load = propeller::load;
namespace trace = propeller::trace;
namespace workload = propeller::workload;
using index::AttrValue;
using index::CmpOp;
using index::FileUpdate;
using index::Predicate;
using propeller::Rng;

constexpr int64_t kKiB = 1024;
constexpr int64_t kMiB = 1024 * kKiB;
constexpr int64_t kHour = 3600;
constexpr int64_t kDay = 24 * kHour;
// workload::SyntheticRow and BuildDataset stamp mtimes in
// (kRowsNow - 90 days, kRowsNow].
constexpr int64_t kRowsNow = 1'000'000;
constexpr int kAuditPredicates = 64;
constexpr uint64_t kLoadChunk = 50'000;
// A closed loop hands its own simulated time to the cluster clock in steps
// of at least this much, so commit timeouts and heartbeats fire.
constexpr double kClockStepS = 0.05;
// Search p99 limit an open-loop step must meet (with error_rate <= 1%).
constexpr double kSloS = 0.020;

void Check(const Status& st, const char* what) {
  if (st.ok()) return;
  std::fprintf(stderr, "benchmark: %s failed: %s\n", what, st.ToString().c_str());
  std::exit(2);
}

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t s = seed * 0x9e3779b97f4a7c15ULL + salt;
  return propeller::SplitMix64(s);
}

// --- predicate families ---
//
// Each family maps a parameter point u in [0,1)^4 to a predicate.  Streams
// draw the points stratified (a Latin hypercube per family, see
// StratifiedStream), so a seed changes the exact predicates but not how
// their costs spread, and latency percentiles compare across seeds.

using U4 = std::array<double, 4>;
using Family = Predicate (*)(const U4&);

int64_t Lerp(double u, int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(u * static_cast<double>(hi - lo));
}

// The paper's "size>16m" query, with the threshold moved across the
// large-file band (16..80 MiB) so answers hold up to ~2% of the rows.
Predicate SizeAbove(const U4& u) {
  Predicate p;
  p.And("size", CmpOp::kGt, AttrValue(Lerp(u[0], 16 * kMiB, 64 * kMiB)));
  return p;
}

// An mtime window of width in [min_w, max_w] inside the rows' 90 days.
Predicate MtimeWindow(const U4& u, int64_t min_w, int64_t max_w) {
  const int64_t w = Lerp(u[0], min_w, max_w);
  const int64_t lo = kRowsNow - w - Lerp(u[1], 0, 90 * kDay - w);
  Predicate p;
  p.And("mtime", CmpOp::kGe, AttrValue(lo));
  p.And("mtime", CmpOp::kLt, AttrValue(lo + w));
  return p;
}
Predicate WarmWindow(const U4& u) { return MtimeWindow(u, kHour, kDay); }
Predicate ColdWindow(const U4& u) { return MtimeWindow(u, 2 * kHour, 12 * kHour); }
Predicate DayWindow(const U4& u) { return MtimeWindow(u, kDay, kDay); }

// A narrow box over small files' sizes for one owner (K-D friendly).
Predicate SizeUidBox(const U4& u) {
  const int64_t lo = Lerp(u[0], 4 * kKiB, 28 * kKiB);
  Predicate p;
  p.And("size", CmpOp::kGe, AttrValue(lo));
  p.And("size", CmpOp::kLt, AttrValue(lo + Lerp(u[1], 256, 1024)));
  p.And("uid", CmpOp::kEq, AttrValue(Lerp(u[2], 0, 4)));
  return p;
}

Predicate SizeMtimeBox(const U4& u) {
  const int64_t lo = Lerp(u[2], 4 * kKiB, 28 * kKiB);
  Predicate p = MtimeWindow(u, kDay, 4 * kDay);
  p.And("size", CmpOp::kGe, AttrValue(lo));
  p.And("size", CmpOp::kLt, AttrValue(lo + Lerp(u[3], 1 * kKiB, 4 * kKiB)));
  return p;
}

// `k` points in [0,1)^4, one per 1/k bin in every dimension (a Latin
// hypercube).  Which bins pair up into a point is fixed; only the
// position inside each bin is seeded, so under every seed the points
// cover the same cost classes.
std::vector<U4> LatinHypercube(size_t k, Rng& jitter) {
  std::vector<U4> points(k);
  std::vector<size_t> bins(k);
  Rng pairing(k);
  for (size_t d = 0; d < 4; ++d) {
    for (size_t i = 0; i < k; ++i) bins[i] = i;
    if (d > 0) pairing.Shuffle(bins);
    for (size_t i = 0; i < k; ++i) {
      points[i][d] = (static_cast<double>(bins[i]) + jitter.UniformDouble()) /
                     static_cast<double>(k);
    }
  }
  return points;
}

// `n` predicates; slot i belongs to family i % F and takes that family's
// point i / F, so a slot's cost class is the same under every seed.
std::vector<Predicate> StratifiedPool(const std::vector<Family>& families,
                                      size_t n, Rng& rng) {
  const size_t nf = families.size();
  std::vector<std::vector<U4>> points;
  for (size_t f = 0; f < nf; ++f) {
    points.push_back(LatinHypercube((n + nf - 1 - f) / nf, rng));
  }
  std::vector<Predicate> out;
  for (size_t i = 0; i < n; ++i) out.push_back(families[i % nf](points[i % nf][i / nf]));
  return out;
}

// `n` predicates in seeded order; every block of `block` consecutive
// predicates is a shuffled StratifiedPool.
std::vector<Predicate> StratifiedStream(const std::vector<Family>& families,
                                        size_t n, size_t block, Rng& rng) {
  std::vector<Predicate> out;
  out.reserve(n);
  for (size_t start = 0; start < n; start += block) {
    std::vector<Predicate> pool =
        StratifiedPool(families, std::min(block, n - start), rng);
    rng.Shuffle(pool);
    for (Predicate& p : pool) out.push_back(std::move(p));
  }
  return out;
}

// Unstratified draws for the post-run audits.
std::vector<Predicate> RandomPredicates(const std::vector<Family>& families,
                                        size_t n, Rng& rng) {
  std::vector<Predicate> out;
  for (size_t i = 0; i < n; ++i) {
    U4 u;
    for (double& x : u) x = rng.UniformDouble();
    out.push_back(families[i % families.size()](u));
  }
  return out;
}

std::vector<index::IndexSpec> SearchIndices() {
  return {{"by_size", index::IndexType::kBTree, {"size"}},
          {"by_mtime", index::IndexType::kBTree, {"mtime"}},
          {"by_attrs", index::IndexType::kKdTree, {"size", "mtime", "uid"}}};
}

std::vector<std::vector<FileUpdate>> Chunks(std::vector<FileUpdate> rows) {
  std::vector<std::vector<FileUpdate>> out;
  for (size_t i = 0; i < rows.size(); i += kLoadChunk) {
    const size_t end = std::min<size_t>(rows.size(), i + kLoadChunk);
    out.emplace_back(std::make_move_iterator(rows.begin() + static_cast<long>(i)),
                     std::make_move_iterator(rows.begin() + static_cast<long>(end)));
  }
  return out;
}

// Creates the indices and bulk-loads `chunks`; each chunk commits on the
// index nodes' commit timeout.
void Load(core::PropellerCluster& c, const std::vector<index::IndexSpec>& specs,
          std::vector<std::vector<FileUpdate>> chunks) {
  for (const index::IndexSpec& spec : specs) {
    Check(c.client().CreateIndex(spec).status(), "create index");
  }
  for (auto& chunk : chunks) {
    Check(c.client().BatchUpdate(std::move(chunk), c.now()).status(),
          "bulk load");
    c.AdvanceTime(6.0);
  }
}

// Moves the cluster clock along with a closed loop's simulated time.
class ClockFollower {
 public:
  explicit ClockFollower(Session& s) : s_(s) {}
  void After(double latency_s) {
    pending_ += latency_s;
    if (pending_ >= kClockStepS) {
      s_.AdvanceTime(pending_);
      pending_ = 0;
    }
  }

 private:
  Session& s_;
  double pending_ = 0;
};

double LastLatency(const Session& s) { return s.records().back().latency_s; }

}  // namespace

// Open-loop steps are phases 1..5 (see OpenLoop).
void LoadMetrics(const Session& s, std::vector<Metric>* out) {
  int best = 0;
  for (int step = 1; step <= 5; ++step) {
    std::vector<double> lat;
    uint64_t offered = 0, errors = 0;
    for (const OpRecord& r : s.records()) {
      if (r.phase != step) continue;
      ++offered;
      if (r.fate != Fate::kOk) {
        ++errors;
      } else if (r.kind == OpKind::kSearch) {
        lat.push_back(r.latency_s);
      }
    }
    const double p99 = Percentile(lat, 99);
    const double err = offered > 0 ? static_cast<double>(errors) / offered : 0;
    const std::string r = "load.r" + std::to_string(step);
    out->push_back({r + ".slo_ratio", p99 / kSloS, "ratio"});
    out->push_back({r + ".error_rate", err, "ratio"});
    if (offered > 0 && p99 <= kSloS && err <= 0.01) best = step;
  }
  out->push_back({"load.max_step_at_slo", static_cast<double>(best), "count"});
}

namespace {

// Workloads over workload::SyntheticRows: a dense id space 1..rows, the
// reference being the rows plus every acknowledged write.
class RowWorkload : public Workload {
 public:
  RowWorkload(uint64_t rows, uint64_t seed) {
    spec_.num_files = rows;
    spec_.seed = SubSeed(seed, 0);
  }

  void PrepareSetup() override {
    chunks_ = Chunks(workload::SyntheticRows(1, spec_.num_files, spec_));
  }
  void PrepareRun() override {
    reference_ = Reference();
    for (const FileUpdate& u : workload::SyntheticRows(1, spec_.num_files, spec_)) {
      reference_.Upsert(u);
    }
  }
  Reference* reference() override { return &reference_; }

 protected:
  void AuditAll(Session& s, const std::vector<Predicate>& preds) {
    for (const Predicate& p : preds) s.AuditSearch(p, reference_);
  }

  workload::DatasetSpec spec_;
  std::vector<std::vector<FileUpdate>> chunks_;
  Reference reference_;
};

// Closed-loop searches with update probes after the core: search_warm and
// search_cold differ in the predicates, the cache and the warm-up.
class SearchWorkload : public RowWorkload {
 public:
  SearchWorkload(uint64_t rows, uint64_t seed, uint64_t core, uint64_t probes)
      : RowWorkload(rows, seed), core_(core) {
    Rng rng(SubSeed(seed, 7));
    for (uint64_t i = 0; i < probes; ++i) {
      probe_ids_.push_back(1 + rng.Uniform(rows));
    }
  }

  void PrepareRun() override {
    RowWorkload::PrepareRun();
    // Each probe rewrites a row with a fresh mtime, keeping its other
    // attributes (a "touch" of an existing file).
    probes_.clear();
    for (uint64_t id : probe_ids_) {
      probes_.push_back(FileUpdate{id, *reference_.Find(id), false});
    }
  }

  void Run(Session& s) override {
    ClockFollower clock(s);
    uint64_t i = 0;
    for (; i < core_; ++i) {
      s.Search(stream_[i]);
      clock.After(LastLatency(s));
    }
    // The probes run right after the core, so they meet the same cluster
    // state under every host speed; the wall-bounded repeats come last.
    s.set_phase(kProbePhase);
    for (size_t k = 0; k < probes_.size(); ++k) {
      FileUpdate u = probes_[k];
      u.attrs.Set("mtime", AttrValue(kRowsNow + 1 + static_cast<int64_t>(k)));
      s.Update(std::move(u), s.cluster().now());
      clock.After(LastLatency(s));
    }
    s.set_phase(kExtraPhase);
    for (; s.KeepGoing(i, core_); ++i) {
      s.Search(stream_[i % stream_.size()]);
      clock.After(LastLatency(s));
    }
  }

  void Audit(Session& s) override { AuditAll(s, audit_); }

 protected:
  uint64_t core_;
  std::vector<Predicate> stream_;  // the loop's requests, in order
  std::vector<Predicate> audit_;
  std::vector<uint64_t> probe_ids_;
  std::vector<FileUpdate> probes_;
};

// search_warm: the interactive common case.  Default page cache, so the
// whole index stays resident; a Zipf(0.9)-skewed pool of 256 predicates.
class SearchWarm : public SearchWorkload {
 public:
  explicit SearchWarm(const Options& o)
      : SearchWorkload(o.smoke ? 25'000 : 200'000, o.seed, o.smoke ? 300 : 1200,
                       o.smoke ? 150 : 1200) {
    Rng rng(SubSeed(o.seed, 1));
    const std::vector<Family> families = {SizeAbove, WarmWindow, SizeUidBox};
    pool_ = StratifiedPool(families, 256, rng);
    // Zipf rank -> pool slot through a fixed permutation: which kinds of
    // predicate are hot is part of the workload, not of the seed.
    std::vector<size_t> slot(pool_.size());
    for (size_t i = 0; i < slot.size(); ++i) slot[i] = i;
    Rng fixed(0x5eed);
    fixed.Shuffle(slot);
    // Every block of core_ searches runs each rank exactly its Zipf(0.9)
    // share of times (largest remainder), in seeded order; sampling the
    // ranks instead would let the rarely drawn tail move p99 per seed.
    std::vector<double> share(pool_.size());
    double total = 0;
    for (size_t r = 0; r < share.size(); ++r) {
      share[r] = 1.0 / std::pow(static_cast<double>(r + 1), 0.9);
      total += share[r];
    }
    std::vector<size_t> block;
    std::vector<std::pair<double, size_t>> remainders;
    for (size_t r = 0; r < share.size(); ++r) {
      const double want = static_cast<double>(core_) * share[r] / total;
      block.insert(block.end(), static_cast<size_t>(want), slot[r]);
      remainders.emplace_back(want - std::floor(want), r);
    }
    std::sort(remainders.rbegin(), remainders.rend());
    for (size_t i = 0; block.size() < core_; ++i) block.push_back(slot[remainders[i].second]);
    while (stream_.size() < (1 << 16)) {
      rng.Shuffle(block);
      for (size_t i : block) stream_.push_back(pool_[i]);
    }
    audit_ = RandomPredicates(families, kAuditPredicates, rng);
  }

  std::unique_ptr<core::PropellerCluster> Setup() override {
    core::ClusterConfig cfg;
    cfg.index_nodes = 8;
    auto c = std::make_unique<core::PropellerCluster>(cfg);
    Load(*c, SearchIndices(), std::move(chunks_));
    // Warm-up: every pooled predicate once, so every page it reads is
    // resident before timing.
    for (const Predicate& p : pool_) Check(c->client().Search(p).status(), "warm-up");
    return c;
  }

  uint64_t audit_every() const override { return 64; }

 private:
  std::vector<Predicate> pool_;
};

// search_cold: the working set exceeds the page cache.  Size x mtime
// boxes and mtime windows over 8 nodes whose caches hold about a fifth of
// their index pages.
class SearchCold : public SearchWorkload {
 public:
  explicit SearchCold(const Options& o)
      : SearchWorkload(o.smoke ? 25'000 : 100'000, o.seed, o.smoke ? 200 : 1200,
                       o.smoke ? 150 : 1200),
        cache_pages_(o.smoke ? 50 : 210) {
    Rng rng(SubSeed(o.seed, 2));
    // Two boxes per window: the families' latencies form two modes, and an
    // even mix would put the median on the gap between them.
    const std::vector<Family> families = {SizeMtimeBox, ColdWindow, SizeMtimeBox};
    stream_ = StratifiedStream(families, 1 << 15, core_, rng);
    warm_ = StratifiedStream(families, kWarmBatch * kMaxWarmBatches,
                             kWarmBatch * kMaxWarmBatches, rng);
    audit_ = RandomPredicates(families, kAuditPredicates, rng);
  }

  std::unique_ptr<core::PropellerCluster> Setup() override {
    core::ClusterConfig cfg;
    cfg.index_nodes = 8;
    cfg.index_node.io.cache_pages = cache_pages_;
    auto c = std::make_unique<core::PropellerCluster>(cfg);
    Load(*c, SearchIndices(), std::move(chunks_));
    // Warm-up until the page-cache hit rates of consecutive batches agree
    // within the sampling noise of a 64-search batch (deterministic: the
    // simulated cache decides).
    double prev = -1;
    for (size_t b = 0; b < kMaxWarmBatches; ++b) {
      const propeller::sim::PageCacheStats before = CacheStats(*c);
      for (size_t i = 0; i < kWarmBatch; ++i) {
        Check(c->client().Search(warm_[b * kWarmBatch + i]).status(), "warm-up");
      }
      const propeller::sim::PageCacheStats after = CacheStats(*c);
      const double hits = static_cast<double>(after.hits - before.hits);
      const double total = hits + static_cast<double>(after.misses - before.misses);
      const double rate = total > 0 ? hits / total : 1;
      if (b > 0 && std::abs(rate - prev) < 0.05) break;
      prev = rate;
    }
    return c;
  }

  uint64_t audit_every() const override { return 64; }

 private:
  static constexpr size_t kWarmBatch = 64;
  static constexpr size_t kMaxWarmBatches = 8;

  static propeller::sim::PageCacheStats CacheStats(core::PropellerCluster& c) {
    propeller::sim::PageCacheStats sum;
    for (size_t i = 0; i < c.num_index_nodes(); ++i) {
      const propeller::sim::PageCacheStats s = c.index_node(i).io().CacheStats();
      sum.hits += s.hits;
      sum.misses += s.misses;
    }
    return sum;
  }

  uint64_t cache_pages_;
  std::vector<Predicate> warm_;
};

// ingest: applications rewrite files while they are searched.  The git
// and thrift build profiles replay alternately over a 100k-file
// namespace; every written close is indexed inline by its own update, a
// search runs every 16 indexed files, and each execution ends with an ACG
// flush and one second of cluster time.
class Ingest : public Workload {
 public:
  explicit Ingest(const Options& o)
      : seed_(o.seed), core_(o.smoke ? 2 : 14), files_(o.smoke ? 10'000 : 100'000) {
    Rng rng(SubSeed(o.seed, 3));
    // Searches cycle through four kinds: two recently-written windows
    // (0..3 s back), a size x uid box and a one-day window over the base
    // namespace.
    const std::vector<Family> fixed = {SizeUidBox, DayWindow};
    const std::vector<Predicate> stream = StratifiedStream(fixed, 1 << 13, 512, rng);
    for (size_t i = 0; i < 2 * stream.size(); ++i) {
      templates_.push_back(i % 4 < 2 ? Template{static_cast<int64_t>(i / 4 % 4), {}}
                                     : Template{-1, stream[2 * (i / 4) + i % 4 - 2]});
    }
    const std::vector<Predicate> audit = RandomPredicates(fixed, kAuditPredicates / 2, rng);
    for (size_t i = 0; i < kAuditPredicates; ++i) {
      audit_.push_back(i % 2 == 0 ? Template{static_cast<int64_t>(i / 2 % 4), {}}
                                  : Template{-1, audit[i / 2]});
    }
    BuildNamespace();
  }

  void PrepareSetup() override {
    if (dirty_) BuildNamespace();
    chunks_ = Chunks(workload::UpdatesForNamespace(vfs_->ns()));
  }

  std::unique_ptr<core::PropellerCluster> Setup() override {
    core::ClusterConfig cfg;
    cfg.index_nodes = 4;
    auto c = std::make_unique<core::PropellerCluster>(cfg);
    Load(*c, SearchIndices(), std::move(chunks_));
    return c;
  }

  void PrepareRun() override {
    if (dirty_) BuildNamespace();
    reference_ = Reference();
    for (const FileUpdate& u : workload::UpdatesForNamespace(vfs_->ns())) {
      reference_.Upsert(u);
    }
  }

  void Run(Session& s) override {
    dirty_ = true;
    // Both listeners stay registered on this namespace; it sees no more
    // file operations after the run and is rebuilt before any reuse.
    s.cluster().client().AttachVfs(vfs_.get());
    indexer_.Attach(this, &s);
    uint64_t pid = 1;
    for (uint64_t e = 0; s.KeepGoing(e, core_); ++e) {
      s.set_phase(e < core_ ? kCorePhase : kExtraPhase);
      Check(gens_[e % gens_.size()].RunExecution(*vfs_, &pid), "app replay");
      s.FlushAcg();
      vfs_->AdvanceTime(1);
      s.AdvanceTime(1.0);
    }
    indexer_.Attach(nullptr, nullptr);
  }

  void Audit(Session& s) override {
    // The truth is the namespace itself, not the model of acknowledged
    // writes: every file an application wrote must be searchable as it is.
    Reference truth;
    vfs_->ns().ForEachFile([&](const fs::FileStat& st) {
      truth.Upsert(FileUpdate{st.id, st.ToAttrSet(), false});
    });
    for (const Template& t : audit_) s.AuditSearch(Instantiate(t), truth);
  }

  Reference* reference() override { return &reference_; }
  uint64_t audit_every() const override { return 8; }
  int update_phase() const override { return kCorePhase; }

 private:
  // A search drawn up front.  Recent-write windows take their bound from
  // the namespace clock when they run.
  struct Template {
    int64_t recent_s = -1;  // >= 0: mtime >= now - recent_s
    Predicate fixed;        // otherwise
  };

  Predicate Instantiate(const Template& t) const {
    if (t.recent_s < 0) return t.fixed;
    Predicate p;
    p.And("mtime", CmpOp::kGe, AttrValue(vfs_->now() - t.recent_s));
    return p;
  }

  // Indexes each written close inline and interleaves the searches.
  class Indexer : public fs::AccessListener {
   public:
    void Attach(Ingest* owner, Session* s) {
      owner_ = owner;
      s_ = s;
    }
    void OnEvent(const fs::AccessEvent& ev) override {
      if (s_ == nullptr || ev.type != fs::AccessEvent::Type::kClose || !ev.written) {
        return;
      }
      auto st = owner_->vfs_->ns().Stat(ev.path);
      Check(st.status(), "stat written file");
      s_->Update(FileUpdate{st->id, st->ToAttrSet(), false}, s_->cluster().now());
      if (++indexed_ % 16 == 0) {
        const Template& t = owner_->templates_[searches_++ % owner_->templates_.size()];
        s_->Search(owner_->Instantiate(t));
      }
    }

   private:
    Ingest* owner_ = nullptr;
    Session* s_ = nullptr;
    uint64_t indexed_ = 0;
    uint64_t searches_ = 0;
  };

  void BuildNamespace() {
    vfs_ = std::make_unique<fs::Vfs>();
    workload::DatasetSpec spec;
    spec.num_files = files_;
    spec.seed = SubSeed(seed_, 4);
    Check(workload::BuildDataset(*vfs_, spec), "build namespace");
    gens_.clear();
    gens_.emplace_back(trace::GitProfile(), SubSeed(seed_, 5));
    gens_.emplace_back(trace::ThriftProfile(), SubSeed(seed_, 6));
    for (trace::TraceGenerator& g : gens_) Check(g.Materialize(*vfs_), "materialize app");
    vfs_->AddListener(&indexer_);
    dirty_ = false;
  }

  uint64_t seed_;
  uint64_t core_;  // executions
  uint64_t files_;
  std::vector<Template> templates_;
  std::vector<Template> audit_;
  Indexer indexer_;
  std::unique_ptr<fs::Vfs> vfs_;
  std::vector<trace::TraceGenerator> gens_;
  bool dirty_ = false;
  std::vector<std::vector<FileUpdate>> chunks_;
  Reference reference_;
};

// open_loop: independent users on a fixed-rate staircase.  The fig12
// tenants (interactive 0.7 / 95% search / theta 0.9; ingest 0.3 / 20% /
// theta 0.6) offer five rates back to back on one admission-controlled
// cluster; latency metrics come from the nominal step.
class OpenLoop : public RowWorkload {
 public:
  // Offered rates (requests per simulated second) and the simulated length
  // of each step: fixed constants, never recalibrated at run time.  r1..r3
  // sit below the knee, r4 near it, r5 past it.
  static constexpr double kRates[5] = {100'000, 200'000, 300'000, 450'000, 700'000};
  static constexpr double kStepS = 0.005;
  static constexpr int kNominalStep = 3;

  explicit OpenLoop(const Options& o)
      : RowWorkload(o.smoke ? 25'000 : 200'000, o.seed),
        step_s_(o.smoke ? kStepS / 8 : kStepS) {
    for (int i = 0; i < 5 + kExtraWindows; ++i) {
      load::TrafficSpec t;
      t.offered_qps = kRates[i < 5 ? i : kNominalStep - 1];
      t.duration_s = step_s_;
      t.seed = SubSeed(o.seed, 100 + static_cast<uint64_t>(i));
      t.num_files = spec_.num_files;
      t.tenants = {{"interactive", 0.7, 0.95, 0.9}, {"ingest", 0.3, 0.2, 0.6}};
      windows_.push_back(load::OpenLoopEngine(t).schedule());
    }
    Rng rng(SubSeed(o.seed, 8));
    for (int i = 0; i < kAuditPredicates; ++i) {
      load::Arrival a;
      a.rank = rng.Uniform(64);
      audit_.push_back(load::OpenLoopEngine::PredicateFor(a));
    }
  }

  std::unique_ptr<core::PropellerCluster> Setup() override {
    core::ClusterConfig cfg;
    cfg.index_nodes = 4;
    cfg.admission_control = true;
    auto c = std::make_unique<core::PropellerCluster>(cfg);
    Load(*c, {{"by_size", index::IndexType::kBTree, {"size"}}}, std::move(chunks_));
    return c;
  }

  void Run(Session& s) override {
    for (uint64_t w = 0; s.KeepGoing(w, 5); ++w) {
      s.set_phase(w < 5 ? static_cast<int>(w) + 1 : kExtraPhase);
      RunWindow(s, windows_[w < 5 ? w : 5 + (w - 5) % kExtraWindows]);
    }
  }

  void Audit(Session& s) override { AuditAll(s, audit_); }

  uint64_t audit_every() const override { return 64; }
  int search_phase() const override { return kNominalStep; }
  int update_phase() const override { return kNominalStep; }

 private:
  static constexpr int kExtraWindows = 4;
  static constexpr double kTickS = 0.05;  // the traffic engine's tick cadence

  // Replays one window of arrivals, shifted to start at the current
  // cluster time.  Each request is stamped with its arrival instant, so
  // admission queueing counts from when it was due.
  void RunWindow(Session& s, const std::vector<load::Arrival>& arrivals) {
    const double base = s.cluster().now();
    for (load::Arrival a : arrivals) {
      a.t_s += base;
      while (s.cluster().now() < a.t_s) {
        s.AdvanceTime(std::min(kTickS, a.t_s - s.cluster().now()));
      }
      if (a.op == load::OpKind::kSearch) {
        s.Search(load::OpenLoopEngine::PredicateFor(a), a.t_s);
      } else {
        s.Update(load::OpenLoopEngine::UpdateFor(a), a.t_s, /*admission=*/true);
      }
    }
  }

  double step_s_;
  std::vector<std::vector<load::Arrival>> windows_;
  std::vector<Predicate> audit_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Options& options) {
  if (name == "search_warm") return std::make_unique<SearchWarm>(options);
  if (name == "search_cold") return std::make_unique<SearchCold>(options);
  if (name == "ingest") return std::make_unique<Ingest>(options);
  if (name == "open_loop") return std::make_unique<OpenLoop>(options);
  return nullptr;
}

}  // namespace pbench
