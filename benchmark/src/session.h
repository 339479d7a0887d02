// Benchmark core: command-line options, the reference model used
// to audit search results, and the Session that issues every client
// request of a run and records what it cost on both clocks.
//
// Two clocks: "sim" latencies are the simulated costs the cluster's cost
// models return (deterministic per seed); "wall" times are real elapsed
// time of the optimized build on this machine, measured with
// std::chrono::steady_clock around each cluster call.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "index/index_group.h"
#include "index/query.h"

namespace pbench {

using propeller::Result;
using propeller::Status;
namespace core = propeller::core;
namespace index = propeller::index;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  // Wall-clock length of the measured phase (the deterministic core of a
  // workload always completes, even if it takes longer).
  double seconds = 10;
  // false: end-to-end metrics.  true: per-layer metrics from an untraced
  // pass plus a traced rerun of the same inputs.
  bool trace = false;
  // Scaled-down sizes for the smoke check; never compared.
  bool smoke = false;
};

// Real elapsed seconds from an arbitrary origin (steady clock).
double WallNow();

// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 when
// the sample is empty.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

// One named metric as printed and emitted in the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

enum class OpKind : uint8_t { kSearch, kUpdate, kFlush };
// kShed = refused by an admission queue (kOverloaded); kFailed = any
// other error.
enum class Fate : uint8_t { kOk, kShed, kFailed };

// Phase tags a workload stamps on its requests.  Latency metrics read the
// phase the workload names; everything else is wall-clock filler.
inline constexpr int kCorePhase = 0;    // the deterministic core of a closed loop
inline constexpr int kExtraPhase = -1;  // repeats after the core until the deadline
inline constexpr int kProbePhase = -2;  // update probes after a read-only core

struct OpRecord {
  OpKind kind = OpKind::kSearch;
  Fate fate = Fate::kOk;
  double latency_s = 0;  // client-observed simulated latency
  int phase = kCorePhase;
};

// Expected contents of the index: every file's attribute set, updated with
// each acknowledged write.  A write replaces the whole record, exactly as
// IndexGroup applies an upsert.
class Reference {
 public:
  void Upsert(const index::FileUpdate& u);
  // Null when the file is absent.
  const index::AttrSet* Find(index::FileId file) const {
    return file < rows_.size() && rows_[file] ? &*rows_[file] : nullptr;
  }
  // Brute force over every live record with Predicate::Matches; sorted.
  std::vector<index::FileId> Matching(const index::Predicate& p) const;

 private:
  std::vector<std::optional<index::AttrSet>> rows_;  // indexed by file id
};

class Tracing;

// Issues a run's client requests against one cluster and records, per
// request, its fate, its sim latency and the wall time spent inside the
// cluster.  AdvanceTime counts as cluster time too (ticks and heartbeats
// are work the service does while it serves).
class Session {
 public:
  // `tracing` (optional) samples ops for critical-path tracing.
  // `reference` (optional) is updated with every acknowledged write and
  // audits every `audit_every`-th search.
  Session(core::PropellerCluster& cluster, Tracing* tracing,
          Reference* reference, uint64_t audit_every);

  core::PropellerCluster& cluster() { return cluster_; }
  void set_phase(int phase) { phase_ = phase; }

  // `arrival_s` > 0 stamps the request for the admission queues (open
  // loop).  Searches and updates never fail the run on their own: the
  // fate is recorded and the caller continues.
  void Search(const index::Predicate& p, double arrival_s = 0);
  void Update(index::FileUpdate u, double now_s, bool admission = false);
  void FlushAcg();
  void AdvanceTime(double seconds);

  // Loop control for the measured phase.  `unit` counts the workload's
  // loop iterations (a search, an application execution, an arrival); the
  // loop continues until both the core is done and either the wall
  // deadline passed or, when `exact_units` is set, exactly that many
  // units ran.
  void StartClock(double seconds, uint64_t exact_units);
  bool KeepGoing(uint64_t unit, uint64_t core_units);
  uint64_t units() const { return units_; }

  const std::vector<OpRecord>& records() const { return records_; }
  // Requests per wall second spent inside cluster calls.  The update
  // probes are left out: their number is fixed while the loop's length
  // follows the host's speed, so counting them would make the request mix
  // depend on that speed.
  double WallOpsPerSecond() const;
  // The same throughput per calibration unit of time: the mean wall time
  // of a fixed, library-independent kernel that the session interleaves
  // with the loop.  Machine-wide slowdowns on a shared host slow the
  // kernel and the loop alike, so this ratio holds where raw wall
  // throughput drifts.
  double OpsPerCalibration() const {
    return WallOpsPerSecond() * CalibrationUnitSeconds();
  }
  double CalibrationUnitSeconds() const {
    return calibration_units_ > 0
               ? calibration_wall_s_ / static_cast<double>(calibration_units_)
               : 0;
  }
  // Wall time inside client requests minus the handlers' wall time
  // (needs tracing), summed.
  double client_self_wall_s() const { return client_self_wall_s_; }
  uint64_t search_results() const { return search_results_; }
  uint64_t audits() const { return audits_; }
  uint64_t mismatches() const { return mismatches_; }
  // Runs `p` outside the measured ops and checks the answer against
  // `truth`; a failed search counts as a mismatch.
  void AuditSearch(const index::Predicate& p, const Reference& truth);

 private:
  void Record(OpKind kind, Fate fate, double latency_s, double wall_s);
  bool BeginOp();
  void EndOp(bool sampled, double handler_wall_before, double latency_s,
             double wall_s);

  core::PropellerCluster& cluster_;
  Tracing* tracing_;
  Reference* reference_;
  uint64_t audit_every_;
  int phase_ = kCorePhase;
  std::vector<OpRecord> records_;
  double cluster_wall_s_ = 0;  // inside cluster calls, so far
  uint64_t probe_ops_ = 0;     // ... of which in kProbePhase
  double probe_wall_s_ = 0;
  double client_self_wall_s_ = 0;
  double next_calibration_s_ = 0;
  double calibration_wall_s_ = 0;
  uint64_t calibration_units_ = 0;
  uint64_t calibration_sink_ = 0;  // keeps the kernel's result live
  uint64_t searches_ = 0;
  uint64_t search_results_ = 0;
  uint64_t audits_ = 0;
  uint64_t mismatches_ = 0;
  double deadline_ = 0;
  uint64_t exact_units_ = 0;
  uint64_t units_ = 0;
};

}  // namespace pbench
