#include "session.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>

#include "common/rng.h"
#include "layers.h"

namespace pbench {
namespace {

// Cluster wall time between two calibration units.
constexpr double kCalibrateEveryS = 0.1;

// One calibration unit: a fixed amount of work shaped like what the
// cluster code spends its time on (a node-based map of short strings, a
// sort, a byte buffer, and dependent loads over a working set far larger
// than the caches), using nothing from the library.  Interleaved with the
// measured loop, it runs at whatever speed the machine offers right then.
uint64_t CalibrationUnit() {
  static const std::vector<uint32_t> cycle = [] {
    std::vector<uint32_t> next(1 << 23);  // 32 MiB
    for (uint32_t i = 0; i < next.size(); ++i) next[i] = i;
    propeller::Rng rng(1);
    for (size_t i = next.size() - 1; i > 0; --i) {  // Sattolo: one cycle
      std::swap(next[i], next[rng.Uniform(i)]);
    }
    return next;
  }();
  uint64_t x = 0x5eed;
  std::map<uint64_t, std::string> m;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t r = propeller::SplitMix64(x);
    m.emplace(r % 65536, std::string(8 + r % 56, static_cast<char>('a' + r % 26)));
  }
  std::vector<uint64_t> keys;
  keys.reserve(m.size());
  for (const auto& [k, v] : m) keys.push_back(k * 31 + v.size());
  std::sort(keys.rbegin(), keys.rend());
  std::string buf;
  for (uint64_t k : keys) buf.append(reinterpret_cast<const char*>(&k), sizeof k);
  uint32_t p = static_cast<uint32_t>(x % cycle.size());
  for (int i = 0; i < 5000; ++i) p = cycle[p];
  return std::hash<std::string>{}(buf) + p;
}

}  // namespace

double WallNow() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  auto k = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  k = std::clamp<size_t>(k, 1, v.size());
  return v[k - 1];
}

void Reference::Upsert(const index::FileUpdate& u) {
  if (u.file >= rows_.size()) rows_.resize(u.file + 1);
  std::optional<index::AttrSet>& slot = rows_[u.file];
  if (u.is_delete) {
    slot.reset();
  } else {
    slot = u.attrs;
  }
}

std::vector<index::FileId> Reference::Matching(const index::Predicate& p) const {
  std::vector<index::FileId> out;
  for (index::FileId id = 0; id < rows_.size(); ++id) {
    if (rows_[id] && p.Matches(*rows_[id])) out.push_back(id);
  }
  return out;
}

Session::Session(core::PropellerCluster& cluster, Tracing* tracing,
                 Reference* reference, uint64_t audit_every)
    : cluster_(cluster),
      tracing_(tracing),
      reference_(reference),
      audit_every_(audit_every) {
  calibration_sink_ = CalibrationUnit();  // untimed: builds the working set
}

bool Session::BeginOp() {
  const bool sampled = tracing_ != nullptr && tracing_->ShouldSample(records_.size());
  if (sampled) tracing_->BeginSampledOp();
  return sampled;
}

void Session::EndOp(bool sampled, double handler_wall_before, double latency_s,
                    double wall_s) {
  if (sampled) tracing_->EndSampledOp(latency_s);
  if (tracing_ != nullptr) {
    client_self_wall_s_ +=
        wall_s - (tracing_->handler_wall_s() - handler_wall_before);
  }
}

void Session::Record(OpKind kind, Fate fate, double latency_s, double wall_s) {
  cluster_wall_s_ += wall_s;
  if (phase_ == kProbePhase) {
    ++probe_ops_;
    probe_wall_s_ += wall_s;
  }
  records_.push_back(OpRecord{kind, fate, latency_s, phase_});
  if (cluster_wall_s_ >= next_calibration_s_) {
    next_calibration_s_ = cluster_wall_s_ + kCalibrateEveryS;
    const double t0 = WallNow();
    calibration_sink_ += CalibrationUnit();
    calibration_wall_s_ += WallNow() - t0;
    ++calibration_units_;
  }
}

void Session::Search(const index::Predicate& p, double arrival_s) {
  const bool sampled = BeginOp();
  const double hw = tracing_ != nullptr ? tracing_->handler_wall_s() : 0;
  const double t0 = WallNow();
  auto r = cluster_.client().Search(p, "", arrival_s);
  const double wall = WallNow() - t0;
  Fate fate = Fate::kOk;
  double latency = 0;
  if (!r.ok()) {
    fate = r.status().code() == propeller::StatusCode::kOverloaded
               ? Fate::kShed
               : Fate::kFailed;
  } else if (r->overloaded) {
    fate = Fate::kShed;
  } else {
    latency = r->cost.seconds();
  }
  EndOp(sampled, hw, latency, wall);
  Record(OpKind::kSearch, fate, latency, wall);
  if (fate != Fate::kOk) return;
  search_results_ += r->files.size();
  if (reference_ != nullptr && audit_every_ > 0 &&
      searches_++ % audit_every_ == 0) {
    ++audits_;
    if (reference_->Matching(p) != r->files) ++mismatches_;
  }
}

void Session::Update(index::FileUpdate u, double now_s, bool admission) {
  const bool sampled = BeginOp();
  const double hw = tracing_ != nullptr ? tracing_->handler_wall_s() : 0;
  std::optional<index::FileUpdate> copy;
  if (reference_ != nullptr) copy = u;
  const double t0 = WallNow();
  auto r = cluster_.client().BatchUpdate({std::move(u)}, now_s, admission);
  const double wall = WallNow() - t0;
  Fate fate = Fate::kOk;
  if (!r.ok()) {
    fate = r.status().code() == propeller::StatusCode::kOverloaded
               ? Fate::kShed
               : Fate::kFailed;
  }
  const double latency = r.ok() ? r->seconds() : 0;
  EndOp(sampled, hw, latency, wall);
  Record(OpKind::kUpdate, fate, latency, wall);
  // A shed write has no side effects; only acknowledged ones change the
  // expected index contents.
  if (fate == Fate::kOk && copy) reference_->Upsert(*copy);
}

void Session::FlushAcg() {
  const bool sampled = BeginOp();
  const double hw = tracing_ != nullptr ? tracing_->handler_wall_s() : 0;
  const double t0 = WallNow();
  auto r = cluster_.client().FlushAcg();
  const double wall = WallNow() - t0;
  const double latency = r.ok() ? r->seconds() : 0;
  EndOp(sampled, hw, latency, wall);
  Record(OpKind::kFlush, r.ok() ? Fate::kOk : Fate::kFailed, latency, wall);
}

void Session::AdvanceTime(double seconds) {
  const double t0 = WallNow();
  cluster_.AdvanceTime(seconds);
  const double wall = WallNow() - t0;
  cluster_wall_s_ += wall;
  if (phase_ == kProbePhase) probe_wall_s_ += wall;
}

void Session::StartClock(double seconds, uint64_t exact_units) {
  deadline_ = WallNow() + seconds;
  exact_units_ = exact_units;
  units_ = 0;
}

bool Session::KeepGoing(uint64_t unit, uint64_t core_units) {
  units_ = unit;
  if (unit < core_units) return true;
  if (exact_units_ > 0) return unit < exact_units_;
  return WallNow() < deadline_;
}

double Session::WallOpsPerSecond() const {
  const double wall = cluster_wall_s_ - probe_wall_s_;
  return wall > 0 ? static_cast<double>(records_.size() - probe_ops_) / wall : 0;
}

void Session::AuditSearch(const index::Predicate& p, const Reference& truth) {
  auto r = cluster_.client().Search(p);
  ++audits_;
  if (!r.ok() || truth.Matching(p) != r->files) ++mismatches_;
}

}  // namespace pbench
