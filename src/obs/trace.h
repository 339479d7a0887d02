// Simulated-clock distributed tracing.
//
// One client Search/BatchUpdate produces a causal span tree covering the
// client, the master, and every index node it fans out to — including retry
// attempts, fault-injected drops and delays, WAL appends, commit-on-timeout
// flushes, and recovery re-homing.  Span timestamps are *simulated* time:
// the trace root anchors at the cluster's virtual clock and every span's
// start/end is that anchor plus accumulated sim::Cost along its causal
// path.  Because costs are deterministic per seed and independent of thread
// scheduling, two runs with the same seed export bit-identical traces even
// when the parallel execution engine races real threads.
//
// Propagation model.  Transport::Call is in-process, so the "wire metadata"
// of a real RPC system becomes a thread-local ambient cursor
// (CurrentTrace()): the caller's cursor identifies the trace, the current
// parent span, and the current simulated instant.  Transport installs a
// child cursor around the handler invocation; handler-internal spans nest
// under it automatically.  Fan-outs fork and join the cursor through
// obs/fork_join.h, so branch timestamps depend only on costs.
//
// Clock reconciliation.  Instrumented callees advance the ambient clock as
// they go; callers that only know an aggregate sim::Cost for a sub-step
// "top up" the clock by the difference (aggregate minus whatever the callee
// already advanced).  This keeps span trees consistent whether or not the
// code underneath is instrumented.
//
// Disabled cost.  When no tracer is installed the ambient cursor is
// inactive and every SpanGuard constructor is a thread-local read plus one
// branch — no allocation, no locking.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "sim/cost.h"

namespace propeller::obs {

class Tracer;

// Identifies where we are in a trace: which trace, which span is the
// current parent, and the current simulated instant.  Copyable value type;
// the thread-local ambient instance is the in-process analogue of RPC
// metadata.
struct TraceCursor {
  Tracer* tracer = nullptr;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;  // current parent span
  double now_s = 0.0;    // simulated time at this point in the causal chain

  bool active() const { return tracer != nullptr && trace_id != 0; }
};

// The calling thread's ambient cursor (mutable reference).
TraceCursor& CurrentTrace();

// Installs `c` as the ambient cursor for the current scope and restores the
// previous cursor on destruction.  Used by Transport around handler
// dispatch and by fan-out branches (each branch gets a copy of the cursor
// captured at the fan-out point).
class ScopedTraceCursor {
 public:
  explicit ScopedTraceCursor(const TraceCursor& c) : saved_(CurrentTrace()) {
    CurrentTrace() = c;
  }
  ~ScopedTraceCursor() { CurrentTrace() = saved_; }
  ScopedTraceCursor(const ScopedTraceCursor&) = delete;
  ScopedTraceCursor& operator=(const ScopedTraceCursor&) = delete;

 private:
  TraceCursor saved_;
};

// A finished span as recorded by the Tracer.  Timestamps are simulated
// seconds since the cluster epoch.
struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 for trace roots
  std::string name;
  uint64_t node = 0;  // NodeId hosting the work (0 = client/unknown)
  double start_s = 0.0;
  double end_s = 0.0;
  std::vector<std::pair<std::string, std::string>> tags;
};

// Collects finished spans.  Disabled by default; PropellerCluster enables
// its tracer when observability is on.  Thread-safe.
class Tracer {
 public:
  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Record(Span span);

  // All recorded spans in deterministic order: sorted by
  // (trace_id, start_s, end_s, name, span_id).
  std::vector<Span> Spans() const;
  size_t SpanCount() const;
  void Clear();

 private:
  std::atomic<bool> enabled_{false};
  mutable Mutex mu_{LockRank::kTracer, "Tracer::mu_"};
  std::vector<Span> spans_ GUARDED_BY(mu_);
};

// Deterministic id derivation (SplitMix64-style mixing).  Span ids hash the
// causal coordinates — trace, parent, name, a caller-chosen key (e.g.
// destination node or retry attempt), and the start instant — so ids are
// identical across runs and across serial/parallel execution.
uint64_t DeriveTraceId(uint64_t origin, uint64_t seq);
uint64_t DeriveSpanId(uint64_t trace_id, uint64_t parent_id,
                      std::string_view name, uint64_t key, double start_s);

// RAII span.  If the ambient cursor is inactive at construction the guard
// is inert.  Otherwise it opens a span at the ambient instant, installs
// itself as the ambient parent, and on Close()/destruction stamps the end
// at the (possibly advanced) ambient instant, restores the parent, and
// records the span.
class SpanGuard {
 public:
  // `key` disambiguates sibling spans with the same name (destination node,
  // attempt number, group id...).  `node` labels the host doing the work.
  SpanGuard(std::string_view name, uint64_t key = 0, uint64_t node = 0);
  ~SpanGuard() { Close(); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  bool active() const { return active_; }

  // Moves the ambient simulated clock forward by `c`.
  void Advance(sim::Cost c) {
    if (active_) CurrentTrace().now_s += c.seconds();
  }
  // The ambient instant when this span opened (for clock reconciliation).
  double start_s() const { return span_.start_s; }

  void Tag(std::string_view k, std::string_view v);
  void Tag(std::string_view k, uint64_t v);

  void Close();

 private:
  bool active_ = false;
  Span span_;
  uint64_t saved_parent_ = 0;
};

// Opens a trace root: if the ambient cursor is already active this is just
// a child span; otherwise, when `tracer` is enabled, it installs a fresh
// cursor (trace id derived from origin/seq, clock anchored at `now_s`) and
// opens the root span.  Inert when tracing is off.
class TraceRoot {
 public:
  TraceRoot(Tracer* tracer, std::string_view name, uint64_t origin,
            uint64_t seq, double now_s, uint64_t node = 0);

  bool active() const { return span_ != nullptr && span_->active(); }
  SpanGuard* span() { return span_.get(); }
  void Advance(sim::Cost c) {
    if (span_) span_->Advance(c);
  }
  void Tag(std::string_view k, std::string_view v) {
    if (span_) span_->Tag(k, v);
  }
  void Tag(std::string_view k, uint64_t v) {
    if (span_) span_->Tag(k, v);
  }

 private:
  std::unique_ptr<ScopedTraceCursor> cursor_;  // set only when we open a trace
  std::unique_ptr<SpanGuard> span_;
};

}  // namespace propeller::obs
