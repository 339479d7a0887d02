// Fork and join of a fan-out on the simulated clock.  The branches of a
// fan-out run concurrently in the cost model, so each starts from the
// cursor captured at the fan-out instant, on a pool thread or inline, and
// the caller resumes at that instant plus the slowest branch.  Span
// timestamps then depend on costs alone, not on thread order.
#pragma once

#include <cstddef>

#include "common/thread_pool.h"
#include "obs/trace.h"

namespace propeller::obs {

// Runs fn(0) .. fn(n - 1) as the branches of one fan-out, each under a copy
// of `base`: on `pool` when there is one and more than one branch, inline
// in index order otherwise.  Returns once every branch has finished.
// `base` is taken by value: the caller's ambient cursor moves as inline
// branches run.
template <class Fn>
void ForkBranches(ThreadPool* pool, size_t n, TraceCursor base,
                  const Fn& fn) {
  auto branch = [&](size_t i) {
    ScopedTraceCursor cursor(base);
    fn(i);
  };
  if (pool != nullptr && n > 1) {
    auto futures = pool->SubmitBatch(n, branch);
    ThreadPool::WaitAll(futures);
  } else {
    for (size_t i = 0; i < n; ++i) branch(i);
  }
}

// Moves the ambient clock to `base` + `seconds` (a join, or a branch's own
// launch instant).  A no-op when tracing is off.
inline void AdvanceTo(const TraceCursor& base, double seconds) {
  if (CurrentTrace().active()) CurrentTrace().now_s = base.now_s + seconds;
}

}  // namespace propeller::obs
