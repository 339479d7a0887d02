// k FCFS servers working through arrivals in virtual time: an index node's
// admission queue (k = search_threads, bounded line), its per-search LPT
// worker schedule (every group arrives at 0, longest first) and the master's
// resolve queue (k = 1).  A request is admitted (Admit), then
// served (Finish) or withdrawn (Cancel); in between its finish is unknown,
// so it holds a place in line and the bound stays strict.  No lock of its
// own: every user already serialises on one.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <queue>
#include <vector>

namespace propeller::sim {

class ServerQueue {
 public:
  struct Slot {
    double start = 0;
    double finish = 0;
  };

  // `servers` is clamped to at least 1; `bound` caps the waiting line
  // (0 = unbounded: waits are modeled, nothing is refused).
  explicit ServerQueue(size_t servers, size_t bound = 0)
      : free_(std::greater<>(),
              std::vector<double>(std::max<size_t>(1, servers), 0.0)),
        bound_(bound) {}

  // Drains the finishes `arrival` has passed; refuses (false) when the
  // waiting line is at the bound.
  bool Admit(double arrival) {
    while (!finishes_.empty() && finishes_.top() <= arrival) finishes_.pop();
    if (bound_ > 0 && Waiting() >= bound_) return false;
    ++unfinished_;
    return true;
  }

  // Starts when the earliest server frees (at `arrival` if one is idle)
  // and holds it for `service`.  Without an Admit it only schedules.
  Slot Finish(double arrival, double service) {
    Cancel();
    const double start = std::max(arrival, free_.top());
    const double finish = start + service;
    free_.pop();
    free_.push(finish);
    finishes_.push(finish);
    return {start, finish};
  }

  // Withdraws an admitted request that did no work.
  void Cancel() {
    if (unfinished_ > 0) --unfinished_;
  }

  // Requests in line beyond the k servers, as of the latest Admit.
  size_t Waiting() const {
    const size_t outstanding = finishes_.size() + unfinished_;
    return outstanding > free_.size() ? outstanding - free_.size() : 0;
  }

 private:
  using MinHeap =
      std::priority_queue<double, std::vector<double>, std::greater<>>;
  MinHeap free_;      // per server, the instant it frees up
  MinHeap finishes_;  // finishes no arrival has passed yet
  size_t unfinished_ = 0;  // admitted, neither finished nor cancelled
  size_t bound_;
};

}  // namespace propeller::sim
