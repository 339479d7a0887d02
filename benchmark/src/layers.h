// Per-layer attribution for the traced run.
//
// Two mechanisms, both living in the benchmark (the library is unchanged):
//
//  1. Handler proxies.  Every master and index node is re-registered on
//     the cluster transport behind a proxy that forwards to the real
//     handler and records, per RPC method, calls, errors by status code,
//     wall self time (nested proxied calls subtracted through a
//     thread-local stack) and the simulated service cost the handler
//     reported.
//  2. Sampled tracing.  The cluster tracer is enabled for one op in 16.
//     After a sampled op its span tree is walked along the critical path
//     (at each fan-out the branch that ends last) and every span's self
//     time is charged to a layer by span name.  A transport span's self
//     time splits into network (span duration minus the handler cost the
//     proxy saw) and the serving node's own handler work.
//
// Both assume the serial execution engine (ClusterConfig::
// parallel_execution off): the proxies keep unsynchronized counters.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cluster.h"
#include "session.h"
#include "net/transport.h"
#include "obs/trace.h"

namespace pbench {

// What one node saw of one RPC method.
struct MethodStats {
  uint64_t calls = 0;
  std::map<std::string, uint64_t> errors;  // by status code name
  double wall_self_s = 0;
  double sim_s = 0;
};

// Simulated seconds along critical paths, by layer.
struct LayerTimes {
  double client = 0;
  double net = 0;
  double master = 0;
  double index_node = 0;    // handler work outside group spans
  double index_search = 0;  // group.search
  double index_commit = 0;  // group.commit / seal / merge
  double index_stage = 0;   // wal.append (staging)
  double other = 0;

  double Total() const {
    return client + net + master + index_node + index_search + index_commit +
           index_stage + other;
  }
  double Min() const {
    return std::min({client, net, master, index_node, index_search, index_commit,
                     index_stage, other});
  }
};

class Tracing {
 public:
  // Installs the proxies on `cluster`'s transport; the destructor puts
  // the real handlers back.
  Tracing(core::PropellerCluster& cluster, uint64_t seed);
  ~Tracing();
  Tracing(const Tracing&) = delete;
  Tracing& operator=(const Tracing&) = delete;

  // Deterministic 1-in-16 sample by op index.
  bool ShouldSample(uint64_t op_index) const;
  void BeginSampledOp();
  // Drains the tracer and walks the op's span tree; `observed_s` is the
  // client-observed latency the layer times must add up to.
  void EndSampledOp(double observed_s);

  // Wall seconds spent inside outermost proxied handlers so far.
  double handler_wall_s() const { return top_wall_s_; }
  // Per node kind ("master", "index_node"), per method.
  const std::map<std::string, std::map<std::string, MethodStats>>& methods()
      const {
    return methods_;
  }
  const LayerTimes& path() const { return path_; }
  uint64_t sampled_ops() const { return sampled_; }
  // Worst |sum of layer times - observed latency| / observed latency.  The
  // layer times always add up to the root span's duration, so this checks
  // that the root span covers the observed latency, not how it is split.
  double max_residual() const { return max_residual_; }
  // The most negative layer time of any sampled op (0 when none is
  // negative).  A wrong split, such as a handler cost matched to the wrong
  // transport span, shows here as network or handler time below zero.
  double min_layer_s() const { return min_layer_s_; }

 private:
  class Proxy;
  using Children = std::unordered_map<uint64_t, std::vector<const propeller::obs::Span*>>;

  void Walk(const propeller::obs::Span& span, const Children& kids,
            LayerTimes* out) const;
  void Charge(const propeller::obs::Span& span, double self_s,
              LayerTimes* out) const;

  core::PropellerCluster& cluster_;
  uint64_t seed_;
  std::vector<std::unique_ptr<Proxy>> proxies_;
  std::map<std::string, std::map<std::string, MethodStats>> methods_;
  // Handler cost per transport span id, for sampled ops only.
  std::unordered_map<uint64_t, double> handler_cost_;
  double top_wall_s_ = 0;
  LayerTimes path_;
  uint64_t sampled_ = 0;
  double max_residual_ = 0;
  double min_layer_s_ = 0;
};

}  // namespace pbench
