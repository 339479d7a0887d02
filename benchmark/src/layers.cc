#include "layers.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace pbench {

using propeller::obs::CurrentTrace;
using propeller::obs::Span;

namespace {

// Wall time of proxied calls nested inside the handler currently running
// on this thread, one slot per nesting level (the master places new groups
// through in.create_group while it handles a resolve, for example).
thread_local std::vector<double> nested_wall;

constexpr uint64_t kSampleEvery = 16;
// Slack for comparing simulated instants (absolute seconds since the
// cluster epoch, so a few ulps at 1e5 s).
constexpr double kEps = 1e-9;

bool HasTag(const Span& s, const char* key) {
  for (const auto& [k, v] : s.tags) {
    if (k == key) return true;
  }
  return false;
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

}  // namespace

class Tracing::Proxy : public propeller::net::RpcHandler {
 public:
  Proxy(Tracing* owner, propeller::net::RpcHandler* inner, std::string kind)
      : owner_(owner), inner_(inner), kind_(std::move(kind)) {}

  Response Handle(const std::string& method,
                  const std::string& payload) override {
    const uint64_t span_id =
        CurrentTrace().active() ? CurrentTrace().span_id : 0;
    const bool outermost = nested_wall.empty();
    nested_wall.push_back(0);
    const double t0 = WallNow();
    Response resp = inner_->Handle(method, payload);
    const double wall = WallNow() - t0;
    const double nested = nested_wall.back();
    nested_wall.pop_back();
    if (outermost) {
      owner_->top_wall_s_ += wall;
    } else {
      nested_wall.back() += wall;
    }
    MethodStats& m = owner_->methods_[kind_][method];
    ++m.calls;
    if (!resp.status.ok()) {
      ++m.errors[std::string(propeller::StatusCodeName(resp.status.code()))];
    }
    m.wall_self_s += wall - nested;
    m.sim_s += resp.cost.seconds();
    if (span_id != 0) owner_->handler_cost_[span_id] = resp.cost.seconds();
    return resp;
  }

 private:
  Tracing* owner_;
  propeller::net::RpcHandler* inner_;
  std::string kind_;
};

Tracing::Tracing(core::PropellerCluster& cluster, uint64_t seed)
    : cluster_(cluster), seed_(seed) {
  auto install = [&](propeller::net::NodeId id,
                     propeller::net::RpcHandler* real, const char* kind) {
    proxies_.push_back(std::make_unique<Proxy>(this, real, kind));
    cluster_.transport().Register(id, proxies_.back().get());
  };
  install(core::PropellerCluster::kMasterId, &cluster_.master(), "master");
  for (size_t i = 0; i < cluster_.num_index_nodes(); ++i) {
    install(cluster_.index_node(i).id(), &cluster_.index_node(i),
            "index_node");
  }
}

Tracing::~Tracing() {
  cluster_.transport().Register(core::PropellerCluster::kMasterId,
                                &cluster_.master());
  for (size_t i = 0; i < cluster_.num_index_nodes(); ++i) {
    cluster_.transport().Register(cluster_.index_node(i).id(),
                                  &cluster_.index_node(i));
  }
}

bool Tracing::ShouldSample(uint64_t op_index) const {
  uint64_t h = seed_ ^ (op_index * 0x9e3779b97f4a7c15ULL);
  return propeller::SplitMix64(h) % kSampleEvery == 0;
}

void Tracing::BeginSampledOp() {
  cluster_.tracer().Clear();
  handler_cost_.clear();
  cluster_.tracer().Enable();
}

void Tracing::EndSampledOp(double observed_s) {
  cluster_.tracer().Disable();
  const std::vector<Span> spans = cluster_.tracer().Spans();
  cluster_.tracer().Clear();
  Children kids;
  const Span* root = nullptr;
  for (const Span& s : spans) {
    if (s.parent_id == 0) {
      root = &s;
    } else {
      kids[s.parent_id].push_back(&s);
    }
  }
  if (root == nullptr) return;
  LayerTimes op;
  Walk(*root, kids, &op);
  ++sampled_;
  path_.client += op.client;
  path_.net += op.net;
  path_.master += op.master;
  path_.index_node += op.index_node;
  path_.index_search += op.index_search;
  path_.index_commit += op.index_commit;
  path_.index_stage += op.index_stage;
  path_.other += op.other;
  min_layer_s_ = std::min(min_layer_s_, op.Min());
  if (observed_s > 0) {
    max_residual_ = std::max(max_residual_,
                             std::fabs(op.Total() - observed_s) / observed_s);
  }
}

void Tracing::Walk(const Span& span, const Children& kids,
                   LayerTimes* out) const {
  // Walk backwards from the span's end: the child that ends last (and no
  // later than the current instant) is on the critical path; continue
  // from its start.  Parallel siblings end after that instant and drop
  // out; sequential children chain.
  double covered = 0;
  double t = span.end_s;
  auto it = kids.find(span.span_id);
  if (it != kids.end()) {
    std::vector<const Span*> children = it->second;
    std::sort(children.begin(), children.end(),
              [](const Span* a, const Span* b) { return a->end_s > b->end_s; });
    for (const Span* c : children) {
      if (c->end_s > t + kEps) continue;
      Walk(*c, kids, out);
      covered += c->end_s - c->start_s;
      t = c->start_s;
    }
  }
  Charge(span, (span.end_s - span.start_s) - covered, out);
}

void Tracing::Charge(const Span& span, double self_s, LayerTimes* out) const {
  const std::string& n = span.name;
  if (HasTag(span, "from")) {
    // Transport span: request + response transfer around the handler.
    auto h = handler_cost_.find(span.span_id);
    const double handler = h == handler_cost_.end() ? 0 : h->second;
    const double net = (span.end_s - span.start_s) - handler;
    out->net += net;
    const double work = self_s - net;
    if (StartsWith(n, "mn.")) {
      out->master += work;
    } else if (StartsWith(n, "in.")) {
      out->index_node += work;
    } else {
      out->other += work;
    }
  } else if (n == "group.search") {
    out->index_search += self_s;
  } else if (StartsWith(n, "group.")) {
    out->index_commit += self_s;
  } else if (n == "wal.append") {
    out->index_stage += self_s;
  } else if (StartsWith(n, "mn.")) {
    out->master += self_s;
  } else if (n == "replica.catch_up") {
    out->index_node += self_s;
  } else if (StartsWith(n, "client.") || n == "rpc" || n == "backoff" ||
             n == "search.hedged") {
    out->client += self_s;
  } else {
    out->other += self_s;
  }
}

}  // namespace pbench
