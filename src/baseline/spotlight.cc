#include "baseline/spotlight.h"

#include <algorithm>

namespace propeller::baseline {

bool SpotlightSim::SupportedPath(const SpotlightParams& params,
                                 const std::string& path) {
  size_t slash = path.find_last_of('/');
  size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return false;  // no extension
  }
  return params.supported_exts.count(path.substr(dot + 1)) != 0u;
}

SpotlightSim::SpotlightSim(SpotlightParams params, fs::Vfs* vfs)
    : params_(std::move(params)),
      vfs_(vfs),
      io_(sim::IoParams{.disk = {},
                        .cache_pages = 512 * 1024,
                        // Warm scans stream the resident index at memory
                        // bandwidth, far below the default per-page cost.
                        .cache_hit_us = 0.1}),
      index_store_(io_.CreateStore()) {
  vfs_->AddListener(this);
}

void SpotlightSim::IndexOne(const std::string& path) {
  auto st = vfs_->ns().Stat(path);
  if (!st.ok() || st->is_dir) return;
  if (!SupportedPath(params_, path)) return;
  indexed_[st->id] = st->ToAttrSet();
}

void SpotlightSim::RebuildAll(double now_s) {
  indexed_.clear();
  dirty_.clear();
  crawl_budget_ = 0;
  last_tick_s_ = now_s;
  vfs_->ns().ForEachFile([&](const fs::FileStat& st) {
    if (SupportedPath(params_, st.path)) indexed_[st.id] = st.ToAttrSet();
  });
  rebuild_until_s_ = -1;
  io_.DropCaches();
}

void SpotlightSim::OnEvent(const fs::AccessEvent& event) {
  using Type = fs::AccessEvent::Type;
  switch (event.type) {
    case Type::kCreate:
      dirty_.push_back({event.path, event.file, /*unlink=*/false,
                        pending_event_time_s_ + params_.notification_delay_s});
      break;
    case Type::kClose:
      if (event.written) {
        dirty_.push_back({event.path, event.file, /*unlink=*/false,
                          pending_event_time_s_ + params_.notification_delay_s});
      }
      break;
    case Type::kUnlink:
      dirty_.push_back({event.path, event.file, /*unlink=*/true,
                        pending_event_time_s_ + params_.notification_delay_s});
      break;
    case Type::kOpen:
      break;  // reads do not dirty the index
  }
}

void SpotlightSim::Tick(double now_s) {
  if (now_s < last_tick_s_) return;
  double dt = now_s - last_tick_s_;
  last_tick_s_ = now_s;
  pending_event_time_s_ = now_s;

  // During a rebuild window the crawler is busy re-scanning; when the
  // window ends, the whole namespace is re-indexed at once.
  if (rebuild_until_s_ > 0) {
    if (now_s < rebuild_until_s_) return;
    double resume = rebuild_until_s_;
    rebuild_until_s_ = -1;
    RebuildAll(resume);
    last_tick_s_ = now_s;
    return;
  }

  // A deep backlog triggers a full re-index (Fig. 1's recall dropouts).
  if (dirty_.size() >= params_.rebuild_backlog) {
    double window =
        params_.rebuild_s_per_kfile *
        (static_cast<double>(indexed_.size() + dirty_.size()) / 1000.0 + 1.0);
    rebuild_until_s_ = now_s + window;
    return;
  }

  crawl_budget_ += dt * params_.crawl_rate_fps;
  while (crawl_budget_ >= 1.0 && !dirty_.empty()) {
    const Dirty& d = dirty_.front();
    if (d.ready_s > now_s) break;  // notification delay not yet elapsed
    if (d.unlink) {
      indexed_.erase(d.file);
    } else {
      IndexOne(d.path);
    }
    dirty_.pop_front();
    crawl_budget_ -= 1.0;
  }
  if (dirty_.empty()) crawl_budget_ = std::min(crawl_budget_, 1.0);
}

SpotlightSim::QueryResult SpotlightSim::Query(const index::Predicate& pred,
                                              double now_s) {
  QueryResult out;
  if (IsRebuilding(now_s)) {
    // The store is being rewritten; Spotlight answers with nothing.
    out.rebuilding = true;
    out.cost = sim::Cost(5e-3);
    return out;
  }
  // Load the central index (cold: sequential read; warm: cached).
  uint64_t pages = 1 + static_cast<uint64_t>(static_cast<double>(indexed_.size()) *
                                             params_.cold_index_bytes_per_file) /
                           4096;
  out.cost += index_store_.SequentialLoad(pages);
  out.cost += sim::Cost(params_.query_us_per_file / 1e6 *
                        static_cast<double>(indexed_.size()));
  const index::BoundPredicate bound(pred);
  for (const auto& [file, attrs] : indexed_) {
    if (bound.Matches(attrs)) out.files.push_back(file);
  }
  std::sort(out.files.begin(), out.files.end());
  return out;
}

}  // namespace propeller::baseline
