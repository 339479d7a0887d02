#include "baseline/brute_force.h"

#include <algorithm>

namespace propeller::baseline {

BruteForceSearch::BruteForceSearch(const fs::Namespace* ns,
                                   BruteForceParams params)
    : ns_(ns), params_(params), inode_store_(io_.CreateStore()) {}

BruteForceSearch::Result BruteForceSearch::Search(const index::Predicate& pred) {
  Result out;
  uint64_t files = 0;
  const index::BoundPredicate bound(pred);
  ns_->ForEachFile([&](const fs::FileStat& st) {
    ++files;
    if (bound.Matches(st.ToAttrSet())) out.files.push_back(st.id);
  });
  // I/O model: inodes are clustered on pages; a full walk touches every
  // inode page once (random-ish across directories -> page-granular
  // touches through the cache) plus CPU per file.
  uint64_t pages = 1 + files / params_.inodes_per_page;
  for (uint64_t p = 0; p < pages; ++p) out.cost += inode_store_.Read(p);
  out.cost +=
      sim::Cost(params_.cpu_us_per_file / 1e6 * static_cast<double>(files));
  std::sort(out.files.begin(), out.files.end());
  return out;
}

}  // namespace propeller::baseline
