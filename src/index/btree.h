// Paged B+tree: AttrValue key -> posting list of FileIds.
//
// The tree is the primary index structure in both Propeller index groups
// and the MiniSql baseline.  Nodes are sized to a disk page and every node
// touched during an operation is charged through the owning machine's
// page-cache/disk model, so the simulated cost honestly reflects tree
// height, working-set size, and cache warmth — the effects behind Fig. 2
// and Fig. 8 in the paper.
//
// Each leaf keeps its postings flat: one FileId array holding every key's
// run back to back, plus an end offset per key, so a range scan appends
// one contiguous slice per leaf instead of one heap block per key.
//
// Deletion notes: postings are removed exactly; empty leaves are unlinked
// and empty ancestors collapse, but partially-filled nodes are not
// rebalanced (the strategy used by several production B-trees; bounded
// slack, never incorrect).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "index/attr.h"
#include "index/query.h"
#include "sim/io_context.h"

namespace propeller::index {

class BPlusTree {
 public:
  // `order` = max entries per leaf / max children per internal node.
  explicit BPlusTree(sim::PageStore store, uint32_t order = 64);
  ~BPlusTree();

  BPlusTree(BPlusTree&&) noexcept;
  BPlusTree& operator=(BPlusTree&&) noexcept;
  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  // Adds one posting.  Duplicate (key, file) postings accumulate.
  sim::Cost Insert(const AttrValue& key, FileId file);

  // Builds a balanced tree bottom-up from a batch in one sequential write.
  // Only valid on an empty tree (segment builds); the result satisfies
  // CheckInvariants.
  sim::Cost BulkLoad(std::vector<std::pair<AttrValue, FileId>> entries);

  // Removes one posting for (key, file); OK (cost only) if absent.
  sim::Cost Remove(const AttrValue& key, FileId file);

  struct ScanResult {
    std::vector<FileId> files;
    sim::Cost cost;
  };
  // All postings whose key falls in `range`: in key order, and within a
  // key in insertion order (BulkLoad inserts a key's files ascending).
  ScanResult Scan(const KeyRange& range) const;

  uint64_t NumPostings() const { return num_postings_; }
  uint64_t NumPages() const { return num_nodes_; }
  uint32_t Height() const;

  // Structural validation (tests): sorted keys, uniform leaf depth,
  // separator consistency, fanout limits.  Returns false + error text on
  // violation.
  bool CheckInvariants(std::string* error) const;

 private:
  struct Node;

  sim::PageStore store_;
  uint32_t order_;
  std::unique_ptr<Node> root_;
  uint64_t num_postings_ = 0;
  uint64_t num_nodes_ = 0;
  uint64_t next_page_ = 0;
};

}  // namespace propeller::index
