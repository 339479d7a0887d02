#include "index/btree.h"

#include <algorithm>
#include <cassert>

#include "common/fmt.h"

namespace propeller::index {

struct BPlusTree::Node {
  explicit Node(bool is_leaf, uint64_t page_no) : leaf(is_leaf), page(page_no) {}

  bool leaf;
  uint64_t page;

  // Internal: keys.size() + 1 == children.size(); child i holds keys in
  // [keys[i-1], keys[i]) (duplicates of a separator go right).
  // Leaf: the postings of every key sit in one run, `files`, in key order:
  // keys[i]'s postings are files[RunBegin(i), ends[i]), in insertion order.
  // `ends` ascends strictly (no key keeps an empty run) and its last entry
  // is files.size().  children is empty.
  std::vector<AttrValue> keys;
  std::vector<std::unique_ptr<Node>> children;
  std::vector<uint32_t> ends;
  std::vector<FileId> files;
  Node* next_leaf = nullptr;
  Node* prev_leaf = nullptr;

  uint32_t RunBegin(size_t i) const { return i == 0 ? 0 : ends[i - 1]; }
};

namespace {

// Child index for `key`: number of separators <= key.
size_t ChildIndex(const std::vector<AttrValue>& keys, const AttrValue& key) {
  return static_cast<size_t>(
      std::upper_bound(keys.begin(), keys.end(), key) - keys.begin());
}

}  // namespace

BPlusTree::BPlusTree(sim::PageStore store, uint32_t order)
    : store_(store), order_(order < 4 ? 4 : order) {
  root_ = std::make_unique<Node>(/*is_leaf=*/true, next_page_++);
  num_nodes_ = 1;
}

BPlusTree::~BPlusTree() {
  // Default recursive destruction is fine for the depths B+trees reach.
}

BPlusTree::BPlusTree(BPlusTree&&) noexcept = default;
BPlusTree& BPlusTree::operator=(BPlusTree&&) noexcept = default;

sim::Cost BPlusTree::Insert(const AttrValue& key, FileId file) {
  sim::Cost cost;

  // Descend, recording the path for splits.
  std::vector<Node*> path;
  Node* n = root_.get();
  for (;;) {
    cost += store_.Read(n->page);
    path.push_back(n);
    if (n->leaf) break;
    n = n->children[ChildIndex(n->keys, key)].get();
  }

  // Insert into the leaf.
  Node* leaf = path.back();
  auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
  size_t pos = static_cast<size_t>(it - leaf->keys.begin());
  if (it == leaf->keys.end() || !(*it == key)) {
    leaf->keys.insert(it, key);
    leaf->ends.insert(leaf->ends.begin() + static_cast<long>(pos), leaf->RunBegin(pos));
  }
  leaf->files.insert(leaf->files.begin() + leaf->ends[pos], file);
  for (size_t i = pos; i < leaf->ends.size(); ++i) ++leaf->ends[i];
  ++num_postings_;
  cost += store_.Write(leaf->page);

  // Split upward while overfull.
  size_t level = path.size();
  Node* child = leaf;
  while (child->keys.size() > order_) {
    auto right = std::make_unique<Node>(child->leaf, next_page_++);
    ++num_nodes_;
    AttrValue separator;
    if (child->leaf) {
      size_t mid = child->keys.size() / 2;
      separator = child->keys[mid];
      // Cut on the key boundary: keys [mid, end) and their runs move right.
      const uint32_t cut = child->RunBegin(mid);
      right->keys.assign(child->keys.begin() + static_cast<long>(mid),
                         child->keys.end());
      right->files.assign(child->files.begin() + cut, child->files.end());
      for (size_t k = mid; k < child->ends.size(); ++k) {
        right->ends.push_back(child->ends[k] - cut);
      }
      child->keys.resize(mid);
      child->ends.resize(mid);
      child->files.resize(cut);
      right->next_leaf = child->next_leaf;
      if (right->next_leaf != nullptr) right->next_leaf->prev_leaf = right.get();
      right->prev_leaf = child;
      child->next_leaf = right.get();
    } else {
      size_t mid = child->keys.size() / 2;
      separator = child->keys[mid];
      right->keys.assign(child->keys.begin() + static_cast<long>(mid) + 1,
                         child->keys.end());
      right->children.assign(
          std::make_move_iterator(child->children.begin() + static_cast<long>(mid) + 1),
          std::make_move_iterator(child->children.end()));
      child->keys.resize(mid);
      child->children.resize(mid + 1);
    }
    cost += store_.Write(child->page);
    cost += store_.Write(right->page);

    if (level == 1) {
      // Split the root: grow the tree by one level.
      auto new_root = std::make_unique<Node>(/*is_leaf=*/false, next_page_++);
      ++num_nodes_;
      new_root->keys.push_back(std::move(separator));
      new_root->children.push_back(std::move(root_));
      new_root->children.push_back(std::move(right));
      root_ = std::move(new_root);
      cost += store_.Write(root_->page);
      break;
    }
    Node* parent = path[level - 2];
    size_t ci = ChildIndex(parent->keys, separator);
    parent->keys.insert(parent->keys.begin() + static_cast<long>(ci),
                        std::move(separator));
    parent->children.insert(parent->children.begin() + static_cast<long>(ci) + 1,
                            std::move(right));
    cost += store_.Write(parent->page);
    child = parent;
    --level;
  }
  return cost;
}

sim::Cost BPlusTree::BulkLoad(std::vector<std::pair<AttrValue, FileId>> entries) {
  assert(num_postings_ == 0);
  if (entries.empty()) return {};
  std::sort(entries.begin(), entries.end(),
            [](const std::pair<AttrValue, FileId>& a,
               const std::pair<AttrValue, FileId>& b) {
              int c = a.first.Compare(b.first);
              if (c != 0) return c < 0;
              return a.second < b.second;
            });

  // Replace the empty bootstrap root; pages are renumbered from zero.
  root_.reset();
  num_nodes_ = 0;
  next_page_ = 0;

  // Leaf level: one key per distinct value, duplicates merged into the
  // posting list, chunked to the leaf fanout.
  std::vector<std::unique_ptr<Node>> level;
  Node* prev = nullptr;
  size_t i = 0;
  while (i < entries.size()) {
    auto leaf = std::make_unique<Node>(/*is_leaf=*/true, next_page_++);
    ++num_nodes_;
    while (i < entries.size() && leaf->keys.size() < order_) {
      leaf->keys.push_back(entries[i].first);
      while (i < entries.size() && entries[i].first == leaf->keys.back()) {
        leaf->files.push_back(entries[i].second);
        ++num_postings_;
        ++i;
      }
      leaf->ends.push_back(static_cast<uint32_t>(leaf->files.size()));
    }
    leaf->prev_leaf = prev;
    if (prev != nullptr) prev->next_leaf = leaf.get();
    prev = leaf.get();
    level.push_back(std::move(leaf));
  }

  // Internal levels: separator i is the smallest key in child i+1's
  // subtree, so duplicates-go-right descent finds every key.
  auto min_key = [](const Node* n) -> const AttrValue& {
    while (!n->leaf) n = n->children[0].get();
    return n->keys[0];
  };
  while (level.size() > 1) {
    std::vector<std::unique_ptr<Node>> up;
    size_t j = 0;
    while (j < level.size()) {
      auto node = std::make_unique<Node>(/*is_leaf=*/false, next_page_++);
      ++num_nodes_;
      size_t take = std::min<size_t>(order_, level.size() - j);
      for (size_t k = 0; k < take; ++k) {
        if (k > 0) node->keys.push_back(min_key(level[j + k].get()));
        node->children.push_back(std::move(level[j + k]));
      }
      j += take;
      up.push_back(std::move(node));
    }
    level = std::move(up);
  }
  root_ = std::move(level[0]);
  // One sequential pass writes every node page.
  return store_.SequentialLoad(num_nodes_);
}

sim::Cost BPlusTree::Remove(const AttrValue& key, FileId file) {
  sim::Cost cost;
  std::vector<Node*> path;
  std::vector<size_t> child_idx;
  Node* n = root_.get();
  for (;;) {
    cost += store_.Read(n->page);
    path.push_back(n);
    if (n->leaf) break;
    size_t ci = ChildIndex(n->keys, key);
    child_idx.push_back(ci);
    n = n->children[ci].get();
  }

  Node* leaf = path.back();
  auto it = std::lower_bound(leaf->keys.begin(), leaf->keys.end(), key);
  if (it == leaf->keys.end() || !(*it == key)) return cost;  // absent
  size_t pos = static_cast<size_t>(it - leaf->keys.begin());
  const auto run_end = leaf->files.begin() + leaf->ends[pos];
  auto fit = std::find(leaf->files.begin() + leaf->RunBegin(pos), run_end, file);
  if (fit == run_end) return cost;  // posting absent
  leaf->files.erase(fit);
  --num_postings_;
  for (size_t i = pos; i < leaf->ends.size(); ++i) --leaf->ends[i];
  if (leaf->ends[pos] == leaf->RunBegin(pos)) {
    leaf->keys.erase(it);
    leaf->ends.erase(leaf->ends.begin() + static_cast<long>(pos));
  }
  cost += store_.Write(leaf->page);

  // Unlink now-empty nodes bottom-up (no rebalancing of non-empty nodes).
  for (size_t level = path.size(); level > 1; --level) {
    Node* node = path[level - 1];
    bool empty = node->leaf ? node->keys.empty() : node->children.empty();
    if (!empty) break;
    Node* parent = path[level - 2];
    size_t ci = child_idx[level - 2];
    if (node->leaf) {
      if (node->prev_leaf != nullptr) node->prev_leaf->next_leaf = node->next_leaf;
      if (node->next_leaf != nullptr) node->next_leaf->prev_leaf = node->prev_leaf;
    }
    parent->children.erase(parent->children.begin() + static_cast<long>(ci));
    if (!parent->keys.empty()) {
      size_t ki = ci > 0 ? ci - 1 : 0;
      parent->keys.erase(parent->keys.begin() + static_cast<long>(ki));
    }
    --num_nodes_;
    cost += store_.Write(parent->page);
  }

  // Collapse a root that has a single child.
  while (!root_->leaf && root_->children.size() == 1) {
    std::unique_ptr<Node> only = std::move(root_->children[0]);
    root_ = std::move(only);
    --num_nodes_;
  }
  // A fully-empty tree keeps its (empty) leaf root.
  return cost;
}

BPlusTree::ScanResult BPlusTree::Scan(const KeyRange& range) const {
  ScanResult out;

  // Descend to the first candidate leaf.
  Node* n = root_.get();
  while (!n->leaf) {
    out.cost += store_.Read(n->page);
    size_t ci = range.lo ? ChildIndex(n->keys, *range.lo) : 0;
    // For an exclusive lower bound the equal-separator child is still the
    // right place to start: duplicates of lo live right of the separator.
    n = n->children[ci].get();
  }

  // Keys are unique and ascend along the leaf chain, and every later leaf
  // holds only keys above `lo`.  In each leaf, keys [i, stop) are in range:
  // `i` is binary-searched from `lo` in the first leaf and 0 after it, and
  // `stop` is the first key past `hi`.  Their postings are one slice of the
  // leaf's run.  The walk reads leaves until one holds a key past `hi`, as
  // a key-by-key walk would; in an empty range (lo above hi) that key may
  // lie below `i`.
  size_t i = 0;
  if (range.lo) {
    const std::vector<AttrValue>& keys = n->keys;
    i = static_cast<size_t>(
        (range.lo_inclusive
             ? std::lower_bound(keys.begin(), keys.end(), *range.lo)
             : std::upper_bound(keys.begin(), keys.end(), *range.lo)) -
        keys.begin());
  }
  for (Node* leaf = n; leaf != nullptr; leaf = leaf->next_leaf, i = 0) {
    out.cost += store_.Read(leaf->page);
    const std::vector<AttrValue>& keys = leaf->keys;
    size_t stop = keys.size();
    if (range.hi) {
      stop = static_cast<size_t>(
          (range.hi_inclusive ? std::upper_bound(keys.begin(), keys.end(), *range.hi)
                              : std::lower_bound(keys.begin(), keys.end(), *range.hi)) -
          keys.begin());
    }
    if (stop > i) {
      out.files.insert(out.files.end(), leaf->files.begin() + leaf->RunBegin(i),
                       leaf->files.begin() + leaf->ends[stop - 1]);
    }
    if (stop < keys.size()) return out;
  }
  return out;
}

uint32_t BPlusTree::Height() const {
  uint32_t h = 1;
  for (const Node* n = root_.get(); !n->leaf; n = n->children[0].get()) ++h;
  return h;
}

bool BPlusTree::CheckInvariants(std::string* error) const {
  struct CheckState {
    uint32_t order;
    int leaf_depth = -1;
    const Node* prev_leaf = nullptr;
    uint64_t postings = 0;
    uint64_t nodes = 0;
    std::string error;
  };
  CheckState st;
  st.order = order_;

  // Recursive walk with key-range bounds.
  struct Walker {
    CheckState& st;
    bool Walk(const Node* n, const AttrValue* lo, const AttrValue* hi, int depth) {
      ++st.nodes;
      if (!std::is_sorted(n->keys.begin(), n->keys.end(),
                          [](const AttrValue& a, const AttrValue& b) {
                            return a.Compare(b) < 0;
                          })) {
        st.error = "keys not sorted";
        return false;
      }
      for (const AttrValue& k : n->keys) {
        if (lo != nullptr && k.Compare(*lo) < 0) {
          st.error = "key below subtree lower bound";
          return false;
        }
        if (hi != nullptr && k.Compare(*hi) >= 0) {
          st.error = "key at/above subtree upper bound";
          return false;
        }
      }
      if (n->keys.size() > st.order) {
        st.error = "node overfull";
        return false;
      }
      if (n->leaf) {
        if (st.leaf_depth == -1) st.leaf_depth = depth;
        if (st.leaf_depth != depth) {
          st.error = "leaves at differing depths";
          return false;
        }
        if (n->keys.size() != n->ends.size()) {
          st.error = "leaf keys/run ends size mismatch";
          return false;
        }
        if (n->prev_leaf != st.prev_leaf) {
          st.error = "leaf chain broken";
          return false;
        }
        st.prev_leaf = n;
        uint32_t begin = 0;
        for (uint32_t end : n->ends) {
          if (end <= begin) {
            st.error = "empty posting run retained";
            return false;
          }
          begin = end;
        }
        if (begin != n->files.size()) {
          st.error = "leaf runs do not cover its files";
          return false;
        }
        st.postings += n->files.size();
        return true;
      }
      if (n->children.size() != n->keys.size() + 1) {
        st.error = "internal children/keys mismatch";
        return false;
      }
      for (size_t i = 0; i < n->children.size(); ++i) {
        const AttrValue* clo = i == 0 ? lo : &n->keys[i - 1];
        const AttrValue* chi = i == n->keys.size() ? hi : &n->keys[i];
        if (!Walk(n->children[i].get(), clo, chi, depth + 1)) return false;
      }
      return true;
    }
  } walker{st};

  bool ok = walker.Walk(root_.get(), nullptr, nullptr, 0);
  if (ok && st.prev_leaf != nullptr && st.prev_leaf->next_leaf != nullptr) {
    ok = false;
    st.error = "leaf chain extends past last leaf";
  }
  if (ok && st.postings != num_postings_) {
    ok = false;
    st.error = Sprintf("posting count mismatch: walked %llu, tracked %llu",
                       static_cast<unsigned long long>(st.postings),
                       static_cast<unsigned long long>(num_postings_));
  }
  if (ok && st.nodes != num_nodes_) {
    ok = false;
    st.error = "node count mismatch";
  }
  if (!ok && error != nullptr) *error = st.error;
  return ok;
}

}  // namespace propeller::index
