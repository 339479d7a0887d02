#include "fs/namespace.h"

#include <deque>

namespace propeller::fs {

index::AttrSet FileStat::ToAttrSet() const {
  // Interned once: a namespace walk builds one set per file.
  static const index::AttrId kSize = index::AttrNames::Global().Intern("size");
  static const index::AttrId kMtime = index::AttrNames::Global().Intern("mtime");
  static const index::AttrId kUid = index::AttrNames::Global().Intern("uid");
  static const index::AttrId kPath = index::AttrNames::Global().Intern("path");
  index::AttrSet a;
  a.Set(kSize, index::AttrValue(size));
  a.Set(kMtime, index::AttrValue(mtime));
  a.Set(kUid, index::AttrValue(uid));
  a.Set(kPath, index::AttrValue(path));
  return a;
}

Namespace::Namespace() : root_(std::make_unique<Node>()) {
  root_->stat.is_dir = true;
  root_->stat.path.assign(1, '/');
}

std::vector<std::string_view> Namespace::SplitPath(std::string_view path) {
  std::vector<std::string_view> parts;
  size_t start = 0;
  while (start < path.size()) {
    size_t slash = path.find('/', start);
    if (slash == std::string_view::npos) slash = path.size();
    if (slash > start) parts.push_back(path.substr(start, slash - start));
    start = slash + 1;
  }
  return parts;
}

Namespace::Node* Namespace::Walk(std::string_view path) const {
  Node* node = root_.get();
  for (std::string_view part : SplitPath(path)) {
    auto it = node->children.find(part);
    if (it == node->children.end()) return nullptr;
    node = it->second.get();
  }
  return node;
}

Namespace::Node* Namespace::WalkParent(std::string_view path, bool create,
                                       std::string_view* leaf) {
  auto parts = SplitPath(path);
  if (parts.empty()) return nullptr;
  *leaf = parts.back();
  Node* node = root_.get();
  std::string prefix;
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    prefix += '/';
    prefix += parts[i];
    auto it = node->children.find(parts[i]);
    if (it == node->children.end()) {
      if (!create) return nullptr;
      auto dir = std::make_unique<Node>();
      dir->stat.is_dir = true;
      dir->stat.path = prefix;
      ++num_dirs_;
      it = node->children.emplace(std::string(parts[i]), std::move(dir)).first;
    } else if (!it->second->stat.is_dir) {
      return nullptr;  // path component is a regular file
    }
    node = it->second.get();
  }
  return node;
}

Status Namespace::MkdirAll(std::string_view path) {
  std::string_view leaf;
  Node* parent = WalkParent(path, /*create=*/true, &leaf);
  if (parent == nullptr) {
    return path.empty() || SplitPath(path).empty()
               ? Status::Ok()  // "/" or ""
               : Status::InvalidArgument("bad path");
  }
  auto it = parent->children.find(leaf);
  if (it != parent->children.end()) {
    return it->second->stat.is_dir ? Status::Ok()
                                   : Status::AlreadyExists("file in the way");
  }
  auto dir = std::make_unique<Node>();
  dir->stat.is_dir = true;
  dir->stat.path = std::string(path);
  ++num_dirs_;
  parent->children.emplace(std::string(leaf), std::move(dir));
  return Status::Ok();
}

Result<FileId> Namespace::CreateFile(std::string_view path, int64_t size,
                                     int64_t mtime, int64_t uid) {
  std::string_view leaf;
  Node* parent = WalkParent(path, /*create=*/true, &leaf);
  if (parent == nullptr) return Status::InvalidArgument("bad path");
  if (parent->children.count(leaf) != 0u) {
    return Status::AlreadyExists(std::string(path));
  }
  auto node = std::make_unique<Node>();
  node->stat.id = next_id_++;
  node->stat.path = std::string(path);
  node->stat.size = size;
  node->stat.mtime = mtime;
  node->stat.uid = uid;
  FileId id = node->stat.id;
  by_id_[id] = node.get();
  parent->children.emplace(std::string(leaf), std::move(node));
  ++num_files_;
  return id;
}

Result<FileStat> Namespace::Stat(std::string_view path) const {
  Node* node = Walk(path);
  if (node == nullptr) return Status::NotFound(std::string(path));
  return node->stat;
}

Result<FileStat> Namespace::StatById(FileId id) const {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return Status::NotFound("no such file id");
  return it->second->stat;
}

bool Namespace::Exists(std::string_view path) const { return Walk(path) != nullptr; }

Status Namespace::Update(std::string_view path, int64_t size, int64_t mtime) {
  Node* node = Walk(path);
  if (node == nullptr) return Status::NotFound(std::string(path));
  if (node->stat.is_dir) return Status::InvalidArgument("is a directory");
  node->stat.size = size;
  node->stat.mtime = mtime;
  return Status::Ok();
}

Status Namespace::Unlink(std::string_view path) {
  std::string_view leaf;
  Node* parent = WalkParent(path, /*create=*/false, &leaf);
  if (parent == nullptr) return Status::NotFound(std::string(path));
  auto it = parent->children.find(leaf);
  if (it == parent->children.end()) return Status::NotFound(std::string(path));
  if (it->second->stat.is_dir) {
    if (!it->second->children.empty()) {
      return Status::FailedPrecondition("directory not empty");
    }
    --num_dirs_;
  } else {
    by_id_.erase(it->second->stat.id);
    --num_files_;
  }
  parent->children.erase(it);
  return Status::Ok();
}

Result<std::vector<std::string>> Namespace::List(std::string_view dir) const {
  Node* node = Walk(dir);
  if (node == nullptr) return Status::NotFound(std::string(dir));
  if (!node->stat.is_dir) return Status::InvalidArgument("not a directory");
  std::vector<std::string> names;
  names.reserve(node->children.size());
  for (const auto& [name, child] : node->children) names.push_back(name);
  return names;
}

void Namespace::ForEachFile(const std::function<void(const FileStat&)>& fn) const {
  std::deque<const Node*> queue{root_.get()};
  while (!queue.empty()) {
    const Node* node = queue.front();
    queue.pop_front();
    for (const auto& [name, child] : node->children) {
      if (child->stat.is_dir) {
        queue.push_back(child.get());
      } else {
        fn(child->stat);
      }
    }
  }
}

}  // namespace propeller::fs
