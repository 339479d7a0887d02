#include "index/attr.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/fmt.h"

namespace propeller::index {

AttrNames::~AttrNames() {
  for (std::atomic<std::string*>& chunk : chunks_) delete[] chunk.load();
}

AttrNames& AttrNames::Global() {
  // Never destroyed: AttrSets in other static objects may outlive it.
  static AttrNames* names = new AttrNames();
  return *names;
}

AttrId AttrNames::Lookup(std::string_view name) const {
  ReaderMutexLock lock(mu_);
  auto it = ids_.find(name);
  return it == ids_.end() ? kNoAttr : it->second;
}

AttrId AttrNames::Intern(std::string_view name) {
  AttrId id = Lookup(name);
  if (id != kNoAttr) return id;
  WriterMutexLock lock(mu_);
  auto it = ids_.find(name);  // another thread may have added it meanwhile
  if (it != ids_.end()) return it->second;
  const auto next = static_cast<uint32_t>(ids_.size());
  assert(next < static_cast<uint32_t>(kNoAttr));
  auto [chunk, slot] = Locate(next);
  std::string* names = chunks_[chunk].load(std::memory_order_relaxed);
  if (names == nullptr) {
    names = new std::string[size_t{kFirstChunk} << chunk];
    chunks_[chunk].store(names, std::memory_order_release);
  }
  names[slot] = name;
  id = AttrId{next};
  ids_.emplace(names[slot], id);
  return id;
}

size_t AttrNames::size() const {
  ReaderMutexLock lock(mu_);
  return ids_.size();
}

AttrValue::AttrValue(std::string_view v)
    : payload_{.s = nullptr}, kind_(Kind::kString) {
  if (v.size() > UINT32_MAX) throw std::length_error("AttrValue string over 4 GiB");
  size_ = static_cast<uint32_t>(v.size());
  if (!v.empty()) {
    payload_.s = new char[v.size()];
    std::memcpy(payload_.s, v.data(), v.size());
  }
}

AttrValue::AttrValue(const AttrValue& other)
    : payload_(other.payload_), size_(other.size_), kind_(other.kind_) {
  if (is_string() && size_ != 0) {
    payload_.s = new char[size_];
    std::memcpy(payload_.s, other.payload_.s, size_);
  }
}

std::string AttrValue::ToString() const {
  if (is_int()) return StrCat(as_int());
  if (is_double()) return Sprintf("%g", as_double());
  return std::string(as_string());
}

void AttrValue::Serialize(BinaryWriter& w) const {
  if (is_int()) {
    w.PutU8(0);
    w.PutI64(as_int());
  } else if (is_double()) {
    w.PutU8(1);
    w.PutDouble(as_double());
  } else {
    w.PutU8(2);
    w.PutString(as_string());
  }
}

Status AttrValue::Deserialize(BinaryReader& r, AttrValue& out) {
  uint8_t tag = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU8(tag));
  switch (tag) {
    case 0: {
      int64_t v = 0;
      PROPELLER_RETURN_IF_ERROR(r.GetI64(v));
      out = AttrValue(v);
      return Status::Ok();
    }
    case 1: {
      double v = 0;
      PROPELLER_RETURN_IF_ERROR(r.GetDouble(v));
      out = AttrValue(v);
      return Status::Ok();
    }
    case 2: {
      std::string_view v;
      PROPELLER_RETURN_IF_ERROR(r.GetStringView(v));
      out = AttrValue(v);
      return Status::Ok();
    }
    default:
      return Status::Corruption("bad AttrValue tag");
  }
}

void AttrSet::Set(AttrId id, AttrValue value) {
  for (Entry& e : entries_) {
    if (e.id == id) {
      e.value = std::move(value);
      return;
    }
  }
  entries_.push_back(Entry{id, std::move(value)});
}

const AttrValue* AttrSet::Find(std::string_view name) const {
  const AttrNames& names = AttrNames::Global();
  for (const Entry& e : entries_) {
    if (names.Name(e.id) == name) return &e.value;
  }
  return nullptr;
}

std::optional<int64_t> AttrSet::FindInt(std::string_view name) const {
  const AttrValue* v = Find(name);
  if (v == nullptr || !v->is_int()) return std::nullopt;
  return v->as_int();
}

void AttrSet::Serialize(BinaryWriter& w) const {
  w.PutU32(static_cast<uint32_t>(entries_.size()));
  for (const Entry& e : entries_) {
    w.PutString(e.name());
    e.value.Serialize(w);
  }
}

Status AttrSet::Deserialize(BinaryReader& r, AttrSet& out) {
  uint32_t n = 0;
  PROPELLER_RETURN_IF_ERROR(r.GetU32(n));
  out.entries_.clear();
  out.entries_.reserve(std::min<size_t>(n, r.Remaining()));
  AttrNames& names = AttrNames::Global();
  for (uint32_t i = 0; i < n; ++i) {
    std::string_view name;
    PROPELLER_RETURN_IF_ERROR(r.GetStringView(name));
    const AttrId id = names.Intern(name);
    if (out.Find(id) != nullptr) {
      return Status::Corruption("repeated attribute name in AttrSet");
    }
    AttrValue v;
    PROPELLER_RETURN_IF_ERROR(AttrValue::Deserialize(r, v));
    out.entries_.push_back(Entry{id, std::move(v)});
  }
  return Status::Ok();
}

size_t AttrSet::ByteSize() const {
  size_t total = 4;
  for (const Entry& e : entries_) {
    total += 5 + e.name().size() + e.value.ByteSize();
  }
  return total;
}

}  // namespace propeller::index
