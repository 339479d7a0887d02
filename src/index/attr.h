// Typed attribute values.
//
// Propeller is a general-purpose file-search service: it indexes inode
// metadata (size, mtime, uid, ...) and arbitrary user-defined attributes
// (Section IV).  AttrValue is the common currency between the VFS, the
// index structures, and the query engine.
//
// In-memory layout (the wire layout is unaffected): every record names its
// attributes by a small AttrId from one process-wide dictionary instead of
// repeating each name as a string, and every value is 16 bytes with
// numerics unboxed.  A search binds each predicate term to its AttrId once,
// so verifying a candidate compares ids, never names.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/serialize.h"
#include "common/status.h"

namespace propeller::index {

using FileId = uint64_t;

// Dense id of an interned attribute name.  Ids are process-local: assigned
// in first-seen order, which under parallel execution depends on thread
// interleaving.  So an id must never reach the wire, a journal, a sort key
// or a simulated charge; those all use the name.
enum class AttrId : uint32_t {};

// Id of no attribute: what Lookup returns for a name never interned.  No
// AttrSet entry carries it, so Find(kNoAttr) always misses.
inline constexpr AttrId kNoAttr{UINT32_MAX};

// Append-only attribute-name dictionary.  Interning takes a lock (shared
// when the name is known, and then allocates nothing); reading a name by
// id takes none, because a stored name never moves or changes.
class AttrNames {
 public:
  AttrNames() = default;
  ~AttrNames();
  AttrNames(const AttrNames&) = delete;
  AttrNames& operator=(const AttrNames&) = delete;

  // The dictionary every AttrSet uses.
  static AttrNames& Global();

  // Returns `name`'s id, adding the name on first sight.
  AttrId Intern(std::string_view name);
  // Returns `name`'s id, or kNoAttr when it was never interned.
  AttrId Lookup(std::string_view name) const;

  // The name behind an id this dictionary returned.
  std::string_view Name(AttrId id) const {
    auto [chunk, slot] = Locate(static_cast<uint32_t>(id));
    return chunks_[chunk].load(std::memory_order_acquire)[slot];
  }

  size_t size() const;

 private:
  // Names live in chunks that double in size (64, 128, 256, ...), so a
  // chunk never moves once allocated and a slot never changes once set.
  // 27 chunks hold every id below kNoAttr.
  static constexpr uint32_t kFirstChunk = 64;
  static constexpr size_t kMaxChunks = 27;

  struct Slot {
    size_t chunk;
    size_t slot;
  };
  static Slot Locate(uint32_t id) {
    const uint64_t x = uint64_t{id} + kFirstChunk;
    const size_t chunk = std::bit_width(x) - std::bit_width(uint64_t{kFirstChunk});
    return {chunk, x - (uint64_t{kFirstChunk} << chunk)};
  }

  mutable SharedMutex mu_{LockRank::kAttrNames, "AttrNames::mu_"};
  std::array<std::atomic<std::string*>, kMaxChunks> chunks_{};
  // Keyed by views into the chunks' own strings, so a lookup by
  // string_view hashes the caller's bytes and converts nothing.
  std::unordered_map<std::string_view, AttrId> ids_ GUARDED_BY(mu_);
};

// One attribute value in 16 bytes: an int64 or a double stored inline, or
// a string as one owned out-of-line buffer whose length sits in what would
// otherwise be padding.  A moved-from value is the int 0.
class AttrValue {
 public:
  AttrValue() = default;
  AttrValue(int64_t v) : payload_{.i = v} {}  // NOLINT(runtime/explicit)
  AttrValue(double v)                         // NOLINT(runtime/explicit)
      : payload_{.d = v}, kind_(Kind::kDouble) {}
  AttrValue(std::string_view v);  // NOLINT(runtime/explicit)
  AttrValue(const std::string& v)  // NOLINT(runtime/explicit)
      : AttrValue(std::string_view(v)) {}
  AttrValue(const char* v)  // NOLINT(runtime/explicit)
      : AttrValue(std::string_view(v)) {}

  AttrValue(const AttrValue& other);
  AttrValue(AttrValue&& other) noexcept { Steal(other); }
  AttrValue& operator=(const AttrValue& other) {
    if (this != &other) *this = AttrValue(other);
    return *this;
  }
  AttrValue& operator=(AttrValue&& other) noexcept {
    if (this != &other) {
      Release();
      Steal(other);
    }
    return *this;
  }
  ~AttrValue() { Release(); }

  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_double() const { return kind_ == Kind::kDouble; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_numeric() const { return !is_string(); }

  int64_t as_int() const {
    assert(is_int());
    return payload_.i;
  }
  double as_double() const {
    assert(is_double());
    return payload_.d;
  }
  std::string_view as_string() const {
    assert(is_string());
    return {payload_.s, size_};
  }

  // Numeric view: ints promote to double for cross-type comparison.
  double numeric() const {
    return is_int() ? static_cast<double>(payload_.i) : payload_.d;
  }

  // Total order: numerics compare numerically (int/double interoperate),
  // strings lexicographically, and all numerics sort before all strings.
  // Returns <0, 0, >0.
  int Compare(const AttrValue& other) const {
    if (kind_ == Kind::kInt && other.kind_ == Kind::kInt) {
      const int64_t a = payload_.i;
      const int64_t b = other.payload_.i;
      return (a > b) - (a < b);
    }
    const bool a_str = is_string();
    const bool b_str = other.is_string();
    if (a_str != b_str) return a_str ? 1 : -1;  // numerics sort before strings
    if (a_str) {
      const int c = as_string().compare(other.as_string());
      return (c > 0) - (c < 0);
    }
    const double a = numeric();
    const double b = other.numeric();
    return (a > b) - (a < b);
  }

  friend bool operator<(const AttrValue& a, const AttrValue& b) {
    return a.Compare(b) < 0;
  }
  friend bool operator==(const AttrValue& a, const AttrValue& b) {
    return a.Compare(b) == 0;
  }
  friend bool operator<=(const AttrValue& a, const AttrValue& b) {
    return a.Compare(b) <= 0;
  }

  std::string ToString() const;

  void Serialize(BinaryWriter& w) const;
  static Status Deserialize(BinaryReader& r, AttrValue& out);

  // Approximate serialized footprint in bytes (used for page sizing).
  size_t ByteSize() const { return is_string() ? 5 + size_ : 9; }

 private:
  enum class Kind : uint8_t { kInt, kDouble, kString };

  union Payload {
    int64_t i;
    double d;
    char* s;  // owned; nullptr for the empty string
  };

  void Release() {
    if (kind_ == Kind::kString) delete[] payload_.s;
  }
  // Takes `other`'s payload and leaves it the int 0.  Assigning the union
  // copies whichever member is active.
  void Steal(AttrValue& other) {
    payload_ = other.payload_;
    size_ = other.size_;
    kind_ = other.kind_;
    other.payload_.i = 0;
    other.size_ = 0;
    other.kind_ = Kind::kInt;
  }

  Payload payload_{.i = 0};
  uint32_t size_ = 0;  // string length; the wire caps it at 32 bits too
  Kind kind_ = Kind::kInt;
};
static_assert(sizeof(AttrValue) == 16, "AttrValue must stay 16 bytes");

// A file's attribute set: a small list of (AttrId, value) in insertion
// order.  Serialize writes that order, so it must not be sorted by id:
// ids depend on interning order, the bytes must not.
class AttrSet {
 public:
  struct Entry {
    AttrId id;
    AttrValue value;

    std::string_view name() const { return AttrNames::Global().Name(id); }
  };

  void Set(std::string_view name, AttrValue value) {
    Set(AttrNames::Global().Intern(name), std::move(value));
  }
  void Set(AttrId id, AttrValue value);

  // Bound lookup: an id compare per entry.  Use it wherever one id is
  // looked up in many sets (search verification, index maintenance).
  const AttrValue* Find(AttrId id) const {
    for (const Entry& e : entries_) {
      if (e.id == id) return &e.value;
    }
    return nullptr;
  }
  // By-name lookup, for one-off reads.
  const AttrValue* Find(std::string_view name) const;
  std::optional<int64_t> FindInt(std::string_view name) const;

  const std::vector<Entry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

  void Serialize(BinaryWriter& w) const;
  // Fails with Corruption on a repeated attribute name.
  static Status Deserialize(BinaryReader& r, AttrSet& out);
  size_t ByteSize() const;

 private:
  std::vector<Entry> entries_;
};

}  // namespace propeller::index
