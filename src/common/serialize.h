// Binary serialization used for WAL records, RPC payloads, and persisted
// index/ACG metadata.  Fixed little-endian layout, explicit sizes, and a
// checked reader so corrupted inputs surface as Status, never UB.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace propeller {

class BinaryWriter {
 public:
  // Pre-sizes the buffer for a payload of roughly `bytes`; callers on hot
  // paths (RPC encode, WAL batches) use it to avoid repeated reallocation.
  void Reserve(size_t bytes) { buf_.reserve(buf_.size() + bytes); }

  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof v); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof v); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof v); }
  void PutDouble(double v) { PutRaw(&v, sizeof v); }

  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }

  template <typename T, typename Fn>
  void PutVector(const std::vector<T>& v, Fn&& put_elem) {
    PutU32(static_cast<uint32_t>(v.size()));
    for (const T& e : v) put_elem(*this, e);
  }
  // A vector of fixed-width numbers in one copy: the bytes PutVector
  // writes element by element.
  template <typename T>
    requires std::is_arithmetic_v<T> && (!std::is_same_v<T, bool>)
  void PutScalars(const std::vector<T>& v) {
    PutU32(static_cast<uint32_t>(v.size()));
    if (!v.empty()) PutRaw(v.data(), v.size() * sizeof(T));
  }

  const std::string& data() const& { return buf_; }
  std::string Take() && { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void PutRaw(const void* p, size_t n) {
    size_t old = buf_.size();
    buf_.resize(old + n);
    std::memcpy(buf_.data() + old, p, n);
  }

  std::string buf_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Status GetU8(uint8_t& out) { return GetRaw(&out, sizeof out); }
  Status GetU32(uint32_t& out) { return GetRaw(&out, sizeof out); }
  Status GetU64(uint64_t& out) { return GetRaw(&out, sizeof out); }
  Status GetI64(int64_t& out) { return GetRaw(&out, sizeof out); }
  Status GetDouble(double& out) { return GetRaw(&out, sizeof out); }

  Status GetString(std::string& out) {
    std::string_view view;
    PROPELLER_RETURN_IF_ERROR(GetStringView(view));
    out.assign(view);
    return Status::Ok();
  }

  // Like GetString, but returns a view into the input instead of a copy.
  Status GetStringView(std::string_view& out) {
    uint32_t n = 0;
    PROPELLER_RETURN_IF_ERROR(GetU32(n));
    if (n > Remaining()) return Status::Corruption("string length exceeds input");
    out = data_.substr(pos_, n);
    pos_ += n;
    return Status::Ok();
  }

  template <typename T, typename Fn>
  Status GetVector(std::vector<T>& out, Fn&& get_elem) {
    uint32_t n = 0;
    PROPELLER_RETURN_IF_ERROR(GetU32(n));
    out.clear();
    out.reserve(std::min<size_t>(n, Remaining()));
    for (uint32_t i = 0; i < n; ++i) {
      T elem{};
      PROPELLER_RETURN_IF_ERROR(get_elem(*this, elem));
      out.push_back(std::move(elem));
    }
    return Status::Ok();
  }
  // Reads what PutScalars wrote; a count the input cannot hold is a short
  // read before anything is allocated.
  template <typename T>
    requires std::is_arithmetic_v<T> && (!std::is_same_v<T, bool>)
  Status GetScalars(std::vector<T>& out) {
    uint32_t n = 0;
    PROPELLER_RETURN_IF_ERROR(GetU32(n));
    if (n > Remaining() / sizeof(T)) return Status::Corruption("short read");
    out.resize(n);
    if (n == 0) return Status::Ok();
    return GetRaw(out.data(), n * sizeof(T));
  }

  size_t Remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status GetRaw(void* p, size_t n) {
    if (n > Remaining()) return Status::Corruption("short read");
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
    return Status::Ok();
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace propeller
