// The wire codec: every message in core/proto.h lists its fields once, in
// wire order, as
//
//   template <class V> void Fields(V& v) {
//     v(group, "group");
//     v(files, "files");
//   }
//
// and three visitors walk that one list: WireEncoder (behind Encode),
// WireDecoder (behind the strict Decode) and WireSchemaDumper (behind the
// schema golden that wire_schema_test checks).  Encode and decode are
// symmetric by construction; the byte layout of each field type is fixed
// here:
//
//   uint8_t / bool      1 byte (a bool decodes only from 0 or 1)
//   uint32_t, uint64_t  4 / 8 bytes, little-endian
//   double              8 bytes
//   std::string         u32 length + bytes
//   std::vector<E>      u32 count + each element
//   struct with Fields  its fields in order, no header
//   own-codec type      its Serialize / Deserialize (IndexSpec, FileUpdate,
//                       Predicate, Acg: journaled outside the wire too)
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"

namespace propeller::core {

// The schema-dump name of a type with its own codec; proto.h specialises
// it for each one the messages embed.
template <class T>
struct WireName;

template <class T>
concept OwnCodec = requires(const T& msg, T& out, BinaryWriter& w,
                            BinaryReader& r) {
  msg.Serialize(w);
  { T::Deserialize(r, out) } -> std::same_as<Status>;
};

namespace wire_internal {
struct Probe {
  template <class T>
  void operator()(T&, const char*);
};
}  // namespace wire_internal

template <class T>
concept FieldList = requires(T& msg, wire_internal::Probe& v) { msg.Fields(v); };

// A vector of these is copied as one run of bytes (a bool is not: each
// flag byte is checked on decode).
template <class E>
inline constexpr bool kScalarRun =
    std::is_arithmetic_v<E> && !std::is_same_v<E, bool>;

// Fields() is non-const so one list serves decoding too; the encoder and
// the dumper only read through it.
template <FieldList T>
void VisitFields(const T& msg, auto& visitor) {
  const_cast<T&>(msg).Fields(visitor);
}

class WireEncoder {
 public:
  explicit WireEncoder(BinaryWriter& w) : w_(w) {}

  template <class T>
  void operator()(const T& field, const char* /*name*/) {
    Put(field);
  }

  void Put(uint8_t v) { w_.PutU8(v); }
  void Put(bool v) { w_.PutU8(v ? 1 : 0); }
  void Put(uint32_t v) { w_.PutU32(v); }
  void Put(uint64_t v) { w_.PutU64(v); }
  void Put(double v) { w_.PutDouble(v); }
  void Put(const std::string& s) { w_.PutString(s); }
  template <class E>
  void Put(const std::vector<E>& v) {
    if constexpr (kScalarRun<E>) {
      w_.PutScalars(v);
    } else {
      w_.PutVector(v, [this](BinaryWriter&, const E& e) { Put(e); });
    }
  }
  template <OwnCodec T>
  void Put(const T& msg) {
    msg.Serialize(w_);
  }
  template <FieldList T>
  void Put(const T& msg) {
    VisitFields(msg, *this);
  }

 private:
  BinaryWriter& w_;
};

// Every check of a hand-written decoder: short reads and over-long strings
// are Corruption (BinaryReader), a vector reserves no more elements than
// bytes remain (GetVector; a number vector is checked whole by
// GetScalars), and a flag byte must be 0 or 1.  The first
// failure stops the walk.
class WireDecoder {
 public:
  explicit WireDecoder(BinaryReader& r) : r_(r) {}

  template <class T>
  void operator()(T& field, const char* /*name*/) {
    if (status_.ok()) status_ = Get(field);
  }

  Status Get(uint8_t& v) { return r_.GetU8(v); }
  Status Get(bool& v) {
    uint8_t byte = 0;
    PROPELLER_RETURN_IF_ERROR(r_.GetU8(byte));
    if (byte > 1) {
      return Status::Corruption("flag byte " + std::to_string(byte) +
                                " is neither 0 nor 1");
    }
    v = byte != 0;
    return Status::Ok();
  }
  Status Get(uint32_t& v) { return r_.GetU32(v); }
  Status Get(uint64_t& v) { return r_.GetU64(v); }
  Status Get(double& v) { return r_.GetDouble(v); }
  Status Get(std::string& s) { return r_.GetString(s); }
  template <class E>
  Status Get(std::vector<E>& v) {
    if constexpr (kScalarRun<E>) {
      return r_.GetScalars(v);
    } else {
      return r_.GetVector(v, [this](BinaryReader&, E& e) { return Get(e); });
    }
  }
  template <OwnCodec T>
  Status Get(T& msg) {
    return T::Deserialize(r_, msg);
  }
  template <FieldList T>
  Status Get(T& msg) {
    msg.Fields(*this);
    return status_;
  }

 private:
  BinaryReader& r_;
  Status status_;
};

// Renders a message's layout one field per line, in wire order: a vector
// shows its u32 count, then its elements marked `rep`; a nested struct's
// fields carry its path (`replicas.nodes`).
class WireSchemaDumper {
 public:
  explicit WireSchemaDumper(std::string& out) : out_(out) {}

  template <class T>
  void operator()(const T& field, const char* name) {
    Dump(field, prefix_ + name);
  }

 private:
  void Line(std::string_view type, const std::string& path) {
    out_ += "  ";
    if (repeated_) out_ += "rep ";
    out_.append(type);
    out_ += ' ';
    out_ += path;
    out_ += '\n';
  }
  void Dump(uint8_t, const std::string& path) { Line("u8", path); }
  void Dump(bool, const std::string& path) { Line("u8", path); }
  void Dump(uint32_t, const std::string& path) { Line("u32", path); }
  void Dump(uint64_t, const std::string& path) { Line("u64", path); }
  void Dump(double, const std::string& path) { Line("double", path); }
  void Dump(const std::string&, const std::string& path) {
    Line("string", path);
  }
  template <class E>
  void Dump(const std::vector<E>&, const std::string& path) {
    Line("u32", path + ".size()");
    const bool outer = repeated_;
    repeated_ = true;
    Dump(E{}, path);
    repeated_ = outer;
  }
  template <OwnCodec T>
  void Dump(const T&, const std::string& path) {
    Line("msg " + std::string(WireName<T>::kName), path);
  }
  template <FieldList T>
  void Dump(const T& msg, const std::string& path) {
    std::string outer = std::move(prefix_);
    prefix_ = path + ".";
    VisitFields(msg, *this);
    prefix_ = std::move(outer);
  }

  std::string& out_;
  std::string prefix_;
  bool repeated_ = false;
};

// Serializes a message to a payload string.  A message may pre-size the
// buffer with `size_t WireSizeHint() const` (the hot per-call messages do).
template <FieldList T>
std::string Encode(const T& msg) {
  BinaryWriter w;
  if constexpr (requires { msg.WireSizeHint(); }) w.Reserve(msg.WireSizeHint());
  WireEncoder(w).Put(msg);
  return std::move(w).Take();
}

// Parses a payload into a message.  Layouts are fixed, so bytes left over
// after the message are corruption, not an unknown extension.
template <FieldList T>
Result<T> Decode(std::string_view payload) {
  BinaryReader r(payload);
  T out{};
  PROPELLER_RETURN_IF_ERROR(WireDecoder(r).Get(out));
  if (!r.AtEnd()) {
    return Status::Corruption(std::to_string(r.Remaining()) +
                              " trailing byte(s) after message");
  }
  return out;
}

// Appends `message <name>` and the message's field lines.
template <FieldList T>
void DumpWireSchema(std::string_view name, std::string& out) {
  out += "message ";
  out.append(name);
  out += '\n';
  WireSchemaDumper dumper(out);
  VisitFields(T{}, dumper);
}

}  // namespace propeller::core
