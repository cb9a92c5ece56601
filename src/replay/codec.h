// Little-endian fixed-width binary codec for the durable formats: .repro
// artifacts (DESIGN.md section 7) and the congos_d state file (section 14).
//
// A deliberately tiny, dependency-free format layer: explicit-width
// little-endian integers, IEEE-754 doubles carried as their bit pattern,
// length-prefixed strings, byte strings and vectors. The reader is fully
// bounds-checked and latches an error flag instead of throwing, so a
// truncated or corrupted file degrades into `ok() == false` rather than
// undefined behaviour (tests/test_replay.cpp pins this for bit flips and
// truncation at every offset, and fuzzes checksum-repaired mutants).
//
// Each durable record lists its fields once, in a field walk that both
// sinks drive, the idiom of the wire codec (section 11):
//
//   template <class S, wire::SameBase<Foo> F>
//   void fields(S& s, F& f) { s.u64(f.n); s.enum8(f.kind, Kind::kLast); ... }
//
// ByteWriter takes each field by value and ByteReader by reference;
// `if constexpr (S::kReading)` guards read-only validation. The reader also
// keeps value-returning reads for framing (magic, version, lengths). These
// are not the wire sinks: those enforce canonical varints so a re-encode is
// byte-identical, while these formats are fixed-width on purpose (the state
// file header has a fixed size and each batch length pair a fixed offset).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/fnv.h"

namespace congos::replay {

class ByteWriter {
 public:
  static constexpr bool kReading = false;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int b = 0; b < 4; ++b) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }
  void u64(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// `len` bytes verbatim, in one bulk append.
  void raw(const std::uint8_t* data, std::size_t len) {
    buf_.insert(buf_.end(), data, data + len);
  }
  void reserve(std::size_t bytes) { buf_.reserve(bytes); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void vec_u64(const std::vector<std::uint64_t>& v) {
    u64(v.size());
    for (auto x : v) u64(x);
  }
  void vec_i64(const std::vector<std::int64_t>& v) {
    u64(v.size());
    for (auto x : v) i64(x);
  }
  void vec_u32(const std::vector<std::uint32_t>& v) {
    u64(v.size());
    for (auto x : v) u32(x);
  }
  /// Length-prefixed byte string, in one bulk append.
  void bytes(const std::vector<std::uint8_t>& v) {
    u64(v.size());
    raw(v.data(), v.size());
  }
  /// An `int` in a u32 slot (two's complement).
  void i32(int v) { u32(static_cast<std::uint32_t>(v)); }
  /// An enum in one byte; `max` only matters to the reader.
  template <class E>
  void enum8(E v, E /*max*/) {
    u8(static_cast<std::uint8_t>(v));
  }
  /// Presence flag, then the record's own walk when present.
  template <class T, class Walk>
  void optional(const std::optional<T>& o, Walk&& walk) {
    boolean(o.has_value());
    if (o) walk(*o);
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  static constexpr bool kReading = true;

  ByteReader(const std::uint8_t* data, std::size_t len) : data_(data), len_(len) {}
  explicit ByteReader(const std::vector<std::uint8_t>& buf)
      : ByteReader(buf.data(), buf.size()) {}

  bool ok() const { return ok_; }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return ok_ ? len_ - pos_ : 0; }

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return data_[pos_++];
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int b = 0; b < 4; ++b) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * b);
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * b);
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool boolean() { return u8() != 0; }
  /// The next `n` bytes in place, or nullptr (stream marked bad) when fewer
  /// remain.
  const std::uint8_t* raw(std::uint64_t n) {
    if (!take(n)) return nullptr;
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint64_t n = u64();
    if (!take(n)) return {};
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }
  std::vector<std::uint64_t> vec_u64() {
    const std::uint64_t n = u64();
    if (!check_count(n, 8)) return {};
    std::vector<std::uint64_t> v(n);
    for (auto& x : v) x = u64();
    return v;
  }
  std::vector<std::int64_t> vec_i64() {
    const std::uint64_t n = u64();
    if (!check_count(n, 8)) return {};
    std::vector<std::int64_t> v(n);
    for (auto& x : v) x = i64();
    return v;
  }
  std::vector<std::uint32_t> vec_u32() {
    const std::uint64_t n = u64();
    if (!check_count(n, 4)) return {};
    std::vector<std::uint32_t> v(n);
    for (auto& x : v) x = u32();
    return v;
  }

  // Field-walk reads: the same names as ByteWriter's, into a reference.
  void u32(std::uint32_t& v) { v = u32(); }
  void u64(std::uint64_t& v) { v = u64(); }
  void i64(std::int64_t& v) { v = i64(); }
  void boolean(bool& v) { v = boolean(); }
  void f64(double& v) { v = f64(); }
  void str(std::string& v) { v = str(); }
  void vec_u64(std::vector<std::uint64_t>& v) { v = vec_u64(); }
  void vec_i64(std::vector<std::int64_t>& v) { v = vec_i64(); }
  void vec_u32(std::vector<std::uint32_t>& v) { v = vec_u32(); }
  void bytes(std::vector<std::uint8_t>& v) {
    const std::uint64_t n = u64();
    const std::uint8_t* p = raw(n);
    if (!ok_) {
      v.clear();
      return;
    }
    v.assign(p, p + n);
  }
  void i32(int& v) { v = static_cast<int>(u32()); }
  /// Fails the stream on a byte past `max`, so an out-of-range enum never
  /// reaches the caller.
  template <class E>
  void enum8(E& v, E max) {
    const std::uint8_t b = u8();
    if (b > static_cast<std::uint8_t>(max)) fail();
    if (ok_) v = static_cast<E>(b);
  }
  template <class T, class Walk>
  void optional(std::optional<T>& o, Walk&& walk) {
    o.reset();
    if (boolean()) walk(o.emplace());
  }

  /// Mark the stream as bad (a semantic validation failed downstream of the
  /// raw bounds checks).
  void fail() { ok_ = false; }

 private:
  bool take(std::uint64_t n) {
    if (!ok_ || n > len_ - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }
  /// Guards vector pre-allocation: an adversarially large length prefix must
  /// not drive a multi-gigabyte allocation before the bounds check trips.
  bool check_count(std::uint64_t n, std::uint64_t elem_size) {
    if (!ok_ || n > (len_ - pos_) / elem_size) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Reads all of `path` into *out. A file that cannot be opened or read
/// (ferror) is an error in *error, never a short file for the decoder.
inline bool read_whole_file(const std::string& path, std::vector<std::uint8_t>* out,
                            std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return false;
  }
  out->clear();
  std::uint8_t buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    out->insert(out->end(), buf, buf + got);
  }
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok && error != nullptr) *error = "cannot read '" + path + "'";
  return read_ok;
}

}  // namespace congos::replay
