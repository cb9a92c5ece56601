// Versioned binary wire codec: sink primitives (ROADMAP item 3, DESIGN.md
// section 11).
//
// Three sinks share one interface so a single field-walk template per payload
// type drives encoding, decoding AND size accounting — the three can never
// drift apart, which is the whole point of replacing the hand-maintained
// wire_size() estimates:
//
//   * WriteSink  appends to a byte buffer (encode),
//   * SizeSink   counts bytes without touching memory (encoded_size(); it is
//                stack-only, which is what keeps the per-round byte
//                accounting allocation-free, see tests/test_alloc.cpp),
//   * ReadSink   parses with bounds checks and a latching error flag, same
//                discipline as replay::ByteReader (decode).
//
// A walk is a free function template found by ADL next to its payload type:
//
//   template <class S, wire::SameBase<Foo> F>
//   void wire_fields(S& s, F& f) { s.varint32(f.id); s.bytes(f.data); ... }
//
// `if constexpr (S::kReading)` guards read-only logic (delta reconstruction,
// meta inheritance). Integers are LEB128 varints (zigzag for signed), byte
// strings are length-prefixed, bitsets are bit-count + packed LSB-first
// bytes. Encodings are canonical: ReadSink rejects non-minimal varints and
// set padding bits, so decode(encode(x)) == x implies re-encode is
// byte-identical.
//
// This header depends only on src/common so the sim layer can use SizeSink
// without a dependency cycle (sim::Payload is the codec's subject).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/bitset.h"
#include "common/fnv.h"

namespace congos::gossip {
class RumorDecodeMemo;  // gossip/continuous_gossip.h; only ever pointed to
}  // namespace congos::gossip

namespace congos::wire {

/// Format version stamped into every envelope frame (and optionally into
/// .repro artifacts and bench metadata). Bump on ANY layout change and keep
/// decoders for old versions; the golden byte-layout test pins v1.
inline constexpr std::uint8_t kWireFormatVersion = 1;

/// Constrains the payload parameter of a field walk: accepts T and const T,
/// so one template serves WriteSink/SizeSink (const payload) and ReadSink
/// (mutable payload).
template <class T, class U>
concept SameBase = std::is_same_v<std::remove_const_t<T>, U>;

inline constexpr std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline constexpr std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (0 - (v & 1)));
}

inline constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

class WriteSink {
 public:
  static constexpr bool kReading = false;

  WriteSink() = default;
  /// Adopts `buf` and appends to it; take() returns it, prior content
  /// intact. This is what lets the datagram fast path encode frames
  /// directly into a pooled buffer instead of through a temporary.
  explicit WriteSink(std::vector<std::uint8_t> buf) : buf_(std::move(buf)) {}

  bool ok() const { return ok_; }
  /// Marks the encode as failed (e.g. a nested payload the codec cannot
  /// serialize). The buffer content is unspecified afterwards.
  void fail() { ok_ = false; }

  void u8(std::uint8_t v) { buf_.push_back(v); }

  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void varint32(std::uint32_t v) { varint(v); }
  void zigzag(std::int64_t v) { varint(zigzag_encode(v)); }

  /// Fixed-width little-endian u64 (checksums only; everything else is a
  /// varint).
  void u64le(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }

  void bytes(const std::vector<std::uint8_t>& v) {
    varint(v.size());
    buf_.insert(buf_.end(), v.begin(), v.end());
  }

  /// Bit-count then packed LSB-first bytes; padding bits in the last byte
  /// are zero (ReadSink enforces this).
  void bitset(const DynamicBitset& b) {
    varint(b.size());
    const std::size_t nbytes = b.byte_size();
    for (std::size_t i = 0; i < nbytes; ++i) {
      std::uint8_t acc = 0;
      const std::size_t base = i * 8;
      for (std::size_t j = 0; j < 8 && base + j < b.size(); ++j) {
        if (b.test(base + j)) acc |= static_cast<std::uint8_t>(1u << j);
      }
      buf_.push_back(acc);
    }
  }

  /// Element count of a sequence; the walk loops the elements itself.
  template <class V>
  void seq(const V& v) {
    varint(v.size());
  }

  /// Nested payload: one kind byte, then the body fields. Defined via the
  /// hook declared in sim/message.h (wire_encode_nested, found by ADL) so
  /// this header never sees concrete payload types.
  template <class P>
  void nested(const std::shared_ptr<P>& p) {
    wire_encode_nested(*this, p);
  }

  void append(const std::vector<std::uint8_t>& v) {
    buf_.insert(buf_.end(), v.begin(), v.end());
  }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
  bool ok_ = true;
};

/// Counts the bytes WriteSink would produce, without writing them. Holds no
/// heap state: encoded_size() on the hot accounting path allocates nothing.
class SizeSink {
 public:
  static constexpr bool kReading = false;

  bool ok() const { return ok_; }
  void fail() { ok_ = false; }

  void u8(std::uint8_t) { ++size_; }
  void varint(std::uint64_t v) { size_ += varint_size(v); }
  void varint32(std::uint32_t v) { varint(v); }
  void zigzag(std::int64_t v) { varint(zigzag_encode(v)); }
  void u64le(std::uint64_t) { size_ += 8; }

  void bytes(const std::vector<std::uint8_t>& v) {
    size_ += varint_size(v.size()) + v.size();
  }

  void bitset(const DynamicBitset& b) {
    size_ += varint_size(b.size()) + b.byte_size();
  }

  template <class V>
  void seq(const V& v) {
    varint(v.size());
  }

  /// Kind byte plus the body's own (virtual, memoized where hot) size; must
  /// match WriteSink::nested byte for byte — test_wire pins the agreement.
  template <class P>
  void nested(const std::shared_ptr<P>& p) {
    size_ += 1 + (p ? p->encoded_size() : 0);
  }

  std::uint64_t size() const { return size_; }

 private:
  std::uint64_t size_ = 0;
  bool ok_ = true;
};

/// Memoized size of a payload that is filled once and never mutated after
/// its first size query (the nested gossip bodies, which one batch after
/// another re-carries). The size is a pure function of immutable fields, so
/// a relaxed atomic is enough: threads racing on the first query compute and
/// store the same value. A copy is a new payload and measures itself afresh.
class SizeMemo {
 public:
  SizeMemo() = default;
  SizeMemo(const SizeMemo&) noexcept {}
  SizeMemo& operator=(const SizeMemo&) noexcept {
    value_.store(kUnset, std::memory_order_relaxed);
    return *this;
  }

  template <class Measure>
  std::uint64_t get(Measure&& measure) const {
    std::uint64_t v = value_.load(std::memory_order_relaxed);
    if (v == kUnset) {
      v = measure();
      value_.store(v, std::memory_order_relaxed);
    }
    return v;
  }

 private:
  static constexpr std::uint64_t kUnset = ~std::uint64_t{0};
  mutable std::atomic<std::uint64_t> value_{kUnset};
};

class ReadSink {
 public:
  static constexpr bool kReading = true;

  ReadSink(const std::uint8_t* data, std::size_t len) : data_(data), len_(len) {}
  explicit ReadSink(const std::vector<std::uint8_t>& v)
      : ReadSink(v.data(), v.size()) {}

  bool ok() const { return ok_; }
  void fail() { ok_ = false; }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return ok_ ? len_ - pos_ : 0; }
  /// The unread bytes start here; valid for remaining() bytes.
  const std::uint8_t* cursor() const { return data_ + pos_; }
  /// Consumes n bytes unread (fails the sink when fewer remain).
  void skip(std::size_t n) {
    if (n > remaining()) {
      fail();
      return;
    }
    pos_ += n;
  }

  /// Optional decode memo consulted by the GossipMsg walk (null = plain
  /// decode, the default), and the scope its entries are filed under (the
  /// frame's service: gids are unique only within one). It never changes
  /// what a decode yields.
  void set_rumor_memo(gossip::RumorDecodeMemo* memo, std::uint64_t scope) {
    rumor_memo_ = memo;
    rumor_memo_scope_ = scope;
  }
  gossip::RumorDecodeMemo* rumor_memo() const { return rumor_memo_; }
  std::uint64_t rumor_memo_scope() const { return rumor_memo_scope_; }

  void u8(std::uint8_t& v) {
    if (!ok_ || pos_ >= len_) {
      fail();
      v = 0;
      return;
    }
    v = data_[pos_++];
  }

  void varint(std::uint64_t& out) {
    out = 0;
    int shift = 0;
    for (int i = 0; i < 10; ++i) {
      std::uint8_t b = 0;
      u8(b);
      if (!ok_) return;
      if (shift == 63 && (b & 0xFE) != 0) {  // would overflow 64 bits
        fail();
        return;
      }
      out |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        if (b == 0 && i > 0) fail();  // non-minimal encoding
        return;
      }
      shift += 7;
    }
    fail();  // continuation bit on the 10th byte
  }

  void varint32(std::uint32_t& out) {
    std::uint64_t v = 0;
    varint(v);
    if (v > 0xFFFFFFFFull) fail();
    out = ok_ ? static_cast<std::uint32_t>(v) : 0;
  }

  void zigzag(std::int64_t& out) {
    std::uint64_t v = 0;
    varint(v);
    out = ok_ ? zigzag_decode(v) : 0;
  }

  void u64le(std::uint64_t& out) {
    out = 0;
    if (!ok_ || len_ - pos_ < 8) {
      fail();
      return;
    }
    for (int b = 0; b < 8; ++b) {
      out |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(b)])
             << (8 * b);
    }
    pos_ += 8;
  }

  void bytes(std::vector<std::uint8_t>& v) {
    std::uint64_t n = 0;
    varint(n);
    if (!ok_ || n > remaining()) {
      fail();
      return;
    }
    v.assign(data_ + pos_, data_ + pos_ + n);
    pos_ += static_cast<std::size_t>(n);
  }

  void bitset(DynamicBitset& b) {
    std::uint64_t nbits = 0;
    varint(nbits);
    if (!ok_) return;
    const std::uint64_t nbytes = (nbits + 7) / 8;
    if (nbytes > remaining()) {
      fail();
      return;
    }
    b = DynamicBitset(static_cast<std::size_t>(nbits));
    for (std::uint64_t i = 0; i < nbytes; ++i) {
      const std::uint8_t byte = data_[pos_ + i];
      for (std::size_t j = 0; j < 8; ++j) {
        const std::uint64_t idx = i * 8 + j;
        if ((byte >> j) & 1u) {
          if (idx >= nbits) {  // set padding bit: non-canonical
            fail();
            return;
          }
          b.set(static_cast<std::size_t>(idx));
        }
      }
    }
    pos_ += static_cast<std::size_t>(nbytes);
  }

  /// Reads a count and resizes `v`; the walk then decodes each element.
  /// Guard: every element of every v1 sequence occupies at least one byte,
  /// so a count beyond remaining() cannot be honest — reject before
  /// allocating (same check_count discipline as replay::ByteReader).
  template <class V>
  void seq(V& v) {
    std::uint64_t n = 0;
    varint(n);
    if (!ok_ || n > remaining()) {
      fail();
      v.clear();
      return;
    }
    v.resize(static_cast<std::size_t>(n));
  }

  template <class P>
  void nested(std::shared_ptr<P>& p) {
    wire_decode_nested(*this, p);
  }

 private:
  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  gossip::RumorDecodeMemo* rumor_memo_ = nullptr;
  std::uint64_t rumor_memo_scope_ = 0;
};

}  // namespace congos::wire
