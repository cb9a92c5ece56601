// Datagram framing: how envelope frames (wire/envelope.h) ride inside UDP
// datagrams (DESIGN.md section 13).
//
// A datagram carries one or more length-prefixed frames:
//
//   varint  frame length L        (L >= 1; a zero length is malformed)
//   L bytes one v1 envelope frame (wire::encode_envelope output)
//   ... repeated ...
//
// The length prefix makes coalescing trivial (a send phase packs all
// envelopes for one peer into as few datagrams as fit) and makes partial
// data detectable: a reader that runs out of bytes mid-frame reports
// kTruncated instead of feeding a cut-off frame to the envelope decoder.
// The envelope checksum then guards the frame contents themselves.
//
// Because a legal frame sequence can never start with a zero byte (the
// varint prefix of a length >= 1 always has a non-zero first byte), the
// zero byte doubles as the marker of the optional compressed container:
//
//   u8      0x00 (kCompressedDatagramMarker)
//   varint  raw length R of the plain frame sequence (1..kMaxDatagramBytes)
//   ...     LZ4 block of the plain frame sequence
//
// Compression is a per-datagram property — a receiver accepts plain and
// compressed datagrams interchangeably, so compressing and non-compressing
// peers interoperate without negotiation. A receiver without LZ4
// (wire::lz4_available() false) reports kUnsupported and drops the
// datagram, which the runtime counts and flags as unhealthy.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/datagram.h"
#include "sim/message.h"

namespace congos::wire {
struct BodyEncodeMemo;  // wire/envelope.h
}  // namespace congos::wire

namespace congos::net {

/// Hard ceiling on one datagram: IPv4 localhost allows ~65507 payload
/// bytes; leave margin for stacks with smaller SO_SNDBUF defaults.
inline constexpr std::size_t kMaxDatagramBytes = 60000;

/// Soft coalescing budget: the builder starts a new datagram once the
/// current one would exceed this. Chosen to fit a typical localhost MTU
/// without fragmentation; a single frame larger than the budget still gets
/// its own (possibly fragmented) datagram up to kMaxDatagramBytes.
inline constexpr std::size_t kDatagramBudget = 1400;

/// First byte of the compressed-datagram container (see header comment for
/// why 0x00 can never begin a plain frame sequence).
inline constexpr std::uint8_t kCompressedDatagramMarker = 0x00;

/// Datagrams smaller than this skip compression: the syscall dominates and
/// LZ4 rarely wins on a lone small frame.
inline constexpr std::size_t kCompressMinBytes = 96;

/// Appends one length-prefixed envelope frame to `datagram`. Returns false
/// (datagram untouched) when the codec cannot express the body (kOpaque)
/// or the frame would exceed kMaxDatagramBytes on its own. Encodes in
/// place: with warm capacity this allocates nothing. `memo` (optional)
/// reuses the encoded body of a payload shared by consecutive frames
/// (wire::encode_envelope_append).
bool append_frame(const sim::Envelope& e, Round round,
                  std::vector<std::uint8_t>* datagram,
                  wire::BodyEncodeMemo* memo = nullptr);

/// Replaces `*bytes` with its compressed container when that is both
/// possible (LZ4 available, input large enough) and beneficial (container
/// strictly smaller than the plain bytes). Returns true when `*bytes` now
/// holds the container; on false `*bytes` is unchanged and ships plain.
/// `scratch` provides the working buffer (capacity retained across calls).
bool compress_datagram(std::vector<std::uint8_t>* bytes,
                       std::vector<std::uint8_t>* scratch);

/// Result of unwrapping a received datagram before frame splitting.
enum class DatagramKind : std::uint8_t {
  kPlain,         // *frames aliases the input
  kDecompressed,  // *frames aliases *scratch, which holds the plain bytes
  kUnsupported,   // compressed container but LZ4 is unavailable here
  kMalformed,     // bad container header, oversize raw length, or the
                  // block fails to decode to exactly the declared length
};

/// Peels the optional compressed container off a received datagram; on
/// kPlain/kDecompressed, *frames is the plain frame sequence to split.
DatagramKind unwrap_datagram(std::span<const std::uint8_t> in,
                             std::vector<std::uint8_t>* scratch,
                             std::span<const std::uint8_t>* frames);

/// Walks the frames of a received (plain) datagram.
class FrameSplitter {
 public:
  enum class Status : std::uint8_t {
    kFrame,      // *out holds the next complete frame
    kDone,       // clean end of datagram
    kTruncated,  // bytes end mid-prefix or mid-frame
    kMalformed,  // length prefix is zero, not a minimal varint, or overflows
  };

  explicit FrameSplitter(std::span<const std::uint8_t> datagram)
      : data_(datagram) {}

  Status next(std::span<const std::uint8_t>* out);

  std::size_t pos() const { return pos_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Per-peer coalescing writer for one send phase: frames accumulate into a
/// pooled datagram buffer until the soft budget is hit, then the buffer's
/// handle is passed to the flush callback (which may keep it — the
/// transport queues handles, not copies) and a fresh buffer is acquired.
/// With the pool warm, a steady-state send phase allocates nothing
/// (tests/test_net_alloc.cpp pins this).
class DatagramBuilder {
 public:
  /// `pool` (not owned) supplies every buffer; it must outlive the builder.
  explicit DatagramBuilder(DatagramPool& pool) : pool_(&pool) {}

  /// Appends a frame, flushing through `flush(DatagramHandle)` when the
  /// budget forces a new datagram. Returns false when the frame is
  /// unencodable. `memo` as in append_frame().
  template <class Flush>
  bool add(const sim::Envelope& e, Round round, Flush&& flush,
           wire::BodyEncodeMemo* memo = nullptr) {
    if (buf_ == nullptr) buf_ = pool_->acquire();
    std::vector<std::uint8_t>& bytes = buf_->bytes;
    const std::size_t before = bytes.size();
    if (!append_frame(e, round, &bytes, memo)) return false;
    if (before > 0 && bytes.size() > kDatagramBudget) {
      // The new frame tipped a non-empty datagram over the budget: ship the
      // old frames alone and carry the new frame into a fresh buffer.
      DatagramHandle next = pool_->acquire();
      next->bytes.assign(bytes.begin() + static_cast<std::ptrdiff_t>(before),
                         bytes.end());
      bytes.resize(before);
      flush(std::move(buf_));
      buf_ = std::move(next);
    }
    return true;
  }

  /// Ships the final partial datagram of the phase, if any.
  template <class Flush>
  void finish(Flush&& flush) {
    if (buf_ != nullptr && !buf_->bytes.empty()) {
      flush(std::move(buf_));
    }
    buf_.reset();
  }

  bool empty() const { return buf_ == nullptr || buf_->bytes.empty(); }

 private:
  DatagramPool* pool_;
  DatagramHandle buf_;
};

}  // namespace congos::net
