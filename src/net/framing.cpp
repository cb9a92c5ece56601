#include "net/framing.h"

#include "wire/compress.h"
#include "wire/envelope.h"
#include "wire/wire.h"

namespace congos::net {

bool append_frame(const sim::Envelope& e, Round round,
                  std::vector<std::uint8_t>* datagram,
                  wire::BodyEncodeMemo* memo) {
  // Size first (allocation-free), then encode straight into the datagram:
  // no temporary frame buffer, no second copy.
  const std::uint64_t frame_size = wire::encoded_envelope_size(e, round);
  if (frame_size + wire::varint_size(frame_size) > kMaxDatagramBytes) {
    return false;
  }
  const std::size_t start = datagram->size();
  std::uint64_t v = frame_size;
  while (v >= 0x80) {
    datagram->push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  datagram->push_back(static_cast<std::uint8_t>(v));
  if (!wire::encode_envelope_append(e, round, datagram, memo) ||
      datagram->size() - start !=
          frame_size + wire::varint_size(frame_size)) {
    datagram->resize(start);
    return false;
  }
  return true;
}

bool compress_datagram(std::vector<std::uint8_t>* bytes,
                       std::vector<std::uint8_t>* scratch) {
  const std::size_t raw = bytes->size();
  if (raw < kCompressMinBytes || raw > kMaxDatagramBytes ||
      !wire::lz4_available()) {
    return false;
  }
  const std::size_t bound = wire::lz4_compress_bound(raw);
  if (bound == 0) return false;
  const std::size_t header = 1 + wire::varint_size(raw);
  scratch->resize(header + bound);
  (*scratch)[0] = kCompressedDatagramMarker;
  std::size_t pos = 1;
  std::uint64_t v = raw;
  while (v >= 0x80) {
    (*scratch)[pos++] = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  (*scratch)[pos++] = static_cast<std::uint8_t>(v);
  const std::size_t written =
      wire::lz4_compress_raw(bytes->data(), raw, scratch->data() + header,
                             bound);
  // Only ship the container when it actually saves bytes on the wire.
  if (written == 0 || header + written >= raw) return false;
  scratch->resize(header + written);
  bytes->swap(*scratch);
  return true;
}

DatagramKind unwrap_datagram(std::span<const std::uint8_t> in,
                             std::vector<std::uint8_t>* scratch,
                             std::span<const std::uint8_t>* frames) {
  if (in.empty() || in[0] != kCompressedDatagramMarker) {
    *frames = in;
    return DatagramKind::kPlain;
  }
  wire::ReadSink s(in.data() + 1, in.size() - 1);
  std::uint64_t raw = 0;
  s.varint(raw);
  // The raw-length bound caps decompression work: a hostile container can
  // never make the receiver materialize more than one datagram's worth.
  if (!s.ok() || raw == 0 || raw > kMaxDatagramBytes) {
    return DatagramKind::kMalformed;
  }
  if (!wire::lz4_available()) return DatagramKind::kUnsupported;
  const std::size_t off = 1 + s.pos();
  scratch->resize(static_cast<std::size_t>(raw));
  if (!wire::lz4_decompress_raw(in.data() + off, in.size() - off,
                                scratch->data(),
                                static_cast<std::size_t>(raw))) {
    return DatagramKind::kMalformed;
  }
  *frames = std::span<const std::uint8_t>(*scratch);
  return DatagramKind::kDecompressed;
}

FrameSplitter::Status FrameSplitter::next(std::span<const std::uint8_t>* out) {
  if (pos_ == data_.size()) return Status::kDone;
  wire::ReadSink prefix(data_.data() + pos_, data_.size() - pos_);
  std::uint64_t len = 0;
  prefix.varint(len);
  if (!prefix.ok()) {
    // Distinguish "bytes ran out mid-prefix" (every remaining byte has its
    // continuation bit set) from a malformed prefix (non-minimal varint or
    // 64-bit overflow, which ReadSink also latches as failure).
    bool all_continuation = true;
    for (std::size_t i = pos_; i < data_.size(); ++i) {
      if ((data_[i] & 0x80) == 0) {
        all_continuation = false;
        break;
      }
    }
    return (all_continuation && data_.size() - pos_ < 10) ? Status::kTruncated
                                                          : Status::kMalformed;
  }
  // A zero-length frame cannot be honest (every envelope frame has a header
  // and checksum); rejecting it is also what frees the zero byte to mark
  // the compressed container (see header comment).
  if (len == 0) return Status::kMalformed;
  const std::size_t body_at = pos_ + prefix.pos();
  if (len > data_.size() - body_at) return Status::kTruncated;
  if (out != nullptr) {
    *out = data_.subspan(body_at, static_cast<std::size_t>(len));
  }
  pos_ = body_at + static_cast<std::size_t>(len);
  return Status::kFrame;
}

}  // namespace congos::net
