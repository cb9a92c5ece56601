// Envelope frame: the versioned, checksummed on-wire form of one
// sim::Envelope (DESIGN.md section 11).
//
// v1 layout (all multi-byte ints varint unless noted):
//
//   u8      format version (wire::kWireFormatVersion)
//   u8      payload kind   (sim::PayloadKind)
//   u8      service kind   (sim::ServiceKind)
//   varint  partition      (ServiceTag::partition)
//   varint  from
//   varint  to
//   zigzag  round          (send round; the simulator's clock)
//   varint  body length
//   ...     body           (the payload's wire_fields walk)
//   u64le   FNV-1a checksum over every preceding byte
//
// encoded_envelope_size() is header-only and allocation-free so
// sim::Network can account actual bytes per submit without linking the
// codec; encode/decode live in congos_wire.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/message.h"
#include "wire/wire.h"

namespace congos::wire {

inline constexpr std::size_t kChecksumBytes = 8;

/// The addressing header of a frame, decomposed so one walk template drives
/// encode, decode and size.
struct FrameHeader {
  std::uint8_t version = kWireFormatVersion;
  std::uint8_t payload_kind = 0;
  std::uint8_t service_kind = 0;
  PartitionIndex partition = 0;
  ProcessId from = kNoProcess;
  ProcessId to = kNoProcess;
  Round round = 0;
};

template <class S, SameBase<FrameHeader> H>
void frame_header_fields(S& s, H& h) {
  s.u8(h.version);
  s.u8(h.payload_kind);
  s.u8(h.service_kind);
  s.varint32(h.partition);
  s.varint32(h.from);
  s.varint32(h.to);
  s.zigzag(h.round);
}

inline FrameHeader make_frame_header(const sim::Envelope& e, Round round) {
  FrameHeader h;
  h.payload_kind = static_cast<std::uint8_t>(
      e.body ? e.body->kind() : sim::PayloadKind::kOpaque);
  h.service_kind = static_cast<std::uint8_t>(e.tag.kind);
  h.partition = e.tag.partition;
  h.from = e.from;
  h.to = e.to;
  h.round = round;
  return h;
}

/// Exact serialized size of the v1 frame for `e` sent in `round`: what
/// encode_envelope() would produce. Allocation-free (SizeSink + the
/// payloads' memoized encoded_size()), which is what lets Network::submit
/// account actual bytes inside the zero-alloc steady-state round.
inline std::uint64_t encoded_envelope_size(const sim::Envelope& e, Round round) {
  SizeSink s;
  FrameHeader h = make_frame_header(e, round);
  frame_header_fields(s, h);
  const std::uint64_t body = e.body ? e.body->encoded_size() : 0;
  s.varint(body);
  return s.size() + body + kChecksumBytes;
}

struct DecodedEnvelope {
  sim::Envelope env;
  Round round = 0;
  std::uint8_t version = 0;
};

/// The encoded body of the last payload encode_envelope_append() wrote
/// with this memo. One gossip batch goes to every push target of a round,
/// so a send phase encodes each shared body once and copies it into the
/// other frames; header, body-length varint and checksum stay per frame.
/// The memo holds a reference to its payload: payload pools recycle
/// objects inside a phase, and only the held reference keeps a new payload
/// from reusing the address of the memoized one. Call release() when the
/// phase ends so the pool can recycle it; the buffer keeps its capacity.
struct BodyEncodeMemo {
  sim::PayloadPtr payload;
  std::vector<std::uint8_t> body;

  void release() { payload.reset(); }
};

/// Serializes one envelope. Returns false (out untouched beyond clearing)
/// for bodies the codec cannot express (kOpaque test doubles).
bool encode_envelope(const sim::Envelope& e, Round round,
                     std::vector<std::uint8_t>* out);

/// Appends the frame to `out` in place — no temporary buffers, so once
/// `out` (and the memo's buffer, when given) has warm capacity the encode
/// allocates nothing (the datagram fast path encodes straight into a
/// pooled buffer; tests/test_net_alloc.cpp pins this). With a memo, a body
/// equal to the memoized payload is copied instead of re-encoded; the
/// bytes are the same either way. On failure `out` is restored to its
/// original size.
bool encode_envelope_append(const sim::Envelope& e, Round round,
                            std::vector<std::uint8_t>* out,
                            BodyEncodeMemo* memo = nullptr);

/// Parses bytes produced by encode_envelope(). Rejects bad checksums,
/// unknown versions, out-of-range enum tags, body under/overruns and
/// trailing garbage; `error` (when non-null) describes the first problem.
/// With a `memo`, gossip rumor records already seen are taken from it
/// (gossip::RumorDecodeMemo; the result is the same as without), after the
/// checksum has been verified.
bool decode_envelope(const std::uint8_t* data, std::size_t len,
                     DecodedEnvelope* out, std::string* error = nullptr,
                     gossip::RumorDecodeMemo* memo = nullptr);
bool decode_envelope(const std::vector<std::uint8_t>& bytes, DecodedEnvelope* out,
                     std::string* error = nullptr);

}  // namespace congos::wire
