#include "wire/envelope.h"

#include "wire/payload_codec.h"

namespace congos::wire {

namespace {

void set_error(std::string* error, const char* msg) {
  if (error != nullptr) *error = msg;
}

}  // namespace

bool encode_envelope(const sim::Envelope& e, Round round,
                     std::vector<std::uint8_t>* out) {
  out->clear();
  return encode_envelope_append(e, round, out);
}

namespace {

/// Encodes `p` into the memo's buffer unless it already holds p's bytes.
bool memoize_body(const sim::PayloadPtr& p, std::uint64_t body_size,
                  BodyEncodeMemo* memo) {
  if (memo->payload == p) return true;
  memo->payload.reset();
  memo->body.clear();
  WriteSink b(std::move(memo->body));
  const bool ok = encode_payload(b, *p) && b.ok() && b.data().size() == body_size;
  memo->body = b.take();
  if (ok) memo->payload = p;
  return ok;
}

}  // namespace

bool encode_envelope_append(const sim::Envelope& e, Round round,
                            std::vector<std::uint8_t>* out,
                            BodyEncodeMemo* memo) {
  const std::size_t start = out->size();
  WriteSink s(std::move(*out));
  FrameHeader h = make_frame_header(e, round);
  frame_header_fields(s, h);

  // The body-length prefix uses the memoized encoded_size() so the body can
  // be written directly after it with no intermediate buffer; the byte-count
  // check below keeps the two honest (test_wire pins their agreement).
  const std::uint64_t body_size = e.body ? e.body->encoded_size() : 0;
  s.varint(body_size);
  const std::size_t body_at = s.data().size();
  bool ok = true;
  if (e.body != nullptr && memo != nullptr) {
    ok = memoize_body(e.body, body_size, memo);
    if (ok) s.append(memo->body);
  } else if (e.body != nullptr) {
    ok = encode_payload(s, *e.body);
  }
  ok = ok && s.ok() && s.data().size() - body_at == body_size;
  if (!ok) {
    *out = s.take();
    out->resize(start);
    return false;
  }

  s.u64le(fnv1a(s.data().data() + start, s.data().size() - start));
  *out = s.take();
  return true;
}

bool decode_envelope(const std::uint8_t* data, std::size_t len,
                     DecodedEnvelope* out, std::string* error,
                     gossip::RumorDecodeMemo* memo) {
  if (len < kChecksumBytes + 1) {
    set_error(error, "frame too short");
    return false;
  }
  const std::size_t body_len = len - kChecksumBytes;
  std::uint64_t stored = 0;
  for (std::size_t b = 0; b < kChecksumBytes; ++b) {
    stored |= static_cast<std::uint64_t>(data[body_len + b]) << (8 * b);
  }
  if (fnv1a(data, body_len) != stored) {
    set_error(error, "checksum mismatch (truncated or corrupted frame)");
    return false;
  }

  ReadSink s(data, body_len);
  FrameHeader h;
  frame_header_fields(s, h);
  if (!s.ok()) {
    set_error(error, "malformed frame header");
    return false;
  }
  if (h.version != kWireFormatVersion) {
    set_error(error, "unsupported wire format version");
    return false;
  }
  if (h.payload_kind > static_cast<std::uint8_t>(sim::PayloadKind::kStrongAck)) {
    set_error(error, "unknown payload kind");
    return false;
  }
  if (h.service_kind > static_cast<std::uint8_t>(sim::ServiceKind::kOther)) {
    set_error(error, "unknown service kind");
    return false;
  }

  // Gossip gids are unique per service, so the memo files rumors under the
  // frame's (service kind, partition).
  s.set_rumor_memo(memo, (std::uint64_t{h.service_kind} << 32) | h.partition);

  std::uint64_t blen = 0;
  s.varint(blen);
  if (!s.ok() || blen != s.remaining()) {
    set_error(error, "body length mismatch");
    return false;
  }

  sim::PayloadPtr body;
  if (h.payload_kind == static_cast<std::uint8_t>(sim::PayloadKind::kOpaque)) {
    if (blen != 0) {
      set_error(error, "opaque frame with non-empty body");
      return false;
    }
  } else {
    const std::size_t body_start = s.pos();
    body = decode_payload(s, static_cast<sim::PayloadKind>(h.payload_kind));
    if (body == nullptr || !s.ok()) {
      set_error(error, "malformed payload body");
      return false;
    }
    if (s.pos() - body_start != blen) {
      set_error(error, "payload body under-consumed");
      return false;
    }
  }

  out->version = h.version;
  out->round = h.round;
  out->env.from = h.from;
  out->env.to = h.to;
  out->env.tag.kind = static_cast<sim::ServiceKind>(h.service_kind);
  out->env.tag.partition = h.partition;
  out->env.body = std::move(body);
  return true;
}

bool decode_envelope(const std::vector<std::uint8_t>& bytes, DecodedEnvelope* out,
                     std::string* error) {
  return decode_envelope(bytes.data(), bytes.size(), out, error);
}

}  // namespace congos::wire
