// Wire codec tests (DESIGN.md section 11): per-kind round-trips over
// randomized contents, the golden v1 byte-layout pin, rejection of
// truncated/corrupted frames, the compression claims (delta gids, batched
// fragment framing) and a bounded decode fuzz (CI runs it under ASan/UBSan
// with CONGOS_WIRE_FUZZ_ITERS raised).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/baseline_payload.h"
#include "common/pool.h"
#include "common/rng.h"
#include "congos/fragment.h"
#include "gossip/continuous_gossip.h"
#include "net/framing.h"
#include "wire/compress.h"
#include "wire/envelope.h"
#include "wire/payload_codec.h"
#include "wire/wire.h"
#include "test_util.h"

namespace congos {
namespace {

using testutil::fuzz_iters;

DynamicBitset rand_bits(Rng& rng, std::size_t n) {
  DynamicBitset b(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.chance(0.3)) b.set(i);
  }
  return b;
}

std::vector<std::uint8_t> rand_data(Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> v(rng.next_below(max_len + 1));
  if (!v.empty()) rng.fill_bytes(v.data(), v.size());
  return v;
}

sim::Rumor rand_rumor(Rng& rng) {
  sim::Rumor r;
  r.uid.source = static_cast<ProcessId>(rng.next_below(1000));
  r.uid.seq = rng.next_below(1u << 20);
  r.deadline = static_cast<Round>(rng.next_below(512));
  r.injected_at = static_cast<Round>(rng.next_below(4096));
  r.dest = rand_bits(rng, 16 + rng.next_below(120));
  r.data = rand_data(rng, 64);
  return r;
}

std::shared_ptr<core::Fragment> rand_fragment(Rng& rng) {
  auto f = std::make_shared<core::Fragment>();
  f->meta.key.rumor = RumorUid{static_cast<ProcessId>(rng.next_below(1000)),
                               rng.next_below(1u << 20)};
  f->meta.key.partition = static_cast<PartitionIndex>(rng.next_below(8));
  f->meta.key.group = static_cast<GroupIndex>(rng.next_below(4));
  f->meta.dest = rand_bits(rng, 16 + rng.next_below(120));
  f->meta.expires_at = static_cast<Round>(rng.next_below(4096));
  f->meta.dline = static_cast<Round>(1 << rng.next_below(8));
  f->meta.num_groups = static_cast<GroupIndex>(2 + rng.next_below(3));
  f->data = rand_data(rng, 48);
  return f;
}

gossip::GossipRumor rand_gossip_rumor(Rng& rng, std::uint64_t gid) {
  gossip::GossipRumor r;
  r.gid = gid;
  r.origin = static_cast<ProcessId>(rng.next_below(1000));
  r.deadline_at = static_cast<Round>(rng.next_below(4096));
  r.dest = rand_bits(rng, 16 + rng.next_below(120));
  if (rng.chance(0.6)) {
    auto body = std::make_shared<core::FragmentBody>();
    body->fragment = rand_fragment(rng);
    r.body = body;
  }
  return r;
}

core::Hit rand_hit(Rng& rng) {
  core::Hit h;
  h.target = static_cast<ProcessId>(rng.next_below(1000));
  h.rumor = RumorUid{static_cast<ProcessId>(rng.next_below(1000)),
                     rng.next_below(1u << 20)};
  return h;
}

/// Random payload of the given kind (never kOpaque).
sim::PayloadPtr rand_payload(Rng& rng, sim::PayloadKind kind) {
  using sim::PayloadKind;
  switch (kind) {
    case PayloadKind::kOpaque:
      break;
    case PayloadKind::kGossipMsg: {
      auto p = std::make_shared<gossip::GossipMsg>();
      std::uint64_t gid = rng.next_below(1u << 20);
      const std::size_t k = rng.next_below(5);
      for (std::size_t i = 0; i < k; ++i) {
        p->rumors.push_back(gossip::make_entry(rand_gossip_rumor(rng, gid)));
        gid += 1 + rng.next_below(10);
      }
      return p;
    }
    case PayloadKind::kGossipAck: {
      auto p = std::make_shared<gossip::GossipAck>();
      // arbitrary order on purpose: ack deltas are zigzag-signed
      const std::size_t k = rng.next_below(8);
      for (std::size_t i = 0; i < k; ++i) p->gids.push_back(rng.next_below(1u << 24));
      return p;
    }
    case PayloadKind::kGossipPull:
      return std::make_shared<gossip::GossipPull>();
    case PayloadKind::kProxyRequest: {
      auto p = std::make_shared<core::ProxyRequestPayload>();
      p->dline = static_cast<Round>(1 << rng.next_below(8));
      const std::size_t k = rng.next_below(4);
      for (std::size_t i = 0; i < k; ++i) p->fragments.push_back(rand_fragment(rng));
      return p;
    }
    case PayloadKind::kProxyAck: {
      auto p = std::make_shared<core::ProxyAckPayload>();
      p->dline = static_cast<Round>(1 << rng.next_below(8));
      return p;
    }
    case PayloadKind::kPartials: {
      auto p = std::make_shared<core::PartialsPayload>();
      p->dline = static_cast<Round>(1 << rng.next_below(8));
      const std::size_t k = rng.next_below(4);
      for (std::size_t i = 0; i < k; ++i) p->fragments.push_back(rand_fragment(rng));
      return p;
    }
    case PayloadKind::kDirectRumor: {
      auto p = std::make_shared<core::DirectRumorPayload>();
      p->rumor = rand_rumor(rng);
      return p;
    }
    case PayloadKind::kPartialsAck: {
      auto p = std::make_shared<core::PartialsAckPayload>();
      p->dline = static_cast<Round>(1 << rng.next_below(8));
      return p;
    }
    case PayloadKind::kDirectAck: {
      auto p = std::make_shared<core::DirectAckPayload>();
      p->rumor = RumorUid{static_cast<ProcessId>(rng.next_below(1000)),
                          rng.next_below(1u << 20)};
      return p;
    }
    case PayloadKind::kFragment: {
      auto p = std::make_shared<core::FragmentBody>();
      p->fragment = rand_fragment(rng);
      return p;
    }
    case PayloadKind::kProxyShare: {
      auto p = std::make_shared<core::ProxyShareBody>();
      p->dline = static_cast<Round>(1 << rng.next_below(8));
      p->block = rng.next_below(16);
      p->from = static_cast<ProcessId>(rng.next_below(1000));
      const std::size_t k = rng.next_below(3);
      for (std::size_t i = 0; i < k; ++i) p->proxied.push_back(rand_fragment(rng));
      const std::size_t m = rng.next_below(4);
      for (std::size_t i = 0; i < m; ++i) {
        p->failed_proxies.push_back(static_cast<ProcessId>(rng.next_below(1000)));
      }
      return p;
    }
    case PayloadKind::kHitSetShare: {
      auto p = std::make_shared<core::HitSetShareBody>();
      p->dline = static_cast<Round>(1 << rng.next_below(8));
      p->block = rng.next_below(16);
      p->from = static_cast<ProcessId>(rng.next_below(1000));
      const std::size_t k = rng.next_below(6);
      for (std::size_t i = 0; i < k; ++i) p->hits.push_back(rand_hit(rng));
      return p;
    }
    case PayloadKind::kDistributionReport: {
      auto p = std::make_shared<core::DistributionReportBody>();
      p->reporter = static_cast<ProcessId>(rng.next_below(1000));
      p->partition = static_cast<PartitionIndex>(rng.next_below(8));
      p->group = static_cast<GroupIndex>(rng.next_below(4));
      p->dline = static_cast<Round>(1 << rng.next_below(8));
      const std::size_t k = rng.next_below(6);
      for (std::size_t i = 0; i < k; ++i) p->hits.push_back(rand_hit(rng));
      return p;
    }
    case PayloadKind::kBaselineRumor: {
      auto p = std::make_shared<baseline::BaselineRumorPayload>();
      p->rumor = rand_rumor(rng);
      return p;
    }
    case PayloadKind::kBaselineBatch: {
      auto p = std::make_shared<baseline::BaselineBatchPayload>();
      const std::size_t k = rng.next_below(4);
      for (std::size_t i = 0; i < k; ++i) p->rumors.push_back(rand_rumor(rng));
      return p;
    }
    case PayloadKind::kStrongAck: {
      auto p = std::make_shared<baseline::StrongAckPayload>();
      const std::size_t k = rng.next_below(6);
      for (std::size_t i = 0; i < k; ++i) {
        p->uids.push_back(RumorUid{static_cast<ProcessId>(rng.next_below(1000)),
                                   rng.next_below(1u << 20)});
      }
      return p;
    }
  }
  return nullptr;
}

sim::Envelope rand_envelope(Rng& rng, sim::PayloadPtr body) {
  sim::Envelope e;
  e.from = static_cast<ProcessId>(rng.next_below(1u << 16));
  e.to = static_cast<ProcessId>(rng.next_below(1u << 16));
  e.tag.kind = static_cast<sim::ServiceKind>(
      rng.next_below(static_cast<std::uint64_t>(sim::ServiceKind::kOther) + 1));
  e.tag.partition = static_cast<PartitionIndex>(rng.next_below(8));
  e.body = std::move(body);
  return e;
}

/// Encode, size-check, decode, re-encode: canonical encodings make the
/// re-encode byte-identical, which subsumes field-by-field equality.
void expect_roundtrip(const sim::Envelope& e, Round round) {
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(wire::encode_envelope(e, round, &bytes));
  EXPECT_EQ(bytes.size(), wire::encoded_envelope_size(e, round));
  wire::DecodedEnvelope d;
  std::string err;
  ASSERT_TRUE(wire::decode_envelope(bytes, &d, &err)) << err;
  EXPECT_EQ(d.version, wire::kWireFormatVersion);
  EXPECT_EQ(d.round, round);
  EXPECT_EQ(d.env.from, e.from);
  EXPECT_EQ(d.env.to, e.to);
  EXPECT_TRUE(d.env.tag == e.tag);
  EXPECT_EQ(e.body == nullptr, d.env.body == nullptr);
  if (e.body != nullptr && d.env.body != nullptr) {
    EXPECT_EQ(d.env.body->kind(), e.body->kind());
    EXPECT_EQ(d.env.body->encoded_size(), e.body->encoded_size());
  }
  std::vector<std::uint8_t> again;
  ASSERT_TRUE(wire::encode_envelope(d.env, d.round, &again));
  EXPECT_EQ(bytes, again);
}

/// Overwrites byte `i` and repairs the trailing checksum, so decode reaches
/// the structural validators instead of stopping at the checksum.
std::vector<std::uint8_t> patched(std::vector<std::uint8_t> bytes, std::size_t i,
                                  std::uint8_t value) {
  bytes[i] = value;
  const std::size_t n = bytes.size() - wire::kChecksumBytes;
  const std::uint64_t h = fnv1a(bytes.data(), n);
  for (std::size_t b = 0; b < wire::kChecksumBytes; ++b) {
    bytes[n + b] = static_cast<std::uint8_t>(h >> (8 * b));
  }
  return bytes;
}

// -- sink primitives --------------------------------------------------------

TEST(WireSinks, VarintRoundTrip) {
  const std::uint64_t cases[] = {0,      1,        127,        128,
                                 16383,  16384,    0xFFFFFFFF, 1ull << 62,
                                 ~0ull,  0x80,     300,        (1ull << 56) - 1};
  for (std::uint64_t v : cases) {
    wire::WriteSink w;
    w.varint(v);
    EXPECT_EQ(w.data().size(), wire::varint_size(v));
    wire::ReadSink r(w.data());
    std::uint64_t out = 0;
    r.varint(out);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(out, v);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(WireSinks, ZigzagRoundTrip) {
  const std::int64_t cases[] = {0,  -1, 1, -2, 63, -64, kNoRound,
                                INT64_MAX, INT64_MIN};
  for (std::int64_t v : cases) {
    EXPECT_EQ(wire::zigzag_decode(wire::zigzag_encode(v)), v);
    wire::WriteSink w;
    w.zigzag(v);
    wire::ReadSink r(w.data());
    std::int64_t out = 0;
    r.zigzag(out);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(out, v);
  }
}

TEST(WireSinks, NonMinimalVarintRejected) {
  // {0x80, 0x00} is a two-byte encoding of 0: canonical codecs reject it
  // (otherwise decode→re-encode would not be byte-identical).
  const std::vector<std::uint8_t> padded = {0x80, 0x00};
  wire::ReadSink r(padded);
  std::uint64_t v = 0;
  r.varint(v);
  EXPECT_FALSE(r.ok());
}

TEST(WireSinks, OverflowingVarintRejected) {
  // 10 continuation bytes
  const std::vector<std::uint8_t> runaway(10, 0xFF);
  wire::ReadSink r1(runaway);
  std::uint64_t v = 0;
  r1.varint(v);
  EXPECT_FALSE(r1.ok());
  // 65 significant bits
  std::vector<std::uint8_t> wide(9, 0xFF);
  wide.push_back(0x02);
  wire::ReadSink r2(wide);
  r2.varint(v);
  EXPECT_FALSE(r2.ok());
}

TEST(WireSinks, Varint32RangeChecked) {
  wire::WriteSink w;
  w.varint(0x1FFFFFFFFull);
  wire::ReadSink r(w.data());
  std::uint32_t v = 0;
  r.varint32(v);
  EXPECT_FALSE(r.ok());
}

TEST(WireSinks, BitsetRoundTripAndPaddingEnforced) {
  Rng rng(77);
  for (int i = 0; i < 20; ++i) {
    const DynamicBitset b = rand_bits(rng, 1 + rng.next_below(200));
    wire::WriteSink w;
    w.bitset(b);
    wire::ReadSink r(w.data());
    DynamicBitset out;
    r.bitset(out);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(out == b);
    EXPECT_EQ(r.remaining(), 0u);
  }
  // 9 declared bits but bit 10 set in the second byte: non-canonical.
  const std::vector<std::uint8_t> padded = {0x09, 0x00, 0x04};
  wire::ReadSink r(padded);
  DynamicBitset out;
  r.bitset(out);
  EXPECT_FALSE(r.ok());
}

TEST(WireSinks, SequenceCountBeyondBufferRejected) {
  // A claimed 1000-element sequence inside a 3-byte buffer must be rejected
  // before any allocation (every v1 element occupies >= 1 byte).
  wire::WriteSink w;
  w.varint(1000);
  wire::ReadSink r(w.data());
  std::vector<std::uint64_t> v;
  r.seq(v);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(v.empty());
}

// -- envelope round-trips ---------------------------------------------------

TEST(WireEnvelope, RoundTripEveryKindRandomized) {
  Rng rng(0xC0DEC);
  for (int k = 1; k <= static_cast<int>(sim::PayloadKind::kStrongAck); ++k) {
    for (int rep = 0; rep < 16; ++rep) {
      auto body = rand_payload(rng, static_cast<sim::PayloadKind>(k));
      ASSERT_NE(body, nullptr);
      const Round round = static_cast<Round>(rng.next_below(100000));
      expect_roundtrip(rand_envelope(rng, std::move(body)), round);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(WireEnvelope, NullBodyRoundTrips) {
  Rng rng(5);
  expect_roundtrip(rand_envelope(rng, nullptr), 42);
}

TEST(WireEnvelope, OpaqueBodyRefused) {
  sim::Envelope e;
  e.from = 0;
  e.to = 1;
  e.body = std::make_shared<sim::Payload>();  // kOpaque test double
  std::vector<std::uint8_t> bytes;
  EXPECT_FALSE(wire::encode_envelope(e, 0, &bytes));
}

// Pins the v1 layout byte for byte. If this test breaks, the format changed:
// bump wire::kWireFormatVersion and keep a v1 decoder instead.
TEST(WireEnvelope, GoldenV1Layout) {
  auto ack = std::make_shared<core::DirectAckPayload>();
  ack->rumor = RumorUid{7, 300};
  sim::Envelope e;
  e.from = 1;
  e.to = 2;
  e.tag.kind = sim::ServiceKind::kFallback;
  e.tag.partition = 3;
  e.body = ack;

  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(wire::encode_envelope(e, /*round=*/5, &bytes));

  const std::vector<std::uint8_t> expected_prefix = {
      0x01,  // version 1
      0x09,  // payload kind kDirectAck
      0x04,  // service kind kFallback
      0x03,  // partition 3
      0x01,  // from 1
      0x02,  // to 2
      0x0A,  // round 5, zigzag -> 10
      0x03,  // body length 3
      0x07,  // body: ack source 7
      0xAC, 0x02,  // body: ack seq 300 as varint
  };
  ASSERT_EQ(bytes.size(), expected_prefix.size() + wire::kChecksumBytes);
  EXPECT_TRUE(std::equal(expected_prefix.begin(), expected_prefix.end(),
                         bytes.begin()));
  const std::uint64_t sum =
      fnv1a(expected_prefix.data(), expected_prefix.size());
  for (std::size_t b = 0; b < wire::kChecksumBytes; ++b) {
    EXPECT_EQ(bytes[expected_prefix.size() + b],
              static_cast<std::uint8_t>(sum >> (8 * b)));
  }
  EXPECT_EQ(wire::encoded_envelope_size(e, 5), bytes.size());
}

// -- rejection --------------------------------------------------------------

std::vector<std::uint8_t> complex_frame() {
  Rng rng(0xBEEF);
  auto body = rand_payload(rng, sim::PayloadKind::kProxyShare);
  std::vector<std::uint8_t> bytes;
  sim::Envelope e = rand_envelope(rng, std::move(body));
  EXPECT_TRUE(wire::encode_envelope(e, 17, &bytes));
  return bytes;
}

TEST(WireReject, EveryTruncationFails) {
  const auto bytes = complex_frame();
  wire::DecodedEnvelope d;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(wire::decode_envelope(bytes.data(), len, &d))
        << "accepted a frame truncated to " << len << " bytes";
  }
}

TEST(WireReject, EveryBitFlipFails) {
  const auto bytes = complex_frame();
  wire::DecodedEnvelope d;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutant = bytes;
      mutant[i] = static_cast<std::uint8_t>(mutant[i] ^ (1u << bit));
      EXPECT_FALSE(wire::decode_envelope(mutant, &d))
          << "accepted a frame with byte " << i << " bit " << bit << " flipped";
    }
  }
}

TEST(WireReject, BadEnumTagsAndVersions) {
  const auto bytes = complex_frame();
  wire::DecodedEnvelope d;
  std::string err;
  // byte 0: version, byte 1: payload kind, byte 2: service kind
  EXPECT_FALSE(wire::decode_envelope(patched(bytes, 0, 2), &d, &err));
  EXPECT_EQ(err, "unsupported wire format version");
  EXPECT_FALSE(wire::decode_envelope(
      patched(bytes, 1, static_cast<std::uint8_t>(sim::PayloadKind::kStrongAck) + 1),
      &d, &err));
  EXPECT_EQ(err, "unknown payload kind");
  EXPECT_FALSE(wire::decode_envelope(patched(bytes, 2, 200), &d, &err));
  EXPECT_EQ(err, "unknown service kind");
}

// -- compression claims -----------------------------------------------------

TEST(WireCompression, SortedGidsDeltaEncode) {
  gossip::GossipMsg msg;
  gossip::GossipMsg spread;  // the same rumors, gids at least 2^35 apart
  Rng rng(3);
  std::uint64_t gid = 1'000'000;
  std::uint64_t spread_gid = gid;
  for (int i = 0; i < 64; ++i) {
    gossip::GossipRumor r;
    r.gid = gid;
    const std::uint64_t step = 1 + rng.next_below(4);
    gid += step;
    r.origin = static_cast<ProcessId>(i % 16);
    r.deadline_at = 128;
    r.dest = rand_bits(rng, 32);
    msg.rumors.push_back(gossip::make_entry(r));
    r.gid = spread_gid;
    spread_gid += step << 35;
    spread.rumors.push_back(gossip::make_entry(r));
  }
  // Delta-encoded gids: a small gap costs one varint byte, a gap of 2^35
  // or more at least six, so the dense batch is at least 3 bytes per rumor
  // smaller.
  EXPECT_LE(msg.encoded_size() + 3 * msg.rumors.size(), spread.encoded_size());
  // Exactly: the count, the first gid in full, then one byte per gid.
  std::uint64_t fields = 0;
  for (const auto& r : msg.rumors) {
    wire::SizeSink s;
    gossip::wire_rumor_fields(s, *r.rumor);
    fields += s.size();
  }
  EXPECT_EQ(msg.encoded_size(),
            1 + wire::varint_size(msg.rumors[0].gid) + (msg.rumors.size() - 1) + fields);
  // And the batch still round-trips losslessly inside an envelope.
  Rng erng(4);
  expect_roundtrip(rand_envelope(erng, std::make_shared<gossip::GossipMsg>(msg)), 9);
}

TEST(WireCompression, UnsortedGidsStillLossless) {
  gossip::GossipMsg msg;
  Rng rng(6);
  const std::uint64_t gids[] = {500, 7, 1u << 30, 3, 0};  // deliberately unsorted
  for (std::uint64_t g : gids) {
    gossip::GossipRumor r;
    r.gid = g;
    r.origin = 1;
    r.dest = rand_bits(rng, 16);
    msg.rumors.push_back(gossip::make_entry(r));
  }
  expect_roundtrip(rand_envelope(rng, std::make_shared<gossip::GossipMsg>(msg)), 1);
}

TEST(WireCompression, FragmentBatchSharesRumorMeta) {
  Rng rng(11);
  const core::Fragment base = *rand_fragment(rng);
  auto shared_meta = std::make_shared<core::ProxyRequestPayload>();
  auto distinct_meta = std::make_shared<core::ProxyRequestPayload>();
  shared_meta->dline = distinct_meta->dline = base.meta.dline;
  for (std::uint32_t i = 0; i < 6; ++i) {
    core::Fragment f = base;  // same rumor: uid/dest/expiry/dline/num_groups
    f.meta.key.group = i;
    shared_meta->fragments.push_back(std::make_shared<const core::Fragment>(f));
    f.meta.key.rumor.seq = base.meta.key.rumor.seq + 1 + i;  // distinct rumor
    distinct_meta->fragments.push_back(std::make_shared<const core::Fragment>(f));
  }
  // Same fragment count and data bytes; the shared-header framing must beat
  // re-encoding the full metadata per fragment by a wide margin.
  EXPECT_LT(shared_meta->encoded_size() + 5 * base.meta.dest.byte_size(),
            distinct_meta->encoded_size());
  expect_roundtrip(rand_envelope(rng, shared_meta), 3);
  expect_roundtrip(rand_envelope(rng, distinct_meta), 3);
}

// The reader builds each decoded fragment behind a new handle. A same-rumor
// run in partials must still inherit the previous fragment's metadata,
// exactly as it does in a proxy request.
TEST(WireCompression, PartialsHandlesShareRumorMeta) {
  Rng rng(12);
  const core::Fragment base = *rand_fragment(rng);
  auto partials = std::make_shared<core::PartialsPayload>();
  auto request = std::make_shared<core::ProxyRequestPayload>();
  partials->dline = request->dline = base.meta.dline;
  for (std::uint32_t i = 0; i < 4; ++i) {
    auto f = std::make_shared<core::Fragment>(base);
    f->meta.key.group = i;
    request->fragments.push_back(f);
    partials->fragments.push_back(f);
  }
  // One batch walk serves both holders, so both frame the run alike.
  EXPECT_EQ(partials->encoded_size(), request->encoded_size());
  expect_roundtrip(rand_envelope(rng, partials), 3);
}

// -- fuzz -------------------------------------------------------------------

TEST(WireFuzz, RandomBuffersNeverCrash) {
  Rng rng(0xF022);
  const int iters = fuzz_iters();
  wire::DecodedEnvelope d;
  for (int i = 0; i < iters; ++i) {
    std::vector<std::uint8_t> buf(rng.next_below(300));
    if (!buf.empty()) rng.fill_bytes(buf.data(), buf.size());
    (void)wire::decode_envelope(buf, &d);  // must neither crash nor leak
  }
}

// -- datagram framing (net/framing.h) ---------------------------------------
//
// How envelope frames ride inside UDP datagrams: length-prefixed and
// coalesced. The decode side must handle exactly what a real socket hands
// it - several frames in one datagram, and datagrams cut off mid-stream.

TEST(WireDatagram, TwoCoalescedFramesDecodeIndependently) {
  Rng rng(0xD06);
  const sim::Envelope e1 =
      rand_envelope(rng, rand_payload(rng, sim::PayloadKind::kFragment));
  const sim::Envelope e2 =
      rand_envelope(rng, rand_payload(rng, sim::PayloadKind::kGossipMsg));
  std::vector<std::uint8_t> datagram;
  ASSERT_TRUE(net::append_frame(e1, 11, &datagram));
  ASSERT_TRUE(net::append_frame(e2, 12, &datagram));

  net::FrameSplitter sp(datagram);
  std::span<const std::uint8_t> frame;
  ASSERT_EQ(sp.next(&frame), net::FrameSplitter::Status::kFrame);
  wire::DecodedEnvelope d1;
  std::string err;
  ASSERT_TRUE(wire::decode_envelope(frame.data(), frame.size(), &d1, &err)) << err;
  EXPECT_EQ(d1.round, 11);
  EXPECT_EQ(d1.env.from, e1.from);
  ASSERT_EQ(sp.next(&frame), net::FrameSplitter::Status::kFrame);
  wire::DecodedEnvelope d2;
  ASSERT_TRUE(wire::decode_envelope(frame.data(), frame.size(), &d2, &err)) << err;
  EXPECT_EQ(d2.round, 12);
  EXPECT_EQ(d2.env.from, e2.from);
  EXPECT_EQ(sp.next(&frame), net::FrameSplitter::Status::kDone);
}

TEST(WireDatagram, TruncationMidSecondFrameKeepsFirstFrame) {
  Rng rng(0xD07);
  const sim::Envelope e1 =
      rand_envelope(rng, rand_payload(rng, sim::PayloadKind::kProxyRequest));
  const sim::Envelope e2 =
      rand_envelope(rng, rand_payload(rng, sim::PayloadKind::kPartials));
  std::vector<std::uint8_t> datagram;
  ASSERT_TRUE(net::append_frame(e1, 1, &datagram));
  const std::size_t first_end = datagram.size();
  ASSERT_TRUE(net::append_frame(e2, 2, &datagram));

  // Every cut inside the second frame: the first frame must still decode,
  // then the splitter must report truncation - never a bogus short frame.
  for (std::size_t cut = first_end + 1; cut < datagram.size(); ++cut) {
    net::FrameSplitter sp(std::span<const std::uint8_t>(datagram.data(), cut));
    std::span<const std::uint8_t> frame;
    ASSERT_EQ(sp.next(&frame), net::FrameSplitter::Status::kFrame) << cut;
    wire::DecodedEnvelope d;
    ASSERT_TRUE(wire::decode_envelope(frame.data(), frame.size(), &d)) << cut;
    EXPECT_EQ(d.env.from, e1.from);
    EXPECT_EQ(sp.next(&frame), net::FrameSplitter::Status::kTruncated) << cut;
  }
}

TEST(WireDatagram, TruncationMidLengthPrefixReported) {
  // A multi-byte length prefix cut after its continuation byte: truncated,
  // not malformed (the bytes seen so far are a valid prefix of a prefix).
  std::vector<std::uint8_t> datagram = {0x80 | 0x12};  // continuation, no end
  net::FrameSplitter sp(datagram);
  std::span<const std::uint8_t> frame;
  EXPECT_EQ(sp.next(&frame), net::FrameSplitter::Status::kTruncated);
}

TEST(WireDatagram, NonMinimalLengthPrefixMalformed) {
  // 0x81 0x00 is the non-minimal encoding of length 1; canonical varints
  // reject it, and the splitter must classify it as malformed (corrupted
  // stream) rather than truncated (more bytes pending).
  std::vector<std::uint8_t> datagram = {0x81, 0x00, 0xAB};
  net::FrameSplitter sp(datagram);
  std::span<const std::uint8_t> frame;
  EXPECT_EQ(sp.next(&frame), net::FrameSplitter::Status::kMalformed);
}

TEST(WireDatagram, CorruptFrameBodyCaughtByEnvelopeChecksum) {
  // The length prefix survives but a body byte is flipped: the splitter
  // yields the frame (framing cannot know), and the envelope checksum
  // rejects it - the layered design's division of labour.
  Rng rng(0xD08);
  const sim::Envelope e =
      rand_envelope(rng, rand_payload(rng, sim::PayloadKind::kDirectRumor));
  std::vector<std::uint8_t> datagram;
  ASSERT_TRUE(net::append_frame(e, 3, &datagram));
  datagram[datagram.size() / 2] ^= 0x40;
  net::FrameSplitter sp(datagram);
  std::span<const std::uint8_t> frame;
  ASSERT_EQ(sp.next(&frame), net::FrameSplitter::Status::kFrame);
  wire::DecodedEnvelope d;
  EXPECT_FALSE(wire::decode_envelope(frame.data(), frame.size(), &d));
  EXPECT_EQ(sp.next(&frame), net::FrameSplitter::Status::kDone);
}

// -- LZ4 datagram container (wire/compress.h + net/framing.h) ----------------

TEST(WireLz4, RawApiRoundTripsAndEnforcesExactLength) {
  if (!wire::lz4_available()) GTEST_SKIP() << "LZ4 not available";
  Rng rng(0x124);
  for (int i = 0; i < 32; ++i) {
    // Mixed compressibility: runs of a repeated byte with random islands.
    std::vector<std::uint8_t> src(64 + rng.next_below(2000));
    for (std::size_t j = 0; j < src.size(); ++j) {
      src[j] = rng.chance(0.8) ? 0x55 : static_cast<std::uint8_t>(rng.next_below(256));
    }
    std::vector<std::uint8_t> packed(wire::lz4_compress_bound(src.size()));
    const std::size_t written = wire::lz4_compress_raw(
        src.data(), src.size(), packed.data(), packed.size());
    ASSERT_GT(written, 0u);
    std::vector<std::uint8_t> back(src.size());
    ASSERT_TRUE(wire::lz4_decompress_raw(packed.data(), written, back.data(),
                                         src.size()));
    EXPECT_EQ(back, src);
    // Wrong declared length (one short) must be rejected, not truncated.
    if (src.size() > 1) {
      std::vector<std::uint8_t> shorter(src.size() - 1);
      EXPECT_FALSE(wire::lz4_decompress_raw(packed.data(), written,
                                            shorter.data(), shorter.size()));
    }
  }
}

TEST(WireFuzz, UnwrapDatagramNeverCrashesOnRandomBuffers) {
  // The unwrap layer sees raw socket bytes before any checksum: random
  // buffers - including ones starting with the compressed marker - must be
  // classified without crashing, over-reading, or unbounded allocation.
  Rng rng(0xF023);
  const int iters = fuzz_iters();
  std::vector<std::uint8_t> scratch;
  for (int i = 0; i < iters; ++i) {
    std::vector<std::uint8_t> buf(rng.next_below(300));
    if (!buf.empty()) rng.fill_bytes(buf.data(), buf.size());
    if (!buf.empty() && rng.chance(0.5)) {
      buf[0] = net::kCompressedDatagramMarker;  // force the container path
    }
    std::span<const std::uint8_t> frames;
    const net::DatagramKind kind = net::unwrap_datagram(buf, &scratch, &frames);
    if (kind == net::DatagramKind::kPlain) {
      EXPECT_EQ(frames.data(), buf.data());
    }
    // Whatever came out feeds the splitter without incident.
    net::FrameSplitter sp(frames);
    std::span<const std::uint8_t> frame;
    while (sp.next(&frame) == net::FrameSplitter::Status::kFrame) {
      wire::DecodedEnvelope d;
      (void)wire::decode_envelope(frame.data(), frame.size(), &d);
    }
  }
}

TEST(WireFuzz, MutatedCompressedContainersNeverCrash) {
  if (!wire::lz4_available()) GTEST_SKIP() << "LZ4 not available";
  Rng rng(0xF024);
  // A real multi-frame datagram, compressed, then mutated: every outcome is
  // acceptable except a crash or a silently-corrupt decoded envelope.
  std::vector<std::uint8_t> datagram;
  const sim::Envelope e1 =
      rand_envelope(rng, rand_payload(rng, sim::PayloadKind::kGossipMsg));
  const sim::Envelope e2 =
      rand_envelope(rng, rand_payload(rng, sim::PayloadKind::kFragment));
  // Repeated frames make the datagram compressible regardless of what the
  // randomized payloads drew.
  for (int rep = 0; rep < 4; ++rep) {
    ASSERT_TRUE(net::append_frame(e1, 7, &datagram));
    ASSERT_TRUE(net::append_frame(e2, 7, &datagram));
  }
  std::vector<std::uint8_t> scratch;
  ASSERT_TRUE(net::compress_datagram(&datagram, &scratch));
  const int iters = fuzz_iters();
  std::vector<std::uint8_t> us;
  for (int i = 0; i < iters; ++i) {
    auto mutant = datagram;
    const std::size_t mutations = 1 + rng.next_below(4);
    for (std::size_t m = 0; m < mutations; ++m) {
      mutant[rng.next_below(mutant.size())] =
          static_cast<std::uint8_t>(rng.next_below(256));
    }
    if (rng.chance(0.3)) {
      mutant.resize(rng.next_below(mutant.size()) + 1);  // truncate too
    }
    std::span<const std::uint8_t> frames;
    if (net::unwrap_datagram(mutant, &us, &frames) ==
        net::DatagramKind::kMalformed) {
      continue;
    }
    net::FrameSplitter sp(frames);
    std::span<const std::uint8_t> frame;
    while (sp.next(&frame) == net::FrameSplitter::Status::kFrame) {
      wire::DecodedEnvelope d;
      if (wire::decode_envelope(frame.data(), frame.size(), &d)) {
        // Accepted frames must re-encode cleanly (same contract as the
        // plain-frame mutation fuzz below).
        std::vector<std::uint8_t> again;
        ASSERT_TRUE(wire::encode_envelope(d.env, d.round, &again));
      }
    }
  }
}

TEST(WireFuzz, MutatedFramesWithRepairedChecksums) {
  // Corruption with a *repaired* checksum drives decode past the checksum
  // into the structural validators. An accepted mutant is allowed (the
  // mutation may be semantically harmless) but must re-encode and re-decode
  // cleanly — no accepted frame may put a payload into an unserializable
  // state.
  const auto bytes = complex_frame();
  Rng rng(0xF0F0);
  const int iters = fuzz_iters();
  for (int i = 0; i < iters; ++i) {
    auto mutant = bytes;
    const std::size_t mutations = 1 + rng.next_below(4);
    for (std::size_t m = 0; m < mutations; ++m) {
      const std::size_t at = rng.next_below(mutant.size() - wire::kChecksumBytes);
      mutant[at] = static_cast<std::uint8_t>(rng.next_below(256));
    }
    mutant = patched(mutant, 0, mutant[0]);  // repair checksum only
    wire::DecodedEnvelope d;
    if (!wire::decode_envelope(mutant, &d)) continue;
    std::vector<std::uint8_t> again;
    ASSERT_TRUE(wire::encode_envelope(d.env, d.round, &again));
    wire::DecodedEnvelope d2;
    std::string err;
    ASSERT_TRUE(wire::decode_envelope(again, &d2, &err)) << err;
  }
}

// -- decode and encode memos ------------------------------------------------

/// Everything a decode yields, flattened for comparison: status, error
/// text, header fields and the body. Gossip batches are spelled out rumor
/// by rumor (gid, origin, deadline, destination bits, body kind and body
/// bytes); any other body by its kind and re-encoded bytes, which the
/// canonical encoding makes equivalent to its fields.
std::string decode_outcome(const std::vector<std::uint8_t>& frame,
                           gossip::RumorDecodeMemo* memo) {
  wire::DecodedEnvelope d;
  std::string err;
  const bool ok =
      wire::decode_envelope(frame.data(), frame.size(), &d, &err, memo);
  std::ostringstream out;
  out << ok << '|' << err;
  if (!ok) return out.str();
  const auto body_bytes = [](const sim::PayloadPtr& p) {
    wire::WriteSink s;
    if (p != nullptr) {
      EXPECT_TRUE(wire::encode_payload(s, *p));
    }
    std::ostringstream hex;
    hex << (p ? static_cast<int>(p->kind()) : -1) << ':'
        << (p ? p->encoded_size() : 0) << ':';
    for (const std::uint8_t b : s.data()) hex << static_cast<int>(b) << ',';
    return hex.str();
  };
  out << '|' << static_cast<int>(d.version) << '|' << d.round << '|'
      << d.env.from << '|' << d.env.to << '|'
      << static_cast<int>(d.env.tag.kind) << '|' << d.env.tag.partition;
  if (d.env.body != nullptr &&
      d.env.body->kind() == sim::PayloadKind::kGossipMsg) {
    const auto& m = static_cast<const gossip::GossipMsg&>(*d.env.body);
    for (const gossip::RumorEntry& e : m.rumors) {
      const gossip::GossipRumor& r = *e.rumor;
      out << "|r" << r.gid << ',' << r.origin << ',' << r.deadline_at << ','
          << r.dest.size() << ':';
      for (const std::size_t i : r.dest.to_vector()) out << i << ',';
      out << body_bytes(r.body);
    }
  }
  out << '|' << body_bytes(d.env.body);
  return out.str();
}

/// Gossip frames whose batches overlap, as re-pushed batches do: rumors
/// drawn from one pool of gids, plus a few same-gid rumors with different
/// fields (another service's gid space) and frames of every other kind.
std::vector<std::vector<std::uint8_t>> gossip_corpus(Rng& rng) {
  std::vector<gossip::RumorEntry> pool;
  for (std::uint64_t gid = 1000; gid < 1040; ++gid) {
    pool.push_back(gossip::make_entry(rand_gossip_rumor(rng, gid)));
  }
  std::vector<std::vector<std::uint8_t>> corpus;
  for (int f = 0; f < 48; ++f) {
    auto msg = std::make_shared<gossip::GossipMsg>();
    for (const gossip::RumorEntry& r : pool) {
      if (rng.chance(0.3)) msg->rumors.push_back(r);
    }
    if (rng.chance(0.25) && !msg->rumors.empty()) {
      // Same gid, other fields: must miss, then decode fresh.
      const std::uint64_t gid = msg->rumors.back().gid;
      msg->rumors.back() = gossip::make_entry(rand_gossip_rumor(rng, gid));
    }
    std::vector<std::uint8_t> frame;
    EXPECT_TRUE(wire::encode_envelope(rand_envelope(rng, msg),
                                      static_cast<Round>(rng.next_below(64)),
                                      &frame));
    corpus.push_back(std::move(frame));
  }
  for (std::uint8_t k = 2;
       k <= static_cast<std::uint8_t>(sim::PayloadKind::kStrongAck); ++k) {
    std::vector<std::uint8_t> frame;
    EXPECT_TRUE(wire::encode_envelope(
        rand_envelope(rng, rand_payload(rng, static_cast<sim::PayloadKind>(k))),
        7, &frame));
    corpus.push_back(std::move(frame));
  }
  return corpus;
}

TEST(WireFuzz, MemoDecodeMatchesPlainDecode) {
  Rng rng(0x3E30);
  const auto corpus = gossip_corpus(rng);
  gossip::RumorDecodeMemo memo;
  // Warm the memo, checking the warm-up decodes too.
  for (const auto& frame : corpus) {
    ASSERT_EQ(decode_outcome(frame, &memo), decode_outcome(frame, nullptr));
  }
  EXPECT_GT(memo.hits(), 0u);
  EXPECT_GT(memo.size(), 0u);

  // Checksum-repaired mutants reach the rumor walk with near-miss bytes: a
  // memoized gid followed by altered fields, altered gids, cut lengths.
  const int iters = fuzz_iters();
  for (int i = 0; i < iters; ++i) {
    auto mutant = corpus[rng.next_below(corpus.size())];
    const std::size_t mutations = 1 + rng.next_below(3);
    for (std::size_t m = 0; m < mutations; ++m) {
      const std::size_t at =
          rng.next_below(mutant.size() - wire::kChecksumBytes);
      mutant[at] = static_cast<std::uint8_t>(rng.next_below(256));
    }
    mutant = patched(mutant, 0, mutant[0]);  // repair checksum only
    ASSERT_EQ(decode_outcome(mutant, &memo), decode_outcome(mutant, nullptr))
        << "mutant " << i;
    // Checksum-bad frames never reach the memo.
    auto broken = mutant;
    broken.back() ^= 0x01;
    ASSERT_EQ(decode_outcome(broken, &memo), decode_outcome(broken, nullptr));
  }
  // Whatever the mutants left in the memo, the real frames decode as ever.
  for (const auto& frame : corpus) {
    ASSERT_EQ(decode_outcome(frame, &memo), decode_outcome(frame, nullptr));
  }
  EXPECT_GT(memo.misses(), 0u);
}

/// A one-rumor frame with the given rumor, for the memo unit tests.
std::vector<std::uint8_t> single_rumor_frame(const gossip::GossipRumor& r,
                                             PartitionIndex partition = 0) {
  auto msg = std::make_shared<gossip::GossipMsg>();
  msg->rumors.push_back(gossip::make_entry(r));
  sim::Envelope e;
  e.from = 1;
  e.to = 2;
  e.tag.kind = sim::ServiceKind::kGroupGossip;
  e.tag.partition = partition;
  e.body = msg;
  std::vector<std::uint8_t> frame;
  EXPECT_TRUE(wire::encode_envelope(e, 3, &frame));
  return frame;
}

TEST(WireMemo, HitSharesTheBodyAndMissesOnDifferentBytes) {
  Rng rng(0x4E40);
  gossip::GossipRumor r = rand_gossip_rumor(rng, 77);
  r.body = rand_payload(rng, sim::PayloadKind::kFragment);
  gossip::RumorDecodeMemo memo;
  const auto frame = single_rumor_frame(r);
  wire::DecodedEnvelope first;
  wire::DecodedEnvelope second;
  ASSERT_TRUE(wire::decode_envelope(frame.data(), frame.size(), &first,
                                    nullptr, &memo));
  ASSERT_TRUE(wire::decode_envelope(frame.data(), frame.size(), &second,
                                    nullptr, &memo));
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.misses(), 1u);
  const auto& a = static_cast<const gossip::GossipMsg&>(*first.env.body);
  const auto& b = static_cast<const gossip::GossipMsg&>(*second.env.body);
  EXPECT_EQ(a.rumors[0].rumor->body.get(), b.rumors[0].rumor->body.get());

  // Same gid, one field different: a miss that decodes the new fields.
  gossip::GossipRumor other = r;
  other.deadline_at = r.deadline_at + 1;
  const auto frame2 = single_rumor_frame(other);
  wire::DecodedEnvelope third;
  ASSERT_TRUE(wire::decode_envelope(frame2.data(), frame2.size(), &third,
                                    nullptr, &memo));
  EXPECT_EQ(memo.misses(), 2u);
  const auto& c = static_cast<const gossip::GossipMsg&>(*third.env.body);
  EXPECT_EQ(c.rumors[0].deadline_at, other.deadline_at);
  EXPECT_NE(c.rumors[0].rumor->body.get(), a.rumors[0].rumor->body.get());

  // The same gid in another service's frames is another rumor: each
  // service keeps its own entry, so alternating frames of the two hit.
  const auto frame3 = single_rumor_frame(r, 1);
  for (int i = 0; i < 2; ++i) {
    wire::DecodedEnvelope d;
    ASSERT_TRUE(wire::decode_envelope(frame2.data(), frame2.size(), &d,
                                      nullptr, &memo));
    ASSERT_TRUE(wire::decode_envelope(frame3.data(), frame3.size(), &d,
                                      nullptr, &memo));
  }
  EXPECT_EQ(memo.misses(), 3u);  // frame3's first decode
  EXPECT_EQ(memo.hits(), 4u);
  EXPECT_EQ(memo.size(), 2u);
}

TEST(WireMemo, ExpiresPastDeadlinesAndStaysBounded) {
  Rng rng(0x5E50);
  gossip::RumorDecodeMemo memo;
  for (std::uint64_t gid = 0; gid < 10; ++gid) {
    gossip::GossipRumor r = rand_gossip_rumor(rng, gid);
    r.deadline_at = static_cast<Round>(gid);
    const auto frame = single_rumor_frame(r);
    wire::DecodedEnvelope d;
    ASSERT_TRUE(
        wire::decode_envelope(frame.data(), frame.size(), &d, nullptr, &memo));
  }
  EXPECT_EQ(memo.size(), 10u);
  memo.expire(4);  // deadlines 0..3 have passed; 4 is still live
  EXPECT_EQ(memo.size(), 6u);
  memo.expire(10);
  EXPECT_EQ(memo.size(), 0u);

  // Far-future deadlines cannot grow it past its cap.
  const gossip::GossipRumor proto = rand_gossip_rumor(rng, 0);
  const std::uint8_t fields[] = {1, 2, 3};
  for (std::uint64_t gid = 0; gid < gossip::RumorDecodeMemo::kMaxEntries + 50;
       ++gid) {
    gossip::GossipRumor r = proto;
    r.gid = gid;
    r.deadline_at = 1 << 30;
    memo.remember(0, std::make_shared<const gossip::GossipRumor>(std::move(r)), fields,
                  sizeof(fields));
  }
  EXPECT_EQ(memo.size(), gossip::RumorDecodeMemo::kMaxEntries);
}

// The send phase encodes a shared body once and copies it into every
// frame that carries it; the frames must equal plain encodes exactly. The
// pool case is the one a pointer-keyed memo gets wrong: a batch released
// inside the phase goes back to its pool, and the next batch acquired can
// be the same object with new contents. The memo's reference keeps the
// pool from handing the memoized object out again until release().
TEST(WireEncodeMemo, FramesMatchPlainEncodesAcrossPoolReuse) {
  Rng rng(0x6E60);
  PayloadPool<gossip::GossipMsg> pool;
  wire::BodyEncodeMemo memo;
  std::vector<std::uint8_t> with_memo;
  std::vector<std::uint8_t> plain;
  const auto send = [&](const sim::PayloadPtr& body, ProcessId to) {
    sim::Envelope e;
    e.from = 0;
    e.to = to;
    e.tag.kind = sim::ServiceKind::kGroupGossip;
    e.body = body;
    ASSERT_TRUE(net::append_frame(e, 9, &with_memo, &memo));
    ASSERT_TRUE(net::append_frame(e, 9, &plain));
  };
  const auto fill = [&](gossip::GossipMsg& m, std::uint64_t first_gid) {
    for (std::uint64_t g = 0; g < 4; ++g) {
      m.rumors.push_back(gossip::make_entry(rand_gossip_rumor(rng, first_gid + g)));
    }
  };

  auto a = pool.acquire();
  fill(*a, 100);
  const void* a_addr = a.get();
  send(a, 1);
  send(a, 2);
  a.reset();  // the phase drops its batch; only the memo still holds it
  auto b = pool.acquire();
  EXPECT_NE(static_cast<const void*>(b.get()), a_addr);
  fill(*b, 100);  // same gids and count, new contents
  send(b, 3);
  send(b, 4);
  send(rand_payload(rng, sim::PayloadKind::kFragment), 5);
  send(b, 6);  // not the last body any more: encoded afresh
  EXPECT_EQ(with_memo, plain);

  // Once released, the memo no longer pins a payload.
  b.reset();
  memo.release();
  EXPECT_EQ(memo.payload, nullptr);
  EXPECT_EQ(pool.idle(), 2u);
}

}  // namespace
}  // namespace congos
