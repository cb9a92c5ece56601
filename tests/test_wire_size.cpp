// Byte-accounting audit (Section 7 discussion): every payload reports one
// serialized size, encoded_size(), the bytes the wire codec emits, and the
// stats collector aggregates those bytes per round.
//
// The audit test at the top enumerates every payload kind and pins
// encoded_size() to the length encode_payload() really produces, so a size
// override can never silently disagree with the serializer. The WireSize
// tests below pin properties of individual layouts on the same encoded
// sizes: every rumor field rides the wire, a fragment's group count is
// encoded once, metadata payloads carry no rumor data, and acks grow with
// what they acknowledge.
#include <gtest/gtest.h>

#include <thread>

#include "baseline/baseline_payload.h"
#include "congos/fragment.h"
#include "gossip/continuous_gossip.h"
#include "harness/scenario.h"
#include "sim/stats.h"
#include "wire/envelope.h"
#include "wire/payload_codec.h"

namespace congos {
namespace {

sim::Rumor small_rumor(std::size_t n, std::size_t payload) {
  auto r = sim::make_rumor(0, 1, std::vector<std::uint8_t>(payload, 0xAB), 64,
                           DynamicBitset(n));
  return r;
}

std::shared_ptr<core::Fragment> small_fragment(std::size_t n, std::size_t payload) {
  auto f = std::make_shared<core::Fragment>();
  f->meta.key = core::FragmentKey{{0, 1}, 0, 0};
  f->meta.dest = DynamicBitset(n);
  f->data.assign(payload, 0xCD);
  return f;
}

/// Bytes the codec's field walk counts for `v` (found by ADL).
template <class T>
std::uint64_t walked_size(const T& v) {
  wire::SizeSink s;
  wire_fields(s, v);
  return s.size();
}

/// One payload of every codec-serializable kind, with non-default contents
/// so size formulas cannot pass by accident.
std::vector<sim::PayloadPtr> one_of_each_kind() {
  std::vector<sim::PayloadPtr> all;

  auto msg = std::make_shared<gossip::GossipMsg>();
  for (int i = 0; i < 3; ++i) {
    gossip::GossipRumor r;
    r.gid = 100 + static_cast<std::uint64_t>(i);
    r.origin = 2;
    r.deadline_at = 64;
    r.dest = DynamicBitset(48);
    r.dest.set(static_cast<std::size_t>(5 + i));
    if (i != 1) {  // mix nested bodies and null bodies
      auto body = std::make_shared<core::FragmentBody>();
      body->fragment = small_fragment(48, 24);
      r.body = body;
    }
    msg->rumors.push_back(gossip::make_entry(r));
  }
  all.push_back(msg);

  auto ack = std::make_shared<gossip::GossipAck>();
  ack->gids = {9, 3, 4000, 4001};
  all.push_back(ack);

  all.push_back(std::make_shared<gossip::GossipPull>());

  auto proxy_req = std::make_shared<core::ProxyRequestPayload>();
  proxy_req->dline = 32;
  proxy_req->fragments = {small_fragment(48, 16), small_fragment(48, 16)};
  all.push_back(proxy_req);

  auto proxy_ack = std::make_shared<core::ProxyAckPayload>();
  proxy_ack->dline = 32;
  all.push_back(proxy_ack);

  auto partials = std::make_shared<core::PartialsPayload>();
  partials->dline = 16;
  partials->fragments = {small_fragment(48, 8)};
  all.push_back(partials);

  auto direct = std::make_shared<core::DirectRumorPayload>();
  direct->rumor = small_rumor(48, 20);
  all.push_back(direct);

  auto partials_ack = std::make_shared<core::PartialsAckPayload>();
  partials_ack->dline = 16;
  all.push_back(partials_ack);

  auto direct_ack = std::make_shared<core::DirectAckPayload>();
  direct_ack->rumor = RumorUid{7, 300};
  all.push_back(direct_ack);

  auto frag_body = std::make_shared<core::FragmentBody>();
  frag_body->fragment = small_fragment(48, 40);
  all.push_back(frag_body);

  auto proxy_share = std::make_shared<core::ProxyShareBody>();
  proxy_share->dline = 32;
  proxy_share->block = 2;
  proxy_share->from = 11;
  proxy_share->proxied = {small_fragment(48, 12)};
  proxy_share->failed_proxies = {3, 4};
  all.push_back(proxy_share);

  auto hit_share = std::make_shared<core::HitSetShareBody>();
  hit_share->dline = 32;
  hit_share->block = 1;
  hit_share->from = 9;
  hit_share->hits = {{4, {1, 2}}, {5, {1, 3}}};
  all.push_back(hit_share);

  auto report = std::make_shared<core::DistributionReportBody>();
  report->reporter = 6;
  report->partition = 1;
  report->group = 2;
  report->dline = 64;
  report->hits = {{8, {2, 5}}};
  all.push_back(report);

  auto base_rumor = std::make_shared<baseline::BaselineRumorPayload>();
  base_rumor->rumor = small_rumor(48, 32);
  all.push_back(base_rumor);

  auto base_batch = std::make_shared<baseline::BaselineBatchPayload>();
  base_batch->rumors = {small_rumor(48, 8), small_rumor(48, 8)};
  all.push_back(base_batch);

  auto strong_ack = std::make_shared<baseline::StrongAckPayload>();
  strong_ack->uids = {{1, 2}, {3, 4}, {5, 6}};
  all.push_back(strong_ack);

  return all;
}

// The cross-check: for EVERY serializable payload kind, encoded_size() must
// equal the byte count encode_payload() actually emits. Any discrepancy is
// a bug in a size override, not a tolerance.
TEST(WireSizeAudit, EncodedSizeMatchesEncoderForEveryKind) {
  const auto all = one_of_each_kind();
  ASSERT_EQ(all.size(),
            static_cast<std::size_t>(sim::PayloadKind::kStrongAck));  // all but kOpaque
  for (const auto& p : all) {
    wire::WriteSink s;
    ASSERT_TRUE(wire::encode_payload(s, *p))
        << "kind " << static_cast<int>(p->kind());
    ASSERT_TRUE(s.ok()) << "kind " << static_cast<int>(p->kind());
    EXPECT_EQ(p->encoded_size(), s.data().size())
        << "encoded_size() disagrees with the encoder for kind "
        << static_cast<int>(p->kind());
  }
}

// Nested gossip bodies memoize their sizes (they are immutable once filled).
// A memo must equal a fresh SizeSink walk and the bytes the encoder emits,
// on every query, on the original and on a decoded copy.
TEST(WireSizeAudit, NestedBodySizeMemosMatchAFreshWalk) {
  auto frag_body = std::make_shared<core::FragmentBody>();
  frag_body->fragment = small_fragment(48, 40);

  auto proxy_share = std::make_shared<core::ProxyShareBody>();
  proxy_share->dline = 32;
  proxy_share->block = 2;
  proxy_share->from = 11;
  proxy_share->proxied = {small_fragment(48, 12), small_fragment(48, 7)};
  proxy_share->failed_proxies = {3, 4, 300};

  auto hit_share = std::make_shared<core::HitSetShareBody>();
  hit_share->dline = 32;
  hit_share->block = 1;
  hit_share->from = 9;
  hit_share->hits = {{4, {1, 2}}, {5, {1, 3}}, {900, {70, 1u << 20}}};

  auto report = std::make_shared<core::DistributionReportBody>();
  report->reporter = 6;
  report->partition = 1;
  report->group = 2;
  report->dline = 64;
  report->hits = {{8, {2, 5}}, {200, {3, 1000}}};

  auto msg = std::make_shared<gossip::GossipMsg>();
  std::uint64_t gid = 40;
  for (sim::PayloadPtr body : std::initializer_list<sim::PayloadPtr>{
           frag_body, proxy_share, hit_share, report}) {
    gossip::GossipRumor r;
    r.gid = gid++;
    r.origin = 2;
    r.deadline_at = 64;
    r.dest = DynamicBitset(48);
    r.body = std::move(body);
    msg->rumors.push_back(gossip::make_entry(std::move(r)));
  }

  const auto walked = [](const sim::Payload& p) -> std::uint64_t {
    wire::SizeSink s;
    switch (p.kind()) {
      case sim::PayloadKind::kFragment:
        wire_fields(s, static_cast<const core::FragmentBody&>(p));
        break;
      case sim::PayloadKind::kProxyShare:
        wire_fields(s, static_cast<const core::ProxyShareBody&>(p));
        break;
      case sim::PayloadKind::kHitSetShare:
        wire_fields(s, static_cast<const core::HitSetShareBody&>(p));
        break;
      case sim::PayloadKind::kDistributionReport:
        wire_fields(s, static_cast<const core::DistributionReportBody&>(p));
        break;
      case sim::PayloadKind::kGossipMsg:
        wire_fields(s, static_cast<const gossip::GossipMsg&>(p));
        break;
      default:
        ADD_FAILURE() << "unexpected kind " << static_cast<int>(p.kind());
    }
    return s.size();
  };
  const auto check = [&](const sim::Payload& p, const char* what) {
    SCOPED_TRACE(what);
    wire::WriteSink w;
    ASSERT_TRUE(wire::encode_payload(w, p));
    const std::uint64_t emitted = w.data().size();
    EXPECT_EQ(walked(p), emitted);
    EXPECT_EQ(p.encoded_size(), emitted);
    EXPECT_EQ(p.encoded_size(), emitted);  // memoized second query

    wire::ReadSink r(w.data());
    const sim::PayloadPtr back = wire::decode_payload(r, p.kind());
    ASSERT_TRUE(r.ok());
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->encoded_size(), emitted);
    EXPECT_EQ(back->encoded_size(), emitted);
    EXPECT_EQ(walked(*back), emitted);
  };
  check(*frag_body, "FragmentBody");
  check(*proxy_share, "ProxyShareBody");
  check(*hit_share, "HitSetShareBody");
  check(*report, "DistributionReportBody");
  check(*msg, "GossipMsg carrying all four");
}

// One body can be carried by batches that several threads measure; the
// first queries race on the memo. Run under TSan to check the memo itself.
TEST(WireSizeAudit, SizeMemoFirstQueriesMayRace) {
  auto share = std::make_shared<core::ProxyShareBody>();
  share->proxied = {small_fragment(48, 12), small_fragment(48, 12)};
  share->failed_proxies = {1, 2};
  wire::WriteSink w;
  ASSERT_TRUE(wire::encode_payload(w, *share));
  std::vector<std::uint64_t> seen(4);
  std::vector<std::thread> threads;
  for (auto& out : seen) {
    threads.emplace_back([&share, &out] { out = share->encoded_size(); });
  }
  for (auto& t : threads) t.join();
  for (const std::uint64_t encoded : seen) EXPECT_EQ(encoded, w.data().size());
}

TEST(WireSizeAudit, CopiedBodyMeasuresItselfAfresh) {
  core::HitSetShareBody share;
  share.hits = {{4, {1, 2}}};
  const std::uint64_t one = share.encoded_size();
  core::HitSetShareBody copy = share;
  copy.hits.push_back({5, {1, 3}});
  EXPECT_EQ(share.encoded_size(), one);
  wire::SizeSink s;
  wire_fields(s, copy);
  EXPECT_EQ(copy.encoded_size(), s.size());
  EXPECT_GT(copy.encoded_size(), one);
}

TEST(WireSizeAudit, OpaquePayloadsAreNotSerializable) {
  const sim::Payload opaque;
  wire::WriteSink s;
  EXPECT_FALSE(wire::encode_payload(s, opaque));
}

TEST(WireSize, RumorModelCountsEveryField) {
  const auto injected_at_0 = [](std::size_t n, std::size_t payload) {
    sim::Rumor r = small_rumor(n, payload);
    r.injected_at = 0;
    return r;
  };
  const sim::Rumor base = injected_at_0(64, 10);
  EXPECT_GT(walked_size(injected_at_0(64, 100)), walked_size(base));
  EXPECT_GT(walked_size(injected_at_0(6400, 10)), walked_size(base));
  // source 1 + seq 1 + deadline 2 (zigzag 64) + injected_at 1
  // + dest bitset (1 + 8) + payload (1 + 10).
  EXPECT_EQ(walked_size(base), 1u + 1u + 2u + 1u + 9u + 11u);

  // Every field rides the wire: changing any one of them changes the
  // encoded rumor. Receivers need injected_at to evaluate active_at.
  const auto encoded = [](const sim::Rumor& r) {
    wire::WriteSink w;
    wire_fields(w, r);
    return w.data();
  };
  std::vector<sim::Rumor> changed(6, base);
  changed[0].uid.source = 3;
  changed[1].uid.seq = 2;
  changed[2].deadline = 65;
  changed[3].injected_at = 5;
  changed[4].dest.set(7);
  changed[5].data[0] = 0;
  for (std::size_t i = 0; i < changed.size(); ++i) {
    EXPECT_NE(encoded(changed[i]), encoded(base)) << "field " << i;
  }
  sim::Rumor late = base;
  late.injected_at = 1 << 20;
  EXPECT_GT(walked_size(late), walked_size(base));
}

TEST(WireSize, FragmentCountsGroupCountExactlyOnce) {
  EXPECT_GT(walked_size(*small_fragment(64, 100)), walked_size(*small_fragment(64, 10)));
  // A group count of 200 needs one more varint byte than 2: the fragment
  // grows by exactly that byte, so the field is encoded once.
  const core::FragmentPtr narrow = small_fragment(64, 10);
  auto wide = std::make_shared<core::Fragment>(*narrow);
  wide->meta.num_groups = 200;
  EXPECT_EQ(walked_size(*wide), walked_size(*narrow) + 1);
  core::FragmentBody body;
  body.fragment = wide;
  EXPECT_EQ(body.encoded_size(), walked_size(*wide));
  // In a batch, a second fragment of the same rumor inherits the group
  // count instead of repeating it.
  core::ProxyRequestPayload narrow_batch;
  narrow_batch.fragments = {narrow, narrow};
  core::ProxyRequestPayload wide_batch;
  wide_batch.fragments = {wide, wide};
  EXPECT_EQ(wide_batch.encoded_size(), narrow_batch.encoded_size() + 1);
}

TEST(WireSize, GossipMsgSumsRumors) {
  gossip::GossipMsg msg;
  EXPECT_EQ(msg.encoded_size(), 1u);  // just the varint count
  gossip::GossipRumor r;
  r.dest = DynamicBitset(64);
  auto body = std::make_shared<core::FragmentBody>();
  body->fragment = small_fragment(64, 16);
  r.body = body;
  const auto none = msg.encoded_size();
  msg.rumors.push_back(gossip::make_entry(r));
  const auto one = msg.encoded_size();
  msg.rumors.push_back(gossip::make_entry(r));
  // Identical rumors (gid delta 0) grow the batch by equal increments.
  EXPECT_EQ(msg.encoded_size() - one, one - none);
  EXPECT_GT(one, none);
  // The batch is its count plus, per rumor, a one-byte gid delta and the
  // rumor's own fields.
  wire::SizeSink fields;
  gossip::wire_rumor_fields(fields, r);
  EXPECT_EQ(msg.encoded_size(), 1u + 2 * (1u + fields.size()));
}

TEST(WireSize, BatchAndDirectPayloads) {
  baseline::BaselineRumorPayload single;
  single.rumor = small_rumor(64, 16);
  EXPECT_EQ(single.encoded_size(), walked_size(single.rumor));

  baseline::BaselineBatchPayload batch;
  batch.rumors = {small_rumor(64, 16), small_rumor(64, 16)};
  EXPECT_EQ(batch.encoded_size(), 1u + 2 * walked_size(small_rumor(64, 16)));

  core::DirectRumorPayload direct;
  direct.rumor = small_rumor(64, 16);
  EXPECT_EQ(direct.encoded_size(), walked_size(direct.rumor));
}

TEST(WireSize, MetadataPayloadsAreDataFree) {
  // Shares and reports carry identifiers only: size independent of any
  // rumor payload length (that is what makes them safe to gossip widely).
  const core::HitSetShareBody empty_share;
  const core::DistributionReportBody empty_report;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sizes;
  for (const std::size_t payload : {std::size_t{10}, std::size_t{4096}}) {
    const sim::Rumor rumor = small_rumor(64, payload);
    core::HitSetShareBody share;
    share.hits.assign(5, core::Hit{3, rumor.uid});
    core::DistributionReportBody report;
    report.hits.assign(3, core::Hit{3, rumor.uid});
    // The empty header plus one identifier record per hit, nothing else.
    EXPECT_EQ(share.encoded_size(),
              empty_share.encoded_size() + 5 * walked_size(share.hits[0]));
    EXPECT_EQ(report.encoded_size(),
              empty_report.encoded_size() + 3 * walked_size(report.hits[0]));
    sizes.emplace_back(share.encoded_size(), report.encoded_size());
  }
  EXPECT_EQ(sizes[0], sizes[1]);
  core::ProxyAckPayload ack;
  EXPECT_EQ(ack.encoded_size(), 1u);  // the deadline class alone
}

TEST(WireSize, StrongAckScalesWithUids) {
  // The pre-codec version of this payload had NO size override: every ack
  // was billed the 8-byte opaque default regardless of contents.
  baseline::StrongAckPayload ack;
  EXPECT_EQ(ack.encoded_size(), 1u);  // the varint count
  ack.uids.resize(10, RumorUid{1, 1});
  EXPECT_EQ(ack.encoded_size(), 1u + 10 * 2u);  // source + seq varint per uid
}

TEST(WireSize, StatsAccumulateBytes) {
  sim::MessageStats s;
  s.note_sent(sim::ServiceKind::kProxy, 100);
  s.note_sent(sim::ServiceKind::kProxy, 50);
  s.end_round(0);
  s.note_sent(sim::ServiceKind::kFallback, 10);
  s.end_round(1);
  EXPECT_EQ(s.total_bytes(), 160u);
  EXPECT_EQ(s.total_bytes(sim::ServiceKind::kProxy), 150u);
  EXPECT_EQ(s.max_bytes_per_round(), 150u);
  EXPECT_EQ(s.max_bytes_from(1), 10u);
  EXPECT_NEAR(s.mean_bytes_per_round(), 80.0, 1e-9);
}

TEST(WireSize, StatsByteCountersDoNotNarrow) {
  // Large-n sweeps overflow 32-bit intermediates; the whole accumulation
  // path is std::uint64_t (static_asserts in stats.h pin the member types).
  sim::MessageStats s;
  const std::uint64_t big = 1ull << 40;
  for (int i = 0; i < 8; ++i) s.note_sent(sim::ServiceKind::kProxy, big);
  s.end_round(0);
  EXPECT_EQ(s.total_bytes(), 8 * big);
  EXPECT_EQ(s.total_bytes(sim::ServiceKind::kProxy), 8 * big);
  EXPECT_GT(s.total_bytes(), std::uint64_t{0xFFFFFFFFull});
}

TEST(WireSize, ScenarioReportsBytes) {
  harness::ScenarioConfig cfg;
  cfg.n = 16;
  cfg.seed = 9;
  cfg.rounds = 96;
  cfg.protocol = harness::Protocol::kDirect;
  cfg.continuous.inject_prob = 0.05;
  cfg.continuous.deadlines = {64};
  const auto r = harness::run_scenario(cfg);
  EXPECT_GT(r.total_bytes, 0u);
  EXPECT_GT(r.max_bytes_per_round, 0u);
  // Every frame carries a header and an 8-byte checksum.
  EXPECT_GT(r.total_bytes, r.total_messages * wire::kChecksumBytes);
}

TEST(WireSize, CongosBytesDominatedByFragmentTraffic) {
  harness::ScenarioConfig cfg;
  cfg.n = 32;
  cfg.seed = 10;
  cfg.rounds = 192;
  cfg.protocol = harness::Protocol::kCongos;
  cfg.continuous.inject_prob = 0.02;
  cfg.continuous.deadlines = {64};
  cfg.continuous.payload_len = 64;
  const auto small = harness::run_scenario(cfg);
  cfg.continuous.payload_len = 1024;
  const auto big = harness::run_scenario(cfg);
  // Same message counts (payload length does not change the protocol), but
  // much larger byte volume.
  EXPECT_GT(big.total_bytes, small.total_bytes * 2);
}

}  // namespace
}  // namespace congos
