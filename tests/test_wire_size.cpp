// Byte-accounting audit (Section 7 discussion + ROADMAP item 3): every
// payload reports TWO serialized sizes — encoded_size(), the actual bytes
// the wire codec emits, and modeled_size(), the legacy fixed-width model —
// and the stats collector aggregates actual bytes per round.
//
// The audit test at the top is the cross-check the wire-codec PR demanded:
// it enumerates every payload kind and pins encoded_size() to the length
// encode_payload() really produces, so a hand-maintained estimate can never
// silently disagree with the serializer again. (That check is what exposed
// the old bugs fixed in this PR: sim::Rumor's estimate ignored injected_at,
// Fragment counted the group-count field at the wrong width against a
// comment saying otherwise, and StrongAckPayload had no override at all —
// every ack billed 8 bytes no matter how many uids it carried.)
#include <gtest/gtest.h>

#include <thread>

#include "baseline/baseline_payload.h"
#include "congos/fragment.h"
#include "gossip/continuous_gossip.h"
#include "harness/scenario.h"
#include "sim/stats.h"
#include "wire/payload_codec.h"

namespace congos {
namespace {

sim::Rumor small_rumor(std::size_t n, std::size_t payload) {
  auto r = sim::make_rumor(0, 1, std::vector<std::uint8_t>(payload, 0xAB), 64,
                           DynamicBitset(n));
  return r;
}

core::Fragment small_fragment(std::size_t n, std::size_t payload) {
  core::Fragment f;
  f.meta.key = core::FragmentKey{{0, 1}, 0, 0};
  f.meta.dest = DynamicBitset(n);
  f.data.assign(payload, 0xCD);
  return f;
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
    msg->rumors.push_back(r);
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
    msg->rumors.push_back(std::move(r));
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
    const std::uint64_t modeled = p.modeled_size();
    EXPECT_EQ(p.modeled_size(), modeled);

    wire::ReadSink r(w.data());
    const sim::PayloadPtr back = wire::decode_payload(r, p.kind());
    ASSERT_TRUE(r.ok());
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->encoded_size(), emitted);
    EXPECT_EQ(back->encoded_size(), emitted);
    EXPECT_EQ(walked(*back), emitted);
    EXPECT_EQ(back->modeled_size(), modeled);
  };
  check(*frag_body, "FragmentBody");
  check(*proxy_share, "ProxyShareBody");
  check(*hit_share, "HitSetShareBody");
  check(*report, "DistributionReportBody");
  check(*msg, "GossipMsg carrying all four");

  // ProxyShareBody's modeled size is memoized too; pin it to its formula.
  std::uint64_t formula = 28 + 4 * proxy_share->failed_proxies.size();
  for (const auto& f : proxy_share->proxied) formula += core::modeled_size(f);
  EXPECT_EQ(proxy_share->modeled_size(), formula);
}

// One body can be carried by batches that several threads measure; the
// first queries race on the memo. Run under TSan to check the memo itself.
TEST(WireSizeAudit, SizeMemoFirstQueriesMayRace) {
  auto share = std::make_shared<core::ProxyShareBody>();
  share->proxied = {small_fragment(48, 12), small_fragment(48, 12)};
  share->failed_proxies = {1, 2};
  wire::WriteSink w;
  ASSERT_TRUE(wire::encode_payload(w, *share));
  const std::uint64_t modeled = 28 + 4 * 2 + 2 * core::modeled_size(share->proxied[0]);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seen(4);
  std::vector<std::thread> threads;
  for (auto& out : seen) {
    threads.emplace_back([&share, &out] {
      out = {share->encoded_size(), share->modeled_size()};
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& [encoded, model] : seen) {
    EXPECT_EQ(encoded, w.data().size());
    EXPECT_EQ(model, modeled);
  }
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
  EXPECT_GT(sim::modeled_size(small_rumor(64, 100)),
            sim::modeled_size(small_rumor(64, 10)));
  EXPECT_GT(sim::modeled_size(small_rumor(6400, 10)),
            sim::modeled_size(small_rumor(64, 10)));
  // uid (12) + deadline (8) + injected_at (8) + dest bitset + payload: the
  // pre-codec estimate dropped injected_at.
  EXPECT_EQ(sim::modeled_size(small_rumor(64, 10)), 12u + 8u + 8u + 8u + 10u);
}

TEST(WireSize, FragmentCountsGroupCountExactlyOnce) {
  EXPECT_GT(core::modeled_size(small_fragment(64, 100)),
            core::modeled_size(small_fragment(64, 10)));
  // The whole layout in one formula (fragment.h documents it next to the
  // codec walk): meta fixed part + dest bitset + share bytes.
  EXPECT_EQ(core::modeled_size(small_fragment(64, 10)),
            core::kFragmentMetaModeledBytes + 8u + 10u);
  EXPECT_EQ(core::kFragmentMetaModeledBytes, 12u + 4u + 4u + 8u + 8u + 4u);
}

TEST(WireSize, GossipMsgSumsRumors) {
  gossip::GossipMsg msg;
  EXPECT_EQ(msg.modeled_size(), 4u);
  EXPECT_EQ(msg.encoded_size(), 1u);  // just the varint count
  gossip::GossipRumor r;
  r.dest = DynamicBitset(64);
  auto body = std::make_shared<core::FragmentBody>();
  body->fragment = small_fragment(64, 16);
  r.body = body;
  const auto one_m = msg.modeled_size();
  const auto one_e = msg.encoded_size();
  msg.rumors.push_back(r);
  const auto two_m = msg.modeled_size();
  const auto two_e = msg.encoded_size();
  msg.rumors.push_back(r);
  // Identical rumors (gid delta 0) grow both sizes by equal increments.
  EXPECT_EQ(msg.modeled_size() - two_m, two_m - one_m);
  EXPECT_EQ(msg.encoded_size() - two_e, two_e - one_e);
  EXPECT_GT(two_m, one_m);
  EXPECT_GT(two_e, one_e);
}

TEST(WireSize, BatchAndDirectPayloads) {
  baseline::BaselineRumorPayload single;
  single.rumor = small_rumor(64, 16);
  EXPECT_EQ(single.modeled_size(), sim::modeled_size(single.rumor));

  baseline::BaselineBatchPayload batch;
  batch.rumors = {small_rumor(64, 16), small_rumor(64, 16)};
  EXPECT_EQ(batch.modeled_size(), 4u + 2 * sim::modeled_size(small_rumor(64, 16)));

  core::DirectRumorPayload direct;
  direct.rumor = small_rumor(64, 16);
  EXPECT_EQ(direct.modeled_size(), sim::modeled_size(direct.rumor));
}

TEST(WireSize, MetadataPayloadsAreDataFree) {
  // Shares and reports carry identifiers only: size independent of any
  // rumor payload length (that is what makes them safe to gossip widely).
  core::HitSetShareBody share;
  share.hits.resize(5);
  EXPECT_EQ(share.modeled_size(), 24u + 5 * core::kHitModeledBytes);
  core::DistributionReportBody report;
  report.hits.resize(3);
  EXPECT_EQ(report.modeled_size(), 24u + 3 * core::kHitModeledBytes);
  core::ProxyAckPayload ack;
  EXPECT_EQ(ack.modeled_size(), 8u);
}

TEST(WireSize, StrongAckScalesWithUids) {
  // The pre-codec version of this payload had NO size override: every ack
  // was billed the 8-byte opaque default regardless of contents.
  baseline::StrongAckPayload ack;
  EXPECT_EQ(ack.modeled_size(), 4u);
  ack.uids.resize(10, RumorUid{1, 1});
  EXPECT_EQ(ack.modeled_size(), 4u + 10 * 12u);
  EXPECT_GT(ack.encoded_size(), 10u);  // >= 1 byte per uid on the real wire
}

TEST(WireSize, StatsAccumulateBytes) {
  sim::MessageStats s;
  s.note_sent(sim::ServiceKind::kProxy, 100, 120);
  s.note_sent(sim::ServiceKind::kProxy, 50, 60);
  s.end_round(0);
  s.note_sent(sim::ServiceKind::kFallback, 10, 12);
  s.end_round(1);
  EXPECT_EQ(s.total_bytes(), 160u);
  EXPECT_EQ(s.max_bytes_per_round(), 150u);
  EXPECT_EQ(s.max_bytes_from(1), 10u);
  EXPECT_NEAR(s.mean_bytes_per_round(), 80.0, 1e-9);
  EXPECT_EQ(s.total_modeled_bytes(), 192u);
  EXPECT_EQ(s.total_modeled_bytes(sim::ServiceKind::kProxy), 180u);
}

TEST(WireSize, StatsByteCountersDoNotNarrow) {
  // Large-n sweeps overflow 32-bit intermediates; the whole accumulation
  // path is std::uint64_t (static_asserts in stats.h pin the member types).
  sim::MessageStats s;
  const std::uint64_t big = 1ull << 40;
  for (int i = 0; i < 8; ++i) s.note_sent(sim::ServiceKind::kProxy, big, big);
  s.end_round(0);
  EXPECT_EQ(s.total_bytes(), 8 * big);
  EXPECT_EQ(s.total_bytes(sim::ServiceKind::kProxy), 8 * big);
  EXPECT_EQ(s.total_modeled_bytes(), 8 * big);
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
  // Bytes strictly exceed message count (every frame has a header and an
  // 8-byte checksum).
  EXPECT_GT(r.total_bytes, r.total_messages * sim::kEnvelopeHeaderBytes);
  // The compact encoding beats the fixed-width model: actual < modeled.
  EXPECT_GT(r.total_bytes_modeled, 0u);
  EXPECT_LT(r.total_bytes, r.total_bytes_modeled);
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
  // Delta-gid and shared-header batching compress the real wire well below
  // the fixed-width model on fragment-heavy traffic.
  EXPECT_LT(small.total_bytes, small.total_bytes_modeled);
  EXPECT_LT(big.total_bytes, big.total_bytes_modeled);
}

}  // namespace
}  // namespace congos
