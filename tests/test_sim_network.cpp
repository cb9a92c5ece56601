#include "sim/network.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace congos::sim {
namespace {

using testutil::IntPayload;
using testutil::make_msg;

struct NetworkFixture : ::testing::Test {
  static constexpr std::size_t kN = 4;
  MessageStats stats;
  Network net{kN, &stats};
  Rng rng{99};
  std::vector<PartialDelivery> out_policy =
      std::vector<PartialDelivery>(kN, PartialDelivery::kDeliverAll);
  DynamicBitset out_filtered{kN};
  std::vector<PartialDelivery> in_policy =
      std::vector<PartialDelivery>(kN, PartialDelivery::kDeliverAll);
  DynamicBitset in_filtered{kN};
  std::vector<Envelope> observed;

  struct Recorder final : DeliveryObserver {
    explicit Recorder(std::vector<Envelope>& sink) : sink(sink) {}
    void on_delivered(const Envelope& e) override { sink.push_back(e); }
    std::vector<Envelope>& sink;
  };

  void deliver() {
    Recorder recorder(observed);
    net.deliver(out_policy, out_filtered, in_policy, in_filtered, rng, &recorder);
  }
};

TEST_F(NetworkFixture, DeliversToInbox) {
  net.submit(make_msg(0, 1, 7));
  net.submit(make_msg(2, 1, 8));
  net.submit(make_msg(3, 0, 9));
  deliver();
  EXPECT_EQ(net.inbox(1).size(), 2u);
  EXPECT_EQ(net.inbox(0).size(), 1u);
  EXPECT_EQ(net.inbox(2).size(), 0u);
  EXPECT_EQ(observed.size(), 3u);
  const auto* p = dynamic_cast<const IntPayload*>(net.inbox(0)[0].body.get());
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->value, 9);
}

TEST_F(NetworkFixture, EndRoundClearsInboxes) {
  net.submit(make_msg(0, 1, 1));
  deliver();
  EXPECT_EQ(net.inbox(1).size(), 1u);
  net.end_round();
  EXPECT_EQ(net.inbox(1).size(), 0u);
}

TEST_F(NetworkFixture, SenderDropAllLosesEverything) {
  out_filtered.set(0);
  out_policy[0] = PartialDelivery::kDropAll;
  net.submit(make_msg(0, 1, 1));
  net.submit(make_msg(0, 2, 2));
  net.submit(make_msg(3, 1, 3));  // unaffected sender
  deliver();
  EXPECT_EQ(net.inbox(1).size(), 1u);
  EXPECT_EQ(net.inbox(2).size(), 0u);
  EXPECT_EQ(observed.size(), 1u);
}

TEST_F(NetworkFixture, ReceiverDropAllLosesInbound) {
  in_filtered.set(2);
  in_policy[2] = PartialDelivery::kDropAll;
  net.submit(make_msg(0, 2, 1));
  net.submit(make_msg(0, 1, 2));
  deliver();
  EXPECT_EQ(net.inbox(2).size(), 0u);
  EXPECT_EQ(net.inbox(1).size(), 1u);
}

TEST_F(NetworkFixture, RandomPolicyDropsAboutHalf) {
  out_filtered.set(0);
  out_policy[0] = PartialDelivery::kRandom;
  constexpr int kMsgs = 2000;
  for (int i = 0; i < kMsgs; ++i) net.submit(make_msg(0, 1, i));
  deliver();
  const auto got = net.inbox(1).size();
  EXPECT_GT(got, kMsgs * 0.4);
  EXPECT_LT(got, kMsgs * 0.6);
}

TEST_F(NetworkFixture, RandomPolicyIsSeedDeterministic) {
  // PartialDelivery::kRandom draws from the engine RNG, so the delivered
  // subset is a pure function of the seed: two networks fed the same
  // submissions and the same Rng seed keep exactly the same envelopes.
  auto delivered_values = [&](std::uint64_t seed) {
    MessageStats st;
    Network n2{kN, &st};
    Rng r2{seed};
    std::vector<PartialDelivery> op(kN, PartialDelivery::kDeliverAll);
    DynamicBitset of(kN);
    of.set(0);
    op[0] = PartialDelivery::kRandom;
    for (int i = 0; i < 64; ++i) n2.submit(make_msg(0, 1, i));
    n2.deliver(op, of, in_policy, in_filtered, r2, nullptr);
    std::vector<int> got;
    for (const auto& e : n2.inbox(1)) {
      got.push_back(dynamic_cast<const IntPayload*>(e.body.get())->value);
    }
    return got;
  };
  const auto first = delivered_values(1234);
  EXPECT_EQ(first, delivered_values(1234));
  EXPECT_NE(first, delivered_values(4321)) << "different seed, same subset: "
                                              "the policy is not drawing";
  EXPECT_FALSE(first.empty());
  EXPECT_LT(first.size(), 64u);
}

TEST_F(NetworkFixture, SentCountIncludesDropped) {
  // Definition 3 counts messages *sent*, even if a crash loses them.
  out_filtered.set(0);
  out_policy[0] = PartialDelivery::kDropAll;
  net.submit(make_msg(0, 1, 1, ServiceKind::kProxy));
  net.submit(make_msg(3, 1, 2, ServiceKind::kProxy));
  deliver();
  stats.end_round(0);
  EXPECT_EQ(stats.total_sent(ServiceKind::kProxy), 2u);
  EXPECT_EQ(net.messages_sent_total(), 2u);
}

TEST_F(NetworkFixture, StatsPerKind) {
  net.submit(make_msg(0, 1, 1, ServiceKind::kGroupGossip));
  net.submit(make_msg(0, 2, 2, ServiceKind::kGroupGossip));
  net.submit(make_msg(1, 2, 3, ServiceKind::kFallback));
  deliver();
  stats.end_round(0);
  EXPECT_EQ(stats.total_sent(ServiceKind::kGroupGossip), 2u);
  EXPECT_EQ(stats.total_sent(ServiceKind::kFallback), 1u);
  EXPECT_EQ(stats.total_sent(), 3u);
  EXPECT_EQ(stats.max_per_round(), 3u);
}

TEST_F(NetworkFixture, OutOfRangeEndpointsAbort) {
  EXPECT_DEATH(net.submit(make_msg(0, 17, 1)), "out of range");
}

TEST(MessageStats, MaxAndPercentiles) {
  MessageStats s;
  for (Round t = 0; t < 10; ++t) {
    for (Round i = 0; i <= t; ++i) s.note_sent(ServiceKind::kOther);
    s.end_round(t);
  }
  EXPECT_EQ(s.max_per_round(), 10u);
  EXPECT_EQ(s.max_round(), 9);
  EXPECT_EQ(s.total_sent(), 55u);
  EXPECT_EQ(s.percentile(0), 1u);
  EXPECT_EQ(s.percentile(100), 10u);
  EXPECT_NEAR(s.mean_per_round(), 5.5, 1e-9);
}

TEST(MessageStats, WarmupWindows) {
  MessageStats s;
  // rounds 0..4: 100 msgs; rounds 5..9: 1 msg
  for (Round t = 0; t < 10; ++t) {
    const int count = t < 5 ? 100 : 1;
    for (int i = 0; i < count; ++i) s.note_sent(ServiceKind::kProxy);
    s.end_round(t);
  }
  EXPECT_EQ(s.max_from(0), 100u);
  EXPECT_EQ(s.max_from(5), 1u);
  EXPECT_EQ(s.max_from(5, ServiceKind::kProxy), 1u);
  EXPECT_EQ(s.max_from(5, ServiceKind::kFallback), 0u);
  EXPECT_NEAR(s.mean_from(5), 1.0, 1e-9);
  EXPECT_EQ(s.total_from(5, ServiceKind::kProxy), 5u);
}

TEST(MessageStats, PercentileFromExcludesWarmup) {
  MessageStats s;
  // Warm-up rounds 0..4: a 1000-message spike. Steady state rounds 5..14:
  // totals 1..10.
  for (Round t = 0; t < 15; ++t) {
    const int count = t < 5 ? 1000 : static_cast<int>(t) - 4;
    for (int i = 0; i < count; ++i) s.note_sent(ServiceKind::kOther);
    s.end_round(t);
  }
  // Whole-run percentiles see the spike; steady-state percentiles must not.
  EXPECT_EQ(s.percentile(100), 1000u);
  EXPECT_EQ(s.percentile_from(5, 100), 10u);
  EXPECT_EQ(s.percentile_from(5, 0), 1u);
  EXPECT_EQ(s.percentile_from(5, 50), 6u);    // rank 4.5 rounds to index 5
  EXPECT_EQ(s.percentile_from(14, 50), 10u);  // one-round tail
  EXPECT_EQ(s.percentile_from(15, 50), 0u);   // empty tail
}

TEST(ServiceKindNames, AllNamed) {
  for (std::size_t k = 0; k < kNumServiceKinds; ++k) {
    EXPECT_STRNE(to_string(static_cast<ServiceKind>(k)), "?");
  }
}

}  // namespace
}  // namespace congos::sim
