// Golden regression tests: a (seed, configuration) pair fully determines an
// execution (single-threaded engine, own RNG, integer arithmetic), so exact
// aggregate numbers are stable across runs and platforms. A diff here means
// protocol behaviour changed - which may be intentional, but must be
// deliberate: update the constants only after understanding why.
#include <gtest/gtest.h>

#include "harness/sweep.h"
#include "sim/trace.h"

namespace congos {
namespace {

harness::ScenarioConfig golden_config(harness::Protocol proto) {
  harness::ScenarioConfig cfg;
  cfg.n = 24;
  cfg.seed = 4242;
  cfg.rounds = 160;
  cfg.continuous.inject_prob = 0.02;
  cfg.continuous.deadlines = {64};
  cfg.protocol = proto;
  return cfg;
}

// The three protocol pins run as one grid through the sweep runner — the
// constants predate the runner, so this doubles as a serial-vs-pool
// equivalence pin on top of tests/test_sweep.cpp.
TEST(Golden, AggregatesAcrossProtocolsViaSweep) {
  const std::vector<harness::ScenarioConfig> grid = {
      golden_config(harness::Protocol::kCongos),
      golden_config(harness::Protocol::kStrongConfidential),
      golden_config(harness::Protocol::kPlainGossip)};
  harness::SweepRunner::Options opts;
  opts.progress = false;
  const auto results = harness::run_sweep(grid, opts);
  ASSERT_EQ(results.size(), 3u);

  const auto& congos = results[0];
  EXPECT_EQ(congos.injected, 71u);
  EXPECT_EQ(congos.qod.delivered_on_time, 381u);
  EXPECT_EQ(congos.total_messages, 104665u);
  EXPECT_EQ(congos.max_per_round, 3240u);
  // Byte pin re-measured when total_bytes switched from the fixed-width
  // size model to actual wire-codec frame sizes (src/wire).
  EXPECT_EQ(congos.total_bytes, 246330656u);
  EXPECT_EQ(congos.leaks, 0u);
  EXPECT_EQ(congos.cg_shoots, 0u);

  const auto& strong = results[1];
  EXPECT_EQ(strong.injected, 71u);
  EXPECT_EQ(strong.qod.delivered_on_time, 381u);
  EXPECT_EQ(strong.total_messages, 15441u);
  EXPECT_EQ(strong.leaks, 0u);

  const auto& plain = results[2];
  EXPECT_EQ(plain.total_messages, 16245u);
  EXPECT_EQ(plain.leaks, 1267u);
}

// Full-system determinism pin: CONGOS under random churn, with the
// confidentiality auditor's coalition analysis on. The per-round delivery
// trace is hashed, so any change in message *ordering or count per round* -
// not just aggregate drift - trips the test. The constants were captured
// from the per-round rebuild-and-sort implementation; the incremental rumor
// index and shared push batches must reproduce them bit-for-bit.
harness::ScenarioConfig churn_config() {
  harness::ScenarioConfig cfg;
  cfg.n = 64;
  cfg.seed = 20260805;
  cfg.rounds = 96;
  cfg.protocol = harness::Protocol::kCongos;
  cfg.continuous.inject_prob = 0.02;
  cfg.continuous.deadlines = {32};
  adversary::RandomChurn::Options churn;
  churn.crash_prob = 0.01;
  churn.restart_prob = 0.2;
  churn.min_alive = 48;
  cfg.churn = churn;
  return cfg;
}

TEST(Golden, CongosChurnTraceIsPinned) {
  auto cfg = churn_config();
  sim::TraceLog trace({.record_deliveries = false});
  cfg.extra_observers.push_back(&trace);
  const auto r = harness::run_scenario(cfg);

  // 96 workload rounds + 32 drain + 2 engine epilogue rounds.
  ASSERT_EQ(trace.round_deliveries().size(), 130u);
  std::uint64_t delivered_total = 0;
  for (auto c : trace.round_deliveries()) delivered_total += c;
  EXPECT_EQ(delivered_total, 269790u);
  EXPECT_EQ(trace.trace_hash(), 17331845611235902561ull);

  EXPECT_EQ(r.injected, 92u);
  EXPECT_EQ(r.total_messages, 281730u);
  EXPECT_EQ(r.crashes, 69u);
  EXPECT_EQ(r.restarts, 66u);
  EXPECT_EQ(r.leaks, 0u);
  // Lemma 14: the weakest rumor-breaking coalition stays above tau.
  EXPECT_EQ(r.weakest_coalition, 2u);
  EXPECT_GT(r.weakest_coalition, static_cast<std::size_t>(cfg.congos.tau));
}

TEST(Golden, CongosChurnRunToRunDeterminism) {
  auto cfg = churn_config();
  sim::TraceLog a({.record_deliveries = false});
  sim::TraceLog b({.record_deliveries = false});
  cfg.extra_observers.assign(1, &a);
  harness::run_scenario(cfg);
  cfg.extra_observers.assign(1, &b);
  harness::run_scenario(cfg);
  EXPECT_EQ(a.round_deliveries(), b.round_deliveries());
}

// Golden pin under link faults: CONGOS over lossy, duplicating and delaying
// links with retransmission on, plus churn. Delayed and duplicated
// envelopes hold gossip batches across rounds, so this run also covers the
// gossip service's copy-on-shared path. The constants were captured before
// the gossip store and the fault draw were rewritten.
TEST(Golden, CongosFaultMixTraceIsPinned) {
  harness::ScenarioConfig cfg;
  cfg.n = 32;
  cfg.seed = 777;
  cfg.rounds = 96;
  cfg.protocol = harness::Protocol::kCongos;
  cfg.continuous.inject_prob = 0.03;
  cfg.continuous.deadlines = {32};
  cfg.faults.drop_rate = 0.05;
  cfg.faults.dup_rate = 0.1;
  cfg.faults.delay_rate = 0.15;
  cfg.faults.max_delay = 3;
  cfg.faults.seed = 31;
  cfg.congos.retransmit.enabled = true;
  cfg.congos.retransmit.budget = 3;
  cfg.congos.retransmit.max_link_delay = cfg.faults.max_delay;
  adversary::RandomChurn::Options churn;
  churn.crash_prob = 0.01;
  churn.restart_prob = 0.2;
  churn.min_alive = 24;
  cfg.churn = churn;
  sim::TraceLog trace({.record_deliveries = false});
  cfg.extra_observers.push_back(&trace);
  const auto r = harness::run_scenario(cfg);

  EXPECT_EQ(trace.trace_hash(), 5978542440070202172ull);
  EXPECT_EQ(r.injected, 93u);
  EXPECT_EQ(r.total_messages, 134383u);
  EXPECT_EQ(r.faults_by_kind[static_cast<std::size_t>(sim::FaultKind::kDropped)], 6450u);
  EXPECT_EQ(r.faults_by_kind[static_cast<std::size_t>(sim::FaultKind::kDuplicated)], 10382u);
  EXPECT_EQ(r.faults_by_kind[static_cast<std::size_t>(sim::FaultKind::kDelayed)], 18407u);
  EXPECT_EQ(r.faults_by_kind[static_cast<std::size_t>(sim::FaultKind::kPartitioned)], 0u);
  EXPECT_EQ(r.duplicates_suppressed, 936029u);
  EXPECT_EQ(r.crashes, 43u);
  EXPECT_EQ(r.qod.delivered_on_time, 202u);
  EXPECT_EQ(r.leaks, 0u);
}

// GroupDistribution-heavy pins: at dline 64 every rumor runs the whole
// Proxy -> GroupDistribution -> AllGossip report pipeline, so the partials
// burst, the hit-set shares and the report confirmations all carry traffic.
// The lossy twin adds retransmission, so partials are ack-gated and the
// acked-hits merge runs too. The constants were captured before the hit set
// became one sorted run and partials began sharing their fragments.
harness::ScenarioConfig gd_heavy_config() {
  harness::ScenarioConfig cfg;
  cfg.n = 64;
  cfg.seed = 6464;
  cfg.rounds = 160;
  cfg.protocol = harness::Protocol::kCongos;
  cfg.continuous.inject_prob = 0.02;
  cfg.continuous.deadlines = {64};
  return cfg;
}

constexpr auto kGdKind = static_cast<std::size_t>(sim::ServiceKind::kGroupDistribution);

TEST(Golden, GroupDistributionHeavyTraceIsPinned) {
  auto cfg = gd_heavy_config();
  sim::TraceLog trace({.record_deliveries = false});
  cfg.extra_observers.push_back(&trace);
  const auto r = harness::run_scenario(cfg);

  EXPECT_EQ(trace.trace_hash(), 10295818942784333619ull);
  EXPECT_EQ(r.total_messages, 508831u);
  EXPECT_EQ(r.total_bytes, 5633778792u);
  EXPECT_GT(r.total_bytes_by_kind[kGdKind], 0u);
  EXPECT_EQ(r.total_bytes_by_kind[kGdKind], 19305672u);
  EXPECT_EQ(r.cg_confirmed, 221u);
  EXPECT_EQ(r.cg_shoots, 0u);
  EXPECT_EQ(r.duplicates_suppressed, 13814715u);
  EXPECT_EQ(r.qod.delivered_on_time, 1134u);
  EXPECT_EQ(r.leaks, 0u);
}

TEST(Golden, GroupDistributionLossyAckedTraceIsPinned) {
  auto cfg = gd_heavy_config();
  cfg.faults.drop_rate = 0.05;
  cfg.faults.seed = 65;
  cfg.congos.retransmit.enabled = true;
  sim::TraceLog trace({.record_deliveries = false});
  cfg.extra_observers.push_back(&trace);
  const auto r = harness::run_scenario(cfg);

  EXPECT_EQ(trace.trace_hash(), 1801488637857728765ull);
  EXPECT_EQ(r.total_messages, 718015u);
  EXPECT_EQ(r.total_bytes, 4140847126u);
  EXPECT_GT(r.total_bytes_by_kind[kGdKind], 0u);
  EXPECT_EQ(r.total_bytes_by_kind[kGdKind], 22548292u);
  EXPECT_EQ(r.faults_by_kind[static_cast<std::size_t>(sim::FaultKind::kDropped)], 35852u);
  EXPECT_EQ(r.cg_confirmed, 220u);
  EXPECT_EQ(r.cg_shoots, 15u);
  EXPECT_EQ(r.duplicates_suppressed, 12997587u);
  EXPECT_EQ(r.qod.delivered_on_time, 1134u);
  EXPECT_EQ(r.leaks, 0u);
}

TEST(Golden, IdenticalWorkloadAcrossProtocols) {
  // The injection schedule depends only on (seed, n, rounds), never on the
  // protocol under test - the comparisons in the benches rely on this.
  const auto a = harness::run_scenario(golden_config(harness::Protocol::kCongos));
  const auto b =
      harness::run_scenario(golden_config(harness::Protocol::kStrongConfidential));
  const auto c = harness::run_scenario(golden_config(harness::Protocol::kDirect));
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(b.injected, c.injected);
  EXPECT_EQ(a.qod.admissible_pairs, b.qod.admissible_pairs);
  EXPECT_EQ(b.qod.admissible_pairs, c.qod.admissible_pairs);
}

}  // namespace
}  // namespace congos
