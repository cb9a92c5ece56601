// Golden seed grid: FNV-1a hashes of per-round delivery traces across a
// grid of (protocol, strategy, seed) points, including a collusion-tolerant
// configuration (tau = 2) whose iteration order exercises the multi-group
// proxy path and the multi-deadline shoot path.
//
// These pins were captured immediately BEFORE the flat-container / payload
// pool migration (PR "allocation-free round engine") from the determinism-
// hardened build: ProxyService::send_requests iterates groups in sorted
// order, so no pinned trace depends on std::unordered_map bucket layout.
// The container swap, the payload pools and the incremental batch engine
// must reproduce every constant bit-for-bit; a diff means the optimisation
// changed protocol behaviour, which is a bug by definition.
#include <gtest/gtest.h>

#include "harness/scenario.h"
#include "sim/trace.h"

namespace congos {
namespace {

struct TracePin {
  std::uint64_t delivered_total = 0;
  std::uint64_t trace_hash = 0;
  std::uint64_t total_messages = 0;
  // Actual wire-codec frame bytes (src/wire), not the fixed-width size
  // model: these pins change whenever kWireFormatVersion's layout does.
  std::uint64_t total_bytes = 0;
};

void expect_pinned(harness::ScenarioConfig cfg, const TracePin& pin) {
  sim::TraceLog trace({.record_deliveries = false});
  cfg.extra_observers.push_back(&trace);
  const auto r = harness::run_scenario(cfg);
  std::uint64_t delivered_total = 0;
  for (auto c : trace.round_deliveries()) delivered_total += c;
  EXPECT_EQ(delivered_total, pin.delivered_total);
  EXPECT_EQ(trace.trace_hash(), pin.trace_hash);
  EXPECT_EQ(r.total_messages, pin.total_messages);
  EXPECT_EQ(r.total_bytes, pin.total_bytes);
  EXPECT_EQ(r.leaks, 0u);
}

harness::ScenarioConfig congos_config(std::uint64_t seed,
                                      gossip::GossipStrategy strategy) {
  harness::ScenarioConfig cfg;
  cfg.n = 32;
  cfg.seed = seed;
  cfg.rounds = 96;
  cfg.protocol = harness::Protocol::kCongos;
  cfg.congos.gossip_strategy = strategy;
  cfg.continuous.inject_prob = 0.02;
  cfg.continuous.deadlines = {48};
  return cfg;
}

TEST(GoldenGrid, CongosEpidemicPushSeedA) {
  expect_pinned(congos_config(7101, gossip::GossipStrategy::kEpidemicPush),
                {108233, 11296553228243308885ull, 108233, 170285414});
}

TEST(GoldenGrid, CongosEpidemicPushSeedB) {
  expect_pinned(congos_config(7102, gossip::GossipStrategy::kEpidemicPush),
                {107652, 1631911090717838219ull, 107652, 163878386});
}

TEST(GoldenGrid, CongosPushPull) {
  expect_pinned(congos_config(7103, gossip::GossipStrategy::kPushPull),
                {162857, 13660042587754093689ull, 162857, 246920996});
}

TEST(GoldenGrid, CongosExpander) {
  expect_pinned(congos_config(7104, gossip::GossipStrategy::kExpander),
                {133184, 12718668825252000421ull, 133184, 265111717});
}

TEST(GoldenGrid, PlainGossip) {
  harness::ScenarioConfig cfg;
  cfg.n = 64;
  cfg.seed = 7105;
  cfg.rounds = 96;
  cfg.protocol = harness::Protocol::kPlainGossip;
  cfg.continuous.inject_prob = 0.02;
  cfg.continuous.deadlines = {32};
  // Plain gossip leaks by design (that is its point of comparison), so pin
  // the trace directly instead of going through expect_pinned's leaks == 0.
  sim::TraceLog trace({.record_deliveries = false});
  cfg.extra_observers.push_back(&trace);
  const auto r = harness::run_scenario(cfg);
  std::uint64_t delivered_total = 0;
  for (auto c : trace.round_deliveries()) delivered_total += c;
  EXPECT_EQ(delivered_total, 24322u);
  EXPECT_EQ(trace.trace_hash(), 1631052094024548409ull);
  EXPECT_EQ(r.total_messages, 24322u);
  EXPECT_EQ(r.total_bytes, 33641671u);
}

// The collusion-tolerant configuration (tau = 2, degenerate cutoff off) runs
// multiple groups per proxy block and multiple fragments per rumor: the only
// grid point whose trace is sensitive to the sorted-group hardening in
// ProxyService::send_requests.
TEST(GoldenGrid, CollusionTau2) {
  harness::ScenarioConfig cfg;
  cfg.n = 48;
  cfg.seed = 7106;
  cfg.rounds = 192;
  cfg.protocol = harness::Protocol::kCongos;
  cfg.congos.tau = 2;
  cfg.congos.allow_degenerate = false;
  cfg.continuous.inject_prob = 0.01;
  cfg.continuous.dest_min = 2;
  cfg.continuous.dest_max = 5;
  cfg.continuous.deadlines = {64};
  cfg.measure_from = 64;
  expect_pinned(cfg, {1105252, 6470995426676477150ull, 1105252, 4219076187ull});
}

}  // namespace
}  // namespace congos
