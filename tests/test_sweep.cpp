// SweepRunner determinism contract: per-scenario results are byte-identical
// to serial execution at any thread count, including a pinned golden trace
// when the scenario runs through the pool. This is the test the CI TSan job
// exercises (CONGOS_SANITIZE=thread).
#include "harness/sweep.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "sim/engine.h"
#include "sim/trace.h"

namespace congos {
namespace {

using harness::Protocol;
using harness::ScenarioConfig;
using harness::ScenarioResult;
using harness::SweepRunner;

/// Field-by-field equality; doubles compare exactly (the executions are
/// deterministic, so even floating-point aggregates must be bitwise equal).
void expect_identical(const ScenarioResult& a, const ScenarioResult& b,
                      const char* context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(a.max_per_round, b.max_per_round);
  EXPECT_EQ(a.mean_per_round, b.mean_per_round);
  EXPECT_EQ(a.p50_per_round, b.p50_per_round);
  EXPECT_EQ(a.p95_per_round, b.p95_per_round);
  EXPECT_EQ(a.total_messages, b.total_messages);
  for (std::size_t k = 0; k < sim::kNumServiceKinds; ++k) {
    EXPECT_EQ(a.max_by_kind[k], b.max_by_kind[k]) << "kind " << k;
    EXPECT_EQ(a.total_by_kind[k], b.total_by_kind[k]) << "kind " << k;
  }
  EXPECT_EQ(a.max_bytes_per_round, b.max_bytes_per_round);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.qod.rumors, b.qod.rumors);
  EXPECT_EQ(a.qod.admissible_pairs, b.qod.admissible_pairs);
  EXPECT_EQ(a.qod.delivered_on_time, b.qod.delivered_on_time);
  EXPECT_EQ(a.qod.late, b.qod.late);
  EXPECT_EQ(a.qod.missing, b.qod.missing);
  EXPECT_EQ(a.qod.bonus_deliveries, b.qod.bonus_deliveries);
  EXPECT_EQ(a.qod.data_mismatches, b.qod.data_mismatches);
  EXPECT_EQ(a.qod.mean_latency, b.qod.mean_latency);
  EXPECT_EQ(a.qod.latency_p50, b.qod.latency_p50);
  EXPECT_EQ(a.qod.latency_p95, b.qod.latency_p95);
  EXPECT_EQ(a.qod.latency_max, b.qod.latency_max);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.leaks, b.leaks);
  EXPECT_EQ(a.foreign_fragments, b.foreign_fragments);
  EXPECT_EQ(a.unknown_payloads, b.unknown_payloads);
  EXPECT_EQ(a.weakest_coalition, b.weakest_coalition);
  EXPECT_EQ(a.cg_confirmed, b.cg_confirmed);
  EXPECT_EQ(a.cg_shoots, b.cg_shoots);
  EXPECT_EQ(a.cg_shoot_messages, b.cg_shoot_messages);
  EXPECT_EQ(a.cg_injected_direct, b.cg_injected_direct);
  EXPECT_EQ(a.cg_reassembled, b.cg_reassembled);
  EXPECT_EQ(a.filter_drops, b.filter_drops);
  EXPECT_EQ(a.theorem1_dest_pairs, b.theorem1_dest_pairs);
  EXPECT_EQ(a.strong_max_merged, b.strong_max_merged);
}

/// A small but diverse grid: every protocol family, plus churn and a
/// Theorem-1 workload, so the equivalence check covers all result fields.
std::vector<ScenarioConfig> mixed_grid() {
  std::vector<ScenarioConfig> grid;
  for (Protocol p : {Protocol::kCongos, Protocol::kDirect, Protocol::kDirectPaced,
                     Protocol::kStrongConfidential, Protocol::kPlainGossip}) {
    ScenarioConfig cfg;
    cfg.n = 16;
    cfg.seed = 50 + static_cast<std::uint64_t>(p);
    cfg.rounds = 96;
    cfg.protocol = p;
    cfg.continuous.inject_prob = 0.02;
    cfg.continuous.deadlines = {32};
    grid.push_back(cfg);
  }
  {
    ScenarioConfig cfg;
    cfg.n = 24;
    cfg.seed = 99;
    cfg.rounds = 96;
    cfg.protocol = Protocol::kCongos;
    cfg.continuous.inject_prob = 0.02;
    cfg.continuous.deadlines = {32};
    cfg.churn = adversary::RandomChurn::Options{};
    cfg.churn->crash_prob = 0.01;
    cfg.churn->restart_prob = 0.2;
    cfg.churn->min_alive = 8;
    grid.push_back(cfg);
  }
  {
    ScenarioConfig cfg;
    cfg.n = 16;
    cfg.seed = 123;
    cfg.rounds = 48;
    cfg.protocol = Protocol::kStrongConfidential;
    cfg.workload = harness::WorkloadKind::kTheorem1;
    cfg.theorem1.x = 3.0;
    cfg.theorem1.dmax = 32;
    grid.push_back(cfg);
  }
  return grid;
}

SweepRunner::Options quiet(std::size_t threads) {
  SweepRunner::Options opts;
  opts.threads = threads;
  opts.progress = false;
  return opts;
}

TEST(SweepRunner, SerialVsParallelEquivalence) {
  const auto grid = mixed_grid();
  const auto serial = harness::run_sweep(grid, quiet(1));
  ASSERT_EQ(serial.size(), grid.size());
  for (std::size_t threads : {2u, 8u}) {
    const auto parallel = harness::run_sweep(grid, quiet(threads));
    ASSERT_EQ(parallel.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " scenario=" + std::to_string(i));
      expect_identical(serial[i], parallel[i], "serial vs parallel");
    }
  }
}

TEST(SweepRunner, MatchesDirectRunScenario) {
  const auto grid = mixed_grid();
  const auto pooled = harness::run_sweep(grid, quiet(4));
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto direct = harness::run_scenario(grid[i]);
    expect_identical(direct, pooled[i],
                     ("run_scenario vs pool, scenario " + std::to_string(i)).c_str());
  }
}

TEST(SweepRunner, GoldenChurnTraceSurvivesThePool) {
  // The exact scenario pinned by Golden.CongosChurnTraceIsPinned, run twice
  // concurrently through the pool with per-entry observers: both traces must
  // reproduce the pinned hash bit-for-bit.
  ScenarioConfig cfg;
  cfg.n = 64;
  cfg.seed = 20260805;
  cfg.rounds = 96;
  cfg.protocol = Protocol::kCongos;
  cfg.continuous.inject_prob = 0.02;
  cfg.continuous.deadlines = {32};
  adversary::RandomChurn::Options churn;
  churn.crash_prob = 0.01;
  churn.restart_prob = 0.2;
  churn.min_alive = 48;
  cfg.churn = churn;

  sim::TraceLog traces[2] = {sim::TraceLog({.record_deliveries = false}),
                             sim::TraceLog({.record_deliveries = false})};
  std::vector<ScenarioConfig> grid(2, cfg);
  grid[0].extra_observers.push_back(&traces[0]);
  grid[1].extra_observers.push_back(&traces[1]);

  const auto results = harness::run_sweep(grid, quiet(2));
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ(traces[i].round_deliveries().size(), 130u);
    EXPECT_EQ(traces[i].trace_hash(), 17331845611235902561ull);
    EXPECT_EQ(results[i].injected, 92u);
    EXPECT_EQ(results[i].total_messages, 281730u);
    EXPECT_EQ(results[i].leaks, 0u);
  }
  EXPECT_EQ(traces[0].round_deliveries(), traces[1].round_deliveries());
}

TEST(SweepRunner, EmptyGridReturnsEmpty) {
  EXPECT_TRUE(harness::run_sweep({}, quiet(4)).empty());
}

TEST(SweepRunner, DefaultThreadsIsPositive) {
  EXPECT_GE(SweepRunner::default_threads(), 1u);
  // threads=0 resolves to the default; an explicit count is honored.
  EXPECT_EQ(SweepRunner(quiet(0)).threads(), SweepRunner::default_threads());
  EXPECT_EQ(SweepRunner(quiet(6)).threads(), 6u);
}

}  // namespace
}  // namespace congos
