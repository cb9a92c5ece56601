#include "harness/scenario.h"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>

#include "harness/table.h"

namespace congos::harness {
namespace {

TEST(Harness, ProtocolNames) {
  EXPECT_STREQ(to_string(Protocol::kCongos), "congos");
  EXPECT_STREQ(to_string(Protocol::kDirect), "direct");
  EXPECT_STREQ(to_string(Protocol::kDirectPaced), "direct-paced");
  EXPECT_STREQ(to_string(Protocol::kStrongConfidential), "strong-conf");
  EXPECT_STREQ(to_string(Protocol::kPlainGossip), "plain-gossip");
}

TEST(Harness, EveryProtocolRunsTheDefaultScenario) {
  for (Protocol p : {Protocol::kCongos, Protocol::kDirect, Protocol::kDirectPaced,
                     Protocol::kStrongConfidential, Protocol::kPlainGossip}) {
    ScenarioConfig cfg;
    cfg.n = 16;
    cfg.seed = 5;
    cfg.rounds = 128;
    cfg.protocol = p;
    cfg.continuous.inject_prob = 0.02;
    cfg.continuous.deadlines = {64};
    const auto r = run_scenario(cfg);
    EXPECT_GT(r.injected, 0u) << to_string(p);
    EXPECT_TRUE(r.qod.ok()) << to_string(p) << " late=" << r.qod.late
                            << " missing=" << r.qod.missing;
    EXPECT_GT(r.total_messages, 0u) << to_string(p);
  }
}

TEST(Harness, NoWorkloadMeansNoTrafficForCongos) {
  ScenarioConfig cfg;
  cfg.n = 16;
  cfg.seed = 6;
  cfg.rounds = 64;
  cfg.workload = WorkloadKind::kNone;
  const auto r = run_scenario(cfg);
  EXPECT_EQ(r.injected, 0u);
  EXPECT_EQ(r.total_messages, 0u);  // quiescent system stays silent
}

TEST(Harness, MeasureFromExcludesWarmup) {
  ScenarioConfig cfg;
  cfg.n = 16;
  cfg.seed = 7;
  cfg.rounds = 128;
  cfg.continuous.inject_prob = 0.05;
  cfg.continuous.deadlines = {64};
  cfg.continuous.last_injection_round = 10;  // burst at the start only
  cfg.measure_from = 0;
  const auto full = run_scenario(cfg);
  cfg.measure_from = 300;  // far past the burst and its drain
  const auto tail = run_scenario(cfg);
  EXPECT_GT(full.max_per_round, tail.max_per_round);
  EXPECT_EQ(tail.max_per_round, 0u);
}

TEST(Harness, StepPhaseTimersAddUpToTheRunWallTime) {
  // Engine::phase_ns() charges consecutive clock reads to the six phases,
  // so over a run they sum to at most the wall time of run_all() (which
  // they sit inside) and to at least 95% of it. The run is lengthened until
  // it takes 200 ms, so fixed costs outside step() cannot dominate. Every
  // phase runs at any thread count, the merge of a lone shard included.
  ScenarioConfig cfg;
  cfg.n = 64;
  cfg.seed = 11;
  cfg.protocol = Protocol::kCongos;
  cfg.continuous.inject_prob = 0.02;
  cfg.continuous.deadlines = {32};
  using Clock = std::chrono::steady_clock;
  for (cfg.engine_threads = 1; cfg.engine_threads <= 2; ++cfg.engine_threads) {
    SCOPED_TRACE("engine_threads=" + std::to_string(cfg.engine_threads));
    for (cfg.rounds = 64;; cfg.rounds *= 2) {
      ScenarioRun run(cfg);
      const Clock::time_point t0 = Clock::now();
      run.run_all();
      const auto wall = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
      if (wall < 200'000'000 && cfg.rounds < 1'000'000) continue;

      const ScenarioResult r = run.finalize();
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < sim::kNumStepPhases; ++i) {
        EXPECT_GT(r.phase_ns[i], 0u) << to_string(static_cast<sim::StepPhase>(i));
        sum += r.phase_ns[i];
      }
      EXPECT_EQ(r.phase_ns, run.engine().phase_ns());
      EXPECT_LE(sum, wall);
      EXPECT_GE(static_cast<double>(sum), 0.95 * static_cast<double>(wall));
      break;
    }
  }
}

TEST(Table, PrintAlignsColumns) {
  Table t({"n", "messages"});
  t.row({"8", "1,000"});
  t.row({"128", "5"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("n    messages"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_NE(out.find("128  5"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, CellHelpers) {
  EXPECT_EQ(cell(static_cast<std::uint64_t>(1234567)), "1,234,567");
  EXPECT_EQ(cell(3.14159, 3), "3.142");
  EXPECT_EQ(cell(std::string("x")), "x");
}

TEST(TableDeath, RowWidthMismatch) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.row({"1"}), "width");
}

}  // namespace
}  // namespace congos::harness
