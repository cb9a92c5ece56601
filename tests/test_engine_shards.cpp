// Shard-count equivalence suite (DESIGN.md section 12): the sharded round
// engine is a wall-clock knob, never a behaviour knob. Every test here runs
// the same scenario at engine_threads 1/2/4/8 and requires byte-identical
// observations — golden trace hashes, per-round delivery counts, adversary
// decision traces, .repro replay verification and stop-and-resume — under
// clean runs, churn, and the PR 5 link-fault mixes (drop/dup/delay/
// partition x retransmission).
//
// The CI TSan job runs this binary too: a data race between shard workers
// would show up here even if it happened not to perturb a trace.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/fnv.h"
#include "harness/record.h"
#include "harness/scenario.h"
#include "replay/codec.h"
#include "replay/recorder.h"
#include "replay/repro.h"
#include "sim/engine.h"

namespace congos {
namespace {

using harness::Protocol;
using harness::ScenarioConfig;
using harness::ScenarioResult;

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

/// Per-round delivered-envelope counts (same observer as test_golden_grid:
/// hashing the vector pins ordering and per-round volume, not aggregates).
class RoundTrace final : public sim::ExecutionObserver {
 public:
  void on_envelope_delivered(const sim::Envelope&, Round) override { ++current_; }
  void on_round_end(Round) override {
    counts_.push_back(current_);
    current_ = 0;
  }
  const std::vector<std::uint64_t>& counts() const { return counts_; }

 private:
  std::uint64_t current_ = 0;
  std::vector<std::uint64_t> counts_;
};

std::uint64_t fnv1a(const std::vector<std::uint64_t>& counts) {
  std::uint64_t h = kFnvOffset;
  for (auto c : counts) h = fnv1a_u64(h, c);
  return h;
}

// ---------------------------------------------------------------------------
// Golden pins: the sharded engine must reproduce the exact constants pinned
// by test_golden_grid for the serial engine. Any drift at any thread count
// means sharding changed protocol behaviour, which is a bug by definition.

TEST(ShardEquivalence, GoldenCongosPinAtEveryThreadCount) {
  for (std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("engine_threads=" + std::to_string(threads));
    ScenarioConfig cfg;
    cfg.n = 32;
    cfg.seed = 7101;
    cfg.rounds = 96;
    cfg.protocol = Protocol::kCongos;
    cfg.congos.gossip_strategy = gossip::GossipStrategy::kEpidemicPush;
    cfg.continuous.inject_prob = 0.02;
    cfg.continuous.deadlines = {48};
    cfg.engine_threads = threads;
    RoundTrace trace;
    cfg.extra_observers.push_back(&trace);
    const ScenarioResult r = harness::run_scenario(cfg);
    // The pins from test_golden_grid's CongosEpidemicPushSeedA.
    EXPECT_EQ(fnv1a(trace.counts()), 11296553228243308885ull);
    EXPECT_EQ(r.total_messages, 108233u);
    EXPECT_EQ(r.total_bytes, 170285414u);
    EXPECT_EQ(r.leaks, 0u);
  }
}

TEST(ShardEquivalence, GoldenPlainGossipPinAtEveryThreadCount) {
  for (std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("engine_threads=" + std::to_string(threads));
    ScenarioConfig cfg;
    cfg.n = 64;
    cfg.seed = 7105;
    cfg.rounds = 96;
    cfg.protocol = Protocol::kPlainGossip;
    cfg.continuous.inject_prob = 0.02;
    cfg.continuous.deadlines = {32};
    cfg.engine_threads = threads;
    RoundTrace trace;
    cfg.extra_observers.push_back(&trace);
    const ScenarioResult r = harness::run_scenario(cfg);
    // The pins from test_golden_grid's PlainGossip.
    EXPECT_EQ(fnv1a(trace.counts()), 1631052094024548409ull);
    EXPECT_EQ(r.total_messages, 24322u);
    EXPECT_EQ(r.total_bytes, 33641671u);
  }
}

// ---------------------------------------------------------------------------
// Fault mixes: the PR 5 chaos dimensions, with churn on top. Each mix is
// recorded serially, then re-recorded at 2/4/8 engine threads; the full
// observation set (trace hash, per-round counts, decision trace) and the
// audited result must match field for field.

struct FaultMix {
  const char* label;
  sim::FaultConfig faults;
};

std::vector<FaultMix> fault_mixes() {
  std::vector<FaultMix> mixes;
  {
    FaultMix m{"drop", {}};
    m.faults.drop_rate = 0.3;
    mixes.push_back(m);
  }
  {
    FaultMix m{"dup+delay", {}};
    m.faults.dup_rate = 0.2;
    m.faults.delay_rate = 0.25;
    m.faults.max_delay = 3;
    mixes.push_back(m);
  }
  {
    FaultMix m{"partition", {}};
    m.faults.partition_period = 16;
    m.faults.partition_duration = 4;
    mixes.push_back(m);
  }
  {
    FaultMix m{"all", {}};
    m.faults.drop_rate = 0.1;
    m.faults.dup_rate = 0.1;
    m.faults.delay_rate = 0.2;
    m.faults.max_delay = 2;
    m.faults.partition_period = 32;
    m.faults.partition_duration = 4;
    mixes.push_back(m);
  }
  return mixes;
}

ScenarioConfig faulted_config(const FaultMix& mix, std::size_t threads) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kCongos;
  cfg.n = 16;
  cfg.seed = 4242;
  cfg.rounds = 64;
  cfg.continuous.inject_prob = 0.05;
  cfg.continuous.deadlines = {32};
  cfg.churn = adversary::RandomChurn::Options{};
  cfg.churn->crash_prob = 0.01;
  cfg.churn->restart_prob = 0.05;
  cfg.churn->min_alive = 4;
  cfg.faults = mix.faults;
  cfg.congos.retransmit.enabled = true;
  cfg.congos.retransmit.budget = 3;
  cfg.congos.retransmit.max_link_delay = cfg.faults.max_delay;
  cfg.engine_threads = threads;
  return cfg;
}

TEST(ShardEquivalence, FaultMixesByteIdentical) {
  for (const FaultMix& mix : fault_mixes()) {
    const auto serial = harness::run_recorded(faulted_config(mix, 1), "shards",
                                              "serial reference");
    for (std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      SCOPED_TRACE(std::string(mix.label) + " engine_threads=" +
                   std::to_string(threads));
      const auto sharded = harness::run_recorded(faulted_config(mix, threads),
                                                 "shards", "sharded run");
      EXPECT_EQ(sharded.repro.trace_hash, serial.repro.trace_hash);
      EXPECT_EQ(sharded.repro.round_deliveries, serial.repro.round_deliveries);
      EXPECT_EQ(sharded.repro.decisions, serial.repro.decisions);
      EXPECT_EQ(sharded.result.total_messages, serial.result.total_messages);
      EXPECT_EQ(sharded.result.total_bytes, serial.result.total_bytes);
      EXPECT_EQ(sharded.result.injected, serial.result.injected);
      EXPECT_EQ(sharded.result.crashes, serial.result.crashes);
      EXPECT_EQ(sharded.result.restarts, serial.result.restarts);
      EXPECT_EQ(sharded.result.fault_total, serial.result.fault_total);
      for (std::size_t k = 0; k < sim::kNumFaultKinds; ++k) {
        EXPECT_EQ(sharded.result.faults_by_kind[k],
                  serial.result.faults_by_kind[k])
            << "fault kind " << k;
      }
      EXPECT_EQ(sharded.result.leaks, serial.result.leaks);
      EXPECT_EQ(sharded.result.qod.delivered_on_time,
                serial.result.qod.delivered_on_time);
      EXPECT_EQ(sharded.result.qod.late, serial.result.qod.late);
      EXPECT_EQ(sharded.result.qod.missing, serial.result.qod.missing);
    }
  }
}

// ---------------------------------------------------------------------------
// Replay: engine_threads is deliberately NOT serialized into a .repro, so a
// run recorded under sharding replays under whatever thread count the
// replaying host defaults to (serial under plain ctest). verified() passing
// here IS the byte-identity proof across the record/replay thread gap.

TEST(ShardEquivalence, ShardedRecordingReplaysVerified) {
  ScenarioConfig cfg = faulted_config(fault_mixes()[3], /*threads=*/4);
  const auto recorded = harness::run_recorded(cfg, "shards", "replay gap");

  // Through the full serialization path, not just in-memory.
  const auto bytes = replay::encode(recorded.repro);
  replay::ReproFile loaded;
  std::string error;
  ASSERT_TRUE(replay::decode(bytes, &loaded, &error)) << error;
  EXPECT_EQ(loaded.config.engine_threads, 0u)
      << "engine_threads must not survive serialization";

  const harness::ReplayReport report = harness::replay_file(loaded);
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(report.verified());
  EXPECT_EQ(report.trace_hash, recorded.repro.trace_hash);
  EXPECT_EQ(report.result.total_messages, recorded.result.total_messages);
  EXPECT_EQ(report.result.fault_total, recorded.result.fault_total);
}

// ---------------------------------------------------------------------------
// Rewind under sharding + faults: rewinding is re-execution to round R
// (DESIGN.md section 7), so a run stopped at R and then finished must equal
// the uninterrupted serial recording at every thread count, under a
// dup+delay mix whose delayed queue and fault Rng carry across the stop.

TEST(ShardEquivalence, PrefixReplayShardedUnderFaults) {
  const auto serial = harness::run_recorded(faulted_config(fault_mixes()[1], 1),
                                            "shards", "serial reference");
  for (std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("engine_threads=" + std::to_string(threads));
    replay::DecisionRecorder rec;
    ScenarioConfig cfg = faulted_config(fault_mixes()[1], threads);
    cfg.extra_observers.push_back(&rec);
    harness::ScenarioRun run(cfg);
    const Round mid = run.total_rounds() / 2;
    run.run_until(mid);
    ASSERT_EQ(run.engine().now(), mid);
    ASSERT_TRUE(run.engine().network().faults_enabled());
    run.run_all();
    ASSERT_TRUE(run.finished());
    EXPECT_EQ(rec.round_deliveries(), serial.repro.round_deliveries);
    EXPECT_EQ(rec.decisions(), serial.repro.decisions);
    EXPECT_EQ(rec.trace_hash(), serial.repro.trace_hash);
  }
}

// Dead-process bookkeeping across an out-of-band crash at a round boundary:
// crash() between steps must keep the incremental alive id list and the
// drop-all inbound policy consistent at every thread count.

TEST(ShardEquivalence, CrashBetweenRoundsStaysConsistent) {
  for (std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("engine_threads=" + std::to_string(threads));
    ScenarioConfig cfg = faulted_config(fault_mixes()[0], threads);
    harness::ScenarioRun run(cfg);
    run.run_until(16);
    sim::Engine& eng = run.engine();

    // Crash the first alive process, step, restart it, and finish: nothing
    // to pin here beyond "the invariants hold" — the CONGOS_ASSERTs inside
    // Engine fire on any alive-set / filter-policy divergence. The churn
    // adversary may beat us to the restart, so re-check liveness first.
    ASSERT_FALSE(eng.alive_ids().empty());
    const ProcessId victim = eng.alive_ids().front();
    eng.crash(victim);
    EXPECT_FALSE(eng.alive(victim));
    eng.step();
    if (!eng.alive(victim)) eng.restart(victim);
    EXPECT_TRUE(eng.alive(victim));
    run.run_all();
    EXPECT_TRUE(run.finished());
  }
}

}  // namespace
}  // namespace congos
