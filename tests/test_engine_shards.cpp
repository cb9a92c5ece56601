// Shard-count equivalence suite (DESIGN.md section 12): the sharded round
// engine is a wall-clock knob, never a behaviour knob. Every test here runs
// the same scenario at engine_threads 1/2/4/8 and requires byte-identical
// observations — golden trace hashes, per-round delivery counts, TraceLog
// lifecycle events, .repro replay verification and stop-and-resume — under
// clean runs, churn, and the PR 5 link-fault mixes (drop/dup/delay/
// partition x retransmission).
//
// The CI TSan job runs this binary too: a data race between shard workers
// would show up here even if it happened not to perturb a trace.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "audit/confidentiality.h"
#include "audit/qod.h"
#include "congos/congos_process.h"
#include "harness/record.h"
#include "harness/scenario.h"
#include "replay/repro.h"
#include "sim/engine.h"
#include "sim/trace.h"

namespace congos {
namespace {

using harness::Protocol;
using harness::ScenarioConfig;
using harness::ScenarioResult;

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

/// Lifecycle events and per-round delivery counts, nothing else.
sim::TraceLog lifecycle_trace() {
  return sim::TraceLog({.capacity = SIZE_MAX, .record_deliveries = false});
}

/// The whole QoD report (latency distribution, bonus deliveries and data
/// mismatches included) must not move with the thread count. The first call
/// records the reference.
void expect_same_qod(const audit::QodReport& got,
                     std::optional<audit::QodReport>* reference) {
  EXPECT_GT(got.delivered_on_time, 0u);
  if (*reference) {
    EXPECT_EQ(got, **reference);
  } else {
    *reference = got;
  }
}

// ---------------------------------------------------------------------------
// Golden pins: the sharded engine must reproduce the exact constants pinned
// by test_golden_grid for the serial engine. Any drift at any thread count
// means sharding changed protocol behaviour, which is a bug by definition.

TEST(ShardEquivalence, GoldenCongosPinAtEveryThreadCount) {
  std::optional<audit::QodReport> qod;
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
    sim::TraceLog trace = lifecycle_trace();
    cfg.extra_observers.push_back(&trace);
    const ScenarioResult r = harness::run_scenario(cfg);
    // The pins from test_golden_grid's CongosEpidemicPushSeedA.
    EXPECT_EQ(trace.trace_hash(), 11296553228243308885ull);
    EXPECT_EQ(r.total_messages, 108233u);
    EXPECT_EQ(r.total_bytes, 170285414u);
    EXPECT_EQ(r.leaks, 0u);
    expect_same_qod(r.qod, &qod);
  }
}

TEST(ShardEquivalence, GoldenPlainGossipPinAtEveryThreadCount) {
  std::optional<audit::QodReport> qod;
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
    sim::TraceLog trace = lifecycle_trace();
    cfg.extra_observers.push_back(&trace);
    const ScenarioResult r = harness::run_scenario(cfg);
    // The pins from test_golden_grid's PlainGossip.
    EXPECT_EQ(trace.trace_hash(), 1631052094024548409ull);
    EXPECT_EQ(r.total_messages, 24322u);
    EXPECT_EQ(r.total_bytes, 33641671u);
    expect_same_qod(r.qod, &qod);
  }
}

// GroupDistribution's partials messages share their fragments with the
// sender's block state, so one fragment is referenced from envelopes that
// different receive shards read while the sender's shard moves on. The
// GD-heavy config of test_golden's GroupDistributionHeavyTraceIsPinned must
// give the same results, and its pins, at every thread count.
TEST(ShardEquivalence, SharedPartialsAtEveryThreadCount) {
  constexpr auto kGd = static_cast<std::size_t>(sim::ServiceKind::kGroupDistribution);
  std::optional<audit::QodReport> qod;
  for (std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("engine_threads=" + std::to_string(threads));
    ScenarioConfig cfg;
    cfg.n = 64;
    cfg.seed = 6464;
    cfg.rounds = 160;
    cfg.protocol = Protocol::kCongos;
    cfg.continuous.inject_prob = 0.02;
    cfg.continuous.deadlines = {64};
    cfg.engine_threads = threads;
    sim::TraceLog trace = lifecycle_trace();
    cfg.extra_observers.push_back(&trace);
    const ScenarioResult r = harness::run_scenario(cfg);
    EXPECT_EQ(trace.trace_hash(), 10295818942784333619ull);
    EXPECT_EQ(r.total_messages, 508831u);
    EXPECT_EQ(r.total_bytes, 5633778792u);
    EXPECT_GT(r.total_bytes_by_kind[kGd], 0u);
    EXPECT_EQ(r.total_bytes_by_kind[kGd], 19305672u);
    EXPECT_EQ(r.cg_confirmed, 221u);
    EXPECT_EQ(r.cg_shoots, 0u);
    EXPECT_EQ(r.duplicates_suppressed, 13814715u);
    EXPECT_EQ(r.leaks, 0u);
    expect_same_qod(r.qod, &qod);
  }
}

// ---------------------------------------------------------------------------
// Fault mixes: the PR 5 chaos dimensions, with churn on top. Each mix is
// recorded serially, then re-recorded at 2/4/8 engine threads; the full
// observation set (trace hash, per-round counts, lifecycle events) and the
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
      EXPECT_EQ(sharded.trace.events(), serial.trace.events());
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
      EXPECT_EQ(sharded.result.qod, serial.result.qod);
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
    sim::TraceLog rec = lifecycle_trace();
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
    EXPECT_EQ(rec.events(), serial.trace.events());
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

// ---------------------------------------------------------------------------
// The confidentiality audit runs on the receive shards (DESIGN.md section 12,
// "Confidentiality audit"). Its answers must not depend on the thread count,
// and must equal those of an auditor fed serially from Network::deliver.

using ViolationRow = std::tuple<audit::ViolationKind, ProcessId, ProcessId,
                                std::uint64_t, Round>;

/// Records every injected uid, so per-rumor coalition answers can be read.
class InjectLog final : public sim::ExecutionObserver {
 public:
  void on_inject(const sim::Rumor& rumor, Round) override { uids_.push_back(rumor.uid); }
  const std::vector<RumorUid>& uids() const { return uids_; }

 private:
  std::vector<RumorUid> uids_;
};

struct AuditAnswers {
  std::vector<ViolationRow> violations;
  std::vector<std::uint64_t> counts;
  std::uint64_t unknown_payloads = 0;
  std::size_t weakest = 0;
  std::vector<std::size_t> per_rumor;

  AuditAnswers(const audit::ConfidentialityAuditor& a, const std::vector<RumorUid>& uids)
      : unknown_payloads(a.unknown_payloads()), weakest(a.weakest_rumor_coalition()) {
    for (const audit::Violation& v : a.violations()) {
      violations.emplace_back(v.kind, v.process, v.rumor.source, v.rumor.seq, v.when);
    }
    for (auto kind : {audit::ViolationKind::kFullLeak, audit::ViolationKind::kFragmentSetLeak,
                      audit::ViolationKind::kForeignFragment}) {
      counts.push_back(a.count(kind));
    }
    for (const RumorUid& uid : uids) per_rumor.push_back(a.min_breaking_coalition(uid));
  }
};

/// Runs `cfg` with the built-in (receive-phase) auditor plus a serial
/// delivery-order auditor, and returns both auditors' answers.
std::pair<AuditAnswers, AuditAnswers> audit_both_ways(ScenarioConfig cfg) {
  std::shared_ptr<const partition::PartitionSet> partitions;
  if (cfg.protocol == Protocol::kCongos) {
    partitions = core::CongosProcess::build_partitions(cfg.n, cfg.congos);
  }
  audit::ConfidentialityAuditor serial(cfg.n, partitions.get());
  InjectLog injected;
  cfg.extra_observers.push_back(&serial);
  cfg.extra_observers.push_back(&injected);
  harness::ScenarioRun run(cfg);
  run.run_all();
  return {AuditAnswers(run.confidentiality(), injected.uids()),
          AuditAnswers(serial, injected.uids())};
}

void expect_same_answers(const AuditAnswers& a, const AuditAnswers& b) {
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.unknown_payloads, b.unknown_payloads);
  EXPECT_EQ(a.weakest, b.weakest);
  EXPECT_EQ(a.per_rumor, b.per_rumor);
}

/// Every thread count gives the serial engine's answers, and at each the
/// serial delivery-order auditor agrees. Its violations match even in
/// sequence (not just as a multiset): both auditors merge each round into
/// the canonical order. Returns the serial engine's answers.
AuditAnswers expect_audit_equivalence(
    const std::function<ScenarioConfig(std::size_t)>& make) {
  std::optional<AuditAnswers> reference;
  for (std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("engine_threads=" + std::to_string(threads));
    const auto [sharded, serial] = audit_both_ways(make(threads));
    expect_same_answers(sharded, serial);
    if (reference) {
      expect_same_answers(sharded, *reference);
    } else {
      reference = sharded;
    }
  }
  return *reference;
}

TEST(ShardEquivalence, AuditAnswersOnGoldenCongos) {
  const AuditAnswers answers = expect_audit_equivalence([](std::size_t threads) {
    ScenarioConfig cfg;
    cfg.n = 32;
    cfg.seed = 7101;
    cfg.rounds = 96;
    cfg.protocol = Protocol::kCongos;
    cfg.congos.gossip_strategy = gossip::GossipStrategy::kEpidemicPush;
    cfg.continuous.inject_prob = 0.02;
    cfg.continuous.deadlines = {48};
    cfg.engine_threads = threads;
    return cfg;
  });
  EXPECT_FALSE(answers.per_rumor.empty());
}

TEST(ShardEquivalence, AuditAnswersOnGoldenPlainGossip) {
  // Plain gossip floods kFullLeak, so the violation order is exercised.
  const AuditAnswers answers = expect_audit_equivalence([](std::size_t threads) {
    ScenarioConfig cfg;
    cfg.n = 64;
    cfg.seed = 7105;
    cfg.rounds = 96;
    cfg.protocol = Protocol::kPlainGossip;
    cfg.continuous.inject_prob = 0.02;
    cfg.continuous.deadlines = {32};
    cfg.engine_threads = threads;
    return cfg;
  });
  EXPECT_GT(answers.violations.size(), 100u);
}

TEST(ShardEquivalence, AuditAnswersUnderFaultMixesWithChurn) {
  for (const FaultMix& mix : fault_mixes()) {
    SCOPED_TRACE(mix.label);
    expect_audit_equivalence(
        [&mix](std::size_t threads) { return faulted_config(mix, threads); });
  }
}

// ---------------------------------------------------------------------------
// Audit once: moving the audit point from delivery to the receive phase
// must skip no delivered envelope and see none twice. A receiver observer
// and a delivery observer log the same run; per receiver, the logs must be
// the same envelopes in the same order.

class InboxLog final : public sim::ExecutionObserver {
 public:
  using Entry = std::tuple<Round, ProcessId, sim::ServiceKind, const sim::Payload*>;
  explicit InboxLog(std::size_t n) : per_receiver_(n) {}
  void on_envelope_delivered(const sim::Envelope& e, Round now) override {
    per_receiver_[e.to].emplace_back(now, e.from, e.tag.kind, e.body.get());
  }
  const std::vector<std::vector<Entry>>& per_receiver() const { return per_receiver_; }
  std::size_t total() const {
    std::size_t t = 0;
    for (const auto& v : per_receiver_) t += v.size();
    return t;
  }

 private:
  std::vector<std::vector<Entry>> per_receiver_;
};

/// Crashes a process right after it sent, with kRandom delivery of its
/// in-flight messages, every fourth round; restarts the lowest dead process
/// with kDropAll inbound delivery two rounds later. Processes in between
/// stay dead, so messages keep arriving for dead receivers.
class LifecycleMix final : public sim::Adversary {
 public:
  void at_round_start(sim::Engine& engine) override {
    if (engine.now() % 4 != 3) return;
    for (ProcessId p = 0; p < engine.n(); ++p) {
      if (engine.alive(p) || engine.lifecycle_event_this_round(p)) continue;
      engine.restart(p, sim::PartialDelivery::kDropAll);
      ++restarts;
      return;
    }
  }
  void after_sends(sim::Engine& engine) override {
    if (engine.now() % 4 != 1 || engine.alive_count() <= engine.n() / 2) return;
    const auto& ids = engine.alive_ids();
    const ProcessId victim = ids[static_cast<std::size_t>(engine.now()) % ids.size()];
    if (engine.lifecycle_event_this_round(victim)) return;
    engine.crash(victim, sim::PartialDelivery::kRandom);
    ++crashes;
  }
  std::size_t crashes = 0;
  std::size_t restarts = 0;
};

TEST(ShardEquivalence, ReceiverObserversSeeEachDeliveryOnce) {
  for (std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("engine_threads=" + std::to_string(threads));
    // dup+delay: delayed and duplicated copies are released in later rounds.
    ScenarioConfig cfg = faulted_config(fault_mixes()[1], threads);
    InboxLog serial(cfg.n);
    InboxLog receiver(cfg.n);
    LifecycleMix lifecycle;
    cfg.extra_observers.push_back(&serial);
    cfg.extra_adversaries.push_back(&lifecycle);
    harness::ScenarioRun run(cfg);
    run.engine().add_receiver_observer(&receiver);
    run.run_all();
    const ScenarioResult r = run.finalize();

    EXPECT_GT(lifecycle.crashes, 4u);
    EXPECT_GT(lifecycle.restarts, 4u);
    EXPECT_GT(r.faults_by_kind[static_cast<std::size_t>(sim::FaultKind::kDelayed)], 0u);
    EXPECT_GT(r.faults_by_kind[static_cast<std::size_t>(sim::FaultKind::kDuplicated)], 0u);
    EXPECT_GT(serial.total(), 0u);
    EXPECT_EQ(receiver.total(), serial.total());
    for (ProcessId p = 0; p < cfg.n; ++p) {
      EXPECT_EQ(receiver.per_receiver()[p], serial.per_receiver()[p]) << "receiver " << p;
    }
  }
}

}  // namespace
}  // namespace congos
