// Scenario runner: one-call construction and execution of a full experiment
// (protocol + workload + failure patterns + auditors), shared by the test
// suite, the examples and every bench binary.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>

#include "adversary/patterns.h"
#include "adversary/workload.h"
#include "audit/confidentiality.h"
#include "audit/qod.h"
#include "congos/config.h"
#include "sim/engine.h"
#include "sim/stats.h"

namespace congos::harness {

enum class Protocol {
  kCongos,              // the paper's algorithm
  kDirect,              // source sends all destinations at injection
  kDirectPaced,         // source paces sends across the deadline window
  kStrongConfidential,  // Section 3 baseline (gossip within D only)
  kPlainGossip,         // non-confidential epidemic gossip
};

const char* to_string(Protocol p);

enum class WorkloadKind { kNone, kContinuous, kTheorem1 };

struct ScenarioConfig {
  std::size_t n = 64;
  std::uint64_t seed = 1;
  Round rounds = 512;
  Protocol protocol = Protocol::kCongos;
  core::CongosConfig congos;

  /// Link-fault injection (sim::Network adversary dimension). Disabled by
  /// default; when enabled, see audit::delivery_guaranteed() for whether the
  /// QoD contract still holds for the combination with congos.retransmit.
  sim::FaultConfig faults;

  WorkloadKind workload = WorkloadKind::kContinuous;
  adversary::Continuous::Options continuous;
  adversary::Theorem1::Options theorem1;

  std::optional<adversary::RandomChurn::Options> churn;
  std::optional<adversary::CrashOnService::Options> crash_on_service;
  std::optional<adversary::CrashSenders::Options> crash_senders;

  /// Rounds before this one are excluded from the "measured" statistics
  /// (warm-up: services need ~2/3 * dline uptime before activating).
  Round measure_from = 0;

  /// Fraction of processes behaving lazily (Section 7 "malicious users"
  /// direction: they freeload - no proxy service, no GroupDistribution).
  /// Lazy ids are drawn deterministically from the scenario seed.
  double lazy_fraction = 0.0;

  /// Baseline knobs.
  int baseline_fanout = 3;

  /// The confidentiality auditor inspects every delivered envelope; for pure
  /// message-cost sweeps it can be disabled (QoD auditing stays on). E2 runs
  /// the same protocols with it enabled.
  bool audit_confidentiality = true;

  /// Additional observers to register on the engine (tracing, custom
  /// counters). Not owned; must outlive run_scenario(). When the config is
  /// part of a SweepRunner grid, each entry needs its own observers — they
  /// run on different threads.
  std::vector<sim::ExecutionObserver*> extra_observers;

  /// Additional adversary components, registered after the built-in workload
  /// and failure patterns (custom injection schedules, cover traffic). Not
  /// owned; must outlive run_scenario(). Same per-grid-entry rule as
  /// extra_observers.
  std::vector<sim::Adversary*> extra_adversaries;

  /// Lower bound on the post-run drain window, for workloads injected by
  /// extra_adversaries whose deadlines run_scenario cannot see (the built-in
  /// workloads extend the drain to their own maximum deadline automatically).
  Round min_drain = 0;

  /// Intra-round engine threads (DESIGN.md section 12), passed to
  /// Engine::set_threads: the send and receive phases of every round run
  /// their shards on this many threads. Results are byte-identical at any
  /// value — this knob trades wall clock only, which is also why it is
  /// deliberately NOT part of the .repro serialization: a run recorded at
  /// any thread count replays exactly at any other.
  /// 0 = default_engine_threads() (CONGOS_ENGINE_THREADS, else 1).
  std::size_t engine_threads = 0;
};

/// CONGOS_ENGINE_THREADS when it holds a thread count parse_thread_count
/// accepts, else 1 (one shard, run inline). Parsed once and cached.
std::size_t default_engine_threads();

struct ScenarioResult {
  // message complexity
  std::uint64_t max_per_round = 0;       // after warm-up
  double mean_per_round = 0.0;           // after warm-up
  std::uint64_t p50_per_round = 0;       // after warm-up
  std::uint64_t p95_per_round = 0;       // after warm-up
  std::uint64_t total_messages = 0;      // whole run
  std::uint64_t max_by_kind[sim::kNumServiceKinds] = {};    // after warm-up
  std::uint64_t total_by_kind[sim::kNumServiceKinds] = {};  // after warm-up

  // communication complexity (Section 7 discussion): serialized bytes.
  // Since the wire codec (src/wire) these are ACTUAL encoded sizes — the
  // exact bytes wire::encode_envelope() produces, frame header and checksum
  // included.
  std::uint64_t max_bytes_per_round = 0;  // after warm-up
  std::uint64_t total_bytes = 0;          // whole run
  /// By-service split of total_bytes (E15 reports the breakdown).
  std::uint64_t total_bytes_by_kind[sim::kNumServiceKinds] = {};  // whole run

  // delivery
  audit::QodReport qod;
  std::uint64_t injected = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;

  // link faults (all zero when faults are disabled)
  std::uint64_t faults_by_kind[sim::kNumFaultKinds] = {};
  std::uint64_t fault_total = 0;
  /// Incoming gossip rumors absorbed by gid-idempotence (CONGOS only).
  std::uint64_t duplicates_suppressed = 0;

  // confidentiality
  std::uint64_t leaks = 0;              // Definition-2 violations
  std::uint64_t foreign_fragments = 0;  // structural violations (CONGOS)
  std::uint64_t unknown_payloads = 0;
  /// Smallest curious coalition that could break some rumor (SIZE_MAX when
  /// none): Lemma 14 predicts > tau.
  std::size_t weakest_coalition = SIZE_MAX;

  // CONGOS-specific aggregates (zero for baselines)
  std::uint64_t cg_confirmed = 0;
  std::uint64_t cg_shoots = 0;
  std::uint64_t cg_shoot_messages = 0;
  std::uint64_t cg_injected_direct = 0;
  std::uint64_t cg_reassembled = 0;
  std::uint64_t filter_drops = 0;

  // extra from specific workloads
  std::uint64_t theorem1_dest_pairs = 0;
  /// Largest per-message rumor merge seen by the strongly-confidential
  /// baseline (Theorem 1 bounds this by a constant c w.h.p.).
  std::uint64_t strong_max_merged = 0;

  /// Wall nanoseconds per engine step phase over the run, indexed by
  /// sim::StepPhase (Engine::phase_ns()). The only field that is not a pure
  /// function of the config.
  std::array<std::uint64_t, sim::kNumStepPhases> phase_ns{};
};

/// Builds the system, runs it for cfg.rounds rounds plus a drain period of
/// the maximum deadline, and returns the audited results.
ScenarioResult run_scenario(const ScenarioConfig& cfg);

/// A constructed but not-yet-finished scenario: the decomposed form of
/// run_scenario() for callers that need to stop at a round boundary — the
/// replay tooling (tools/congos_replay --until-round) and rewind, which is
/// re-execution of the same config to the target round. Construction performs
/// exactly the same RNG draws in the same order as run_scenario(), so a
/// ScenarioRun stepped to completion is byte-identical to run_scenario()
/// on the same config.
class ScenarioRun {
 public:
  explicit ScenarioRun(const ScenarioConfig& cfg);
  ~ScenarioRun();
  ScenarioRun(const ScenarioRun&) = delete;
  ScenarioRun& operator=(const ScenarioRun&) = delete;

  const ScenarioConfig& config() const { return cfg_; }
  sim::Engine& engine();
  /// The built-in confidentiality auditor (registered only when
  /// cfg.audit_confidentiality is set).
  const audit::ConfidentialityAuditor& confidentiality() const;

  /// Rounds a full execution takes: cfg.rounds plus the drain window
  /// (maximum workload deadline, at least cfg.min_drain) plus 2.
  Round total_rounds() const;

  /// Step until the engine clock reaches min(r, total_rounds()).
  void run_until(Round r);
  void run_all() { run_until(total_rounds()); }
  bool finished() const;

  /// Aggregate the auditors into a ScenarioResult. Valid any time the
  /// engine is at a round boundary; QoD classification of still-undelivered
  /// rumors is only final once finished().
  ScenarioResult finalize() const;

 private:
  ScenarioConfig cfg_;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace congos::harness
