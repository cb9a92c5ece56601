// Recorded scenario execution and deterministic replay.
//
// run_recorded() executes a scenario with a sim::TraceLog attached and
// returns the result together with a filled replay::ReproFile — the artifact
// SweepRunner dumps when an auditor flags a scenario, and what
// `congos_replay` consumes. replay_file() re-executes a ReproFile's config
// from scratch and cross-checks the recorded fingerprints: the per-round
// delivery counts, their FNV-1a golden hash and the result summary. Any
// mismatch pinpoints the first diverging round or the differing summary
// fields. Because the simulator is a pure function of (config, seed), a
// verified replay is byte-identical, not merely similar.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/scenario.h"
#include "replay/repro.h"
#include "sim/trace.h"

namespace congos::harness {

/// The auditor-failure predicate shared by SweepRunner's artifact dumping
/// and the CI smoke checks: QoD violated, any confidentiality leak, or a
/// structural foreign-fragment violation.
inline bool scenario_failed(const ScenarioResult& r) {
  return !r.qod.ok() || r.leaks > 0 || r.foreign_fragments > 0;
}

struct RecordedRun {
  ScenarioResult result;
  replay::ReproFile repro;
  /// The run's recorder: every lifecycle event, no deliveries.
  sim::TraceLog trace{{.capacity = SIZE_MAX, .record_deliveries = false}};
};

/// Run `cfg` to completion with a TraceLog attached (it is passive: the
/// execution is identical to run_scenario()). The config must be recordable
/// (replay::is_recordable); CONGOS_ASSERTs otherwise. `label`/`reason` are
/// stored verbatim in the artifact.
RecordedRun run_recorded(const ScenarioConfig& cfg, const std::string& label = {},
                         const std::string& reason = {});

struct ReplayOptions {
  /// Stop the re-execution at this round (< 0: run to completion). Partial
  /// replays verify the per-round count prefix; the full-trace hash and the
  /// result summary are only checked on complete runs.
  Round until_round = -1;
};

struct ReplayReport {
  ScenarioResult result;
  Round executed_rounds = 0;
  bool complete = false;

  /// Processes down at the stop round, ascending.
  std::vector<ProcessId> crashed;

  /// FNV-1a hash of the re-executed per-round delivery counts.
  std::uint64_t trace_hash = 0;
  /// Full-run hash equals the recorded hash (complete runs only).
  bool hash_match = false;
  /// Re-executed per-round counts match the recorded ones over the
  /// executed prefix.
  bool counts_match = false;
  /// First differing per-round count, or kNoRound.
  Round first_count_divergence = kNoRound;
  /// Summary fields that differ from the recording, one
  /// "name recorded=X replayed=Y" entry each (complete runs only).
  /// total_bytes is compared only when the file was written by a build
  /// with this build's wire codec version.
  std::vector<std::string> summary_diffs;

  /// Everything checked agrees with the recording.
  bool verified() const {
    return counts_match && (!complete || (hash_match && summary_diffs.empty()));
  }
};

/// Re-execute `file.config` deterministically, recording into `trace` (null:
/// a count-only TraceLog of its own), and compare against the recorded
/// fingerprints.
ReplayReport replay_file(const replay::ReproFile& file, ReplayOptions opt = {},
                         sim::TraceLog* trace = nullptr);

}  // namespace congos::harness
