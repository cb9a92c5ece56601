// ClusterRunner: fork a localhost CONGOS cluster of congos_d daemons and
// audit the observed traffic (DESIGN.md section 13).
//
// run_cluster() forks N congos_d processes, reads their READY handshakes
// off stdout pipes (the daemons bind ephemeral ports, so parallel ctest
// runs never collide), distributes the shared wall-clock epoch and the
// peer port table over the control sockets, injects the configured rumors
// once their target round opens, waits for the round bound, and reaps
// every daemon.
//
// The audits run on what actually happened on the wire: the runner parses
// the per-daemon event logs (net/control.h line format) and replays them
// through the same audit::DeliveryAuditor and audit::ConfidentialityAuditor
// the simulator uses - injections and application deliveries drive QoD
// (Definition 1), and every received envelope frame is re-decoded from its
// logged bytes and fed to the confidentiality auditor (Definition 2), so a
// leak on the real wire is caught by the identical machinery that guards
// the simulator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "audit/confidentiality.h"
#include "audit/qod.h"
#include "common/bitset.h"
#include "common/types.h"

namespace congos::harness {

/// One rumor the runner injects at its source daemon once `round` opens
/// (wall-clock best effort: the daemon stamps the actual injection round).
struct ClusterInject {
  ProcessId source = 0;
  std::uint64_t seq = 0;
  Round round = 2;
  Round deadline = 40;
  DynamicBitset dest;
  std::vector<std::uint8_t> data;
};

/// One scheduled crash in a chaos run: daemon `target` is SIGKILLed (never
/// graceful - the kernel gives it no chance to flush anything) once
/// `kill_round` opens, and respawned `down_rounds` rounds later with
/// congos_d --resume pointed at its last durable checkpoint.
struct KillEvent {
  ProcessId target = 0;
  Round kill_round = 8;
  Round down_rounds = 4;
};

/// Seeded kill-schedule generator - the real-wire echo of the sim
/// adversary's RandomChurn (adversary/patterns.h): which daemons die, when,
/// and for how long are all drawn from one Rng, so a chaos cluster run is
/// reproducible from (seed, n, rounds) alone.
struct KillScheduleConfig {
  std::uint64_t seed = 1;
  /// Scheduled kills to draw (distinct victims; capped by eligible daemons).
  std::size_t kills = 2;
  /// Kill rounds are uniform in [min_round, max_round]; max_round <= 0
  /// derives a bound that leaves every victim time to resume and drain
  /// before the round budget ends.
  Round min_round = 8;
  Round max_round = 0;
  /// Downtime drawn uniform in [down_min, down_max] rounds.
  Round down_min = 4;
  Round down_max = 8;
  /// Never killed - the RandomChurn min_alive/protected_ids analogue (e.g.
  /// injection sources that must outlive their own deadline fallback).
  std::vector<ProcessId> protected_ids;
};

std::vector<KillEvent> make_kill_schedule(const KillScheduleConfig& gen,
                                          std::size_t n, Round rounds);

struct ClusterConfig {
  /// Path to the congos_d binary (tests take it from $CONGOS_D_BIN).
  std::string daemon;
  /// Directory for per-daemon artifacts (node<i>.log / node<i>.err);
  /// created if missing.
  std::string workdir;

  std::size_t n = 8;
  std::uint64_t seed = 1;
  std::uint32_t tau = 1;
  /// Keep the fragment pipeline below the Theorem 16 cutoff (congos_d
  /// --no-degenerate). On by default: at cluster-smoke scales (n ~ 8) CONGOS
  /// would otherwise degenerate to direct sending and the run would not
  /// exercise the confidential pipeline at all.
  bool no_degenerate = true;
  /// Forwarded to congos_d --faults (socket-level fault shim); empty = off.
  std::string fault_spec;
  /// Retransmission hardening; on by default - real sockets always risk the
  /// +-1 round of apparent delay from scheduling jitter.
  bool retransmit = true;
  Round max_link_delay = 2;
  /// Batched UDP (sendmmsg/recvmmsg) is the daemon default; false forces
  /// the single-syscall fallback (congos_d --no-batch).
  bool udp_batch = true;
  /// LZ4-compress outbound datagrams (congos_d --compress). Check
  /// wire::lz4_available() first - daemons exit 2 at startup without LZ4.
  bool compress = false;

  Round rounds = 64;
  std::int64_t round_ms = 30;
  /// Per-daemon wall-clock cap (congos_d --duration backstop).
  std::int64_t duration_s = 60;
  /// Per-daemon --duration override in seconds (0 / missing = duration_s).
  /// Tests use this to provoke an unscheduled mid-run exit and assert the
  /// supervisor surfaces it.
  std::vector<std::int64_t> duration_overrides;

  /// Durable checkpoints (congos_d --state / --checkpoint-every): an
  /// append-only journal at <workdir>/state<i>.ckpt, one fsynced batch per
  /// save holding the events since the previous one. Forced on whenever
  /// kill_plan is non-empty, since a respawn without a state file has
  /// nothing to resume from.
  bool durable_state = false;
  Round checkpoint_every = 8;
  /// Scheduled SIGKILL + resume events; supervised by run_cluster's
  /// waitpid loop (see KillEvent / make_kill_schedule).
  std::vector<KillEvent> kill_plan;
  /// Respawn attempts per scheduled kill before the daemon is declared
  /// lost (bounded exponential backoff between attempts).
  int respawn_retries = 3;

  std::vector<ClusterInject> injections;
};

struct ClusterResult {
  /// Setup failure description; empty when the cluster ran to completion.
  std::string error;

  // Observed-traffic audits.
  audit::QodReport qod;
  std::uint64_t leaks = 0;
  std::uint64_t foreign_fragments = 0;
  std::uint64_t unknown_payloads = 0;
  std::size_t weakest_coalition = SIZE_MAX;

  // Log volume (sanity: a silent cluster is a failed cluster).
  std::uint64_t injected = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t recv_frames = 0;
  std::uint64_t log_parse_errors = 0;

  // Crash/restart bookkeeping (mirrors <workdir>/lifecycle.log, which the
  // offline auditors also consume for continuously-alive admissibility).
  std::uint64_t scheduled_kills = 0;
  std::uint64_t resumes = 0;
  /// Daemons that died without a scheduled kill (a real crash or a
  /// mis-specified run). Surfaced, never masked: ok() fails on any.
  std::uint64_t unexpected_exits = 0;
  /// Scheduled respawns that exhausted their retry budget.
  std::uint64_t respawn_failures = 0;
  /// Checkpoint files decoded and replayed through the confidentiality
  /// auditor after the run (a state file is readable by anyone with the
  /// disk, so it gets the same scrutiny as wire traffic).
  std::uint64_t state_files_audited = 0;
  std::uint64_t state_file_errors = 0;

  /// Exit code per daemon (0 = clean; 128+sig when killed).
  std::vector<int> exit_codes;
  /// Each daemon's final `STATS` JSON line (empty when it produced none).
  std::vector<std::string> stats_json;

  bool daemons_ok() const {
    for (const int c : exit_codes) {
      if (c != 0) return false;
    }
    return !exit_codes.empty();
  }
  /// The cluster acceptance gate: everything launched, every daemon's
  /// final incarnation exited clean (scheduled mid-run kills are recorded
  /// in lifecycle counters, not here), no unscheduled death or failed
  /// respawn, QoD held under continuously-alive admissibility, no
  /// confidentiality violation was observed on the wire or in state files,
  /// and the auditor understood every payload it was shown.
  bool ok() const {
    return error.empty() && daemons_ok() && qod.ok() && leaks == 0 &&
           foreign_fragments == 0 && unknown_payloads == 0 &&
           log_parse_errors == 0 && unexpected_exits == 0 &&
           respawn_failures == 0 && state_file_errors == 0;
  }
};

ClusterResult run_cluster(const ClusterConfig& cfg);

/// The offline audit run_cluster() ends with: replays <workdir>/node<i>.log,
/// lifecycle.log and (when durable) the state files through the auditors and
/// fills the audit and log-volume fields of `result`. Reads cfg.workdir, n,
/// tau, no_degenerate, rounds and whether state is durable. A line that does
/// not parse, or names a process outside [0, n), counts in log_parse_errors.
void audit_cluster_logs(const ClusterConfig& cfg, ClusterResult* result);

}  // namespace congos::harness
