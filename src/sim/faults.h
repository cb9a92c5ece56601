// Deterministic link-fault injection (DESIGN.md section 10).
//
// The paper assumes a synchronous *reliable* network (Section 2); this layer
// deliberately breaks that assumption so experiments can measure how the
// protocol stack degrades. A FaultConfig describes a per-envelope fault
// distribution - independent drop / duplication / bounded delay - plus a
// deterministic schedule of transient bidirectional partitions. The plan is
// a first-class adversary dimension: it is part of the scenario
// configuration and recorded into .repro files.
//
// Determinism contract: all fault randomness comes from a dedicated Rng
// seeded by FaultConfig::seed, never from the engine RNG, so (a) a faults-off
// run is byte-identical to a run of a build without this layer, and (b)
// enabling faults perturbs only deliveries, not the protocol's own random
// choices. Partition membership is a pure hash of (seed, epoch, process) and
// consumes no RNG state at all.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/rng.h"
#include "common/types.h"
#include "sim/stats.h"

namespace congos::sim {

/// Per-envelope link-fault model. All-defaults means "reliable network".
struct FaultConfig {
  /// Probability an envelope is silently lost.
  double drop_rate = 0.0;
  /// Probability a delivered envelope is additionally delivered a second
  /// time, 1..max(1, max_delay) rounds later.
  double dup_rate = 0.0;
  /// Probability an envelope is late: it arrives 1..max_delay rounds after
  /// the round it was sent in (reordering falls out of this - a delayed
  /// envelope is overtaken by everything sent meanwhile).
  double delay_rate = 0.0;
  /// Upper bound (inclusive) on the lateness of delayed/duplicated envelopes.
  Round max_delay = 1;
  /// Transient partitions: every `partition_period` rounds the processes are
  /// re-split into two sides by hash; for the first `partition_duration`
  /// rounds of each period, envelopes crossing the cut are lost in both
  /// directions. 0 disables partitions.
  Round partition_period = 0;
  Round partition_duration = 0;
  /// Seed of the dedicated fault Rng and of the partition-side hash.
  std::uint64_t seed = 0xfa071;

  bool partitions_enabled() const {
    return partition_period > 0 && partition_duration > 0;
  }
  bool enabled() const {
    return drop_rate > 0.0 || dup_rate > 0.0 || delay_rate > 0.0 ||
           partitions_enabled();
  }

  friend bool operator==(const FaultConfig&, const FaultConfig&) = default;
};

/// Parses the CLI fault spec: comma-separated `key:value` pairs, e.g.
/// `drop:0.05,delay:2,dup:0.01,partition:16/4,seed:7`.
///   drop:P        - drop_rate = P
///   dup:P         - dup_rate = P
///   delay:K       - max_delay = K rounds; sets delay_rate to 0.25 unless
///                   delay-rate is also given
///   delay-rate:P  - delay_rate = P
///   partition:A/B - partition_period = A, partition_duration = B
///   seed:S        - fault seed
/// Returns false and fills *error on a malformed spec.
bool parse_fault_spec(const std::string& spec, FaultConfig* out, std::string* error);

/// Canonical one-line rendering of a config, round-trippable through
/// parse_fault_spec. Returns "off" for a disabled config.
std::string describe(const FaultConfig& cfg);

/// Which side of the transient cut process p is on during epoch `epoch`
/// (= round / partition_period). Pure hash: no RNG state.
inline int partition_side(std::uint64_t seed, std::uint64_t epoch, ProcessId p) {
  std::uint64_t x = seed ^ (epoch * 0x9e3779b97f4a7c15ull) ^
                    ((static_cast<std::uint64_t>(p) + 1) * 0xbf58476d1ce4e5b9ull);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  return static_cast<int>(x & 1);
}

/// True iff the transient partition is active in `round`.
inline bool partition_active(const FaultConfig& cfg, Round round) {
  if (!cfg.partitions_enabled() || round < 0) return false;
  return round % cfg.partition_period < cfg.partition_duration;
}

/// True iff an envelope from -> to crosses an active cut in `round`.
inline bool partition_cuts(const FaultConfig& cfg, Round round, ProcessId from,
                           ProcessId to) {
  if (!partition_active(cfg, round)) return false;
  const auto epoch = static_cast<std::uint64_t>(round / cfg.partition_period);
  return partition_side(cfg.seed, epoch, from) != partition_side(cfg.seed, epoch, to);
}

/// What the fault plan does to one message.
struct LinkFault {
  std::optional<FaultKind> kind;  // none: delivered on time, once
  /// Rounds after the send round that a held copy arrives (delayed and
  /// duplicated messages), else 0.
  Round lateness = 0;

  /// Whether the message also arrives in its own round.
  bool on_time() const { return !kind || *kind == FaultKind::kDuplicated; }
};

/// One draw of the fault plan for a message from -> to sent in `round`: the
/// transient cut, then drop, delay and duplicate, each drawn from `rng` only
/// when its rate is positive, and a lateness of 1..max(1, max_delay) for a
/// held copy. The simulator's Network and the real wire's FaultShim both
/// call this, so one config yields the same fault mix in both runtimes.
LinkFault draw_link_fault(const FaultConfig& cfg, Rng& rng, Round round, ProcessId from,
                          ProcessId to);

}  // namespace congos::sim
