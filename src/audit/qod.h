// DeliveryAuditor: machine-checks Quality of Delivery (Definition 1) and
// end-to-end data integrity.
//
// It observes injections, crashes and restarts (to decide admissibility:
// source and destination continuously alive over [t, t+d]) and receives
// every application-level delivery through the DeliveryListener interface.
// The crash/restart stream comes from the sim engine's lifecycle hooks in
// lockstep runs, and from the cluster runner's lifecycle.log (real SIGKILLs
// of congos_d daemons, net/control.h line format) on the real wire - the
// same admissibility rule judges both (DESIGN.md section 14).
// finalize() classifies every (rumor, destination) pair:
//   * admissible + delivered on time  -> ok          (required by Def. 1)
//   * admissible + late/missing       -> violation   (protocol bug)
//   * not admissible + delivered      -> bonus       (allowed, not required)
// and verifies that delivered bytes equal the injected bytes.
//
// Threading. A process reports deliveries only at itself, so everything a
// report writes lives in the slot of the process it names (`at`): that
// process's first-delivery table and its mismatch count. injected_ is written
// only by on_inject, which the engine calls on the driving thread before any
// phase. So on_rumor_delivered may run concurrently for *different* `at`, with
// no locks, as it does from the receive shards of a sharded engine (DESIGN.md
// section 12). Nothing in the report depends on the order in which reports
// from different processes arrive. Every other member, queries included, must
// run with no report in flight.
#pragma once

#include <unordered_map>
#include <vector>

#include "common/flat_map.h"
#include "congos/config.h"
#include "sim/engine.h"
#include "sim/faults.h"
#include "sim/process.h"

namespace congos::audit {

/// Fault/retransmission delivery contract (DESIGN.md section 10).
///
/// Against a lossy link the deterministic QoD guarantee (Definition 1)
/// survives only when the stack retransmits and the fault mix stays within
/// bounds; outside the bounds the auditor must *detect* violations - the
/// report below never relaxes its classification based on the fault config.
/// Per-envelope drop probability up to which retransmission restores QoD.
inline constexpr double kGuaranteedLossThreshold = 0.10;

/// True iff Definition 1 is still owed under `faults`: faults off, or
/// retransmission on with drop <= kGuaranteedLossThreshold, no partitions,
/// and every possible link delay budgeted for (max_delay <= max_link_delay).
inline bool delivery_guaranteed(const sim::FaultConfig& faults,
                                const core::RetransmitConfig& retransmit) {
  if (!faults.enabled()) return true;
  if (!retransmit.enabled) return false;
  if (faults.partitions_enabled()) return false;
  if (faults.drop_rate > kGuaranteedLossThreshold) return false;
  if (faults.delay_rate > 0.0 && faults.max_delay > retransmit.max_link_delay) {
    return false;
  }
  return true;
}

struct QodReport {
  std::uint64_t rumors = 0;
  std::uint64_t admissible_pairs = 0;
  std::uint64_t delivered_on_time = 0;  // of admissible pairs
  std::uint64_t late = 0;               // admissible but after the deadline
  std::uint64_t missing = 0;            // admissible, never delivered
  std::uint64_t bonus_deliveries = 0;   // non-admissible pairs delivered anyway
  std::uint64_t data_mismatches = 0;
  /// Delivery-latency distribution (rounds) over on-time admissible pairs.
  double mean_latency = 0.0;
  Round latency_p50 = 0;
  Round latency_p95 = 0;
  Round latency_max = 0;

  bool operator==(const QodReport&) const = default;
  bool ok() const { return late == 0 && missing == 0 && data_mismatches == 0; }
};

class DeliveryAuditor final : public sim::ExecutionObserver,
                              public sim::DeliveryListener {
 public:
  explicit DeliveryAuditor(std::size_t n);

  // -- ExecutionObserver -----------------------------------------------------
  void on_inject(const sim::Rumor& rumor, Round now) override;
  void on_crash(ProcessId p, Round now, sim::PartialDelivery policy) override;
  void on_restart(ProcessId p, Round now, sim::PartialDelivery policy) override;

  // -- DeliveryListener -------------------------------------------------------
  /// Writes only the slot of `at` (header comment).
  void on_rumor_delivered(ProcessId at, const RumorUid& uid, Round when,
                          std::span<const std::uint8_t> data) override;

  /// True iff p was alive for the whole closed interval [a, b] with no crash.
  bool continuously_alive(ProcessId p, Round a, Round b) const;

  /// Classify all rumors whose deadline has passed by round `now`
  /// (pass the final round + max deadline to cover everything).
  QodReport finalize(Round now) const;

  /// Delivery round of (uid, p), or kNoRound.
  Round delivery_round(const RumorUid& uid, ProcessId p) const;

  std::uint64_t injected_count() const { return injected_.size(); }

  /// Total crash events observed.
  std::uint64_t crash_count() const;
  /// Total restart events observed.
  std::uint64_t restart_count() const;

 private:
  struct InjectedRumor {
    sim::Rumor rumor;
  };
  struct LifeEvent {
    Round round = 0;
    bool crash = false;  // false = restart
  };
  /// Everything a report at one process writes; only that process touches it.
  struct Slot {
    FlatMap<RumorUid, Round> first_delivery;
    std::uint64_t data_mismatches = 0;
  };

  std::size_t n_;
  std::unordered_map<RumorUid, InjectedRumor> injected_;
  std::vector<std::vector<LifeEvent>> life_;  // per process, chronological
  std::vector<Slot> slots_;                   // per process
};

}  // namespace congos::audit
