// Rumor-injection workloads (the "RI" half of the CRRI adversary).
//
// * OneShot       - explicit (round, source, rumor) list.
// * Continuous    - each alive process injects a fresh rumor each round with
//                   some probability; destination sets and deadlines drawn
//                   from configurable distributions. This is the paper's
//                   dynamic/continuous injection regime.
// * Theorem1      - the lower-bound scenario of Theorems 1 and 12: every
//                   process receives one rumor at round 0 whose destination
//                   set includes each process independently with probability
//                   x/n, all with the same deadline dmax.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "adversary/adversary.h"
#include "common/bitset.h"
#include "sim/rumor.h"

namespace congos::adversary {

/// Deterministically derives rumor payload bytes from the uid so auditors can
/// verify end-to-end data integrity without storing every payload.
std::vector<std::uint8_t> canonical_payload(RumorUid uid, std::size_t len);

class OneShot final : public sim::Adversary {
 public:
  struct Item {
    Round round = 0;
    sim::Rumor rumor;  // uid.source is the injection target
  };

  explicit OneShot(std::vector<Item> items);

  void at_round_start(sim::Engine& engine) override;

 private:
  std::vector<Item> items_;  // sorted by round
  std::size_t next_ = 0;
};

class Continuous final : public sim::Adversary {
 public:
  struct Options {
    /// Probability an alive process injects a rumor in a given round.
    double inject_prob = 0.02;
    /// Destination set size; each rumor picks uniformly in [min, max].
    std::size_t dest_min = 2;
    std::size_t dest_max = 8;
    /// Deadline choices; each rumor picks uniformly among these durations.
    std::vector<Round> deadlines = {64};
    /// Payload length in bytes.
    std::size_t payload_len = 16;
    /// Stop injecting after this round (so executions can drain), -1 = never.
    Round last_injection_round = -1;
    /// Optional explicit destination-set generator; overrides dest_min/max.
    std::function<DynamicBitset(sim::Engine&, ProcessId)> dest_gen;
    /// Section 7: replace sequential rumor sequence numbers with
    /// pseudorandom identifiers so observers cannot infer per-source rumor
    /// counts from confirmation metadata. Uniqueness is preserved (a
    /// per-source permutation of the counter space).
    bool opaque_ids = false;
  };

  explicit Continuous(Options opt) : opt_(std::move(opt)) {}

  void at_round_start(sim::Engine& engine) override;

  std::uint64_t injected_count() const { return injected_; }

 private:
  Options opt_;
  std::vector<std::uint64_t> seq_;  // per-source sequence counters
  std::uint64_t injected_ = 0;
};

class Theorem1 final : public sim::Adversary {
 public:
  struct Options {
    /// Each process is in each destination set independently w.p. x/n.
    double x = 4.0;
    Round dmax = 64;
    std::size_t payload_len = 16;
  };

  explicit Theorem1(Options opt) : opt_(opt) {}

  void at_round_start(sim::Engine& engine) override;

  std::uint64_t injected_count() const { return injected_; }
  /// Total number of (source, destination) pairs created, for the Omega(nx)
  /// accounting in the Theorem 1 experiment.
  std::uint64_t dest_pairs() const { return dest_pairs_; }

 private:
  Options opt_;
  bool done_ = false;
  std::uint64_t injected_ = 0;
  std::uint64_t dest_pairs_ = 0;
};

}  // namespace congos::adversary
