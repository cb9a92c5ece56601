// Concrete CRRI failure patterns.
//
// * RandomChurn      - memoryless crashes/restarts (benign churn).
// * CrashOnService   - the adaptive attack from Section 1: "every time a
//                      source sends a rumor (fragment) to another process,
//                      the adversary may choose to immediately crash that
//                      recipient". Crashes receivers of messages of a chosen
//                      service kind, after seeing this round's sends.
// * CrashSenders     - adaptive: crashes the *senders* of a chosen service
//                      kind right after they send (tests the partial-delivery
//                      semantics and the source-fallback paths).
// * Scripted         - replays an explicit list of crash/restart events
//                      (oblivious adversary; used for group-killing patterns
//                      and the lower-bound scenarios).
// * MassCrash        - at one round, crashes all but a chosen set of
//                      survivors (Lemma 5 / Lemma 13 stress: only a few
//                      processes stay continuously alive).
#pragma once

#include <vector>

#include "adversary/adversary.h"
#include "common/bitset.h"

namespace congos::adversary {

class RandomChurn final : public sim::Adversary {
 public:
  struct Options {
    double crash_prob = 0.01;    // per alive process per round
    double restart_prob = 0.05;  // per crashed process per round
    std::size_t min_alive = 2;   // never crash below this many alive processes
    /// Processes that are never crashed (e.g. to keep a rumor admissible).
    std::vector<ProcessId> protected_ids;
  };

  explicit RandomChurn(Options opt) : opt_(std::move(opt)) {}

  void at_round_start(sim::Engine& engine) override;

 private:
  Options opt_;
};

class CrashOnService final : public sim::Adversary {
 public:
  struct Options {
    sim::ServiceKind target = sim::ServiceKind::kProxy;
    std::size_t per_round_budget = 4;  // crashes per round
    std::size_t total_budget = 1000;   // crashes overall
    std::size_t min_alive = 2;
    std::vector<ProcessId> protected_ids;
    /// Restart victims this many rounds later (0 = never restart).
    Round restart_after = 0;
  };

  explicit CrashOnService(Options opt) : opt_(std::move(opt)) {}

  void after_sends(sim::Engine& engine) override;
  void at_round_start(sim::Engine& engine) override;

  std::size_t crashes_caused() const { return crashes_; }

 private:
  Options opt_;
  std::size_t crashes_ = 0;
  std::vector<std::pair<Round, ProcessId>> to_restart_;
};

class CrashSenders final : public sim::Adversary {
 public:
  struct Options {
    sim::ServiceKind target = sim::ServiceKind::kGroupDistribution;
    std::size_t per_round_budget = 2;
    std::size_t total_budget = 100;
    std::size_t min_alive = 2;
    std::vector<ProcessId> protected_ids;
    sim::PartialDelivery delivery = sim::PartialDelivery::kRandom;
  };

  explicit CrashSenders(Options opt) : opt_(std::move(opt)) {}

  void after_sends(sim::Engine& engine) override;

  std::size_t crashes_caused() const { return crashes_; }

 private:
  Options opt_;
  std::size_t crashes_ = 0;
};

class Scripted final : public sim::Adversary {
 public:
  struct Event {
    Round round = 0;
    enum class Kind { kCrash, kRestart } kind = Kind::kCrash;
    ProcessId pid = 0;
    sim::PartialDelivery policy = sim::PartialDelivery::kDropAll;
  };

  explicit Scripted(std::vector<Event> events);

  void at_round_start(sim::Engine& engine) override;

 private:
  std::vector<Event> events_;  // sorted by round
  std::size_t next_ = 0;
};

class MassCrash final : public sim::Adversary {
 public:
  /// At round `when`, crash every alive process not in `survivors`.
  MassCrash(Round when, DynamicBitset survivors)
      : when_(when), survivors_(std::move(survivors)) {}

  void at_round_start(sim::Engine& engine) override;

 private:
  Round when_;
  DynamicBitset survivors_;
  bool done_ = false;
};

}  // namespace congos::adversary
