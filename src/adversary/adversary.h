// CRRI adversary framework (Section 2).
//
// The Crash-and-Restart-Rumor-Injection adversary decides, every round, which
// processes crash, which restart, and which rumors are injected. It is
// *adaptive*: decisions in round t may depend on all prior events and on the
// random choices made in round t itself (it inspects the pending messages of
// the round before delivery).
//
// Adversarial behaviours compose: a typical experiment runs a Composite of an
// injection workload plus one or more failure patterns.
#pragma once

#include <memory>
#include <vector>

#include "sim/engine.h"

namespace congos::adversary {

/// Runs several adversary components in registration order each hook.
class Composite final : public sim::Adversary {
 public:
  void add(std::unique_ptr<sim::Adversary> part);

  /// Registers a component the caller keeps ownership of (workloads whose
  /// counters the experiment reads after the run); it must outlive the
  /// composite.
  void add_unowned(sim::Adversary* part);

  void at_round_start(sim::Engine& engine) override;
  void after_sends(sim::Engine& engine) override;
  void at_round_end(sim::Engine& engine) override;

  std::size_t size() const { return parts_.size(); }

 private:
  std::vector<std::unique_ptr<sim::Adversary>> owned_;
  std::vector<sim::Adversary*> parts_;  // registration order, owned or not
};

}  // namespace congos::adversary
