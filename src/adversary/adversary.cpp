#include "adversary/adversary.h"

#include "common/assert.h"

namespace congos::adversary {

void Composite::add(std::unique_ptr<sim::Adversary> part) {
  CONGOS_ASSERT(part != nullptr);
  parts_.push_back(part.get());
  owned_.push_back(std::move(part));
}

void Composite::add_unowned(sim::Adversary* part) {
  CONGOS_ASSERT(part != nullptr);
  parts_.push_back(part);
}

void Composite::at_round_start(sim::Engine& engine) {
  for (auto& p : parts_) p->at_round_start(engine);
}

void Composite::after_sends(sim::Engine& engine) {
  for (auto& p : parts_) p->after_sends(engine);
}

void Composite::at_round_end(sim::Engine& engine) {
  for (auto& p : parts_) p->at_round_end(engine);
}

}  // namespace congos::adversary
