#include "adversary/patterns.h"

#include <algorithm>

#include "common/assert.h"

namespace congos::adversary {

namespace {
bool is_protected(const std::vector<ProcessId>& ids, ProcessId p) {
  return std::find(ids.begin(), ids.end(), p) != ids.end();
}
}  // namespace

// ---------------------------------------------------------------- RandomChurn

void RandomChurn::at_round_start(sim::Engine& engine) {
  auto& rng = engine.rng();
  const auto n = static_cast<ProcessId>(engine.n());
  // Restarts first so churn does not permanently drain the system. A process
  // restarted this round must not also be crashed (one lifecycle event per
  // process per round).
  std::vector<bool> touched(n, false);
  for (ProcessId p = 0; p < n; ++p) {
    if (!engine.alive(p) && rng.chance(opt_.restart_prob)) {
      engine.restart(p, sim::PartialDelivery::kRandom);
      touched[p] = true;
    }
  }
  for (ProcessId p = 0; p < n; ++p) {
    if (engine.alive_count() <= opt_.min_alive) break;
    if (!engine.alive(p) || touched[p] || is_protected(opt_.protected_ids, p)) continue;
    if (rng.chance(opt_.crash_prob)) {
      engine.crash(p, sim::PartialDelivery::kRandom);
    }
  }
}

// ------------------------------------------------------------- CrashOnService

void CrashOnService::at_round_start(sim::Engine& engine) {
  // Execute deferred restarts of earlier victims.
  std::size_t i = 0;
  while (i < to_restart_.size()) {
    if (to_restart_[i].first <= engine.now()) {
      const ProcessId p = to_restart_[i].second;
      if (!engine.alive(p)) engine.restart(p, sim::PartialDelivery::kRandom);
      to_restart_.erase(to_restart_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

void CrashOnService::after_sends(sim::Engine& engine) {
  if (crashes_ >= opt_.total_budget) return;
  std::size_t this_round = 0;
  for (const auto& e : engine.pending()) {
    if (e.tag.kind != opt_.target) continue;
    if (this_round >= opt_.per_round_budget || crashes_ >= opt_.total_budget) break;
    const ProcessId victim = e.to;
    if (!engine.alive(victim) || engine.lifecycle_event_this_round(victim) ||
        is_protected(opt_.protected_ids, victim)) {
      continue;
    }
    if (engine.alive_count() <= opt_.min_alive) break;
    engine.crash(victim, sim::PartialDelivery::kDropAll);
    ++crashes_;
    ++this_round;
    if (opt_.restart_after > 0) {
      to_restart_.emplace_back(engine.now() + opt_.restart_after, victim);
    }
  }
}

// ---------------------------------------------------------------- CrashSenders

void CrashSenders::after_sends(sim::Engine& engine) {
  if (crashes_ >= opt_.total_budget) return;
  std::size_t this_round = 0;
  for (const auto& e : engine.pending()) {
    if (e.tag.kind != opt_.target) continue;
    if (this_round >= opt_.per_round_budget || crashes_ >= opt_.total_budget) break;
    const ProcessId victim = e.from;
    if (!engine.alive(victim) || engine.lifecycle_event_this_round(victim) ||
        is_protected(opt_.protected_ids, victim)) {
      continue;
    }
    if (engine.alive_count() <= opt_.min_alive) break;
    engine.crash(victim, opt_.delivery);
    ++crashes_;
    ++this_round;
  }
}

// -------------------------------------------------------------------- Scripted

Scripted::Scripted(std::vector<Event> events) : events_(std::move(events)) {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const Event& a, const Event& b) { return a.round < b.round; });
}

void Scripted::at_round_start(sim::Engine& engine) {
  while (next_ < events_.size() && events_[next_].round <= engine.now()) {
    const Event& e = events_[next_];
    if (engine.lifecycle_event_this_round(e.pid)) {
      ++next_;
      continue;  // another component already touched this process this round
    }
    if (e.kind == Event::Kind::kCrash) {
      if (engine.alive(e.pid)) engine.crash(e.pid, e.policy);
    } else {
      if (!engine.alive(e.pid)) engine.restart(e.pid, e.policy);
    }
    ++next_;
  }
}

// ------------------------------------------------------------------- MassCrash

void MassCrash::at_round_start(sim::Engine& engine) {
  if (done_ || engine.now() < when_) return;
  done_ = true;
  CONGOS_ASSERT(survivors_.size() == engine.n());
  for (ProcessId p = 0; p < engine.n(); ++p) {
    if (engine.alive(p) && !survivors_.test(p)) {
      engine.crash(p, sim::PartialDelivery::kDropAll);
    }
  }
}

}  // namespace congos::adversary
