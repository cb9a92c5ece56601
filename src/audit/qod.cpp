#include "audit/qod.h"

#include <algorithm>

#include "common/assert.h"

namespace congos::audit {

DeliveryAuditor::DeliveryAuditor(std::size_t n) : n_(n), life_(n), slots_(n) {}

void DeliveryAuditor::on_inject(const sim::Rumor& rumor, Round /*now*/) {
  injected_.emplace(rumor.uid, InjectedRumor{rumor});
}

void DeliveryAuditor::on_crash(ProcessId p, Round now, sim::PartialDelivery /*policy*/) {
  life_[p].push_back(LifeEvent{now, true});
}

void DeliveryAuditor::on_restart(ProcessId p, Round now,
                                 sim::PartialDelivery /*policy*/) {
  life_[p].push_back(LifeEvent{now, false});
}

void DeliveryAuditor::on_rumor_delivered(ProcessId at, const RumorUid& uid, Round when,
                                         std::span<const std::uint8_t> data) {
  CONGOS_ASSERT_MSG(at < n_, "delivery at an unknown process");
  Slot& slot = slots_[at];
  auto it = injected_.find(uid);
  if (it != injected_.end()) {
    const auto& want = it->second.rumor.data;
    if (want.size() != data.size() ||
        !std::equal(want.begin(), want.end(), data.begin())) {
      ++slot.data_mismatches;
    }
  }
  slot.first_delivery.try_emplace(uid, when);  // keep the first delivery
}

bool DeliveryAuditor::continuously_alive(ProcessId p, Round a, Round b) const {
  CONGOS_ASSERT(p < n_);
  // Alive at the beginning of a: the last lifecycle event strictly before a
  // must be a restart (or there is none: processes start alive at round 0).
  bool alive = true;
  for (const auto& ev : life_[p]) {
    if (ev.round >= a) break;
    alive = !ev.crash;
  }
  if (!alive) return false;
  // No crash inside [a, b]. (A restart inside the interval implies a prior
  // crash inside it, so checking crashes suffices.)
  for (const auto& ev : life_[p]) {
    if (ev.round > b) break;
    if (ev.round >= a && ev.crash) return false;
  }
  return true;
}

std::uint64_t DeliveryAuditor::crash_count() const {
  std::uint64_t c = 0;
  for (const auto& events : life_) {
    for (const auto& ev : events) {
      if (ev.crash) ++c;
    }
  }
  return c;
}

std::uint64_t DeliveryAuditor::restart_count() const {
  std::uint64_t c = 0;
  for (const auto& events : life_) {
    for (const auto& ev : events) {
      if (!ev.crash) ++c;
    }
  }
  return c;
}

Round DeliveryAuditor::delivery_round(const RumorUid& uid, ProcessId p) const {
  CONGOS_ASSERT(p < n_);
  const auto& table = slots_[p].first_delivery;
  auto it = table.find(uid);
  return it == table.end() ? kNoRound : it->second;
}

QodReport DeliveryAuditor::finalize(Round now) const {
  QodReport report;
  for (const Slot& slot : slots_) report.data_mismatches += slot.data_mismatches;
  double latency_sum = 0.0;
  std::uint64_t latency_count = 0;
  std::vector<Round> latencies;

  for (const auto& [uid, inj] : injected_) {
    const sim::Rumor& r = inj.rumor;
    if (r.expires_at() > now) continue;  // still in flight; skip
    ++report.rumors;
    const bool source_ok =
        continuously_alive(uid.source, r.injected_at, r.expires_at());
    r.dest.for_each([&](std::uint32_t q) {
      const bool dest_ok = continuously_alive(q, r.injected_at, r.expires_at());
      const Round when = delivery_round(uid, q);
      const bool admissible = source_ok && dest_ok;
      if (admissible) {
        ++report.admissible_pairs;
        if (when == kNoRound) {
          ++report.missing;
        } else if (when > r.expires_at()) {
          ++report.late;
        } else {
          ++report.delivered_on_time;
          latency_sum += static_cast<double>(when - r.injected_at);
          latencies.push_back(when - r.injected_at);
          ++latency_count;
        }
      } else if (when != kNoRound) {
        ++report.bonus_deliveries;
      }
    });
  }
  if (latency_count > 0) {
    report.mean_latency = latency_sum / static_cast<double>(latency_count);
    std::sort(latencies.begin(), latencies.end());
    report.latency_p50 = latencies[latencies.size() / 2];
    report.latency_p95 = latencies[(latencies.size() * 95) / 100];
    report.latency_max = latencies.back();
  }
  return report;
}

}  // namespace congos::audit
