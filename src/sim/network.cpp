#include "sim/network.h"

#include "common/assert.h"
#include "wire/envelope.h"

namespace congos::sim {

const char* to_string(ServiceKind k) {
  switch (k) {
    case ServiceKind::kGroupGossip: return "group-gossip";
    case ServiceKind::kAllGossip: return "all-gossip";
    case ServiceKind::kProxy: return "proxy";
    case ServiceKind::kGroupDistribution: return "group-dist";
    case ServiceKind::kFallback: return "fallback";
    case ServiceKind::kBaseline: return "baseline";
    case ServiceKind::kOther: return "other";
  }
  return "?";
}

void Network::submit(Envelope e, std::uint64_t frame_bytes) {
  CONGOS_ASSERT_MSG(e.from < n_ && e.to < n_, "envelope endpoints out of range");
  if (stats_ != nullptr) stats_->note_sent(e.tag.kind, frame_bytes);
  ++sent_total_;
  pending_.push_back(std::move(e));
}

void Network::submit(Envelope e) {
  // The exact v1 frame size encode_envelope() would emit (header-only
  // SizeSink walk, allocation-free).
  const std::uint64_t bytes =
      stats_ != nullptr ? wire::encoded_envelope_size(e, round_) : 0;
  submit(std::move(e), bytes);
}

bool Network::apply_faults(const Envelope& e) {
  const LinkFault f = draw_link_fault(faults_, fault_rng_, round_, e.from, e.to);
  if (!f.kind) return true;
  // A delayed envelope, or the late copy of a duplicated one: same body
  // (shared), due `lateness` rounds from now.
  if (f.lateness > 0) delayed_.push_back(DelayedEnvelope{e, round_ + f.lateness});
  if (stats_ != nullptr) stats_->note_fault(*f.kind, e.tag.kind);
  return f.on_time();
}

void Network::release_delayed(const std::vector<PartialDelivery>& in_policy,
                              const DynamicBitset& in_filtered,
                              DeliveryObserver* observer) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < delayed_.size(); ++i) {
    DelayedEnvelope& d = delayed_[i];
    if (d.due > round_) {
      if (kept != i) delayed_[kept] = std::move(d);
      ++kept;
      continue;
    }
    Envelope& e = d.env;
    // The sender-side crash filter was already applied the round the
    // envelope entered the network; only the receiver's state at the
    // release round matters now. kRandom would need an engine-RNG draw,
    // which would shift the trace of every later round, so a delayed
    // envelope caught in any receive filter is simply lost - the fault
    // layer may only ever remove deliveries, never add engine randomness.
    if (in_filtered.test(e.to) && in_policy[e.to] != PartialDelivery::kDeliverAll) continue;
    if (observer != nullptr) observer->on_delivered(e);
    inboxes_[e.to].push_back(std::move(e));
  }
  delayed_.resize(kept);
}

void Network::deliver(const std::vector<PartialDelivery>& out_policy,
                      const DynamicBitset& out_filtered,
                      const std::vector<PartialDelivery>& in_policy,
                      const DynamicBitset& in_filtered, Rng& rng,
                      DeliveryObserver* observer) {
  // Keep a headroom margin above the global high-water mark. Per-round
  // inbox sizes are a binomial tail: records creep past the previous
  // maximum by one or two, and a record round would otherwise pay a
  // push_back reallocation. Keying on the *global* maximum (all inboxes
  // draw from the same distribution) makes the bound converge within a few
  // rounds instead of creeping per inbox, and the margin check plus
  // geometric growth keeps re-reservations O(log) over the whole run -
  // steady-state rounds stay allocation-free (tests/test_alloc.cpp pins
  // this).
  const std::size_t want = 2 * inbox_high_water_ + 16;
  for (std::size_t p = 0; p < n_; ++p) {
    if (inboxes_[p].capacity() < inbox_high_water_ + 8) inboxes_[p].reserve(want);
  }
  // Late envelopes come due at the start of the delivery phase, ahead of
  // anything submitted this round (they were sent in an earlier round).
  if (faults_enabled_ && !delayed_.empty()) {
    release_delayed(in_policy, in_filtered, observer);
  }
  for (auto& e : pending_) {
    bool keep = true;
    if (out_filtered.test(e.from)) {
      switch (out_policy[e.from]) {
        case PartialDelivery::kDeliverAll: break;
        case PartialDelivery::kDropAll: keep = false; break;
        case PartialDelivery::kRandom: keep = rng.chance(0.5); break;
      }
    }
    if (keep && in_filtered.test(e.to)) {
      switch (in_policy[e.to]) {
        case PartialDelivery::kDeliverAll: break;
        case PartialDelivery::kDropAll: keep = false; break;
        case PartialDelivery::kRandom: keep = rng.chance(0.5); break;
      }
    }
    if (!keep) continue;
    if (faults_enabled_ && !apply_faults(e)) continue;
    if (observer != nullptr) observer->on_delivered(e);
    inboxes_[e.to].push_back(std::move(e));
  }
  pending_.clear();  // keeps capacity: the buffer is reused next round
}

void Network::end_round() {
  for (std::size_t p = 0; p < n_; ++p) {
    auto& box = inboxes_[p];
    if (box.size() > inbox_high_water_) inbox_high_water_ = box.size();
    box.clear();
  }
  ++round_;
}

}  // namespace congos::sim
