#include "baseline/strong_confidential.h"

#include <algorithm>

#include "common/assert.h"

namespace congos::baseline {

// StrongAckPayload moved to baseline/baseline_payload.h so the wire codec
// (and the byte accounting) can see it.

void StrongConfidentialProcess::on_restart(Round /*now*/) {
  known_.clear();
  pending_acks_.clear();
}

void StrongConfidentialProcess::inject(const sim::Rumor& rumor) {
  accept(rumor.injected_at, rumor, /*as_source=*/true);
}

void StrongConfidentialProcess::accept(Round now, const sim::Rumor& rumor,
                                       bool as_source) {
  auto [it, inserted] = known_.try_emplace(rumor.uid);
  if (!inserted) return;
  Tracked& t = it->second;
  t.rumor = rumor;
  t.i_am_source = as_source;
  if (as_source) t.acked = DynamicBitset(rumor.dest.size());
  if (rumor.dest.test(id())) {
    if (listener_ != nullptr) {
      listener_->on_rumor_delivered(id(), rumor.uid, now,
                                    {rumor.data.data(), rumor.data.size()});
    }
    if (!as_source) pending_acks_[rumor.uid.source].push_back(rumor.uid);
  }
}

void StrongConfidentialProcess::send_phase(Round now, sim::Sender& out) {
  // Flush acks to sources. A destination acking the source is causally
  // dependent on the rumor, but the source trivially knows the rumor, so
  // strong confidentiality is preserved.
  for (auto& [src, uids] : pending_acks_) {
    auto ack = std::make_shared<StrongAckPayload>();
    ack->uids = std::move(uids);
    out.send(
        sim::Envelope{id(), src, sim::ServiceTag{sim::ServiceKind::kBaseline, 0}, ack});
  }
  pending_acks_.clear();

  // Drop expired rumors.
  for (auto it = known_.begin(); it != known_.end();) {
    it = (it->second.rumor.expires_at() < now) ? known_.erase(it) : std::next(it);
  }
  if (known_.empty()) return;

  // Candidate relay targets: union of destination sets of held rumors,
  // restricted - by definition of strong confidentiality - to those sets.
  DynamicBitset candidates;
  bool have = false;
  for (const auto& [uid, t] : known_) {
    if (!t.rumor.dest.test(id()) && !t.i_am_source) continue;  // cannot relay
    if (!have) {
      candidates = t.rumor.dest;
      have = true;
    } else {
      candidates |= t.rumor.dest;
    }
  }
  if (!have) return;
  candidates.reset(id());
  auto pool = candidates.to_vector();
  if (pool.empty()) return;

  const auto k = static_cast<std::uint32_t>(
      std::min<std::size_t>(static_cast<std::size_t>(opt_.fanout), pool.size()));
  const auto picks =
      rng_.sample_without_replacement(static_cast<std::uint32_t>(pool.size()), k);
  for (auto idx : picks) {
    const ProcessId target = pool[idx];
    auto batch = std::make_shared<BaselineBatchPayload>();
    for (const auto& [uid, t] : known_) {
      // Merge only rumors legal for BOTH endpoints (Theorem 1's constraint):
      // the target must be a destination, and we must be allowed to hold it.
      const bool relay_ok = t.rumor.dest.test(id()) || t.i_am_source;
      if (relay_ok && t.rumor.dest.test(target)) batch->rumors.push_back(t.rumor);
    }
    if (batch->rumors.empty()) continue;
    max_merged_ = std::max(max_merged_, batch->rumors.size());
    out.send(sim::Envelope{id(), target,
                           sim::ServiceTag{sim::ServiceKind::kBaseline, 0},
                           std::move(batch)});
  }

  // Source fallback: direct-send unacked destinations just before expiry.
  for (auto& [uid, t] : known_) {
    if (!t.i_am_source || t.fallback_sent) continue;
    if (now < t.rumor.expires_at() - 1) continue;
    t.fallback_sent = true;
    auto single = std::make_shared<BaselineBatchPayload>();
    single->rumors.push_back(t.rumor);
    t.rumor.dest.for_each([&](std::uint32_t q) {
      if (q == id() || t.acked.test(q)) return;
      out.send(sim::Envelope{id(), static_cast<ProcessId>(q),
                             sim::ServiceTag{sim::ServiceKind::kBaseline, 0}, single});
    });
  }
}

void StrongConfidentialProcess::receive_phase(Round now,
                                              std::span<const sim::Envelope> inbox) {
  for (const auto& e : inbox) {
    CONGOS_ASSERT(e.body != nullptr);
    switch (e.body->kind()) {
      case sim::PayloadKind::kBaselineBatch: {
        const auto& batch = static_cast<const BaselineBatchPayload&>(*e.body);
        for (const auto& r : batch.rumors) {
          CONGOS_ASSERT_MSG(r.dest.test(id()),
                            "strongly confidential rumor reached a non-destination");
          if (r.expires_at() >= now) accept(now, r, /*as_source=*/false);
        }
        break;
      }
      case sim::PayloadKind::kStrongAck: {
        const auto& ack = static_cast<const StrongAckPayload&>(*e.body);
        for (const auto& uid : ack.uids) {
          auto it = known_.find(uid);
          if (it != known_.end() && it->second.i_am_source) {
            it->second.acked.set(e.from);
          }
        }
        break;
      }
      default:
        CONGOS_ASSERT_MSG(false, "unexpected payload at StrongConfidentialProcess");
    }
  }
}

}  // namespace congos::baseline
