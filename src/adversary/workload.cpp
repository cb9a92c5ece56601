#include "adversary/workload.h"

#include <algorithm>

#include "common/assert.h"
#include "common/rng.h"

namespace congos::adversary {

std::vector<std::uint8_t> canonical_payload(RumorUid uid, std::size_t len) {
  // Payload bytes derived from the uid by a splitmix64 stream: reproducible
  // anywhere, distinct across rumors.
  std::vector<std::uint8_t> out(len);
  std::uint64_t state = pack(uid) ^ 0xc0ff'ee00'dead'beefull;
  std::size_t i = 0;
  while (i < len) {
    const std::uint64_t v = splitmix64(state);
    for (int b = 0; b < 8 && i < len; ++b, ++i) {
      out[i] = static_cast<std::uint8_t>(v >> (8 * b));
    }
  }
  return out;
}

// --------------------------------------------------------------------- OneShot

OneShot::OneShot(std::vector<Item> items) : items_(std::move(items)) {
  std::stable_sort(items_.begin(), items_.end(),
                   [](const Item& a, const Item& b) { return a.round < b.round; });
}

void OneShot::at_round_start(sim::Engine& engine) {
  while (next_ < items_.size() && items_[next_].round <= engine.now()) {
    Item& item = items_[next_];
    const ProcessId target = item.rumor.uid.source;
    if (engine.alive(target) && !engine.injected_this_round(target)) {
      engine.inject(target, item.rumor);
    }
    ++next_;
  }
}

// ------------------------------------------------------------------ Continuous

void Continuous::at_round_start(sim::Engine& engine) {
  if (opt_.last_injection_round >= 0 && engine.now() > opt_.last_injection_round) return;
  const auto n = static_cast<ProcessId>(engine.n());
  if (seq_.empty()) seq_.resize(n, 0);
  auto& rng = engine.rng();
  for (ProcessId p = 0; p < n; ++p) {
    if (!engine.alive(p) || engine.injected_this_round(p)) continue;
    if (!rng.chance(opt_.inject_prob)) continue;

    sim::Rumor r;
    std::uint64_t seq = ++seq_[p];
    if (opt_.opaque_ids) {
      // Bijective scrambling of the counter (splitmix64 is a permutation of
      // the 64-bit space keyed by the stream position), truncated to the
      // 40-bit field RumorUid packs; collisions would need 2^20 rumors from
      // one source.
      std::uint64_t state = (static_cast<std::uint64_t>(p) << 40) ^ seq;
      seq = splitmix64(state) & ((1ull << 40) - 1);
    }
    r.uid = RumorUid{p, seq};
    r.deadline = opt_.deadlines[rng.next_below(opt_.deadlines.size())];
    r.data = canonical_payload(r.uid, opt_.payload_len);
    if (opt_.dest_gen) {
      r.dest = opt_.dest_gen(engine, p);
    } else {
      const std::size_t hi = std::min<std::size_t>(opt_.dest_max, engine.n());
      const std::size_t lo = std::min<std::size_t>(opt_.dest_min, hi);
      const auto k = static_cast<std::uint32_t>(
          rng.uniform_int(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
      r.dest = DynamicBitset::from_indices(
          engine.n(), rng.sample_without_replacement(n, k));
    }
    CONGOS_ASSERT(r.dest.size() == engine.n());
    engine.inject(p, std::move(r));
    ++injected_;
  }
}

// ------------------------------------------------------------------- Theorem1

void Theorem1::at_round_start(sim::Engine& engine) {
  if (done_) return;
  done_ = true;
  const auto n = static_cast<ProcessId>(engine.n());
  auto& rng = engine.rng();
  const double p_in = opt_.x / static_cast<double>(n);
  for (ProcessId p = 0; p < n; ++p) {
    if (!engine.alive(p)) continue;
    sim::Rumor r;
    r.uid = RumorUid{p, 1};
    r.deadline = opt_.dmax;
    r.data = canonical_payload(r.uid, opt_.payload_len);
    r.dest = DynamicBitset(engine.n());
    for (ProcessId q = 0; q < n; ++q) {
      if (rng.chance(p_in)) {
        r.dest.set(q);
        ++dest_pairs_;
      }
    }
    engine.inject(p, std::move(r));
    ++injected_;
  }
}

}  // namespace congos::adversary
