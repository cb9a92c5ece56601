#include "gossip/continuous_gossip.h"

#include <algorithm>
#include <cstring>

#include "common/assert.h"
#include "common/gallop.h"
#include "common/math.h"

namespace congos::gossip {

std::vector<ProcessId> expander_neighbors(ProcessId self, const DynamicBitset& universe,
                                          int degree, std::uint64_t seed) {
  CONGOS_ASSERT(universe.test(self));
  const auto members = universe.to_vector();
  const std::size_t m = members.size();
  if (m <= 1) return {};

  // Rank of self within the (sorted) member list.
  std::size_t rank = 0;
  while (members[rank] != self) ++rank;

  const auto want = static_cast<std::size_t>(
      std::min<std::size_t>(static_cast<std::size_t>(degree), m - 1));
  // Distinct non-zero skips from a seeded splitmix stream; skip 1 first so
  // the ring is always included (guaranteed strong connectivity).
  std::vector<std::size_t> skips;
  skips.push_back(1);
  std::uint64_t state = seed ^ (static_cast<std::uint64_t>(m) << 32);
  while (skips.size() < want) {
    const auto s = 1 + static_cast<std::size_t>(splitmix64(state) % (m - 1));
    bool dup = false;
    for (auto existing : skips) dup = dup || existing == s;
    if (!dup) skips.push_back(s);
  }
  std::vector<ProcessId> out;
  out.reserve(skips.size());
  for (auto s : skips) out.push_back(members[(rank + s) % m]);
  return out;
}

GossipRumorPtr RumorDecodeMemo::lookup(wire::ReadSink& s, std::uint64_t scope,
                                      std::uint64_t gid) {
  const auto it = entries_.find(Key{scope, gid});
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  const std::vector<std::uint8_t>& fields = it->second.fields;
  if (s.remaining() < fields.size() ||
      std::memcmp(s.cursor(), fields.data(), fields.size()) != 0) {
    ++misses_;
    return nullptr;
  }
  s.skip(fields.size());
  ++hits_;
  return it->second.rumor;
}

void RumorDecodeMemo::remember(std::uint64_t scope, GossipRumorPtr r,
                               const std::uint8_t* fields, std::size_t len) {
  const Key key{scope, r->gid};
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    if (entries_.size() >= kMaxEntries) return;
    it = entries_.try_emplace(key).first;
  }
  it->second.fields.assign(fields, fields + len);
  it->second.rumor = std::move(r);
}

void RumorDecodeMemo::expire(Round now) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.rumor->deadline_at < now) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

ContinuousGossipService::ContinuousGossipService(ProcessId self, GossipConfig cfg,
                                                 Rng* rng, DeliverFn deliver)
    : self_(self),
      cfg_(std::move(cfg)),
      rng_(rng),
      deliver_(std::move(deliver)),
      filter_(cfg_.universe) {
  CONGOS_ASSERT(rng_ != nullptr);
  CONGOS_ASSERT_MSG(cfg_.universe.test(self_), "host must belong to its universe");
  CONGOS_ASSERT(cfg_.fanout >= 1);
  peer_count_ = cfg_.universe.count() - 1;
  full_universe_ = peer_count_ + 1 == cfg_.universe.size();
  if (!full_universe_) {
    sparse_peers_.reserve(peer_count_);
    cfg_.universe.for_each([&](std::uint32_t p) {
      if (p != self_) sparse_peers_.push_back(p);
    });
  }
  if (cfg_.strategy == GossipStrategy::kExpander) {
    // Degree at least log2(m): random circulants of logarithmic degree have
    // logarithmic diameter, the polylog round budget [13] works within.
    const auto m = peer_count_ + 1;
    const int degree =
        std::max(cfg_.fanout, m >= 2 ? ilog2_ceil(static_cast<std::uint64_t>(m)) : 1);
    neighbors_ = expander_neighbors(self_, cfg_.universe, degree, cfg_.graph_seed);
  }
}

void ContinuousGossipService::reset(Round now) {
  pending_acks_.clear();
  pending_pulls_.clear();
  batch_.reset();  // readers may still hold it; the next merge draws anew
  batch_min_deadline_ = kNeverExpires;
  fresh_.clear();
  originated_.clear();
  epoch_start_ = now;
  counter_ = 0;
}

std::uint64_t ContinuousGossipService::next_gid(Round now) {
  // Unique across restarts: the epoch (restart round) is part of the id, and
  // a process restarts at most once per round. The packed layout is
  // [source:24 | epoch+1:19 | counter:21], so the *stored* value
  // `epoch_start_ + 1` must stay strictly below 2^19 - otherwise it spills
  // into bit 40, the low bit of the source-id field, and gids of different
  // processes can collide (a process restarted at round 2^19 - 1 would alias
  // source id self+1, epoch 0).
  CONGOS_ASSERT_MSG(counter_ < (1ull << 21), "too many gossip rumors in one epoch");
  CONGOS_ASSERT_MSG(now >= epoch_start_, "clock ran backwards");
  CONGOS_ASSERT_MSG(epoch_start_ >= 0 &&
                        static_cast<std::uint64_t>(epoch_start_) + 1 < (1ull << 19),
                    "epoch round exceeds gid packing range");
  return (static_cast<std::uint64_t>(self_) << 40) |
         (static_cast<std::uint64_t>(epoch_start_ + 1) << 21) | counter_++;
}

std::uint64_t ContinuousGossipService::inject(Round now, sim::PayloadPtr body,
                                              DynamicBitset dest, Round deadline_at) {
  CONGOS_ASSERT_MSG(deadline_at >= now, "injected rumor already expired");
  CONGOS_ASSERT_MSG(dest.size() == cfg_.universe.size(), "dest universe mismatch");
  CONGOS_ASSERT_MSG(cfg_.universe.contains_all(dest),
                    "gossip destinations must lie within the service universe");
  const RumorEntry entry = make_entry(GossipRumor{next_gid(now), self_, deadline_at,
                                                  std::move(dest), std::move(body)});
  // next_gid() never repeats within an epoch and reset() starts a new one,
  // so a known gid here means two rumors share an identity.
  const bool known =
      std::ranges::binary_search(batch_rumors(), entry.gid, {}, &RumorEntry::gid) ||
      !accept(now, entry);
  CONGOS_ASSERT_MSG(!known, "injected gossip gid is not new");
  return entry.gid;
}

bool ContinuousGossipService::accept(Round now, const RumorEntry& r) {
  const auto fresh_at = std::ranges::lower_bound(fresh_, r.gid, {}, &RumorEntry::gid);
  if (fresh_at != fresh_.end() && fresh_at->gid == r.gid) {
    ++duplicates_suppressed_;
    return false;
  }
  // The caller's entry keeps the record alive: fresh_ may move, and a
  // deliver_ callback that injects moves it.
  const GossipRumor& rumor = *r.rumor;
  fresh_.insert(fresh_at, r);
  if (cfg_.guaranteed && rumor.origin == self_) {
    const auto o = std::ranges::lower_bound(originated_, r.gid, {}, &Originated::gid);
    originated_.insert(o, Originated{r.gid, r.deadline_at,
                                     DynamicBitset(cfg_.universe.size()), false});
  }
  if (rumor.dest.test(self_)) {
    if (deliver_) deliver_(now, rumor);
    if (cfg_.guaranteed && rumor.origin != self_) {
      const auto at = std::ranges::upper_bound(
          pending_acks_, rumor.origin, {},
          &std::pair<ProcessId, std::uint64_t>::first);
      pending_acks_.emplace(at, rumor.origin, r.gid);
    }
  }
  return true;
}

void ContinuousGossipService::merge_fresh(Round now) {
  if (fresh_.empty() && batch_min_deadline_ >= now) return;
  if (!batch_) batch_ = msg_pool_.acquire();
  // A reader (a delayed or duplicated envelope, a recorder) may still hold
  // the batch; then its survivors are copied, and it stays as it was sent.
  const bool shared = batch_.use_count() > 1;
  auto& old = batch_->rumors;
  const std::size_t need = old.size() + fresh_.size();
  if (merge_scratch_.capacity() <= need) merge_scratch_.reserve(2 * need);
  Round min_deadline = kNeverExpires;
  const auto keep = [&](RumorEntry& r, bool copy) {
    if (r.deadline_at < now) return;
    min_deadline = std::min(min_deadline, r.deadline_at);
    if (copy) {
      merge_scratch_.push_back(r);
    } else {
      merge_scratch_.push_back(std::move(r));
    }
  };
  std::size_t j = 0;
  for (auto& r : old) {
    for (; j < fresh_.size() && fresh_[j].gid < r.gid; ++j) keep(fresh_[j], false);
    keep(r, shared);
  }
  for (; j < fresh_.size(); ++j) keep(fresh_[j], false);
  fresh_.clear();
  if (shared) batch_ = msg_pool_.acquire();
  batch_->rumors.swap(merge_scratch_);
  // The two buffers trade places every merge. Growing geometrically before
  // the batch fills, and growing the spare to the batch's capacity, keeps
  // both ahead of the batch: a rumor that arrives alone never reallocates.
  merge_scratch_.clear();
  merge_scratch_.reserve(batch_->rumors.capacity());
  // The memo is keyed on the rumor count, which an in-place merge can leave
  // unchanged while contents differ.
  batch_->reset_wire_memo();
  batch_min_deadline_ = min_deadline;
  std::erase_if(originated_, [&](const Originated& o) { return o.deadline_at < now; });
}

void ContinuousGossipService::send_phase(Round now, sim::Sender& out) {
  merge_fresh(now);

  // All same-round recipients (pull repliers, push targets, expander
  // neighbors) share the one batch of active rumors in gid order; the
  // payload object itself persists across rounds while nothing changes.
  const bool holding = !batch_rumors().empty();

  // Guaranteed mode: flush receipt acks accumulated since the last round.
  if (cfg_.guaranteed && !pending_acks_.empty()) {
    // One ack per origin, in ascending origin order.
    for (auto run = pending_acks_.begin(); run != pending_acks_.end();) {
      const ProcessId origin = run->first;
      const auto end = std::find_if(run, pending_acks_.end(),
                                    [&](const auto& a) { return a.first != origin; });
      if (filter_.allows(origin)) {
        auto ack = ack_pool_.acquire();
        for (auto a = run; a != end; ++a) ack->gids.push_back(a->second);
        out.send(sim::Envelope{self_, origin, cfg_.tag, std::move(ack)});
      }
      run = end;
    }
    pending_acks_.clear();
  }

  // Push-pull: answer last round's pull requests with our active rumors,
  // and issue one pull request to a random peer. Pulls are issued even when
  // we hold nothing - that is what lets late joiners and restarted processes
  // catch up without waiting to be pushed at.
  if (cfg_.strategy == GossipStrategy::kPushPull && peer_count_ > 0) {
    if (holding && !pending_pulls_.empty()) {
      std::sort(pending_pulls_.begin(), pending_pulls_.end());
      pending_pulls_.erase(
          std::unique(pending_pulls_.begin(), pending_pulls_.end()),
          pending_pulls_.end());
      for (ProcessId requester : pending_pulls_) {
        if (!filter_.allows(requester)) continue;
        out.send(sim::Envelope{self_, requester, cfg_.tag, batch_});
      }
    }
    pending_pulls_.clear();
    const ProcessId target = peer_at(rng_->next_below(peer_count_));
    if (filter_.allows(target)) {
      out.send(sim::Envelope{self_, target, cfg_.tag, pull_pool_.acquire()});
    }
  }

  if (!holding || peer_count_ == 0) return;

  // Epidemic push: all active rumors to `fanout` random universe peers.
  if (cfg_.strategy == GossipStrategy::kExpander) {
    // Deterministic push along the expander out-edges.
    for (ProcessId target : neighbors_) {
      if (!filter_.allows(target)) continue;
      out.send(sim::Envelope{self_, target, cfg_.tag, batch_});
    }
  } else {
    // kEpidemicPush and the push half of kPushPull.
    const auto k = static_cast<std::uint32_t>(
        std::min<std::size_t>(static_cast<std::size_t>(cfg_.fanout), peer_count_));
    rng_->sample_without_replacement(static_cast<std::uint32_t>(peer_count_), k,
                                     pick_scratch_);
    for (auto idx : pick_scratch_) {
      const ProcessId target = peer_at(idx);
      if (!filter_.allows(target)) continue;
      out.send(sim::Envelope{self_, target, cfg_.tag, batch_});
    }
  }

  if (cfg_.guaranteed) send_fallbacks(now, out);
}

void ContinuousGossipService::send_fallbacks(Round now, sim::Sender& out) {
  // Every entry is live and in the batch: merge_fresh() dropped the rest.
  const auto& batch = batch_->rumors;
  auto at = batch.begin();
  for (Originated& o : originated_) {
    if (now < o.deadline_at - 1 || o.fallback_sent) continue;
    o.fallback_sent = true;
    at = gallop_lower_bound(batch.begin(), at, batch.end(), o.gid, &RumorEntry::gid);
    CONGOS_ASSERT_MSG(at != batch.end() && at->gid == o.gid,
                      "own rumor missing from the batch");
    auto single = msg_pool_.acquire();
    single->rumors.push_back(*at);
    at->rumor->dest.for_each([&](std::uint32_t q) {
      if (q == self_ || o.acked.test(q)) return;
      if (!filter_.allows(q)) return;
      out.send(sim::Envelope{self_, static_cast<ProcessId>(q), cfg_.tag, single});
    });
  }
}

void ContinuousGossipService::on_envelope(Round now, const sim::Envelope& e) {
  CONGOS_ASSERT(e.to == self_);
  CONGOS_ASSERT(e.tag == cfg_.tag);
  CONGOS_ASSERT(e.body != nullptr);
  switch (e.body->kind()) {
    case sim::PayloadKind::kGossipMsg: {
      // One merge walk of the incoming batch against ours. Batches arrive in
      // ascending gid order and mostly repeat what is known, so a galloping
      // search from the cursor settles a repeat with one or two compares,
      // and a gid behind the cursor costs one binary search. The batch does
      // not change between send phases, so a deliver_ callback that injects
      // mid-walk cannot invalidate the cursor.
      const auto& msg = static_cast<const GossipMsg&>(*e.body);
      const auto batch = batch_rumors();
      std::size_t cursor = 0;
      for (const RumorEntry& r : msg.rumors) {
        if (r.deadline_at < now) continue;  // expired in flight
        const auto at = gallop_lower_bound(
            batch.begin(),
            batch.begin() + static_cast<std::ptrdiff_t>(std::min(cursor, batch.size())),
            batch.end(), r.gid, &RumorEntry::gid);
        cursor = static_cast<std::size_t>(at - batch.begin());
        if (at != batch.end() && at->gid == r.gid) {
          // Already known: re-pushed by a peer, duplicated by the fault
          // layer, or a retransmission. Gids make suppression exact -
          // nothing downstream ever sees the same rumor twice from this
          // service.
          ++duplicates_suppressed_;
          ++cursor;
          continue;
        }
        accept(now, r);
      }
      return;
    }
    case sim::PayloadKind::kGossipPull:
      CONGOS_ASSERT_MSG(cfg_.strategy == GossipStrategy::kPushPull,
                        "pull request under a non-pull strategy");
      pending_pulls_.push_back(e.from);
      return;
    case sim::PayloadKind::kGossipAck: {
      const auto& ack = static_cast<const GossipAck&>(*e.body);
      for (auto gid : ack.gids) {
        const auto o = std::ranges::lower_bound(originated_, gid, {}, &Originated::gid);
        if (o != originated_.end() && o->gid == gid) o->acked.set(e.from);
      }
      return;
    }
    default:
      CONGOS_ASSERT_MSG(false, "unknown payload type on gossip service tag");
  }
}

std::size_t ContinuousGossipService::known_active(Round now) const {
  const auto live = [now](const RumorEntry& r) { return r.deadline_at >= now; };
  return static_cast<std::size_t>(std::ranges::count_if(batch_rumors(), live) +
                                  std::ranges::count_if(fresh_, live));
}

GossipRumorPtr ContinuousGossipService::record(std::uint64_t gid) const {
  for (const std::span<const RumorEntry> held : {batch_rumors(), std::span(fresh_)}) {
    const auto at = std::ranges::lower_bound(held, gid, {}, &RumorEntry::gid);
    if (at != held.end() && at->gid == gid) return at->rumor;
  }
  return nullptr;
}

}  // namespace congos::gossip
