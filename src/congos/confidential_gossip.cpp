#include "congos/confidential_gossip.h"

#include <algorithm>

#include "common/assert.h"
#include "common/math.h"
#include "congos/retransmit.h"

namespace congos::core {

namespace {

/// The first position in [first, last) whose hit is not below `key`, by
/// bisection, when the range is ascending. Unlike std::lower_bound it has no
/// ordering precondition, so a report that arrived out of order is still
/// searched with defined behaviour: the search may only miss.
template <class It>
It bisect_hits(It first, It last, const Hit& key) {
  auto count = last - first;
  while (count > 0) {
    const auto half = count / 2;
    const It mid = first + half;
    if (*mid < key) {
      first = mid + 1;
      count -= half + 1;
    } else {
      count = half;
    }
  }
  return first;
}

}  // namespace

ConfidentialGossipService::ConfidentialGossipService(
    ProcessId self, const CongosConfig* cfg, const partition::PartitionSet* partitions,
    bool degenerate, Rng* rng, sim::DeliveryListener* listener, Hooks hooks)
    : self_(self),
      cfg_(cfg),
      partitions_(partitions),
      degenerate_(degenerate),
      rng_(rng),
      listener_(listener),
      hooks_(std::move(hooks)) {
  CONGOS_ASSERT(cfg_ != nullptr && partitions_ != nullptr && rng_ != nullptr);
}

void ConfidentialGossipService::reset(Round now) {
  cache_.clear();
  confirm_.clear();
  store_.clear();
  delivered_.clear();
  pending_direct_.clear();
  last_gc_ = now;  // the sweep period restarts with the incarnation
  // counters_ intentionally survive: they describe the experiment, not the
  // protocol state (a restarted process has no memory of them either way;
  // keeping them only affects reporting).
}

void ConfidentialGossipService::deliver_local(Round now, RumorUid uid,
                                              const coding::Bytes& data,
                                              bool reassembled) {
  if (!delivered_.insert(uid).second) return;
  ++counters_.delivered;
  if (reassembled) ++counters_.reassembled;
  if (listener_ != nullptr) {
    listener_->on_rumor_delivered(self_, uid, now, {data.data(), data.size()});
  }
}

void ConfidentialGossipService::queue_direct(Round now, const sim::Rumor& rumor,
                                             const DynamicBitset* skip) {
  auto body = direct_pool_.acquire();
  body->rumor = rumor;
  rumor.dest.for_each([&](std::uint32_t q) {
    if (q == self_) return;
    if (skip != nullptr && skip->test(q)) return;
    pending_direct_.push_back(sim::Envelope{
        self_, q, sim::ServiceTag{sim::ServiceKind::kFallback, 0}, body});
    ++counters_.shoot_messages;
  });
  (void)now;
}

bool ConfidentialGossipService::all_destinations_acked(const CacheEntry& entry) const {
  bool all = true;
  entry.rumor.dest.for_each([&](std::uint32_t q) {
    if (q != self_ && !entry.acked.test(q)) all = false;
  });
  return all;
}

void ConfidentialGossipService::arm_fallback(CacheEntry& entry, Round now) {
  if (!cfg_->retransmit.enabled) {
    entry.next_shot = entry.shoot_at;  // classic fire-once shoot
    return;
  }
  entry.acked = DynamicBitset(entry.rumor.dest.size());
  const Round target = entry.shoot_at - cfg_->retransmit.max_link_delay;
  entry.next_shot = retransmit_first(now + 1, target, cfg_->retransmit.budget);
}

void ConfidentialGossipService::fire_fallback(CacheEntry& entry, Round now) {
  ++counters_.shoots;
  if (!cfg_->retransmit.enabled) {
    queue_direct(now, entry.rumor);
    entry.confirmed = true;  // nothing more to do for this rumor
    return;
  }
  queue_direct(now, entry.rumor, &entry.acked);
  const Round target = entry.shoot_at - cfg_->retransmit.max_link_delay;
  const Round next = retransmit_next(now, target);
  if (next == kNoRound) {
    entry.confirmed = true;  // schedule exhausted: the deadline is upon us
  } else {
    entry.next_shot = next;
  }
}

void ConfidentialGossipService::inject(Round now, const sim::Rumor& rumor) {
  // cache_ holds only rumors this process sourced: on_report looks up exactly
  // those in each distribution report.
  CONGOS_ASSERT_MSG(rumor.uid.source == self_, "injected rumor names another source");
  ++counters_.injected;
  if (rumor.dest.test(self_)) deliver_local(now, rumor.uid, rumor.data, false);

  const Round dline = effective_deadline(rumor.deadline, *cfg_);
  if (dline == 0 || degenerate_) {
    // Too-short deadline (paper: dline <= 48) or tau >= n/log^2 n
    // (Theorem 16 first case): send directly to the destination set.
    ++counters_.injected_direct;
    if (!cfg_->retransmit.enabled) {
      queue_direct(now, rumor);
      return;
    }
    // Lossy-link mode: the one direct burst is no longer a guarantee. Track
    // the rumor like a fallback entry - send now, then retry unacked
    // destinations on the deadline-aware schedule.
    CacheEntry entry;
    entry.rumor = rumor;
    entry.shoot_at = now + rumor.deadline;
    arm_fallback(entry, now);
    queue_direct(now, rumor, &entry.acked);
    cache_.emplace(rumor.uid, std::move(entry));
    return;
  }

  CacheEntry entry;
  entry.rumor = rumor;
  entry.shoot_at = now + rumor.deadline;
  arm_fallback(entry, now);
  cache_.emplace(rumor.uid, std::move(entry));

  const Round expires_at = now + dline;
  const auto num_partitions = static_cast<PartitionIndex>(partitions_->count());
  for (PartitionIndex l = 0; l < num_partitions; ++l) {
    const auto& part = (*partitions_)[l];
    const GroupIndex groups = part.num_groups();
    auto frags = split_rumor(rumor, l, groups, expires_at, dline, *rng_);
    const GroupIndex own = part.group_of(self_);
    for (GroupIndex g = 0; g < groups; ++g) {
      if (g == own) {
        auto body = std::make_shared<FragmentBody>();
        body->fragment = std::move(frags[g]);
        hooks_.gossip_fragment(
            l, now, std::move(body),
            now + static_cast<Round>(isqrt(static_cast<std::uint64_t>(dline))));
      } else {
        hooks_.proxy(dline, l)->enqueue(now, std::move(frags[g]));
      }
    }
  }
}

void ConfidentialGossipService::send_phase(Round now, sim::Sender& out) {
  for (auto& e : pending_direct_) out.send(std::move(e));
  pending_direct_.clear();

  // Deadline fallback ("shoot"): send unconfirmed rumors directly. With
  // retransmission enabled the shoot starts early and re-fires until every
  // destination acknowledged or the schedule runs out at the deadline.
  for (auto& [uid, entry] : cache_) {
    if (entry.confirmed || entry.next_shot != now) continue;
    fire_fallback(entry, now);
  }
  for (auto& e : pending_direct_) out.send(std::move(e));
  pending_direct_.clear();

  gc(now);
}

void ConfidentialGossipService::on_group_fragment(Round now, PartitionIndex l,
                                                  const FragmentPtr& frag) {
  CONGOS_ASSERT(frag->meta.key.partition == l);
  if (frag->meta.expires_at < now) return;
  hooks_.gd(frag->meta.dline, l)->enqueue(now, frag);
  if (frag->meta.dest.test(self_)) add_fragment_for_reassembly(now, frag);
}

void ConfidentialGossipService::on_proxy_return(Round now, PartitionIndex l,
                                                std::vector<FragmentPtr> frags) {
  for (auto& frag : frags) {
    CONGOS_ASSERT(frag->meta.key.partition == l);
    if (frag->meta.expires_at < now) continue;
    if (frag->meta.dest.test(self_)) add_fragment_for_reassembly(now, frag);
    hooks_.gd(frag->meta.dline, l)->enqueue(now, std::move(frag));
  }
}

void ConfidentialGossipService::on_partials(Round now, const PartialsPayload& partials) {
  for (const auto& frag : partials.fragments) {
    CONGOS_ASSERT_MSG(frag->meta.dest.test(self_),
                      "received a GroupDistribution partial while not in the "
                      "fragment's destination set");
    add_fragment_for_reassembly(now, frag);
  }
}

void ConfidentialGossipService::on_direct(Round now, const DirectRumorPayload& direct) {
  CONGOS_ASSERT_MSG(direct.rumor.dest.test(self_),
                    "received a direct rumor while not in its destination set");
  // Duplicate-safe: deliver_local() early-returns on an already-delivered
  // uid, so late/duplicated copies and retransmissions are absorbed here.
  deliver_local(now, direct.rumor.uid, direct.rumor.data, false);
}

void ConfidentialGossipService::on_direct_ack(RumorUid uid, ProcessId from) {
  auto it = cache_.find(uid);
  if (it == cache_.end() || it->second.confirmed) return;
  CacheEntry& entry = it->second;
  if (entry.acked.size() == 0 || from >= entry.acked.size()) return;
  if (entry.acked.test(from)) return;  // duplicate ack (dup faults / retries)
  entry.acked.set(from);
  if (all_destinations_acked(entry)) {
    entry.confirmed = true;
    ++counters_.confirmed;
  }
}

void ConfidentialGossipService::add_fragment_for_reassembly(Round now,
                                                            const FragmentPtr& frag) {
  if (delivered_.contains(frag->meta.key.rumor)) return;
  const StoreKey key{frag->meta.key.rumor, frag->meta.key.partition};
  StoreEntry& entry = store_[key];
  entry.num_groups = frag->meta.num_groups;
  entry.expires_at = std::max(entry.expires_at, frag->meta.expires_at);
  entry.parts.emplace(frag->meta.key.group, frag);
  if (entry.parts.size() == entry.num_groups) {
    // All XOR shares for this partition present: reassemble the rumor.
    auto part = entry.parts.begin();
    coding::Bytes data = part->second->data;
    while (++part != entry.parts.end()) coding::xor_into(data, part->second->data);
    deliver_local(now, frag->meta.key.rumor, data, true);
  }
}

void ConfidentialGossipService::on_report(Round /*now*/,
                                          const DistributionReportBody& report) {
  // Look up this process's own unconfirmed rumors (cache_ holds only those,
  // usually none to two) in the report rather than scanning all its hits:
  // one binary search per destination. Every report built in-process or by
  // an honest peer is ascending, so this confirms exactly what a full scan
  // would. A report that is not ascending can only make a search miss, so
  // it confirms less than a scan, never more; the deadline fallback then
  // covers the rumor.
  const auto begin = report.hits.begin();
  const auto end = report.hits.end();
  for (auto& [uid, entry] : cache_) {
    if (entry.confirmed) continue;
    auto from = begin;  // destinations ascend, and so do their hits
    entry.rumor.dest.for_each([&](std::uint32_t q) {
      if (entry.confirmed) return;
      const Hit hit{q, uid};
      from = bisect_hits(from, end, hit);
      if (from == end || *from != hit) return;
      auto& matrix = confirm_[uid];
      if (matrix.empty()) {
        matrix.resize(partitions_->count());
        for (PartitionIndex l = 0; l < partitions_->count(); ++l) {
          matrix[l].assign((*partitions_)[l].num_groups(),
                           DynamicBitset(entry.rumor.dest.size()));
        }
      }
      CONGOS_ASSERT(report.partition < matrix.size());
      CONGOS_ASSERT(report.group < matrix[report.partition].size());
      CONGOS_ASSERT_MSG(
          (*partitions_)[report.partition].group_of(report.reporter) == report.group,
          "report group does not match the reporter's partition group");
      matrix[report.partition][report.group].set(q);
      check_confirmed(uid);
    });
  }
}

void ConfidentialGossipService::check_confirmed(RumorUid uid) {
  auto cit = cache_.find(uid);
  auto mit = confirm_.find(uid);
  if (cit == cache_.end() || cit->second.confirmed || mit == confirm_.end()) return;
  const DynamicBitset& dest = cit->second.rumor.dest;
  for (const auto& groups : mit->second) {
    bool all = true;
    for (const auto& covered : groups) {
      if (!covered.contains_all(dest)) {
        all = false;
        break;
      }
    }
    if (all) {
      // Some partition delivered every fragment to every destination.
      cit->second.confirmed = true;
      ++counters_.confirmed;
      confirm_.erase(mit);
      return;
    }
  }
}

void ConfidentialGossipService::gc(Round now) {
  // Cache/confirm entries die once the (real) deadline passed; the fragment
  // store and delivered set are swept occasionally.
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (it->second.shoot_at < now) {
      confirm_.erase(it->first);
      it = cache_.erase(it);
    } else {
      ++it;
    }
  }
  if (now - last_gc_ < 256) return;
  last_gc_ = now;
  for (auto it = store_.begin(); it != store_.end();) {
    if (it->second.expires_at < now) {
      it = store_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace congos::core
