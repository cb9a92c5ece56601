#include "audit/confidentiality.h"

#include <algorithm>

#include "baseline/baseline_payload.h"
#include "common/assert.h"
#include "common/gallop.h"

namespace congos::audit {

ConfidentialityAuditor::ConfidentialityAuditor(std::size_t n,
                                               const partition::PartitionSet* partitions)
    : n_(n), partitions_(partitions), knowledge_(n), slots_(n) {}

void ConfidentialityAuditor::flag(ViolationKind kind, ProcessId p, const RumorUid& uid,
                                  Round now) {
  Slot& slot = slots_[p];
  slot.pending.push_back(Violation{kind, p, uid, now});
  ++slot.counts[static_cast<std::size_t>(kind)];
}

void ConfidentialityAuditor::merge_pending() const {
  const std::size_t merged = violations_.size();
  for (const Slot& slot : slots_) {
    if (slot.pending.empty()) continue;
    violations_.insert(violations_.end(), slot.pending.begin(), slot.pending.end());
    slot.pending.clear();  // keeps capacity
  }
  if (violations_.size() == merged) return;
  // Appended in process order, each process in sighting order: a stable sort
  // by round yields (round, process, sighting order), and a stable merge
  // keeps an earlier batch's sightings ahead of a later batch's at the same
  // (round, process). Rounds the engine merges one at a time are already in
  // order and skip both steps.
  const auto earlier = [](const Violation& a, const Violation& b) {
    return a.when != b.when ? a.when < b.when : a.process < b.process;
  };
  const auto mid = violations_.begin() + static_cast<std::ptrdiff_t>(merged);
  if (!std::is_sorted(mid, violations_.end(), earlier)) {
    std::stable_sort(mid, violations_.end(), earlier);
  }
  if (merged != 0 && earlier(*mid, *(mid - 1))) {
    std::inplace_merge(violations_.begin(), mid, violations_.end(), earlier);
  }
}

void ConfidentialityAuditor::on_round_end(Round /*now*/) { merge_pending(); }

const std::vector<Violation>& ConfidentialityAuditor::violations() const {
  merge_pending();
  return violations_;
}

std::uint64_t ConfidentialityAuditor::count(ViolationKind kind) const {
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) total += slot.counts[static_cast<std::size_t>(kind)];
  return total;
}

std::uint64_t ConfidentialityAuditor::unknown_payloads() const {
  std::uint64_t total = 0;
  for (const Slot& slot : slots_) total += slot.unknown_payloads;
  return total;
}

void ConfidentialityAuditor::on_inject(const sim::Rumor& rumor, Round /*now*/) {
  rumors_.emplace(rumor.uid, RumorInfo{rumor.dest, rumor.uid.source});
}

bool ConfidentialityAuditor::curious(ProcessId p, const RumorUid& uid) const {
  auto it = rumors_.find(uid);
  if (it == rumors_.end()) return false;  // unknown rumor (foreign system)
  return p != it->second.source && !it->second.dest.test(p);
}

void ConfidentialityAuditor::saw_full(ProcessId p, const RumorUid& uid, Round now) {
  const bool already = knowledge_.knows_full(p, uid);
  knowledge_.note_full(p, uid);
  if (!already && curious(p, uid)) flag(ViolationKind::kFullLeak, p, uid, now);
}

bool ConfidentialityAuditor::saw_fragment(ProcessId p, const core::Fragment& frag,
                                          Round now) {
  const core::FragmentKey& key = frag.meta.key;
  const GroupIndex num_groups = frag.meta.num_groups;
  Slot& slot = slots_[p];
  if (!slot.group_counts_vary) {
    // Repeat: knowledge is unchanged (the group bit is set and the rumor's
    // group count is this one), and curious() is fixed once injected.
    auto it = slot.sightings.find(key);
    if (it != slot.sightings.end() && it->second.num_groups == num_groups) {
      if (it->second.foreign) flag(ViolationKind::kForeignFragment, p, key.rumor, now);
      return true;
    }
  }

  // The key came off the wire: a partition or group outside the run's shape
  // names no fragment of this system, so it is an unknown payload and never
  // an index.
  if (partitions_ != nullptr &&
      (key.partition >= partitions_->count() ||
       key.group >= (*partitions_)[key.partition].num_groups())) {
    ++slot.unknown_payloads;
    return false;
  }

  const RumorUid uid = key.rumor;
  const bool could_before = knowledge_.can_reconstruct(p, uid);
  if (knowledge_.note_fragment(p, key, num_groups)) slot.group_counts_vary = true;
  if (!rumors_.contains(uid)) return false;  // not injected yet: judged again later
  const bool is_curious = curious(p, uid);
  const bool foreign = is_curious && partitions_ != nullptr &&
                       (*partitions_)[key.partition].group_of(p) != key.group;
  slot.sightings[key] = Sighting{num_groups, foreign};
  if (foreign) flag(ViolationKind::kForeignFragment, p, uid, now);
  if (is_curious && !could_before && knowledge_.can_reconstruct(p, uid)) {
    flag(ViolationKind::kFragmentSetLeak, p, uid, now);
  }
  return true;
}

void ConfidentialityAuditor::expire_clean(Slot& slot, Round now) {
  Round next = std::numeric_limits<Round>::max();
  for (CleanRun& run : slot.clean) {
    std::erase_if(run.bodies, [&](const CleanBody& c) { return c.deadline_at < now; });
    for (const CleanBody& c : run.bodies) next = std::min(next, c.deadline_at);
  }
  slot.clean_expiry = next;
}

void ConfidentialityAuditor::saw_gossip(ProcessId p, const sim::Envelope& e, Round now) {
  Slot& slot = slots_[p];
  // The memo run of this envelope's service; none once group counts vary.
  std::vector<CleanBody>* run = nullptr;
  if (slot.group_counts_vary) {
    slot.clean.clear();  // the memo never answers again at p
  } else {
    if (slot.clean_expiry < now) expire_clean(slot, now);
    auto it = std::ranges::find(slot.clean, e.tag, &CleanRun::tag);
    run = it != slot.clean.end() ? &it->bodies
                                 : &slot.clean.emplace_back(CleanRun{e.tag, {}}).bodies;
  }

  std::size_t cursor = 0;
  for (const gossip::RumorEntry& r : static_cast<const gossip::GossipMsg&>(*e.body).rumors) {
    // The entry carries the body's kind: only a fragment-carrying body is
    // judged through the memo, and the others never touch the record.
    switch (r.body_kind) {
      case sim::PayloadKind::kFragment:
      case sim::PayloadKind::kProxyShare:
        break;
      case sim::PayloadKind::kHitSetShare:
      case sim::PayloadKind::kDistributionReport:
        continue;  // metadata only
      case sim::PayloadKind::kBaselineRumor:
        saw_full(p,
                 static_cast<const baseline::BaselineRumorPayload&>(*r.rumor->body).rumor.uid,
                 now);
        continue;
      default:
        ++slot.unknown_payloads;  // a null body too
        continue;
    }

    const bool memo = run != nullptr && !slot.group_counts_vary;
    std::vector<CleanBody>::iterator at;
    if (memo) {
      at = gallop_lower_bound(
          run->begin(),
          run->begin() + static_cast<std::ptrdiff_t>(std::min(cursor, run->size())),
          run->end(), r.gid, &CleanBody::gid);
      cursor = static_cast<std::size_t>(at - run->begin());
      if (at != run->end() && at->gid == r.gid && at->rumor == r.rumor) {
        ++cursor;
        continue;  // judged clean before: no effect
      }
    }

    const sim::Payload& body = *r.rumor->body;
    const std::size_t flagged = slot.pending.size();
    bool settled = true;
    if (r.body_kind == sim::PayloadKind::kFragment) {
      settled = saw_fragment(p, *static_cast<const core::FragmentBody&>(body).fragment, now);
    } else {
      for (const auto& f : static_cast<const core::ProxyShareBody&>(body).proxied) {
        settled = saw_fragment(p, *f, now) && settled;
      }
    }

    if (!memo || !settled || slot.pending.size() != flagged || slot.group_counts_vary) {
      continue;
    }
    if (at != run->end() && at->gid == r.gid) {
      *at = CleanBody{r.gid, r.deadline_at, r.rumor};  // another record, same gid
    } else {
      at = run->insert(at, CleanBody{r.gid, r.deadline_at, r.rumor});
    }
    slot.clean_expiry = std::min(slot.clean_expiry, r.deadline_at);
    cursor = static_cast<std::size_t>(at - run->begin()) + 1;
  }
}

void ConfidentialityAuditor::on_envelope_delivered(const sim::Envelope& e, Round now) {
  const ProcessId p = e.to;
  CONGOS_ASSERT_MSG(p < n_, "delivery to an unknown process");
  std::uint64_t& unknown_payloads = slots_[p].unknown_payloads;
  const sim::Payload* body = e.body.get();
  if (body == nullptr) {
    ++unknown_payloads;
    return;
  }

  switch (body->kind()) {
    case sim::PayloadKind::kGossipMsg:
      saw_gossip(p, e, now);
      return;
    case sim::PayloadKind::kProxyRequest:
      for (const auto& f :
           static_cast<const core::ProxyRequestPayload*>(body)->fragments) {
        saw_fragment(p, *f, now);
      }
      return;
    case sim::PayloadKind::kPartials:
      for (const auto& f : static_cast<const core::PartialsPayload*>(body)->fragments) {
        saw_fragment(p, *f, now);
      }
      return;
    case sim::PayloadKind::kDirectRumor:
      saw_full(p, static_cast<const core::DirectRumorPayload*>(body)->rumor.uid, now);
      return;
    case sim::PayloadKind::kBaselineRumor:
      saw_full(p, static_cast<const baseline::BaselineRumorPayload*>(body)->rumor.uid,
               now);
      return;
    case sim::PayloadKind::kBaselineBatch:
      for (const auto& r : static_cast<const baseline::BaselineBatchPayload*>(body)->rumors) {
        saw_full(p, r.uid, now);
      }
      return;
    case sim::PayloadKind::kGossipAck:
    case sim::PayloadKind::kProxyAck:
    case sim::PayloadKind::kStrongAck:
    case sim::PayloadKind::kPartialsAck:
    case sim::PayloadKind::kDirectAck:
      return;  // metadata only (acks carry deadlines/uids, never rumor data)
    default:
      // Unknown payload type: count it; protocols with private metadata
      // payloads land here harmlessly, but a nonzero count in a CONGOS-only
      // test is a bug.
      ++unknown_payloads;
  }
}

std::size_t ConfidentialityAuditor::weakest_rumor_coalition() const {
  std::size_t best = SIZE_MAX;
  for (const auto& [uid, _] : rumors_) {
    best = std::min(best, min_breaking_coalition(uid));
  }
  return best;
}

bool ConfidentialityAuditor::breakable_by_coalition(const RumorUid& uid,
                                                    std::size_t tau) const {
  return min_breaking_coalition(uid) <= tau;
}

std::size_t ConfidentialityAuditor::min_breaking_coalition(const RumorUid& uid) const {
  auto rit = rumors_.find(uid);
  if (rit == rumors_.end()) return SIZE_MAX;

  std::size_t best = SIZE_MAX;
  // A single curious process that can already reconstruct -> coalition of 1.
  // Otherwise: per partition, a coalition needs one curious holder per group;
  // under the structural invariant each curious process contributes at most
  // one group per partition, so the minimum is num_groups when every group's
  // fragment escaped, else impossible for that partition.
  FlatMap<PartitionIndex, std::uint64_t> escaped;  // group mask
  GroupIndex groups = 0;
  for (ProcessId p = 0; p < n_; ++p) {
    if (!curious(p, uid)) continue;
    if (knowledge_.can_reconstruct(p, uid)) return 1;
    const auto* masks = knowledge_.partition_masks(p, uid);
    if (masks == nullptr) continue;
    for (const auto& [l, mask] : *masks) escaped[l] |= mask;
  }
  if (partitions_ != nullptr && partitions_->count() > 0) {
    groups = (*partitions_)[0].num_groups();
  }
  if (groups == 0) return best;
  const std::uint64_t want = (groups >= 64) ? ~0ull : ((1ull << groups) - 1);
  for (const auto& [l, mask] : escaped) {
    if ((mask & want) == want) best = std::min<std::size_t>(best, groups);
  }
  return best;
}

}  // namespace congos::audit
