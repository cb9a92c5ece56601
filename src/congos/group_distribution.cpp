#include "congos/group_distribution.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"
#include "common/gallop.h"
#include "common/math.h"

namespace congos::core {

GroupDistributionService::GroupDistributionService(ProcessId self, PartitionIndex l,
                                                   const partition::Partition* part,
                                                   Round dline, const CongosConfig* cfg,
                                                   Rng* rng, Hooks hooks)
    : self_(self),
      partition_(l),
      part_(part),
      dline_(dline),
      block_len_(block_length(dline)),
      iter_len_(iteration_length(dline)),
      iters_per_block_(iterations_per_block(dline)),
      cfg_(cfg),
      rng_(rng),
      hooks_(std::move(hooks)),
      my_group_(part->group_of(self)),
      collaborators_(part->n()) {
  CONGOS_ASSERT(part_ != nullptr && cfg_ != nullptr && rng_ != nullptr);
}

void GroupDistributionService::reset(Round /*now*/) {
  waiting_.clear();
  partials_.clear();
  partial_keys_.clear();
  hitset_.clear();
  pending_unacked_.clear();
  collaborators_.reset_all();
  status_active_ = false;
}

void GroupDistributionService::enqueue(Round now, FragmentPtr frag) {
  CONGOS_ASSERT_MSG(frag->meta.key.group == my_group_,
                    "GroupDistribution only handles own-group fragments");
  if (frag->meta.expires_at < now) return;
  waiting_.push_back(std::move(frag));
}

void GroupDistributionService::begin_block(Round now) {
  partials_.clear();
  partial_keys_.clear();
  hitset_.clear();
  pending_unacked_.clear();
  status_active_ = false;

  // Activation requires ~2*dline/3 rounds of continuous uptime (Fig. 10),
  // which guarantees the process witnessed the whole preceding proxy block.
  const auto needed = static_cast<Round>(
      std::ceil(cfg_->gd_alive_factor * static_cast<double>(dline_)));
  if (now - hooks_.alive_since() < needed) return;

  status_active_ = true;
  for (auto& frag : waiting_) {
    if (frag->meta.expires_at < now) continue;
    if (partial_keys_.insert(frag->meta.key).second) partials_.push_back(std::move(frag));
  }
  waiting_.clear();
  collaborators_ = part_->members(my_group_);
}

void GroupDistributionService::distribute(Round now, sim::Sender& out) {
  if (!status_active_ || partials_.empty()) return;
  std::erase_if(partials_, [now](const auto& f) { return f->meta.expires_at < now; });

  // Destinations still needing at least one of our fragments. The map and
  // its per-target lists are per-instance scratch: cleared (capacity kept)
  // on every call rather than reallocated.
  needed_index_.clear();
  std::uint32_t used = 0;
  for (std::uint32_t i = 0; i < partials_.size(); ++i) {
    const Fragment& frag = *partials_[i];
    frag.meta.dest.for_each([&](std::uint32_t q) {
      const Hit hit{q, frag.meta.key.rumor};
      if (std::binary_search(hitset_.begin(), hitset_.end(), hit)) return;
      auto [slot, inserted] = needed_index_.try_emplace(q, 0);
      if (inserted) {
        if (used == needed_lists_.size()) needed_lists_.emplace_back();
        needed_lists_[used].clear();
        slot->second = used++;
      }
      needed_lists_[slot->second].push_back(i);
    });
  }
  if (needed_index_.empty()) return;

  candidates_.clear();
  candidates_.reserve(needed_index_.size());
  for (const auto& [q, _] : needed_index_) candidates_.push_back(q);
  std::sort(candidates_.begin(), candidates_.end());  // determinism

  const std::uint64_t fanout =
      service_fanout(part_->n(), dline_, collaborators_.count(), *cfg_);
  const auto k =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(fanout, candidates_.size()));
  rng_->sample_without_replacement(static_cast<std::uint32_t>(candidates_.size()), k,
                                   pick_scratch_);

  // hitset_ was only read above, so this round's hits are collected and
  // merged once, after the last send.
  const bool ack_gated = cfg_->retransmit.enabled;
  fresh_hits_.clear();
  for (auto idx : pick_scratch_) {
    const ProcessId target = candidates_[idx];
    auto msg = partials_pool_.acquire();
    msg->dline = dline_;
    std::vector<Hit>* pending = nullptr;
    if (ack_gated) {
      // Lossy-link mode: a send is not a hit until the target acks it. The
      // target stays in the needed set meanwhile, so the next iteration's
      // sampling naturally retransmits; overwriting (not appending) keeps the
      // pending list equal to the latest message's contents.
      pending = &pending_unacked_[target];
      pending->clear();
    }
    const auto& needed = needed_lists_[needed_index_.find(target)->second];
    msg->fragments.reserve(needed.size());
    for (const std::uint32_t i : needed) {
      const auto& f = partials_[i];
      CONGOS_ASSERT_MSG(f->meta.dest.test(target),
                        "[GD:CONFIDENTIAL] target outside destination set");
      msg->fragments.push_back(f);
      const Hit hit{target, f->meta.key.rumor};
      if (ack_gated) {
        pending->push_back(hit);
      } else {
        fresh_hits_.push_back(hit);
      }
    }
    out.send(sim::Envelope{
        self_, target, sim::ServiceTag{sim::ServiceKind::kGroupDistribution, partition_},
        std::move(msg)});
  }
  if (!fresh_hits_.empty()) merge_hits(fresh_hits_);
}

void GroupDistributionService::merge_hits(std::vector<Hit>& fresh) {
  std::sort(fresh.begin(), fresh.end());
  const auto held = static_cast<std::ptrdiff_t>(hitset_.size());
  hitset_.insert(hitset_.end(), fresh.begin(), fresh.end());
  std::inplace_merge(hitset_.begin(), hitset_.begin() + held, hitset_.end());
  hitset_.erase(std::unique(hitset_.begin(), hitset_.end()), hitset_.end());
}

void GroupDistributionService::on_partials_ack(Round /*now*/, ProcessId from) {
  auto it = pending_unacked_.find(from);
  if (it == pending_unacked_.end()) return;
  merge_hits(it->second);
  pending_unacked_.erase(it);
}

void GroupDistributionService::inject_share(Round now) {
  collaborators_.reset_all();
  if (!status_active_) return;
  collaborators_.set(self_);
  auto share = std::make_shared<HitSetShareBody>();
  share->dline = dline_;
  share->block = static_cast<std::uint64_t>(now / block_len_);
  share->from = self_;
  share->hits = hitset_;
  if (hooks_.gossip_share) {
    hooks_.gossip_share(now, std::move(share),
                        now + static_cast<Round>(isqrt(static_cast<std::uint64_t>(dline_))));
  }
}

void GroupDistributionService::publish_report(Round now) {
  if (!status_active_ || hitset_.empty()) return;
  auto report = std::make_shared<DistributionReportBody>();
  report->reporter = self_;
  report->partition = partition_;
  report->group = my_group_;
  report->dline = dline_;
  report->hits = hitset_;
  if (hooks_.all_gossip) {
    hooks_.all_gossip(now, std::move(report), now + block_len_ - 1);
  }
}

void GroupDistributionService::send_phase(Round now, sim::Sender& out) {
  const Round offset = now % block_len_;
  if (offset == 1) begin_block(now);  // round 1 waits for late fragments

  if (offset == block_len_ - 1) publish_report(now);

  if (offset == 0) return;
  const Round rel = offset - 1;  // iterations start at block round 2
  const Round iter_index = rel / iter_len_;
  if (iter_index >= iters_per_block_) return;
  const Round io = rel % iter_len_;

  if (io == 1) {
    distribute(now, out);
  } else if (io == 2) {
    inject_share(now);
  }
}

void GroupDistributionService::on_share(Round /*now*/, const HitSetShareBody& share) {
  collaborators_.set(share.from);
  // Walk the share against the run in lockstep: a hit found at the cursor
  // costs one compare, so a share that repeats what we hold is a linear
  // scan. Any other hit is galloped to from the cursor, which finds its
  // exact place in the run whatever the share's order (only a buggy peer
  // sends one that is not ascending). Only new hits are collected and merged.
  fresh_hits_.clear();
  auto cursor = hitset_.begin();
  for (const Hit& h : share.hits) {
    if (cursor != hitset_.end() && *cursor == h) {
      ++cursor;
      continue;
    }
    const auto at = gallop_lower_bound(hitset_.begin(), cursor, hitset_.end(), h);
    if (at != hitset_.end() && *at == h) {
      cursor = at + 1;
    } else {
      fresh_hits_.push_back(h);
      cursor = at;
    }
  }
  if (!fresh_hits_.empty()) merge_hits(fresh_hits_);
}

}  // namespace congos::core
