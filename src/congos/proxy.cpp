#include "congos/proxy.h"

#include <algorithm>

#include "common/assert.h"
#include "common/math.h"

namespace congos::core {

ProxyService::ProxyService(ProcessId self, PartitionIndex l,
                           const partition::Partition* part, Round dline,
                           const CongosConfig* cfg, Rng* rng, Hooks hooks)
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
      failed_proxies_(part->n()),
      collaborators_(part->n()),
      acks_received_(part->n()) {
  CONGOS_ASSERT(part_ != nullptr && cfg_ != nullptr && rng_ != nullptr);
}

void ProxyService::reset(Round /*now*/) {
  waiting_.clear();
  my_rumors_.clear();
  group_satisfied_.clear();
  status_active_ = false;
  failed_proxies_.reset_all();
  collaborators_.reset_all();
  outstanding_.clear();
  acks_received_.reset_all();
  proxy_buffer_.clear();
  buffered_keys_.clear();
  requesters_to_ack_.clear();
  partial_rumors_.clear();
  partial_keys_.clear();
}

void ProxyService::enqueue(Round now, FragmentPtr frag) {
  CONGOS_ASSERT_MSG(frag->meta.key.group != my_group_,
                    "own-group fragments go through GroupGossip, not the proxy");
  if (frag->meta.expires_at < now) return;
  waiting_.push_back(std::move(frag));
}

void ProxyService::begin_block(Round now) {
  // Return last block's collected partials to ConfidentialGossip first (the
  // outline does this "at the end of the last round of a block"; doing it at
  // the start of the next block is the same point in protocol time, before
  // GroupDistribution's collection in round 2).
  if (!partial_rumors_.empty() && hooks_.return_partials) {
    hooks_.return_partials(now, std::move(partial_rumors_));
  }
  partial_rumors_.clear();
  partial_keys_.clear();
  proxy_buffer_.clear();
  buffered_keys_.clear();
  requesters_to_ack_.clear();
  outstanding_.clear();
  acks_received_.reset_all();
  failed_proxies_.reset_all();
  group_satisfied_.clear();
  my_rumors_.clear();
  status_active_ = false;

  // Activation requires dline/4 rounds of continuous uptime (Fig. 9).
  if (now - hooks_.alive_since() < block_len_) return;

  for (auto& frag : waiting_) {
    if (frag->meta.expires_at < now) continue;
    my_rumors_[frag->meta.key.group].push_back(std::move(frag));
  }
  waiting_.clear();
  if (my_rumors_.empty()) return;
  status_active_ = true;
  for (const auto& [g, _] : my_rumors_) group_satisfied_[g] = false;
  // Initially every group member is presumed to collaborate (Fig. 9 line 21).
  collaborators_ = part_->members(my_group_);
}

void ProxyService::settle_acks() {
  for (auto& [group, targets] : outstanding_) {
    bool any_ack = false;
    for (ProcessId t : targets) {
      if (acks_received_.test(t)) {
        any_ack = true;
      } else {
        failed_proxies_.set(t);
      }
    }
    if (any_ack) group_satisfied_[group] = true;
  }
  outstanding_.clear();
  acks_received_.reset_all();
  if (status_active_) {
    bool all = true;
    for (const auto& [g, sat] : group_satisfied_) all = all && sat;
    // Every fragment group has a confirmed proxy: our work is done for this
    // block (Fig. 9: status <- idle on proxy-ack).
    if (all) status_active_ = false;
  }
}

void ProxyService::send_requests(Round now, sim::Sender& out) {
  if (!status_active_) return;
  const std::uint64_t fanout =
      service_fanout(part_->n(), dline_, collaborators_.count(), *cfg_);
  // Iterate groups in sorted order: each unsatisfied group consumes RNG
  // draws, so the iteration order is part of the deterministic trace and
  // must not depend on hash-container bucket layout.
  request_groups_.clear();
  for (const auto& [g, _] : my_rumors_) request_groups_.push_back(g);
  std::sort(request_groups_.begin(), request_groups_.end());
  for (const GroupIndex group : request_groups_) {
    auto& frags = my_rumors_.find(group)->second;
    if (group_satisfied_[group]) continue;
    // Drop expired fragments.
    std::erase_if(frags, [now](const auto& f) { return f->meta.expires_at < now; });
    if (frags.empty()) {
      group_satisfied_[group] = true;
      continue;
    }
    pool_scratch_ = part_->members(group);
    pool_scratch_ -= failed_proxies_;
    // Everyone failed: retry all.
    if (pool_scratch_.none()) pool_scratch_ = part_->members(group);
    candidates_.clear();
    pool_scratch_.for_each([&](std::uint32_t q) { candidates_.push_back(q); });
    const auto k = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(fanout, candidates_.size()));
    rng_->sample_without_replacement(static_cast<std::uint32_t>(candidates_.size()), k,
                                     pick_scratch_);
    auto req = req_pool_.acquire();
    req->dline = dline_;
    req->fragments = frags;
    auto& targets = outstanding_[group];
    for (auto idx : pick_scratch_) {
      const ProcessId target = candidates_[idx];
      CONGOS_ASSERT_MSG(part_->group_of(target) == group,
                        "[PROXY:CONFIDENTIAL] target outside fragment group");
      out.send(sim::Envelope{self_, target,
                             sim::ServiceTag{sim::ServiceKind::kProxy, partition_}, req});
      targets.push_back(target);
    }
  }
}

void ProxyService::resend_requests(Round now, sim::Sender& out) {
  if (!status_active_ || outstanding_.empty()) return;
  request_groups_.clear();
  for (const auto& [g, _] : outstanding_) request_groups_.push_back(g);
  std::sort(request_groups_.begin(), request_groups_.end());
  for (const GroupIndex group : request_groups_) {
    if (group_satisfied_[group]) continue;
    auto rit = my_rumors_.find(group);
    if (rit == my_rumors_.end()) continue;
    auto& frags = rit->second;
    std::erase_if(frags, [now](const auto& f) { return f->meta.expires_at < now; });
    if (frags.empty()) continue;
    auto req = req_pool_.acquire();
    req->dline = dline_;
    req->fragments = frags;
    for (const ProcessId target : outstanding_.find(group)->second) {
      if (acks_received_.test(target)) continue;  // already confirmed receipt
      CONGOS_ASSERT_MSG(part_->group_of(target) == group,
                        "[PROXY:CONFIDENTIAL] target outside fragment group");
      out.send(sim::Envelope{self_, target,
                             sim::ServiceTag{sim::ServiceKind::kProxy, partition_}, req});
    }
  }
}

void ProxyService::inject_share(Round now) {
  // A process participates in the intra-group exchange when it has its own
  // cross-group fragments in flight (status active) or is holding fragments
  // as a proxy for this group ("the potential proxies then participate in
  // GroupGossip[l]", Section 4.4).
  const bool participating = status_active_ || !proxy_buffer_.empty();
  collaborators_.reset_all();
  if (!participating) return;
  collaborators_.set(self_);
  auto share = std::make_shared<ProxyShareBody>();
  share->dline = dline_;
  share->block = static_cast<std::uint64_t>(now / block_len_);
  share->from = self_;
  for (const auto& f : proxy_buffer_) {
    if (f->meta.expires_at >= now) share->proxied.push_back(f);
  }
  share->failed_proxies = failed_proxies_.to_vector();
  if (hooks_.gossip_share) {
    hooks_.gossip_share(now, std::move(share),
                        now + static_cast<Round>(isqrt(static_cast<std::uint64_t>(dline_))));
  }
}

void ProxyService::send_acks(Round /*now*/, sim::Sender& out) {
  if (requesters_to_ack_.empty()) return;
  std::sort(requesters_to_ack_.begin(), requesters_to_ack_.end());
  requesters_to_ack_.erase(
      std::unique(requesters_to_ack_.begin(), requesters_to_ack_.end()),
      requesters_to_ack_.end());
  auto ack = ack_pool_.acquire();
  ack->dline = dline_;
  for (ProcessId r : requesters_to_ack_) {
    out.send(sim::Envelope{self_, r,
                           sim::ServiceTag{sim::ServiceKind::kProxy, partition_}, ack});
  }
  requesters_to_ack_.clear();
}

void ProxyService::send_phase(Round now, sim::Sender& out) {
  const Round offset = now % block_len_;
  if (offset == 0) begin_block(now);

  const Round iter_index = offset / iter_len_;
  if (iter_index >= iters_per_block_) return;  // tail rounds of the block
  const Round io = offset % iter_len_;

  if (io == 0) {
    settle_acks();  // evaluate the previous iteration's acknowledgements
    send_requests(now, out);
  } else if (io == iter_len_ - 1) {
    send_acks(now, out);
  } else if (cfg_->retransmit.enabled && io == iter_len_ / 2) {
    resend_requests(now, out);
  }
  if (io == 1) inject_share(now);
}

void ProxyService::on_request(Round now, const ProxyRequestPayload& req,
                              ProcessId from) {
  for (const auto& frag : req.fragments) {
    CONGOS_ASSERT_MSG(frag->meta.key.group == my_group_,
                      "proxy request fragment not for this group");
    if (frag->meta.expires_at < now) continue;
    if (buffered_keys_.insert(frag->meta.key).second) {
      proxy_buffer_.push_back(frag);
    }
  }
  requesters_to_ack_.push_back(from);
}

void ProxyService::on_ack(Round /*now*/, ProcessId from) { acks_received_.set(from); }

void ProxyService::on_share(Round now, const ProxyShareBody& share) {
  for (ProcessId f : share.failed_proxies) failed_proxies_.set(f);
  collaborators_.set(share.from);
  for (const auto& frag : share.proxied) {
    CONGOS_ASSERT_MSG(frag->meta.key.group == my_group_,
                      "shared fragment not for this group");
    if (frag->meta.expires_at < now) continue;
    if (partial_keys_.insert(frag->meta.key).second) {
      partial_rumors_.push_back(frag);
    }
  }
}

}  // namespace congos::core
