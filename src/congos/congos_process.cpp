#include "congos/congos_process.h"

#include <cmath>

#include "common/assert.h"
#include "partition/bit_partition.h"
#include "partition/random_partition.h"

namespace congos::core {

std::shared_ptr<const partition::PartitionSet> CongosProcess::build_partitions(
    std::size_t n, const CongosConfig& cfg) {
  Rng rng(cfg.partition_seed);
  if (cfg.tau <= 1) {
    return std::make_shared<const partition::PartitionSet>(
        partition::make_bit_partitions(n));
  }
  partition::RandomPartitionOptions opt;
  opt.tau = cfg.tau;
  opt.c = cfg.partition_c;
  return std::make_shared<const partition::PartitionSet>(
      partition::make_random_partitions(n, opt, rng).partitions);
}

bool CongosProcess::is_degenerate(std::size_t n, const CongosConfig& cfg) {
  if (!cfg.allow_degenerate) return false;
  const double log_n = std::max(1.0, std::log2(static_cast<double>(n)));
  return static_cast<double>(cfg.tau) >= static_cast<double>(n) / (log_n * log_n);
}

CongosProcess::CongosProcess(ProcessId id, std::shared_ptr<const CongosConfig> cfg,
                             std::shared_ptr<const partition::PartitionSet> partitions,
                             std::uint64_t seed, sim::DeliveryListener* listener,
                             ProcessBehavior behavior)
    : sim::Process(id),
      cfg_(std::move(cfg)),
      partitions_(std::move(partitions)),
      rng_(seed),
      listener_(listener),
      behavior_(behavior),
      degenerate_(false) {
  CONGOS_ASSERT(cfg_ != nullptr && partitions_ != nullptr);
  CONGOS_ASSERT(partitions_->count() > 0);
  degenerate_ = is_degenerate((*partitions_)[0].n(), *cfg_);

  const std::size_t n = (*partitions_)[0].n();
  group_gossip_.reserve(partitions_->count());
  for (PartitionIndex l = 0; l < partitions_->count(); ++l) {
    const auto& part = (*partitions_)[l];
    gossip::GossipConfig gcfg;
    gcfg.tag = sim::ServiceTag{sim::ServiceKind::kGroupGossip, l};
    gcfg.universe = part.members(part.group_of(id));
    gcfg.fanout = cfg_->gossip_fanout;
    gcfg.strategy = cfg_->gossip_strategy;
    gcfg.graph_seed = cfg_->partition_seed ^ (static_cast<std::uint64_t>(l) << 8);
    group_gossip_.push_back(std::make_unique<gossip::ContinuousGossipService>(
        id, std::move(gcfg), &rng_,
        [this, l](Round now, const gossip::GossipRumor& r) {
          on_group_gossip_deliver(l, now, r);
        }));
  }

  gossip::GossipConfig acfg;
  acfg.tag = sim::ServiceTag{sim::ServiceKind::kAllGossip, 0};
  acfg.universe = DynamicBitset::full(n);
  acfg.fanout = cfg_->gossip_fanout;
  acfg.strategy = cfg_->gossip_strategy;
  acfg.graph_seed = cfg_->partition_seed ^ 0xa11ULL;
  all_gossip_ = std::make_unique<gossip::ContinuousGossipService>(
      id, std::move(acfg), &rng_,
      [this](Round now, const gossip::GossipRumor& r) { on_all_gossip_deliver(now, r); });

  ConfidentialGossipService::Hooks hooks;
  hooks.gossip_fragment = [this, id](PartitionIndex l, Round now, sim::PayloadPtr body,
                                     Round deadline_at) {
    const auto& part = (*partitions_)[l];
    group_gossip_[l]->inject(now, std::move(body), part.members(part.group_of(id)),
                             deadline_at);
  };
  hooks.proxy = [this](Round dline, PartitionIndex l) { return proxy(dline, l); };
  hooks.gd = [this](Round dline, PartitionIndex l) { return gd(dline, l); };
  cg_ = std::make_unique<ConfidentialGossipService>(
      id, cfg_.get(), partitions_.get(), degenerate_, &rng_, listener_,
      std::move(hooks));
}

CongosProcess::Instance& CongosProcess::instance(Round dline) {
  auto it = instances_.find(dline);
  if (it != instances_.end()) return it->second;

  Instance inst;
  inst.proxies.reserve(partitions_->count());
  inst.gds.reserve(partitions_->count());
  for (PartitionIndex l = 0; l < partitions_->count(); ++l) {
    const auto* part = &(*partitions_)[l];

    ProxyService::Hooks ph;
    ph.gossip_share = [this, l, part](Round now, sim::PayloadPtr body,
                                      Round deadline_at) {
      group_gossip_[l]->inject(now, std::move(body),
                               part->members(part->group_of(id())), deadline_at);
    };
    ph.return_partials = [this, l](Round now, std::vector<FragmentPtr> partials) {
      cg_->on_proxy_return(now, l, std::move(partials));
    };
    ph.alive_since = [this] { return wakeup_; };
    inst.proxies.push_back(std::make_unique<ProxyService>(id(), l, part, dline,
                                                          cfg_.get(), &rng_,
                                                          std::move(ph)));

    GroupDistributionService::Hooks gh;
    gh.gossip_share = [this, l, part](Round now, sim::PayloadPtr body,
                                      Round deadline_at) {
      group_gossip_[l]->inject(now, std::move(body),
                               part->members(part->group_of(id())), deadline_at);
    };
    gh.all_gossip = [this](Round now, sim::PayloadPtr body, Round deadline_at) {
      all_gossip_->inject(now, std::move(body),
                          DynamicBitset::full(all_gossip_->universe().size()),
                          deadline_at);
    };
    gh.alive_since = [this] { return wakeup_; };
    inst.gds.push_back(std::make_unique<GroupDistributionService>(
        id(), l, part, dline, cfg_.get(), &rng_, std::move(gh)));
  }
  return instances_.emplace(dline, std::move(inst)).first->second;
}

ProxyService* CongosProcess::proxy(Round dline, PartitionIndex l) {
  return instance(dline).proxies[l].get();
}

GroupDistributionService* CongosProcess::gd(Round dline, PartitionIndex l) {
  return instance(dline).gds[l].get();
}

void CongosProcess::on_start(Round now) {
  wakeup_ = now;
  now_ = now;
}

void CongosProcess::on_restart(Round now) {
  // No durable storage: every service restarts from its initial state. The
  // process re-reads the global clock (`now`). Resetting the gossip services
  // in place starts a new gid epoch, so the rumors this incarnation injects
  // never reuse the gids of rumors its peers still hold from the last one.
  // Counters and filter drops survive: they describe the experiment.
  wakeup_ = now;
  now_ = now;
  for (auto& gg : group_gossip_) gg->reset(now);
  all_gossip_->reset(now);
  cg_->reset(now);
  instances_.clear();     // Proxy/GroupDistribution instances are lazy
  pending_acks_.clear();  // queued acks are volatile state, lost on restart
}

void CongosProcess::inject(const sim::Rumor& rumor) {
  cg_->inject(rumor.injected_at, rumor);
}

void CongosProcess::send_phase(Round now, sim::Sender& out) {
  now_ = now;
  // Receipt acks queued during the previous receive phase go out first
  // (retransmission mode; empty otherwise).
  for (auto& a : pending_acks_) out.send(std::move(a));
  pending_acks_.clear();
  cg_->send_phase(now, out);
  for (auto& [dline, inst] : instances_) {
    for (auto& p : inst.proxies) p->send_phase(now, out);
    if (behavior_ == ProcessBehavior::kLazy) continue;  // freeloader: no GD work
    for (auto& g : inst.gds) g->send_phase(now, out);
  }
  for (auto& gg : group_gossip_) gg->send_phase(now, out);
  all_gossip_->send_phase(now, out);
}

void CongosProcess::receive_phase(Round now, std::span<const sim::Envelope> inbox) {
  now_ = now;
  for (const auto& e : inbox) {
    CONGOS_ASSERT(e.body != nullptr);
    switch (e.tag.kind) {
      case sim::ServiceKind::kGroupGossip:
        CONGOS_ASSERT(e.tag.partition < group_gossip_.size());
        group_gossip_[e.tag.partition]->on_envelope(now, e);
        break;
      case sim::ServiceKind::kAllGossip:
        all_gossip_->on_envelope(now, e);
        break;
      case sim::ServiceKind::kProxy: {
        if (e.body->kind() == sim::PayloadKind::kProxyRequest) {
          const auto& req = static_cast<const ProxyRequestPayload&>(*e.body);
          // A lazy process silently drops proxy work addressed to it (no
          // cache, no ack): the requester times it out as a failed proxy.
          if (behavior_ == ProcessBehavior::kLazy) break;
          proxy(req.dline, e.tag.partition)->on_request(now, req, e.from);
        } else if (e.body->kind() == sim::PayloadKind::kProxyAck) {
          const auto& ack = static_cast<const ProxyAckPayload&>(*e.body);
          proxy(ack.dline, e.tag.partition)->on_ack(now, e.from);
        } else {
          CONGOS_ASSERT_MSG(false, "unknown proxy payload");
        }
        break;
      }
      case sim::ServiceKind::kGroupDistribution: {
        if (e.body->kind() == sim::PayloadKind::kPartials) {
          const auto& partials = static_cast<const PartialsPayload&>(*e.body);
          cg_->on_partials(now, partials);
          if (cfg_->retransmit.enabled) {
            auto ack = partials_ack_pool_.acquire();
            ack->dline = partials.dline;
            pending_acks_.push_back(sim::Envelope{
                id(), e.from,
                sim::ServiceTag{sim::ServiceKind::kGroupDistribution, e.tag.partition},
                std::move(ack)});
          }
        } else if (e.body->kind() == sim::PayloadKind::kPartialsAck) {
          const auto& ack = static_cast<const PartialsAckPayload&>(*e.body);
          gd(ack.dline, e.tag.partition)->on_partials_ack(now, e.from);
        } else {
          CONGOS_ASSERT_MSG(false, "unknown group-distribution payload");
        }
        break;
      }
      case sim::ServiceKind::kFallback: {
        if (e.body->kind() == sim::PayloadKind::kDirectRumor) {
          const auto& direct = static_cast<const DirectRumorPayload&>(*e.body);
          cg_->on_direct(now, direct);
          if (cfg_->retransmit.enabled) {
            auto ack = direct_ack_pool_.acquire();
            ack->rumor = direct.rumor.uid;
            pending_acks_.push_back(sim::Envelope{
                id(), e.from, sim::ServiceTag{sim::ServiceKind::kFallback, 0},
                std::move(ack)});
          }
        } else if (e.body->kind() == sim::PayloadKind::kDirectAck) {
          const auto& ack = static_cast<const DirectAckPayload&>(*e.body);
          cg_->on_direct_ack(ack.rumor, e.from);
        } else {
          CONGOS_ASSERT_MSG(false, "unknown fallback payload");
        }
        break;
      }
      default:
        CONGOS_ASSERT_MSG(false, "unexpected service kind at CongosProcess");
    }
  }
}

void CongosProcess::on_group_gossip_deliver(PartitionIndex l, Round now,
                                            const gossip::GossipRumor& rumor) {
  CONGOS_ASSERT(rumor.body != nullptr);
  switch (rumor.body->kind()) {
    case sim::PayloadKind::kFragment:
      cg_->on_group_fragment(now, l,
                             static_cast<const FragmentBody&>(*rumor.body).fragment);
      return;
    case sim::PayloadKind::kProxyShare: {
      const auto& share = static_cast<const ProxyShareBody&>(*rumor.body);
      instance(share.dline).proxies[l]->on_share(now, share);
      return;
    }
    case sim::PayloadKind::kHitSetShare: {
      const auto& share = static_cast<const HitSetShareBody&>(*rumor.body);
      instance(share.dline).gds[l]->on_share(now, share);
      return;
    }
    default:
      CONGOS_ASSERT_MSG(false, "unknown GroupGossip rumor body");
  }
}

void CongosProcess::on_all_gossip_deliver(Round now, const gossip::GossipRumor& rumor) {
  CONGOS_ASSERT_MSG(rumor.body != nullptr &&
                        rumor.body->kind() == sim::PayloadKind::kDistributionReport,
                    "unknown AllGossip rumor body");
  cg_->on_report(now, static_cast<const DistributionReportBody&>(*rumor.body));
}

std::uint64_t CongosProcess::filter_drops() const {
  std::uint64_t total = all_gossip_->filter_drops();
  for (const auto& gg : group_gossip_) total += gg->filter_drops();
  return total;
}

std::uint64_t CongosProcess::duplicates_suppressed() const {
  std::uint64_t total = all_gossip_->duplicates_suppressed();
  for (const auto& gg : group_gossip_) total += gg->duplicates_suppressed();
  return total;
}

}  // namespace congos::core
