#include "baseline/plain_gossip.h"

#include "common/assert.h"

namespace congos::baseline {

PlainGossipProcess::PlainGossipProcess(ProcessId id, Options opt, std::uint64_t seed,
                                       sim::DeliveryListener* listener)
    : sim::Process(id), opt_(opt), rng_(seed), listener_(listener) {
  CONGOS_ASSERT(opt_.n > 0);
  gossip::GossipConfig gcfg;
  gcfg.tag = sim::ServiceTag{sim::ServiceKind::kBaseline, 0};
  gcfg.universe = DynamicBitset::full(opt_.n);
  gcfg.fanout = opt_.fanout;
  gcfg.guaranteed = true;
  service_ = std::make_unique<gossip::ContinuousGossipService>(
      id, std::move(gcfg), &rng_,
      [this](Round now, const gossip::GossipRumor& r) {
        CONGOS_ASSERT(r.body != nullptr &&
                      r.body->kind() == sim::PayloadKind::kBaselineRumor);
        const auto* body = static_cast<const BaselineRumorPayload*>(r.body.get());
        if (listener_ != nullptr) {
          listener_->on_rumor_delivered(
              this->id(), body->rumor.uid, now,
              {body->rumor.data.data(), body->rumor.data.size()});
        }
      });
}

void PlainGossipProcess::on_restart(Round now) { service_->reset(now); }

void PlainGossipProcess::inject(const sim::Rumor& rumor) {
  auto body = std::make_shared<BaselineRumorPayload>();
  body->rumor = rumor;
  // The service delivers locally at inject when this process is in the
  // destination set, so no extra listener call is needed here.
  service_->inject(rumor.injected_at, std::move(body), rumor.dest,
                   rumor.injected_at + rumor.deadline);
}

void PlainGossipProcess::send_phase(Round now, sim::Sender& out) {
  service_->send_phase(now, out);
}

void PlainGossipProcess::receive_phase(Round now,
                                       std::span<const sim::Envelope> inbox) {
  for (const auto& e : inbox) service_->on_envelope(now, e);
}

}  // namespace congos::baseline
