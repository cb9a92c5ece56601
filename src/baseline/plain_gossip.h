// Plain (non-confidential) epidemic gossip baseline.
//
// All n processes collaborate on whole rumors: this is classic continuous
// gossip and what the paper contrasts against in the introduction ("if the
// users rely on epidemic gossip ... every device in the system may learn
// every piece of information"). It reuses the ContinuousGossipService over
// the full universe in guaranteed mode, so Quality of Delivery holds for
// admissible rumors - but every relay learns every rumor, which the
// confidentiality auditor counts as violations (experiment E2's contrast
// column).
#pragma once

#include <memory>

#include "baseline/baseline_payload.h"
#include "common/rng.h"
#include "gossip/continuous_gossip.h"
#include "sim/process.h"

namespace congos::baseline {

class PlainGossipProcess final : public sim::Process {
 public:
  struct Options {
    int fanout = 3;
    std::size_t n = 0;  // universe size
  };

  PlainGossipProcess(ProcessId id, Options opt, std::uint64_t seed,
                     sim::DeliveryListener* listener);

  void on_restart(Round now) override;
  void send_phase(Round now, sim::Sender& out) override;
  void receive_phase(Round now, std::span<const sim::Envelope> inbox) override;
  void inject(const sim::Rumor& rumor) override;

 private:
  Options opt_;
  Rng rng_;
  sim::DeliveryListener* listener_;
  std::unique_ptr<gossip::ContinuousGossipService> service_;
};

}  // namespace congos::baseline
