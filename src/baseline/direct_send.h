// DirectSend baseline: the source sends the rumor straight to every
// destination, with no collaboration.
//
// Trivially confidential and trivially correct for admissible rumors, but
// the per-round message complexity is driven entirely by the injection load:
// a source with destination set D costs |D| messages, either in one burst or
// paced at ceil(|D| / d) messages per round until the deadline (the paced
// mode is what the Omega(.../dmax) lower bounds divide by).
#pragma once

#include <deque>

#include "baseline/baseline_payload.h"
#include "sim/process.h"

namespace congos::baseline {

class DirectSendProcess final : public sim::Process {
 public:
  struct Options {
    /// false: send every destination at injection round. true: spread the
    /// sends evenly across the rumor's deadline window.
    bool paced = false;
  };

  DirectSendProcess(ProcessId id, Options opt, sim::DeliveryListener* listener)
      : sim::Process(id), opt_(opt), listener_(listener) {}

  void on_restart(Round now) override;
  void send_phase(Round now, sim::Sender& out) override;
  void receive_phase(Round now, std::span<const sim::Envelope> inbox) override;
  void inject(const sim::Rumor& rumor) override;

 private:
  struct PendingRumor {
    sim::Rumor rumor;
    std::vector<ProcessId> targets;  // destinations not yet sent
    std::size_t per_round = 0;       // paced sends per round
  };

  Options opt_;
  sim::DeliveryListener* listener_;
  std::deque<PendingRumor> queue_;
};

}  // namespace congos::baseline
