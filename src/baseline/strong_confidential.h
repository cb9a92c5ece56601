// Strongly confidential gossip (Section 3).
//
// A protocol is *strongly confidential* when no message causally dependent on
// a rumor is ever sent to a process outside the rumor's destination set: only
// the destination set (plus the source) may collaborate on dissemination.
// Theorem 1 shows this forces Omega(n^{3/2 - eps} / dmax) per-round messages
// under random destination sets; experiment E1 measures this protocol in
// exactly that scenario.
//
// Protocol: each process relays the active rumors it holds to random members
// of those rumors' destination sets; one message to a peer may merge all
// rumors whose destination set contains both endpoints (the merging that
// Theorem 1's counting argument limits to c rumors per message). The source
// direct-sends unacknowledged destinations in the round before the deadline,
// so Quality of Delivery is deterministic for admissible rumors.
#pragma once

#include <unordered_map>
#include <vector>

#include "baseline/baseline_payload.h"
#include "common/rng.h"
#include "sim/process.h"

namespace congos::baseline {

class StrongConfidentialProcess final : public sim::Process {
 public:
  struct Options {
    int fanout = 2;  // random relay targets per round while holding rumors
  };

  StrongConfidentialProcess(ProcessId id, Options opt, std::uint64_t seed,
                            sim::DeliveryListener* listener)
      : sim::Process(id), opt_(opt), rng_(seed), listener_(listener) {}

  void on_restart(Round now) override;
  void send_phase(Round now, sim::Sender& out) override;
  void receive_phase(Round now, std::span<const sim::Envelope> inbox) override;
  void inject(const sim::Rumor& rumor) override;

  /// Largest number of rumors merged into one outgoing message so far - the
  /// quantity Theorem 1 bounds by a constant c w.h.p.
  std::size_t max_merged() const { return max_merged_; }

 private:
  struct Tracked {
    sim::Rumor rumor;
    bool i_am_source = false;
    DynamicBitset acked;  // source side
    bool fallback_sent = false;
  };

  Options opt_;
  Rng rng_;
  sim::DeliveryListener* listener_;
  std::unordered_map<RumorUid, Tracked> known_;
  std::unordered_map<ProcessId, std::vector<RumorUid>> pending_acks_;
  std::size_t max_merged_ = 0;

  void accept(Round now, const sim::Rumor& rumor, bool as_source);
};

}  // namespace congos::baseline
