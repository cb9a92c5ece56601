// Socket-level fault shim: the PR 5 link-fault plan applied to real
// datagrams (DESIGN.md section 13).
//
// A Transport decorator that applies sim::FaultConfig's per-envelope
// distribution at datagram granularity on the SEND side: drop, duplicate
// (the copy arrives 1..max_delay rounds late), delay, and the transient
// hash-scheduled partitions. Each datagram takes one sim::draw_link_fault(),
// the draw the simulator's Network makes per envelope, so both runtimes
// cut the same pairs in the same rounds and share one decision order.
// Randomness comes from a dedicated Rng seeded from
// (cfg.seed, self) - per-daemon deterministic given its send sequence,
// which is as strong as determinism gets once real sockets and wall
// clocks are involved; the chaos the shim adds is bounded and seeded
// rather than left to the kernel's mood.
//
// Delay units are rounds, mapped to wall time by the runtime advancing
// set_round() at each boundary; held datagrams release on the first
// send/poll after their due round, preserving the fault layer's FIFO
// per-due-round order.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "net/transport.h"
#include "sim/faults.h"
#include "sim/stats.h"

namespace congos::net {

class FaultShim final : public Transport {
 public:
  /// Decorates `inner` (not owned; must outlive the shim). `self` is the
  /// local process id - the partition-side hash and the duplicate/delay
  /// stream must differ per daemon or every node would drop the same
  /// k-th datagram.
  FaultShim(Transport* inner, const sim::FaultConfig& cfg, ProcessId self);

  /// Advance the shim's round clock; releases held datagrams that came due.
  void set_round(Round now);
  Round round() const { return now_; }

  std::uint64_t faults(sim::FaultKind f) const {
    return counters_[static_cast<std::size_t>(f)];
  }
  std::uint64_t fault_total() const;

  // -- Transport --------------------------------------------------------------

  bool send(ProcessId to, DatagramHandle datagram) override;
  std::size_t poll(int timeout_ms, DatagramSink& sink) override;
  const TransportStats& stats() const override { return inner_->stats(); }

 private:
  /// A held datagram keeps its pooled buffer alive via the handle; the
  /// pool simply does not get the buffer back until the due round ships it.
  struct Held {
    Round due = 0;
    ProcessId to = kNoProcess;
    DatagramHandle datagram;
  };

  /// sim::draw_link_fault() for one outgoing datagram, counted: one draw per
  /// send(), in send order, so the fault mix is a pure function of the seed,
  /// the self id and the send sequence.
  sim::LinkFault draw(ProcessId to);
  void release_due();

  Transport* inner_;
  sim::FaultConfig cfg_;
  ProcessId self_;
  Rng rng_;
  Round now_ = 0;
  std::vector<Held> held_;
  std::uint64_t counters_[sim::kNumFaultKinds] = {};
};

}  // namespace congos::net
