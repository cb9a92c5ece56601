// Sim backend of the Transport interface: an in-process mailbox of pooled
// datagram handles (DESIGN.md section 13).
//
// A SimLink has one endpoint per process; each endpoint is a Transport.
// send() appends (from, handle) to the receiver's mailbox for the current
// round - no byte is copied; the receiver later reads the sender's pooled
// buffer in place, and the sender's pool gets the buffer back once the
// receiver has polled it. advance_round() makes every mailbox pollable in
// send order and advances the round clock, so a datagram sent in round r is
// polled in round r+1. Same sends in the same order => same deliveries,
// byte for byte, which is what lets the NodeRuntime test suite pin
// real-wire behaviour without a socket in sight.
//
// The link itself never loses, delays or duplicates a datagram. Faults
// come from wrapping an endpoint in a FaultShim - the stack congos_d builds
// over UDP. Process lifecycle lives above the link too: NodeRuntime's
// journal checkpoint + resume (DESIGN.md section 14), which is why
// tests/test_checkpoint.cpp can crash and resume a node over this link
// without the link noticing.
//
// The round engine does NOT run on top of this adapter - sim::Engine drives
// sim::Network directly, so the golden traces cannot move.
#pragma once

#include <memory>
#include <vector>

#include "net/transport.h"

namespace congos::net {

class SimLink {
 public:
  explicit SimLink(std::size_t n);
  ~SimLink();

  std::size_t n() const { return endpoints_.size(); }
  Transport& endpoint(ProcessId p);
  Round round() const { return round_; }

  /// Makes everything sent this round pollable at its receiver and advances
  /// the round clock.
  void advance_round();

 private:
  class Endpoint;

  Round round_ = 0;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

}  // namespace congos::net
