// Pooled datagram buffers: the one currency of the datagram path
// (DESIGN.md section 13).
//
// A DatagramBuffer is acquired from a DatagramPool (the common/pool.h
// recycling idiom that already keeps payload traffic off the heap), encoded
// into in place by DatagramBuilder, and passed BY HANDLE down through
// FaultShim into the transport. Transport::send takes nothing else:
//
//   * UdpTransport writes the wire directly from the pooled bytes and the
//     handle dies on return - object and control block go back to the
//     pool, so a steady-state send performs zero heap allocations (pinned
//     by tests/test_net_alloc.cpp);
//   * backpressure: UdpTransport moves the handle into the per-peer queue -
//     still no copy; the buffer is released once the kernel accepts it;
//   * fault shim: a delayed/duplicated datagram holds the handle until its
//     due round - the pool simply does not get the buffer back until then;
//   * SimLink: the receiver's mailbox holds the handle and the receiver
//     reads the sender's buffer in place when it polls.
//
// Handles are plain shared_ptr, so every holder above shares one buffer and
// the pool reclaims it when the last handle dies. Nobody mutates a buffer
// once it has been handed to send().
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/pool.h"

namespace congos::net {

/// One reusable datagram: cleared on reuse, capacity retained.
struct DatagramBuffer {
  std::vector<std::uint8_t> bytes;

  void reuse() { bytes.clear(); }
};

using DatagramHandle = std::shared_ptr<DatagramBuffer>;

/// Recycling pool of DatagramBuffers (see common/pool.h for the lifetime
/// rules: handles may outlive the pool object; release on any thread).
using DatagramPool = PayloadPool<DatagramBuffer>;

}  // namespace congos::net
