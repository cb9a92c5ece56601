// Transport abstraction: how one CONGOS node's datagrams reach its peers
// (DESIGN.md section 13).
//
// The protocol stack above this interface is transport-blind: a node frames
// its envelopes into pooled datagram buffers (net/framing.h), hands each
// buffer's handle to a Transport, and gets peer datagrams back from poll().
// Two backends implement it:
//
//   * SimLink (net/sim_transport.h) is a deterministic in-process mailbox
//     with zero real I/O, for NodeRuntime clusters inside one test process.
//   * UdpTransport (net/udp_transport.h) is a real nonblocking UDP socket
//     with per-peer send queues, used by the congos_d daemon.
//
// A datagram is opaque bytes to every transport. Keeping envelope framing
// out of the transport means the codec (src/wire) stays the single source of
// truth for bytes-on-wire, and the socket-level fault shim
// (net/fault_shim.h) can drop/duplicate/delay whole datagrams without
// understanding them.
#pragma once

#include <cstdint>
#include <span>

#include "common/types.h"
#include "net/datagram.h"

namespace congos::net {

/// Counters every backend maintains; the daemon dumps them in its stats
/// JSON and the cluster tests assert on them.
struct TransportStats {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  /// sendto()/submit failures after queueing (EWOULDBLOCK retries are not
  /// errors; they stay queued).
  std::uint64_t send_errors = 0;
  /// Datagrams addressed to an id outside the peer table.
  std::uint64_t no_route = 0;
  /// Datagrams evicted drop-oldest from a full per-peer send queue (the
  /// queue cap keeps a dead peer from growing memory without bound).
  std::uint64_t queue_overflow = 0;
  /// High-water mark of datagrams queued across all peers at once.
  std::uint64_t queue_hwm = 0;
  /// Kernel crossings on each side; the batched path's whole point is
  /// send_syscalls << datagrams_sent (asserted in test_net.cpp).
  std::uint64_t send_syscalls = 0;
  std::uint64_t recv_syscalls = 0;
};

/// Receiver of inbound datagrams, called from inside poll(). `from_hint` is
/// the peer id the backend attributes the datagram to (kNoProcess when the
/// source address matches no known peer - the frame header still carries
/// the authoritative `from`).
class DatagramSink {
 public:
  virtual ~DatagramSink() = default;
  virtual void on_datagram(ProcessId from_hint,
                           std::span<const std::uint8_t> data) = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Queue one datagram for peer `to`, taking ownership of its pooled
  /// buffer: a backend that has to hold the bytes holds the handle, never a
  /// copy. Returns false when the datagram can never be delivered (unknown
  /// peer, oversized); transient backpressure is absorbed by the per-peer
  /// queues and is not an error.
  virtual bool send(ProcessId to, DatagramHandle datagram) = 0;

  /// Flush pending sends and deliver every inbound datagram to `sink`.
  /// Blocks at most `timeout_ms` (0 = nonblocking probe); the sim backend
  /// ignores the timeout - its time is the simulated round clock. Returns
  /// the number of datagrams delivered to `sink`.
  virtual std::size_t poll(int timeout_ms, DatagramSink& sink) = 0;

  virtual const TransportStats& stats() const = 0;
};

}  // namespace congos::net
