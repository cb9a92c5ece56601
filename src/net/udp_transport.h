// Real-wire backend of the Transport interface: one nonblocking UDP socket
// on 127.0.0.1 with per-peer send queues (DESIGN.md section 13).
//
// The shape follows the single-socket gossip daemons this subsystem is
// modeled on (ROADMAP item 2): bind one datagram socket, address peers by
// a static id -> port table, and drive everything from a poll(2) loop. The
// per-peer queues absorb transient EWOULDBLOCK backpressure - a datagram
// is only counted as a send_error when the kernel rejects it outright
// (e.g. ECONNREFUSED from a dead peer's port); queued datagrams are
// retried on every poll()/flush() until they leave the socket.
//
// Datagram fast path: by default the transport runs BATCHED - send()
// enqueues pooled buffer handles (zero copy) and flush() gathers up to
// kMaxBatch datagrams across all peers into one sendmmsg(2); drain()
// likewise pulls up to kMaxBatch datagrams per recvmmsg(2). The batched and
// single-syscall paths emit byte-identical per-peer streams (test_net.cpp
// proves it); batching is dropped permanently when the kernel lacks the
// calls (ENOSYS probe) or switched off per-transport with
// set_batching(false) (congos_d --no-batch).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/datagram.h"
#include "net/transport.h"

namespace congos::net {

class UdpTransport : public Transport {
 public:
  /// Datagrams moved per kernel crossing on the batched path.
  static constexpr std::size_t kMaxBatch = 32;
  /// Default per-peer send-queue cap (drop-oldest beyond it).
  static constexpr std::size_t kDefaultQueueCap = 512;
  /// Default SO_SNDBUF/SO_RCVBUF request at open(): large enough that a
  /// full send phase burst fits without loopback drops.
  static constexpr int kDefaultSocketBufferBytes = 1 << 21;

  // Both defined in the .cpp where BatchScratch is complete (the defaulted
  // ctor must be able to destroy scratch_ during unwind).
  UdpTransport();
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// Binds a nonblocking datagram socket to 127.0.0.1:`port` (0 = kernel
  /// picks a free port). Returns false and fills *error on failure.
  bool open(std::uint16_t port, std::string* error);
  void close();
  bool is_open() const { return fd_ >= 0; }

  int fd() const { return fd_; }
  std::uint16_t local_port() const { return local_port_; }

  /// Registers (or re-registers) peer `id` at 127.0.0.1:`port`. The reverse
  /// port -> id map provides the from_hint of inbound datagrams.
  void set_peer(ProcessId id, std::uint16_t port);
  std::size_t peer_count() const { return peers_.size(); }

  /// Toggles sendmmsg/recvmmsg batching (call after open()). Forced off on
  /// platforms without the calls.
  void set_batching(bool on);
  bool batching() const { return batching_; }

  /// Per-peer send-queue cap; 0 = unbounded. Overflow drops the OLDEST
  /// queued datagram (the retransmit layer re-requests anything that
  /// mattered; the newest data is the most likely to still be useful).
  void set_queue_cap(std::size_t per_peer) { queue_cap_ = per_peer; }
  std::size_t queue_cap() const { return queue_cap_; }

  /// SO_SNDBUF/SO_RCVBUF request applied at the next open().
  void set_socket_buffer(int bytes) { socket_buffer_ = bytes; }

  // -- Transport --------------------------------------------------------------

  bool send(ProcessId to, DatagramHandle datagram) override;
  std::size_t poll(int timeout_ms, DatagramSink& sink) override;
  const TransportStats& stats() const override;

  // -- event-loop building blocks (the daemon polls several fds jointly) -----

  /// Attempts to push every queued datagram out of the socket. A
  /// backpressured peer no longer blocks the rest: the single-syscall path
  /// skips to the next peer's queue, the batched path gathers across peers
  /// by construction. Returns true when all queues drained.
  bool flush();
  /// Nonblocking receive loop: delivers every readable datagram to `sink`.
  std::size_t drain(DatagramSink& sink);
  /// True when flush() still has queued datagrams (poll for POLLOUT too).
  bool want_write() const { return queued_ > 0; }

 protected:
  enum class WireResult : std::uint8_t { kSent, kAgain, kFatal };

  /// One single-datagram wire write (the non-batched path). Virtual so
  /// tests can script backpressure and fatal outcomes deterministically -
  /// loopback UDP almost never surfaces either for real.
  virtual WireResult wire_send(std::uint16_t port, const std::uint8_t* data,
                               std::size_t len);

 private:
  /// FIFO of pooled handles built on a vector + head index instead of
  /// std::deque: a deque's chunk map churns allocations as elements cycle
  /// through, which would break the zero-alloc steady state the pool buys.
  /// The vector's capacity is reclaimed by compaction, never freed.
  struct HandleQueue {
    std::vector<DatagramHandle> items;
    std::size_t head = 0;

    std::size_t size() const { return items.size() - head; }
    bool empty() const { return head == items.size(); }
    DatagramHandle& front() { return items[head]; }
    void pop_front() {
      items[head].reset();  // release to the pool now, not at compaction
      if (++head == items.size()) {
        items.clear();
        head = 0;
      }
    }
    void push_back(DatagramHandle d) {
      if (head > 0 && items.size() == items.capacity()) {
        items.erase(items.begin(),
                    items.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
      items.push_back(std::move(d));
    }
    void clear() {
      items.clear();
      head = 0;
    }
  };

  struct Peer {
    std::uint16_t port = 0;
    HandleQueue queue;
  };

  struct BatchScratch;  // mmsghdr/iovec/sockaddr arrays (udp_transport.cpp)

  void enqueue(Peer& peer, DatagramHandle d);
  void pop_sent(Peer& peer);
  bool flush_single();
  bool flush_batched();
  std::size_t drain_single(DatagramSink& sink);
  std::size_t drain_batched(DatagramSink& sink);

  int fd_ = -1;
  std::uint16_t local_port_ = 0;
  bool batching_ = false;  // decided at open(); see header comment
  std::size_t queue_cap_ = kDefaultQueueCap;
  int socket_buffer_ = kDefaultSocketBufferBytes;
  TransportStats stats_;
  std::unordered_map<ProcessId, Peer> peers_;
  std::unordered_map<std::uint16_t, ProcessId> port_to_id_;
  std::size_t queued_ = 0;
  std::vector<std::uint8_t> recv_buf_;
  std::unique_ptr<BatchScratch> scratch_;
};

}  // namespace congos::net
