#include "net/udp_transport.h"

#include <arpa/inet.h>
#include <array>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/framing.h"

namespace congos::net {

namespace {

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  sa.sin_port = htons(port);
  return sa;
}

/// One receive slot: room for a max datagram plus one byte so oversize
/// input is detectable as truncation by the frame layer.
constexpr std::size_t kRecvSlot = kMaxDatagramBytes + 1;

}  // namespace

/// Preallocated kernel-interface arrays for sendmmsg/recvmmsg: filled in
/// place on every batch, never reallocated after open() (the zero-alloc
/// steady state covers the batched path too).
struct UdpTransport::BatchScratch {
#ifdef __linux__
  std::array<iovec, kMaxBatch> send_iovs;
  std::array<sockaddr_in, kMaxBatch> send_addrs;
  std::array<mmsghdr, kMaxBatch> send_msgs;
  std::array<Peer*, kMaxBatch> entry_peer;

  std::vector<std::uint8_t> recv_bufs;  // kMaxBatch contiguous kRecvSlot slots
  std::array<iovec, kMaxBatch> recv_iovs;
  std::array<sockaddr_in, kMaxBatch> recv_addrs;
  std::array<mmsghdr, kMaxBatch> recv_msgs;

  BatchScratch() { recv_bufs.resize(kMaxBatch * kRecvSlot); }
#endif
};

UdpTransport::UdpTransport() = default;

UdpTransport::~UdpTransport() { close(); }

bool UdpTransport::open(std::uint16_t port, std::string* error) {
  close();
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  // Best-effort buffer sizing: a whole batched send phase should fit in the
  // socket buffers so loopback never drops under normal load. The kernel
  // clamps to its rmem/wmem limits; failure is not fatal.
  const int buf = socket_buffer_;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &buf, sizeof buf);
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &buf, sizeof buf);
  sockaddr_in sa = loopback(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0) {
    if (error != nullptr) *error = std::string("bind: ") + std::strerror(errno);
    close();
    return false;
  }
  socklen_t len = sizeof sa;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
    if (error != nullptr) {
      *error = std::string("getsockname: ") + std::strerror(errno);
    }
    close();
    return false;
  }
  local_port_ = ntohs(sa.sin_port);
  recv_buf_.resize(kRecvSlot);
  set_batching(true);
  return true;
}

void UdpTransport::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  local_port_ = 0;
  for (auto& [id, peer] : peers_) peer.queue.clear();
  queued_ = 0;
}

void UdpTransport::set_peer(ProcessId id, std::uint16_t port) {
  auto& peer = peers_[id];
  if (peer.port != 0) port_to_id_.erase(peer.port);
  peer.port = port;
  port_to_id_[port] = id;
}

void UdpTransport::set_batching(bool on) {
#ifndef __linux__
  on = false;  // sendmmsg/recvmmsg are Linux syscalls
#endif
  if (on && scratch_ == nullptr) scratch_ = std::make_unique<BatchScratch>();
  batching_ = on && scratch_ != nullptr;
}

UdpTransport::WireResult UdpTransport::wire_send(std::uint16_t port,
                                                 const std::uint8_t* data,
                                                 std::size_t len) {
  sockaddr_in sa = loopback(port);
  const ssize_t n = ::sendto(fd_, data, len, 0,
                             reinterpret_cast<sockaddr*>(&sa), sizeof sa);
  if (n == static_cast<ssize_t>(len)) return WireResult::kSent;
  if (n < 0 && (errno == EWOULDBLOCK || errno == EAGAIN || errno == ENOBUFS)) {
    return WireResult::kAgain;  // transient: stay queued
  }
  // ECONNREFUSED (peer port closed) and friends: the datagram is gone the
  // way a lossy link loses it.
  return WireResult::kFatal;
}

void UdpTransport::enqueue(Peer& peer, DatagramHandle d) {
  if (queue_cap_ > 0 && peer.queue.size() >= queue_cap_) {
    peer.queue.pop_front();
    --queued_;
    ++stats_.queue_overflow;
  }
  peer.queue.push_back(std::move(d));
  ++queued_;
  if (queued_ > stats_.queue_hwm) stats_.queue_hwm = queued_;
}

void UdpTransport::pop_sent(Peer& peer) {
  peer.queue.pop_front();
  --queued_;
}

bool UdpTransport::send(ProcessId to, DatagramHandle datagram) {
  if (fd_ < 0 || datagram == nullptr) return false;
  const auto it = peers_.find(to);
  if (it == peers_.end() || it->second.port == 0) {
    ++stats_.no_route;
    return false;
  }
  if (datagram->bytes.size() > kMaxDatagramBytes) {
    ++stats_.send_errors;
    return false;
  }
  Peer& peer = it->second;
  if (!batching_ && peer.queue.empty()) {
    // Single-syscall mode writes the wire straight from the pooled bytes;
    // only a backpressured datagram waits in the queue.
    ++stats_.send_syscalls;
    const WireResult r =
        wire_send(peer.port, datagram->bytes.data(), datagram->bytes.size());
    if (r == WireResult::kSent) {
      ++stats_.datagrams_sent;
      stats_.bytes_sent += datagram->bytes.size();
      return true;
    }
    if (r == WireResult::kFatal) {
      ++stats_.send_errors;
      return true;
    }
  }
  // Batched mode defers every datagram to the next flush() so sendmmsg can
  // gather a full batch; the handle moves into the queue - still no copy.
  enqueue(peer, std::move(datagram));
  return true;
}

bool UdpTransport::flush() {
  if (fd_ < 0 || queued_ == 0) return true;
  return batching_ ? flush_batched() : flush_single();
}

bool UdpTransport::flush_single() {
  bool all_drained = true;
  for (auto& [id, peer] : peers_) {
    while (!peer.queue.empty()) {
      ++stats_.send_syscalls;
      const DatagramBuffer& d = *peer.queue.front();
      const WireResult r = wire_send(peer.port, d.bytes.data(), d.bytes.size());
      if (r == WireResult::kSent) {
        ++stats_.datagrams_sent;
        stats_.bytes_sent += d.bytes.size();
        pop_sent(peer);
      } else if (r == WireResult::kFatal) {
        ++stats_.send_errors;
        pop_sent(peer);
      } else {
        // This peer is backpressured; move on to the next peer's queue
        // instead of stalling everyone behind it (head-of-line fix).
        all_drained = false;
        break;
      }
    }
  }
  return all_drained;
}

bool UdpTransport::flush_batched() {
#ifndef __linux__
  return flush_single();
#else
  BatchScratch& sc = *scratch_;
  while (queued_ > 0) {
    // Gather up to kMaxBatch queue fronts across all peers. Entries for one
    // peer appear in queue order, so popping fronts in entry order below
    // preserves per-peer FIFO.
    unsigned prepared = 0;
    for (auto& [id, peer] : peers_) {
      for (std::size_t qi = peer.queue.head;
           qi < peer.queue.items.size() && prepared < kMaxBatch; ++qi) {
        DatagramBuffer& d = *peer.queue.items[qi];
        sc.send_addrs[prepared] = loopback(peer.port);
        iovec& iov = sc.send_iovs[prepared];
        iov.iov_base = d.bytes.data();
        iov.iov_len = d.bytes.size();
        mmsghdr& m = sc.send_msgs[prepared];
        std::memset(&m, 0, sizeof m);
        m.msg_hdr.msg_name = &sc.send_addrs[prepared];
        m.msg_hdr.msg_namelen = sizeof(sockaddr_in);
        m.msg_hdr.msg_iov = &iov;
        m.msg_hdr.msg_iovlen = 1;
        sc.entry_peer[prepared] = &peer;
        ++prepared;
      }
      if (prepared == kMaxBatch) break;
    }
    if (prepared == 0) return true;
    ++stats_.send_syscalls;
    const int rc = ::sendmmsg(fd_, sc.send_msgs.data(), prepared, 0);
    if (rc < 0) {
      if (errno == ENOSYS || errno == EOPNOTSUPP) {
        // Capability probe failed: fall back to single syscalls for good.
        batching_ = false;
        return flush_single();
      }
      if (errno == EINTR) continue;
      if (errno == EWOULDBLOCK || errno == EAGAIN || errno == ENOBUFS) {
        return false;  // socket buffer full; retry on the next poll
      }
      // sendmmsg reports an error only when the FIRST message fails: drop
      // that datagram (a lossy link losing it), count, keep flushing.
      ++stats_.send_errors;
      pop_sent(*sc.entry_peer[0]);
      continue;
    }
    for (int i = 0; i < rc; ++i) {
      ++stats_.datagrams_sent;
      stats_.bytes_sent += sc.send_iovs[static_cast<std::size_t>(i)].iov_len;
      pop_sent(*sc.entry_peer[static_cast<std::size_t>(i)]);
    }
    if (static_cast<unsigned>(rc) < prepared) {
      return false;  // kernel stopped mid-batch: backpressure
    }
  }
  return true;
#endif
}

std::size_t UdpTransport::drain(DatagramSink& sink) {
  if (fd_ < 0) return 0;
  return batching_ ? drain_batched(sink) : drain_single(sink);
}

std::size_t UdpTransport::drain_single(DatagramSink& sink) {
  std::size_t delivered = 0;
  for (;;) {
    sockaddr_in from{};
    socklen_t from_len = sizeof from;
    ++stats_.recv_syscalls;
    const ssize_t n =
        ::recvfrom(fd_, recv_buf_.data(), recv_buf_.size(), 0,
                   reinterpret_cast<sockaddr*>(&from), &from_len);
    if (n < 0) break;  // EAGAIN or a transient error: nothing more to read
    ++stats_.datagrams_received;
    stats_.bytes_received += static_cast<std::uint64_t>(n);
    ProcessId hint = kNoProcess;
    const auto it = port_to_id_.find(ntohs(from.sin_port));
    if (it != port_to_id_.end()) hint = it->second;
    sink.on_datagram(hint, {recv_buf_.data(), static_cast<std::size_t>(n)});
    ++delivered;
  }
  return delivered;
}

std::size_t UdpTransport::drain_batched(DatagramSink& sink) {
#ifndef __linux__
  return drain_single(sink);
#else
  BatchScratch& sc = *scratch_;
  std::size_t delivered = 0;
  for (;;) {
    // The kernel rewrites msg_namelen and msg_len; reset the headers fully
    // before each crossing.
    for (std::size_t i = 0; i < kMaxBatch; ++i) {
      iovec& iov = sc.recv_iovs[i];
      iov.iov_base = sc.recv_bufs.data() + i * kRecvSlot;
      iov.iov_len = kRecvSlot;
      mmsghdr& m = sc.recv_msgs[i];
      std::memset(&m, 0, sizeof m);
      m.msg_hdr.msg_name = &sc.recv_addrs[i];
      m.msg_hdr.msg_namelen = sizeof(sockaddr_in);
      m.msg_hdr.msg_iov = &iov;
      m.msg_hdr.msg_iovlen = 1;
    }
    ++stats_.recv_syscalls;
    const int rc = ::recvmmsg(fd_, sc.recv_msgs.data(),
                              static_cast<unsigned>(kMaxBatch), 0, nullptr);
    if (rc < 0) {
      if (errno == ENOSYS || errno == EOPNOTSUPP) {
        batching_ = false;
        return delivered + drain_single(sink);
      }
      break;  // EAGAIN/EINTR: nothing more to read now
    }
    if (rc == 0) break;
    for (int i = 0; i < rc; ++i) {
      const std::size_t idx = static_cast<std::size_t>(i);
      const std::size_t n = sc.recv_msgs[idx].msg_len;
      ++stats_.datagrams_received;
      stats_.bytes_received += n;
      ProcessId hint = kNoProcess;
      const auto it = port_to_id_.find(ntohs(sc.recv_addrs[idx].sin_port));
      if (it != port_to_id_.end()) hint = it->second;
      sink.on_datagram(hint, {sc.recv_bufs.data() + idx * kRecvSlot, n});
      ++delivered;
    }
    if (rc < static_cast<int>(kMaxBatch)) break;
  }
  return delivered;
#endif
}

std::size_t UdpTransport::poll(int timeout_ms, DatagramSink& sink) {
  if (fd_ < 0) return 0;
  flush();
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = POLLIN;
  if (want_write()) pfd.events |= POLLOUT;
  const int rc = ::poll(&pfd, 1, timeout_ms);
  if (rc <= 0) return 0;
  if ((pfd.revents & POLLOUT) != 0) flush();
  return drain(sink);
}

const TransportStats& UdpTransport::stats() const { return stats_; }

}  // namespace congos::net
