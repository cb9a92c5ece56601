// Allocation discipline for the datagram fast path (DESIGN.md section 13).
//
// Replaces the global allocator with a counting shim and drives the whole
// outbound chain - envelope encode (with and without the body encode
// memo), in-place frame append, pooled datagram buffers, the UDP
// transport's per-peer queues, sendmmsg/recvmmsg batching - over a real
// loopback socket pair. After a warm-up that lets the pool, the
// builder buffers, the queues and the socket scratch reach their high-water
// marks, a steady-state send+flush+drain cycle must perform ZERO heap
// allocations, on both the batched and the single-syscall path.
//
// Separate binary: the operator new/delete replacement is process-global
// (same reasoning as tests/test_alloc.cpp).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "congos/fragment.h"
#include "net/framing.h"
#include "net/udp_transport.h"
#include "wire/envelope.h"

namespace {

std::atomic<std::uint64_t> g_news{0};

std::uint64_t alloc_count() { return g_news.load(std::memory_order_relaxed); }

void* counted_alloc(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace congos {
namespace {

/// Consumes datagrams without touching the heap.
struct CountingSink final : net::DatagramSink {
  std::uint64_t datagrams = 0;
  std::uint64_t bytes = 0;
  void on_datagram(ProcessId, std::span<const std::uint8_t> d) override {
    ++datagrams;
    bytes += d.size();
  }
};

sim::Envelope make_envelope() {
  auto body = std::make_shared<core::DirectRumorPayload>();
  body->rumor.uid = RumorUid{0, 7};
  body->rumor.data.assign(48, 0x5C);
  body->rumor.deadline = 4096;
  body->rumor.dest = DynamicBitset(8);
  body->rumor.dest.set(1);
  sim::Envelope e;
  e.from = 0;
  e.to = 1;
  e.tag.kind = sim::ServiceKind::kFallback;
  e.body = std::move(body);
  return e;
}

/// One steady-state iteration: encode kFramesPerIter envelopes through the
/// pooled builder into the transport, flush the wire, drain the receiver.
/// With `memo`, the body is encoded once and the memo released at the end,
/// as a send phase does.
void run_iteration(const sim::Envelope& e, net::DatagramBuilder& builder,
                   net::UdpTransport& tx, net::UdpTransport& rx,
                   CountingSink& sink, wire::BodyEncodeMemo* memo) {
  constexpr int kFramesPerIter = 48;
  const auto ship = [&](net::DatagramHandle d) { tx.send(1, std::move(d)); };
  for (int i = 0; i < kFramesPerIter; ++i) {
    ASSERT_TRUE(builder.add(e, 100, ship, memo));
  }
  builder.finish(ship);
  if (memo != nullptr) memo->release();
  for (int tries = 0; !tx.flush() && tries < 2000; ++tries) {
  }
  rx.drain(sink);
}

void expect_steady_state_alloc_free(bool batched, bool memoized = false) {
  constexpr int kWarmup = 40;
  constexpr int kMeasured = 40;

  net::UdpTransport tx;
  net::UdpTransport rx;
  std::string err;
  ASSERT_TRUE(tx.open(0, &err)) << err;
  ASSERT_TRUE(rx.open(0, &err)) << err;
  tx.set_peer(1, rx.local_port());
  rx.set_peer(0, tx.local_port());
  tx.set_batching(batched);
  rx.set_batching(batched);
  if (batched && !tx.batching()) GTEST_SKIP() << "no sendmmsg on this platform";

  net::DatagramPool pool;
  net::DatagramBuilder builder(pool);
  const sim::Envelope e = make_envelope();
  CountingSink sink;
  wire::BodyEncodeMemo memo;
  wire::BodyEncodeMemo* const m = memoized ? &memo : nullptr;

  for (int i = 0; i < kWarmup; ++i) run_iteration(e, builder, tx, rx, sink, m);

  const std::uint64_t datagrams_before = sink.datagrams;
  const std::uint64_t allocs_before = alloc_count();
  for (int i = 0; i < kMeasured; ++i) run_iteration(e, builder, tx, rx, sink, m);
  const std::uint64_t allocs = alloc_count() - allocs_before;
  const std::uint64_t datagrams = sink.datagrams - datagrams_before;

  // Guard against a vacuous pass: the window must actually move datagrams.
  EXPECT_GE(datagrams, static_cast<std::uint64_t>(kMeasured));
  EXPECT_EQ(allocs, 0u)
      << "steady-state datagram path must not touch the heap (batched="
      << batched << ")";
}

TEST(NetAllocDiscipline, BatchedSendPathIsAllocationFree) {
  expect_steady_state_alloc_free(true);
}

TEST(NetAllocDiscipline, SingleSyscallSendPathIsAllocationFree) {
  expect_steady_state_alloc_free(false);
}

TEST(NetAllocDiscipline, MemoizedBodySendPathIsAllocationFree) {
  expect_steady_state_alloc_free(true, true);
}

}  // namespace
}  // namespace congos
