// Allocation discipline test (DESIGN.md section 9).
//
// Replaces the global allocator with a counting shim and drives a plain
// gossip scenario (n = 64, guaranteed mode) through the engine directly: no
// observers, no adversary, rumors injected by hand. After a warm-up long
// enough for every container, pool and queue to reach its high-water mark,
// a steady-state round must perform ZERO heap allocations: payloads come
// from pools, hash containers are flat and pre-grown, scratch vectors keep
// their capacity, and the per-round stats histories are pre-reserved.
//
// The test is deliberately a separate binary: the operator new/delete
// replacement is process-global.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "baseline/plain_gossip.h"
#include "common/bitset.h"
#include "sim/engine.h"
#include "sim/rumor.h"

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

// Warms an engine with `threads` engine threads up, then checks that a
// window of steady-state rounds performs no heap allocation.
void expect_steady_state_allocation_free(std::size_t threads) {
  constexpr std::size_t kN = 64;
  constexpr int kFanout = 3;
  constexpr Round kInjectRounds = 8;   // one rumor per round, rotating source
  constexpr Round kWarmup = 48;        // dissemination + capacity ramp-up
  constexpr Round kMeasured = 32;      // the window under test
  constexpr Round kDeadline = 400;     // far beyond the window: no purge,
                                            // no origin fallback inside it
  constexpr Round kTotal = kWarmup + kMeasured + 4;

  std::vector<std::unique_ptr<sim::Process>> procs;
  procs.reserve(kN);
  Rng seeder(0xa110c8ull);
  for (ProcessId p = 0; p < kN; ++p) {
    procs.push_back(std::make_unique<baseline::PlainGossipProcess>(
        p, baseline::PlainGossipProcess::Options{kFanout, kN}, seeder.next(),
        /*listener=*/nullptr));
  }
  sim::Engine engine(std::move(procs), seeder.next());
  engine.set_threads(threads);

  // Pre-size the per-round stat histories for the whole run so end_round()
  // never grows them inside the measured window.
  engine.stats().reserve_rounds(static_cast<std::size_t>(kTotal));

  // Warm-up: inject, then let the epidemic saturate (n = 64 at fanout 3
  // needs ~log n rounds; the rest lets every queue hit its high-water mark).
  for (Round r = 0; r < kWarmup; ++r) {
    if (r < kInjectRounds) {
      const auto src = static_cast<ProcessId>(r % kN);
      engine.inject(src, sim::make_rumor(src, static_cast<std::uint64_t>(r),
                                         {1, 2, 3, 4}, kDeadline,
                                         DynamicBitset::full(kN)));
    }
    engine.step();
  }

  const std::uint64_t sent_before = engine.network().messages_sent_total();
  const std::uint64_t allocs_before = alloc_count();
  for (Round r = 0; r < kMeasured; ++r) engine.step();
  const std::uint64_t allocs = alloc_count() - allocs_before;
  const std::uint64_t sent = engine.network().messages_sent_total() - sent_before;

  // Guard against a vacuous pass: the window must actually gossip.
  EXPECT_GE(sent, static_cast<std::uint64_t>(kMeasured) * kN * kFanout);
  EXPECT_EQ(allocs, 0u) << "steady-state rounds must not touch the heap";
}

// At one engine thread the single shard runs inline on the calling thread.
TEST(AllocDiscipline, SteadyStateRoundIsAllocationFree) {
  expect_steady_state_allocation_free(1);
}

// At four engine threads, once the per-shard envelope buffers have reached
// their high-water mark during warm-up, a steady-state round must stay
// allocation-free on every thread: shard claiming is a pair of atomic
// counters, the fork/join handshake is condition-variable only, and the
// merge moves envelopes into the network without growing anything.
TEST(AllocDiscipline, ShardedSteadyStateRoundIsAllocationFree) {
  expect_steady_state_allocation_free(4);
}

// A rumor that reaches every process costs a constant number of
// allocations, not one per holder: the origin builds its record once (body,
// destination set, record), and each receiver keeps a handle to it. Acks go
// out in recycled payloads from a buffer that keeps its capacity, and the
// merge buffers grow geometrically, so a receiver's first sighting allocates
// nothing once the warm-up has sized them.
TEST(AllocDiscipline, SpreadingARumorAllocatesOnce) {
  constexpr std::size_t kN = 64;
  constexpr int kFanout = 3;
  constexpr Round kInjectRounds = 8;
  constexpr Round kWarmup = 48;
  constexpr Round kSpreadCap = 40;
  constexpr Round kDeadline = 400;
  constexpr Round kTotal = kWarmup + kSpreadCap + 4;

  /// Counts deliveries of the rumor with sequence number `seq`.
  struct Holders final : sim::DeliveryListener {
    std::uint64_t seq = 0;
    std::size_t count = 0;
    void on_rumor_delivered(ProcessId, const RumorUid& uid, Round,
                            std::span<const std::uint8_t>) override {
      if (uid.seq == seq) ++count;
    }
  };
  Holders holders;
  holders.seq = kInjectRounds;

  std::vector<std::unique_ptr<sim::Process>> procs;
  procs.reserve(kN);
  Rng seeder(0xa110c8ull);  // the warm-up of SteadyStateRoundIsAllocationFree
  for (ProcessId p = 0; p < kN; ++p) {
    procs.push_back(std::make_unique<baseline::PlainGossipProcess>(
        p, baseline::PlainGossipProcess::Options{kFanout, kN}, seeder.next(), &holders));
  }
  sim::Engine engine(std::move(procs), seeder.next());
  engine.stats().reserve_rounds(static_cast<std::size_t>(kTotal));
  for (Round r = 0; r < kWarmup; ++r) {
    if (r < kInjectRounds) {
      const auto src = static_cast<ProcessId>(r % kN);
      engine.inject(src, sim::make_rumor(src, static_cast<std::uint64_t>(r),
                                         {1, 2, 3, 4}, kDeadline,
                                         DynamicBitset::full(kN)));
    }
    engine.step();
  }

  constexpr auto kSrc = static_cast<ProcessId>(kInjectRounds % kN);
  sim::Rumor rumor = sim::make_rumor(kSrc, kInjectRounds, {1, 2, 3, 4}, kDeadline,
                                     DynamicBitset::full(kN));
  const std::uint64_t allocs_before = alloc_count();
  engine.inject(kSrc, std::move(rumor));
  Round rounds = 0;
  while (holders.count < kN && rounds < kSpreadCap) {
    engine.step();
    ++rounds;
  }
  const std::uint64_t allocs = alloc_count() - allocs_before;

  ASSERT_EQ(holders.count, kN) << "the rumor must reach every process";
  EXPECT_LT(allocs, 16u) << "spreading one rumor to " << kN << " processes";
}

}  // namespace
}  // namespace congos
