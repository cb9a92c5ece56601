// Microbenchmarks for the datagram fast path (DESIGN.md section 13): real
// UDP loopback throughput with and without sendmmsg/recvmmsg batching, and
// the frame codec chain (pooled builder -> unwrap -> split -> decode) with
// and without LZ4 datagram compression. BM_CheckpointSave times one durable
// save (DESIGN.md section 14) against a growing history; BM_RecvEventLine
// and BM_DecodeGossipFrame time a daemon's two per-frame receive costs
// (the event-log line and the decode, with and without the rumor decode
// memo; DESIGN.md section 13.1). These three are informational and not
// among the rows tools/check_bench.sh records.
//
// BM_UdpLoopback is the number tools/check_bench.sh records as
// transport=udp rows: datagrams/sec through a socket pair on 127.0.0.1.
// The batched rows (batch=1) must stay well ahead of the single-syscall
// rows (batch=0) - the acceptance bar for this PR's tentpole is >= 2x at
// 1200-byte datagrams.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "congos/fragment.h"
#include "gossip/continuous_gossip.h"
#include "net/checkpoint.h"
#include "net/control.h"
#include "net/framing.h"
#include "net/udp_transport.h"
#include "wire/compress.h"
#include "wire/envelope.h"

namespace {

using namespace congos;

/// Datagrams per measured burst: a few full batches' worth, small enough
/// that a burst always fits the 2 MB socket buffers (no loopback drops).
constexpr std::size_t kBurst = 128;

struct CountingSink final : net::DatagramSink {
  std::uint64_t datagrams = 0;
  void on_datagram(ProcessId, std::span<const std::uint8_t>) override {
    ++datagrams;
  }
};

sim::Envelope bench_envelope(std::size_t data_bytes) {
  auto body = std::make_shared<core::DirectRumorPayload>();
  body->rumor.uid = RumorUid{0, 7};
  body->rumor.data.assign(data_bytes, 0x5C);
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

// Loopback datagram throughput: burst-send kBurst datagrams of
// range(1) bytes, flush, drain them all back. range(0) selects the wire
// path (0 = single syscalls, 1 = sendmmsg/recvmmsg batches).
void BM_UdpLoopback(benchmark::State& state) {
  const bool batched = state.range(0) != 0;
  const auto dgram_bytes = static_cast<std::size_t>(state.range(1));

  net::UdpTransport tx;
  net::UdpTransport rx;
  std::string err;
  if (!tx.open(0, &err) || !rx.open(0, &err)) {
    state.SkipWithError(("open: " + err).c_str());
    return;
  }
  tx.set_peer(1, rx.local_port());
  rx.set_peer(0, tx.local_port());
  tx.set_batching(batched);
  rx.set_batching(batched);
  if (batched && !tx.batching()) {
    state.SkipWithError("sendmmsg/recvmmsg unavailable on this platform");
    return;
  }

  net::DatagramPool pool;
  const std::vector<std::uint8_t> payload(dgram_bytes, 0xB7);
  CountingSink sink;
  bool stalled = false;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kBurst; ++i) {
      net::DatagramHandle d = pool.acquire();
      d->bytes = payload;  // capacity retained after the first lap: no alloc
      tx.send(1, std::move(d));
      if (!batched && (i + 1) % net::UdpTransport::kMaxBatch == 0) {
        tx.flush();  // the single path flushes queued stragglers inline
      }
    }
    for (int tries = 0; !tx.flush() && tries < 10000; ++tries) {
    }
    const std::uint64_t want = sink.datagrams + kBurst;
    int tries = 0;
    while (sink.datagrams < want && tries++ < 10000) rx.drain(sink);
    if (sink.datagrams < want) stalled = true;
  }
  if (stalled) {
    state.SkipWithError("loopback dropped datagrams; burst exceeds rcvbuf?");
    return;
  }
  const auto total =
      static_cast<double>(state.iterations()) * static_cast<double>(kBurst);
  state.counters["datagrams_per_sec"] =
      benchmark::Counter(total, benchmark::Counter::kIsRate);
  state.counters["send_syscalls_per_dgram"] = benchmark::Counter(
      static_cast<double>(tx.stats().send_syscalls) / total);
  state.SetBytesProcessed(static_cast<std::int64_t>(
      total * static_cast<double>(dgram_bytes)));
}
BENCHMARK(BM_UdpLoopback)
    ->ArgNames({"batch", "bytes"})
    ->Args({0, 1200})
    ->Args({1, 1200})
    ->Args({0, 256})
    ->Args({1, 256})
    ->Unit(benchmark::kMicrosecond);

// The codec chain around the socket: envelopes through the pooled
// DatagramBuilder into coalesced datagrams, then unwrap -> split -> decode
// on the receive side. range(0) = 1 adds the LZ4 container on both sides.
void BM_DatagramCodec(benchmark::State& state) {
  const bool compress = state.range(0) != 0;
  if (compress && !wire::lz4_available()) {
    state.SkipWithError("LZ4 unavailable in this process");
    return;
  }
  const sim::Envelope e = bench_envelope(96);
  constexpr int kFramesPerLap = 64;

  net::DatagramPool pool;
  net::DatagramBuilder builder(pool);
  std::vector<net::DatagramHandle> shipped;
  shipped.reserve(16);
  std::vector<std::uint8_t> compress_scratch;
  std::vector<std::uint8_t> unwrap_scratch;
  std::uint64_t frames = 0;
  std::uint64_t failures = 0;

  for (auto _ : state) {
    const auto ship = [&](net::DatagramHandle d) {
      if (compress) {
        (void)net::compress_datagram(&d->bytes, &compress_scratch);
      }
      shipped.push_back(std::move(d));
    };
    for (int i = 0; i < kFramesPerLap; ++i) {
      if (!builder.add(e, 100, ship)) ++failures;
    }
    builder.finish(ship);
    for (net::DatagramHandle& d : shipped) {
      std::span<const std::uint8_t> body;
      if (net::unwrap_datagram(d->bytes, &unwrap_scratch, &body) ==
          net::DatagramKind::kMalformed) {
        ++failures;
        continue;
      }
      net::FrameSplitter sp(body);
      std::span<const std::uint8_t> frame;
      while (sp.next(&frame) == net::FrameSplitter::Status::kFrame) {
        wire::DecodedEnvelope dec;
        if (wire::decode_envelope(frame.data(), frame.size(), &dec)) {
          ++frames;
        } else {
          ++failures;
        }
      }
      d.reset();
    }
    shipped.clear();
  }
  if (failures > 0) {
    state.SkipWithError("codec chain reported failures");
    return;
  }
  benchmark::DoNotOptimize(frames);
  state.counters["frames_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kFramesPerLap,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DatagramCodec)
    ->ArgNames({"lz4"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// One durable save of one save interval's events - 128 received frames of
// 300 bytes, about what a wire-durable daemon journals in 8 rounds - on top
// of range(0) events of history already in the state file, fsync included.
// range(1) = 1 is the append-only journal (CheckpointLog::append), whose
// time per save must not grow with history; 0 rewrites the whole history
// through write_checkpoint_file, the cost every save had before the
// journal became append-only. The file lives in the current directory.
void BM_CheckpointSave(benchmark::State& state) {
  const auto history = static_cast<std::size_t>(state.range(0));
  const bool append = state.range(1) != 0;
  constexpr std::size_t kSaveEvents = 128;
  constexpr std::size_t kFrameBytes = 300;

  net::NodeCheckpoint ck;
  ck.n = 8;
  ck.seed = 1;
  ck.round_ms = 20;
  net::CheckpointEvent frame;
  frame.kind = net::CheckpointEvent::Kind::kRecv;
  frame.frame.assign(kFrameBytes, 0xC5);
  ck.events.assign(history, frame);
  const std::vector<net::CheckpointEvent> batch(kSaveEvents, frame);

  const std::string path =
      "micro_net_checkpoint_" + std::to_string(::getpid()) + ".ckpt";
  net::CheckpointLog log;
  std::string err;
  if (append && !log.rewrite(path, ck, ck.events, &err)) {
    state.SkipWithError(err.c_str());
    return;
  }
  if (!append) ck.events.insert(ck.events.end(), batch.begin(), batch.end());
  for (auto _ : state) {
    ++ck.round;
    const bool ok = append ? log.append(ck, batch, &err)
                           : net::write_checkpoint_file(path, ck, &err);
    if (!ok) {
      state.SkipWithError(err.c_str());
      break;
    }
  }
  std::remove(path.c_str());
  state.counters["events_per_save"] = kSaveEvents;
}
BENCHMARK(BM_CheckpointSave)
    ->ArgNames({"history", "append"})
    ->Args({1000, 1})
    ->Args({10000, 1})
    ->Args({100000, 1})
    ->Args({1000, 0})
    ->Args({10000, 0})
    ->Args({100000, 0})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// One `recv` event-log line for a 400-byte frame, into a reused buffer:
// what a daemon writes for every frame it accepts.
void BM_RecvEventLine(benchmark::State& state) {
  std::vector<std::uint8_t> frame(400);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    frame[i] = static_cast<std::uint8_t>(i * 131);
  }
  std::string line;
  for (auto _ : state) {
    line.clear();
    net::append_recv_event(&line, 1234, frame);
    benchmark::DoNotOptimize(line.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_RecvEventLine);

// Decode of one gossip frame of 24 fragment rumors, the shape continuous
// gossip re-pushes every round. range(0) = 1 decodes through a warm
// gossip::RumorDecodeMemo, so every rumor is a hit: the steady state of a
// rumor re-pushed by its holders.
void BM_DecodeGossipFrame(benchmark::State& state) {
  const bool memoized = state.range(0) != 0;
  auto msg = std::make_shared<gossip::GossipMsg>();
  for (std::uint64_t g = 0; g < 24; ++g) {
    gossip::GossipRumor r;
    r.gid = (std::uint64_t{3} << 40) | (std::uint64_t{1} << 21) | g;
    r.origin = 3;
    r.deadline_at = 4000;
    r.dest = DynamicBitset(8);
    r.dest.set(g % 8);
    auto frag = std::make_shared<core::Fragment>();
    frag->meta.key.rumor = RumorUid{3, g};
    frag->meta.dest = DynamicBitset(8);
    frag->meta.dest.set(1);
    frag->meta.expires_at = 4000;
    frag->meta.dline = 64;
    frag->meta.num_groups = 2;
    frag->data.assign(16, static_cast<std::uint8_t>(g));
    auto body = std::make_shared<core::FragmentBody>();
    body->fragment = std::move(frag);
    r.body = std::move(body);
    msg->rumors.push_back(gossip::make_entry(std::move(r)));
  }
  sim::Envelope e;
  e.from = 3;
  e.to = 5;
  e.tag.kind = sim::ServiceKind::kGroupGossip;
  e.body = msg;
  std::vector<std::uint8_t> frame;
  if (!wire::encode_envelope(e, 100, &frame)) {
    state.SkipWithError("encode failed");
    return;
  }
  gossip::RumorDecodeMemo memo;
  gossip::RumorDecodeMemo* const m = memoized ? &memo : nullptr;
  wire::DecodedEnvelope warm;
  (void)wire::decode_envelope(frame.data(), frame.size(), &warm, nullptr, m);
  std::uint64_t failures = 0;
  for (auto _ : state) {
    wire::DecodedEnvelope dec;
    if (!wire::decode_envelope(frame.data(), frame.size(), &dec, nullptr, m)) {
      ++failures;
    }
    benchmark::DoNotOptimize(dec.env.body);
  }
  if (failures > 0) state.SkipWithError("decode failed");
  state.counters["frame_bytes"] = static_cast<double>(frame.size());
}
BENCHMARK(BM_DecodeGossipFrame)->ArgNames({"memo"})->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
