// Crash and rejoin: a CONGOS node is killed mid-run and resumed from its
// durable checkpoint, and nobody can tell (DESIGN.md section 14).
//
// Four nodes gossip over the deterministic in-process transport. Node 2 -
// a rumor destination - journals every state mutation to its state file;
// halfway through its delivery window we save, destroy the runtime object
// (the in-process equivalent of SIGKILL: no flush, no goodbye), rebuild a
// fresh one from the file, and let the run finish. A twin cluster that never
// crashed runs alongside; the demo prints both sides' counters and
// asserts they match - the checkpoint is a replay journal, so resuming
// reproduces the pre-crash state byte for byte, half-built fragment
// pipelines and all.
//
// The real-wire version of this demo is `congos_d --state/--resume` under
// harness::run_cluster's SIGKILL schedule (EXPERIMENTS.md E18).
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "net/checkpoint.h"
#include "net/runtime.h"
#include "net/sim_transport.h"

using namespace congos;

namespace {

constexpr std::size_t kN = 4;
constexpr std::uint64_t kSeed = 42;
constexpr Round kRounds = 48;
constexpr ProcessId kVictim = 2;

/// Node 2's state file in the crashing cluster, and the cluster clock its
/// batches are stamped with.
const char* const kVictimState = "crash_rejoin_node2.ckpt";
constexpr std::int64_t kEpochMs = 1754600000000;
constexpr std::int64_t kRoundMs = 40;

net::NodeConfig node_cfg(ProcessId p, const std::string& state_path) {
  net::NodeConfig cfg;
  cfg.id = p;
  cfg.n = kN;
  cfg.seed = kSeed;
  cfg.max_rounds = kRounds;
  cfg.state_path = state_path;  // empty: no file, nothing journaled
  cfg.congos.allow_degenerate = false;
  cfg.congos.retransmit.enabled = true;
  cfg.congos.retransmit.max_link_delay = 1;
  return cfg;
}

std::unique_ptr<net::NodeRuntime> make_node(ProcessId p, const std::string& state_path,
                                            net::SimLink& link) {
  auto rt = std::make_unique<net::NodeRuntime>(node_cfg(p, state_path),
                                               &link.endpoint(p));
  rt->set_clock_binding(kEpochMs, kRoundMs);
  return rt;
}

struct Feed final : net::DatagramSink {
  net::NodeRuntime* rt = nullptr;
  void on_datagram(ProcessId from, std::span<const std::uint8_t> d) override {
    rt->handle_datagram(from, d);
  }
};

struct Cluster {
  net::SimLink link{kN};
  std::vector<std::unique_ptr<net::NodeRuntime>> nodes;

  explicit Cluster(const std::string& victim_state = "") {
    for (ProcessId p = 0; p < kN; ++p) {
      nodes.push_back(make_node(p, p == kVictim ? victim_state : "", link));
      std::string err;
      if (!nodes.back()->start(&err)) {
        std::fprintf(stderr, "start failed: %s\n", err.c_str());
        std::exit(1);
      }
    }
    // One rumor from node 1 to node 2, deadline 40 rounds out.
    run_rounds(1);
    DynamicBitset dest(kN);
    dest.set(kVictim);
    nodes[1]->inject(/*seq=*/7, /*deadline=*/40, dest, {0xC0, 0xFF, 0xEE});
  }

  void run_rounds(Round count) {
    for (Round i = 0; i < count; ++i) {
      link.advance_round();
      const Round target = link.round();
      for (ProcessId p = 0; p < kN; ++p) {
        Feed feed;
        feed.rt = nodes[p].get();
        link.endpoint(p).poll(0, feed);
        nodes[p]->advance_to(target);
      }
    }
  }
};

}  // namespace

int main() {
  // Declared first, so it runs after the runtimes have closed the file.
  struct RemoveStateFile {
    ~RemoveStateFile() { std::remove(kVictimState); }
  } remove_state_file;
  Cluster steady;                // never crashes
  Cluster chaotic(kVictimState);  // node 2 dies at round 16

  steady.run_rounds(kRounds - 1);

  chaotic.run_rounds(15);
  std::string err;
  net::NodeCheckpoint ck;
  if (!chaotic.nodes[kVictim]->save_checkpoint(&err) ||
      !net::read_checkpoint_file(kVictimState, &ck, &err)) {
    std::fprintf(stderr, "checkpoint failed: %s\n", err.c_str());
    return 1;
  }
  std::printf("round %lld: checkpointed node %u (%zu journal events), "
              "killing it\n",
              static_cast<long long>(ck.round), kVictim, ck.events.size());
  chaotic.nodes[kVictim].reset();  // SIGKILL, in-process flavor

  chaotic.nodes[kVictim] = make_node(kVictim, kVictimState, chaotic.link);
  if (!chaotic.nodes[kVictim]->resume(ck, &err)) {
    std::fprintf(stderr, "resume failed: %s\n", err.c_str());
    return 1;
  }
  std::printf("node %u resumed at round %lld (resume_count=%u)\n", kVictim,
              static_cast<long long>(chaotic.nodes[kVictim]->resumed_at()),
              chaotic.nodes[kVictim]->resume_count());
  chaotic.run_rounds(kRounds - 16);

  bool identical = true;
  for (ProcessId p = 0; p < kN; ++p) {
    const auto& a = *steady.nodes[p];
    const auto& b = *chaotic.nodes[p];
    std::printf(
        "node %u  steady: deliveries=%llu frames=%llu   "
        "crashed-and-resumed: deliveries=%llu frames=%llu\n",
        p, static_cast<unsigned long long>(a.deliveries()),
        static_cast<unsigned long long>(a.frames_received()),
        static_cast<unsigned long long>(b.deliveries()),
        static_cast<unsigned long long>(b.frames_received()));
    identical = identical && a.deliveries() == b.deliveries() &&
                a.frames_received() == b.frames_received() &&
                a.now() == b.now() && b.healthy();
  }
  if (chaotic.nodes[kVictim]->deliveries() == 0) {
    std::fprintf(stderr, "FAIL: the rumor never arrived\n");
    return 1;
  }
  if (!identical) {
    std::fprintf(stderr, "FAIL: the crash was observable\n");
    return 1;
  }
  std::printf("crash was invisible: resumed cluster matches the twin that "
              "never died\n");
  return 0;
}
