// Durable checkpoint coverage (DESIGN.md section 14): the codec rejects
// every corruption we can synthesize (truncation at each offset, each bit
// flipped, foreign versions, non-monotone journals, stale clock bindings),
// the file writer is atomic, the append-only journal drops a torn final
// batch but rejects interior damage, each save appends only the events
// since the previous one, and - the core guarantee - a NodeRuntime
// resumed from a checkpoint is byte-for-byte the process that would have
// existed had the crash never happened, pinned over a deterministic
// SimLink cluster including the partially-buffered-inbox case.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/checkpoint.h"
#include "net/runtime.h"
#include "net/sim_transport.h"
#include "replay/codec.h"
#include "test_util.h"

namespace congos {
namespace {

net::NodeCheckpoint sample_checkpoint() {
  net::NodeCheckpoint ck;
  ck.id = 3;
  ck.n = 8;
  ck.seed = 20260808;
  ck.tau = 2;
  ck.allow_degenerate = false;
  ck.retransmit.enabled = true;
  ck.retransmit.budget = 4;
  ck.retransmit.max_link_delay = 2;
  ck.max_rounds = 64;
  ck.epoch_ms = 1754600000123;
  ck.round_ms = 40;
  ck.round = 17;
  ck.resume_count = 1;

  net::CheckpointEvent inj;
  inj.round = 2;
  inj.kind = net::CheckpointEvent::Kind::kInject;
  inj.seq = 9;
  inj.deadline = 40;
  inj.dest = DynamicBitset(8);
  inj.dest.set(1);
  inj.dest.set(6);
  inj.data = {0xDE, 0xAD, 0xBE, 0xEF};
  ck.events.push_back(inj);

  net::CheckpointEvent recv;
  recv.round = 17;
  recv.kind = net::CheckpointEvent::Kind::kRecv;
  recv.frame = {0x01, 0x02, 0x03, 0x04, 0x05};
  ck.events.push_back(recv);
  return ck;
}

TEST(CheckpointCodec, RoundTripsAllFields) {
  const net::NodeCheckpoint ck = sample_checkpoint();
  const std::vector<std::uint8_t> bytes = net::encode_checkpoint(ck);
  net::NodeCheckpoint back;
  std::string err;
  ASSERT_TRUE(net::decode_checkpoint(bytes, &back, &err)) << err;
  EXPECT_TRUE(back == ck);
}

TEST(CheckpointCodec, RejectsTruncationAtEveryOffset) {
  const std::vector<std::uint8_t> bytes =
      net::encode_checkpoint(sample_checkpoint());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    net::NodeCheckpoint back;
    std::string err;
    EXPECT_FALSE(net::decode_checkpoint(bytes.data(), len, &back, &err))
        << "accepted a file truncated to " << len << " bytes";
  }
}

TEST(CheckpointCodec, RejectsEveryBitFlip) {
  const std::vector<std::uint8_t> good =
      net::encode_checkpoint(sample_checkpoint());
  for (std::size_t i = 0; i < good.size(); ++i) {
    for (int b = 0; b < 8; ++b) {
      std::vector<std::uint8_t> bad = good;
      bad[i] ^= static_cast<std::uint8_t>(1u << b);
      net::NodeCheckpoint back;
      std::string err;
      EXPECT_FALSE(net::decode_checkpoint(bad, &back, &err))
          << "accepted bit " << b << " of byte " << i << " flipped";
    }
  }
}

TEST(CheckpointCodec, RejectsUnknownVersion) {
  // Patch the version field (u32 after the u64 magic) and re-seal the
  // checksum so only the version check can reject it.
  std::vector<std::uint8_t> bytes = net::encode_checkpoint(sample_checkpoint());
  bytes[8] = 0x63;
  const std::size_t body = bytes.size() - 8;
  const std::uint64_t sum = fnv1a(bytes.data(), body);
  for (int b = 0; b < 8; ++b) {
    bytes[body + static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(sum >> (8 * b));
  }
  net::NodeCheckpoint back;
  std::string err;
  EXPECT_FALSE(net::decode_checkpoint(bytes, &back, &err));
  EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST(CheckpointCodec, RejectsNonMonotoneJournalRounds) {
  net::NodeCheckpoint ck = sample_checkpoint();
  std::swap(ck.events[0], ck.events[1]);  // 17 then 2: order violated
  net::NodeCheckpoint back;
  std::string err;
  EXPECT_FALSE(net::decode_checkpoint(net::encode_checkpoint(ck), &back, &err));
  EXPECT_NE(err.find("monotone"), std::string::npos) << err;
}

TEST(CheckpointCodec, RejectsJournalEventPastCheckpointRound) {
  net::NodeCheckpoint ck = sample_checkpoint();
  ck.events.back().round = ck.round + 1;
  net::NodeCheckpoint back;
  std::string err;
  EXPECT_FALSE(net::decode_checkpoint(net::encode_checkpoint(ck), &back, &err));
  EXPECT_NE(err.find("past checkpoint round"), std::string::npos) << err;
}

TEST(CheckpointCodec, RejectsDestinationIndexPastItsUniverse) {
  // Shrink the injection's destination universe from 8 to 4 (its member 6
  // no longer fits) and re-seal the one batch, so only the bitset's own
  // range check can reject it.
  std::vector<std::uint8_t> bytes = net::encode_checkpoint(sample_checkpoint());
  // header, length pair, batch head, then the event's round, kind, seq, deadline
  const std::size_t universe_at = net::kCheckpointHeaderBytes + 16 + 20 + 8 + 1 + 8 + 8;
  ASSERT_EQ(bytes[universe_at], 8u);
  bytes[universe_at] = 4;
  const std::size_t body = bytes.size() - 8;
  const std::uint64_t sum = fnv1a(bytes.data(), body);
  for (int b = 0; b < 8; ++b) {
    bytes[body + static_cast<std::size_t>(b)] = static_cast<std::uint8_t>(sum >> (8 * b));
  }
  net::NodeCheckpoint back;
  std::string err;
  EXPECT_FALSE(net::decode_checkpoint(bytes, &back, &err));
  EXPECT_NE(err.find("malformed"), std::string::npos) << err;
}

TEST(CheckpointCodec, StaleClockBindingRejected) {
  const net::NodeCheckpoint ck = sample_checkpoint();
  std::string err;
  EXPECT_TRUE(net::validate_checkpoint_clock(ck, ck.epoch_ms, ck.round_ms, &err));
  EXPECT_FALSE(net::validate_checkpoint_clock(ck, ck.epoch_ms + 1, ck.round_ms, &err));
  EXPECT_NE(err.find("stale"), std::string::npos) << err;
  EXPECT_FALSE(net::validate_checkpoint_clock(ck, ck.epoch_ms, ck.round_ms + 5, &err));
}

TEST(CheckpointFile, AtomicWriteReadBackAndRewrite) {
  const std::string path =
      "checkpoint_io_" + std::to_string(::getpid()) + ".ckpt";
  net::NodeCheckpoint ck = sample_checkpoint();
  std::string err;
  ASSERT_TRUE(net::write_checkpoint_file(path, ck, &err)) << err;
  // The temp file must be gone: a crash between write and rename leaves
  // either the old complete file or the new one, never a torn hybrid.
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);

  net::NodeCheckpoint back;
  ASSERT_TRUE(net::read_checkpoint_file(path, &back, &err)) << err;
  EXPECT_TRUE(back == ck);

  ck.round = 21;
  ck.resume_count = 2;
  ASSERT_TRUE(net::write_checkpoint_file(path, ck, &err)) << err;
  ASSERT_TRUE(net::read_checkpoint_file(path, &back, &err)) << err;
  EXPECT_EQ(back.round, 21);
  EXPECT_EQ(back.resume_count, 2u);
  std::remove(path.c_str());
}

TEST(CheckpointFile, RejectsGarbageAndMissingFiles) {
  const std::string path =
      "checkpoint_garbage_" + std::to_string(::getpid()) + ".ckpt";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a checkpoint file", f);
  std::fclose(f);
  net::NodeCheckpoint back;
  std::string err;
  EXPECT_FALSE(net::read_checkpoint_file(path, &back, &err));
  EXPECT_FALSE(net::read_checkpoint_file("no_such_file.ckpt", &back, &err));
  std::remove(path.c_str());
}

// -- resume equivalence over a deterministic SimLink cluster ------------------

net::NodeConfig node_cfg(ProcessId p, std::size_t n, std::uint64_t seed,
                         Round max_rounds) {
  net::NodeConfig cfg;
  cfg.id = p;
  cfg.n = n;
  cfg.seed = seed;
  cfg.max_rounds = max_rounds;
  cfg.congos.allow_degenerate = false;
  cfg.congos.retransmit.enabled = true;
  cfg.congos.retransmit.max_link_delay = 1;
  return cfg;
}

struct Feed final : net::DatagramSink {
  net::NodeRuntime* rt = nullptr;
  void on_datagram(ProcessId from, std::span<const std::uint8_t> d) override {
    rt->handle_datagram(from, d);
  }
};

std::string state_file_path(const std::string& tag) {
  return "checkpoint_" + tag + "_" + std::to_string(::getpid()) + ".ckpt";
}

/// State file of node `p` in the ResumableCluster tagged `tag`.
std::string node_state_path(const std::string& tag, ProcessId p) {
  return state_file_path(tag + std::to_string(p));
}

/// Clock binding stamped into the state files of the test nodes.
constexpr std::int64_t kEpochMs = 1754600000000;
constexpr std::int64_t kRoundMs = 40;

/// A SimLink cluster with explicit per-step control so the test can crash
/// and resume one node at any point inside a round. Every node has its own
/// state file, the way congos_d runs: it journals each state mutation and
/// keeps only the unsaved events in memory. The files go with the cluster.
struct ResumableCluster {
  std::size_t n;
  std::uint64_t seed;
  Round max_rounds;
  std::string tag;  // names the state files: node_state_path(tag, p)
  net::SimLink link;
  std::vector<std::unique_ptr<net::NodeRuntime>> nodes;

  ResumableCluster(std::size_t n_, std::uint64_t seed_, Round max_rounds_,
                   std::string tag_)
      : n(n_), seed(seed_), max_rounds(max_rounds_), tag(std::move(tag_)), link(n_) {
    for (ProcessId p = 0; p < n; ++p) {
      nodes.push_back(make_node(p));
      std::string err;
      EXPECT_TRUE(nodes.back()->start(&err)) << err;
    }
  }

  ~ResumableCluster() {
    for (ProcessId p = 0; p < n; ++p) std::remove(state_path(p).c_str());
  }

  std::string state_path(ProcessId p) const { return node_state_path(tag, p); }

  std::unique_ptr<net::NodeRuntime> make_node(ProcessId p) {
    net::NodeConfig cfg = node_cfg(p, n, seed, max_rounds);
    cfg.state_path = state_path(p);
    auto rt = std::make_unique<net::NodeRuntime>(cfg, &link.endpoint(p));
    rt->set_clock_binding(kEpochMs, kRoundMs);
    return rt;
  }

  /// Saves node p and reads its whole history back from the state file:
  /// what a restarted daemon resumes from.
  net::NodeCheckpoint checkpoint(ProcessId p) {
    std::string err;
    EXPECT_TRUE(nodes[p]->save_checkpoint(&err)) << err;
    net::NodeCheckpoint ck;
    EXPECT_TRUE(net::read_checkpoint_file(state_path(p), &ck, &err)) << err;
    return ck;
  }

  void poll_into(ProcessId p) {
    Feed feed;
    feed.rt = nodes[p].get();
    link.endpoint(p).poll(0, feed);
  }

  void run_rounds(Round count) {
    for (Round i = 0; i < count; ++i) {
      link.advance_round();
      const Round target = link.round();
      for (ProcessId p = 0; p < n; ++p) {
        poll_into(p);
        nodes[p]->advance_to(target);
      }
    }
  }

  /// Kill node p and bring up a fresh runtime resumed from `ck` on the
  /// same link endpoint.
  void crash_and_resume(ProcessId p, const net::NodeCheckpoint& ck) {
    nodes[p].reset();
    nodes[p] = make_node(p);
    std::string err;
    ASSERT_TRUE(nodes[p]->resume(ck, &err)) << err;
  }

  std::string fingerprint(ProcessId p) const {
    const net::NodeRuntime& rt = *nodes[p];
    return std::to_string(rt.now()) + "/" + std::to_string(rt.injections()) +
           "/" + std::to_string(rt.deliveries()) + "/" +
           std::to_string(rt.frames_received()) + "/" +
           (rt.healthy() ? "ok" : "BAD");
  }
};

TEST(NodeRuntimeResume, ResumedNodeMatchesUninterruptedRun) {
  const std::size_t n = 4;
  const std::uint64_t seed = 7;
  // Long enough for the deadline-40 pipeline to deliver: the comparison
  // below must cover post-delivery state, not just mid-flight state.
  const Round rounds = 48;
  const ProcessId victim = 2;

  const auto inject = [&](ResumableCluster& c) {
    DynamicBitset dest(n);
    dest.set(2);
    c.run_rounds(1);
    c.nodes[1]->inject(5, 40, dest, {0xAB, 0xCD});
  };

  // Reference: no crash.
  ResumableCluster a(n, seed, rounds, "uninterrupted");
  inject(a);
  a.run_rounds(rounds - 1);
  ASSERT_GE(a.nodes[victim]->deliveries(), 1u)
      << "reference run never delivered; the equivalence check would be "
         "vacuous";

  // Crash victim mid-round 14: frames for the closing round are already
  // polled into its inbox (journaled at the checkpoint round), the round
  // is not yet ticked - the hardest point to reconstruct.
  ResumableCluster b(n, seed, rounds, "resumed");
  inject(b);
  b.run_rounds(13);  // every node now at round 14
  b.link.advance_round();
  const Round target = b.link.round();
  for (ProcessId p = 0; p < n; ++p) b.poll_into(p);
  const net::NodeCheckpoint ck = b.checkpoint(victim);
  EXPECT_EQ(ck.round, 14);
  b.crash_and_resume(victim, ck);
  EXPECT_EQ(b.nodes[victim]->resume_count(), 1u);
  EXPECT_EQ(b.nodes[victim]->resumed_at(), 14);
  for (ProcessId p = 0; p < n; ++p) b.nodes[p]->advance_to(target);
  b.run_rounds(rounds - 15);

  for (ProcessId p = 0; p < n; ++p) {
    EXPECT_EQ(a.fingerprint(p), b.fingerprint(p)) << "node " << p;
    EXPECT_TRUE(b.nodes[p]->healthy()) << b.nodes[p]->stats_json();
  }
  // The resumed incarnation reports its lineage in stats.
  const std::string stats = b.nodes[victim]->stats_json();
  EXPECT_NE(stats.find("\"resume_count\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"uptime_rounds\":"), std::string::npos) << stats;
}

TEST(NodeRuntimeResume, JournalSurvivesChainedResumes) {
  // Resume-of-a-resume: the journal carried forward must keep the full
  // history, not just the events since the last incarnation.
  const std::size_t n = 4;
  const Round rounds = 48;  // deadline-40 pipeline delivers near round 41
  ResumableCluster c(n, 11, rounds, "chained");
  DynamicBitset dest(n);
  dest.set(3);
  c.run_rounds(1);
  c.nodes[0]->inject(1, 40, dest, {0x42});
  c.run_rounds(7);

  net::NodeCheckpoint ck1 = c.checkpoint(3);
  c.crash_and_resume(3, ck1);
  c.run_rounds(8);

  net::NodeCheckpoint ck2 = c.checkpoint(3);
  EXPECT_EQ(ck2.resume_count, 1u);
  EXPECT_GE(ck2.events.size(), ck1.events.size());
  c.crash_and_resume(3, ck2);
  EXPECT_EQ(c.nodes[3]->resume_count(), 2u);
  c.run_rounds(rounds - 16);
  EXPECT_TRUE(c.nodes[3]->healthy()) << c.nodes[3]->stats_json();
  EXPECT_GE(c.nodes[3]->deliveries(), 1u);
}

TEST(NodeRuntimeResume, RejectsMismatchedConfigBinding) {
  ResumableCluster c(4, 7, 24, "binding");
  c.run_rounds(4);
  const net::NodeCheckpoint ck = c.checkpoint(1);

  net::NodeConfig other = node_cfg(1, 4, /*seed=*/8, 24);  // wrong seed
  net::SimLink lonely(4);
  net::NodeRuntime rt(other, &lonely.endpoint(1));
  std::string err;
  EXPECT_FALSE(rt.resume(ck, &err));
  EXPECT_NE(err.find("config binding"), std::string::npos) << err;
}

TEST(NodeRuntimeResume, ResumesWithoutAStateFile) {
  // A node with no state file resumes from a checkpoint it is handed (a
  // traced wire run resumes its nodes that way) and journals nothing after.
  ResumableCluster c(4, 7, 24, "no_file");
  DynamicBitset dest(4);
  dest.set(2);
  c.run_rounds(1);
  c.nodes[0]->inject(1, 20, dest, {0x42});
  c.run_rounds(6);
  const net::NodeCheckpoint ck = c.checkpoint(0);
  ASSERT_FALSE(ck.events.empty());

  net::SimLink lonely(4);
  net::NodeRuntime rt(node_cfg(0, 4, 7, 24), &lonely.endpoint(0));
  std::string err;
  ASSERT_TRUE(rt.resume(ck, &err)) << err;
  EXPECT_EQ(rt.now(), ck.round);
  EXPECT_EQ(rt.injections(), 1u);
  EXPECT_EQ(rt.frames_received(), c.nodes[0]->frames_received());
  EXPECT_EQ(rt.journal_events(), 0u);
  EXPECT_FALSE(rt.save_checkpoint(&err));
}

// -- the append-only journal ----------------------------------------------------

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::uint64_t file_size(const std::string& path) {
  return static_cast<std::uint64_t>(std::filesystem::file_size(path));
}

/// Encoded bytes of `events` alone: the whole-file encoding with them minus
/// the one without.
std::size_t events_bytes(net::NodeCheckpoint ck) {
  const std::size_t with = net::encode_checkpoint(ck).size();
  ck.events.clear();
  return with - net::encode_checkpoint(ck).size();
}

net::CheckpointEvent recv_event(Round round, std::uint8_t fill, std::size_t len) {
  net::CheckpointEvent e;
  e.round = round;
  e.kind = net::CheckpointEvent::Kind::kRecv;
  e.frame.assign(len, fill);
  return e;
}

/// A three-batch state file written by CheckpointLog the way a daemon
/// writes it, with the state a reader must return after each batch.
struct ThreeBatchFile {
  std::vector<std::uint8_t> bytes;
  std::size_t batch_end[3] = {};
  net::NodeCheckpoint state[3];
};

ThreeBatchFile three_batch_file() {
  net::NodeCheckpoint at = sample_checkpoint();
  const net::CheckpointEvent inject = at.events.front();  // round 2
  at.events.clear();
  const std::vector<std::vector<net::CheckpointEvent>> batches = {
      {inject, recv_event(5, 0x11, 7)},
      {recv_event(5, 0x22, 3), recv_event(8, 0x33, 12), recv_event(9, 0x44, 1)},
      {recv_event(12, 0x55, 9), recv_event(17, 0x66, 4)}};
  const Round rounds[3] = {5, 9, 17};

  ThreeBatchFile f;
  const std::string path = state_file_path("three");
  net::CheckpointLog log;
  std::string err;
  EXPECT_TRUE(log.create(path, &err)) << err;
  net::NodeCheckpoint state = at;
  for (int b = 0; b < 3; ++b) {
    at.round = rounds[b];
    at.resume_count = b == 2 ? 2 : 1;
    EXPECT_TRUE(log.append(at, batches[b], &err)) << err;
    f.batch_end[b] = log.size();
    state.round = at.round;
    state.resume_count = at.resume_count;
    state.events.insert(state.events.end(), batches[b].begin(), batches[b].end());
    f.state[b] = state;
  }
  f.bytes = slurp(path);
  std::remove(path.c_str());
  return f;
}

TEST(CheckpointJournal, AppendedBatchesReadBackAsOneHistory) {
  const ThreeBatchFile f = three_batch_file();
  ASSERT_EQ(f.bytes.size(), f.batch_end[2]);
  for (int b = 0; b < 3; ++b) {
    net::NodeCheckpoint back;
    std::string err;
    ASSERT_TRUE(net::decode_checkpoint(f.bytes.data(), f.batch_end[b], &back, &err))
        << "batch " << b << ": " << err;
    EXPECT_TRUE(back == f.state[b]) << "batch " << b;
    // Each append costs its own events plus a constant, never the history.
    const std::size_t before = b == 0 ? 0 : f.batch_end[b - 1];
    const std::size_t own_events = events_bytes(f.state[b]) -
                                   (b == 0 ? 0 : events_bytes(f.state[b - 1]));
    EXPECT_EQ(f.batch_end[b] - before,
              own_events + net::kCheckpointBatchOverhead +
                  (b == 0 ? net::kCheckpointHeaderBytes : 0))
        << "batch " << b;
  }
  // A single-batch file has the same shape as the whole-file encoding.
  net::NodeCheckpoint empty = f.state[0];
  empty.events.clear();
  EXPECT_EQ(net::encode_checkpoint(empty).size(),
            net::kCheckpointHeaderBytes + net::kCheckpointBatchOverhead);
}

TEST(CheckpointJournal, TwoBatchFileBytesArePinned) {
  // A state file as a daemon writes it: two appends through CheckpointLog,
  // each with an injection and a received frame. Its length and FNV-1a were
  // computed when each record was written and read by its own hand-kept
  // code, so a layout change fails here even if writer and reader change
  // together.
  net::NodeCheckpoint at = sample_checkpoint();
  const net::CheckpointEvent inject = at.events.front();  // round 2
  at.events.clear();
  net::CheckpointEvent late_inject;
  late_inject.round = 7;
  late_inject.seq = 10;
  late_inject.deadline = 47;
  late_inject.dest = DynamicBitset(8);
  late_inject.dest.set(0);
  const std::vector<std::vector<net::CheckpointEvent>> batches = {
      {inject, recv_event(4, 0x11, 6)}, {recv_event(6, 0x22, 3), late_inject}};
  const Round rounds[2] = {5, 9};

  const std::string path = state_file_path("pinned");
  net::CheckpointLog log;
  std::string err;
  ASSERT_TRUE(log.create(path, &err)) << err;
  net::NodeCheckpoint expected = at;
  for (int b = 0; b < 2; ++b) {
    at.round = rounds[b];
    at.resume_count = static_cast<std::uint32_t>(b);
    ASSERT_TRUE(log.append(at, batches[b], &err)) << err;
    expected.events.insert(expected.events.end(), batches[b].begin(), batches[b].end());
  }
  expected.round = at.round;
  expected.resume_count = at.resume_count;
  const std::vector<std::uint8_t> bytes = slurp(path);
  EXPECT_EQ(bytes.size(), 319u);
  EXPECT_EQ(fnv1a(bytes.data(), bytes.size()), 0x7f47c79e52b682b1ull);

  net::NodeCheckpoint back;
  ASSERT_TRUE(net::read_checkpoint_file(path, &back, &err)) << err;
  EXPECT_TRUE(back == expected);
  std::remove(path.c_str());
}

TEST(CheckpointJournal, TornFinalBatchYieldsThePreviousState) {
  const ThreeBatchFile f = three_batch_file();
  for (std::size_t len = 0; len < f.bytes.size(); ++len) {
    net::NodeCheckpoint back;
    std::string err;
    const bool ok = net::decode_checkpoint(f.bytes.data(), len, &back, &err);
    if (len < f.batch_end[0]) {
      // No complete batch: nothing to resume from.
      EXPECT_FALSE(ok) << "accepted a file truncated to " << len << " bytes";
      continue;
    }
    const int whole = len < f.batch_end[1] ? 0 : 1;
    ASSERT_TRUE(ok) << "truncated to " << len << ": " << err;
    EXPECT_TRUE(back == f.state[whole]) << "truncated to " << len;
    EXPECT_EQ(back.round, f.state[whole].round);
    EXPECT_EQ(back.events.size(), f.state[whole].events.size());
  }
}

TEST(CheckpointJournal, RejectsDamageBeforeTheFinalBatch) {
  const ThreeBatchFile f = three_batch_file();
  for (std::size_t i = 0; i < f.bytes.size(); ++i) {
    for (int b = 0; b < 8; ++b) {
      std::vector<std::uint8_t> bad = f.bytes;
      bad[i] ^= static_cast<std::uint8_t>(1u << b);
      net::NodeCheckpoint back;
      std::string err;
      const bool ok = net::decode_checkpoint(bad, &back, &err);
      // Damage in the header, batch 1 or batch 2, or in the final batch's
      // length pair, is corruption; anywhere else in the final batch it
      // reads as a torn tail.
      if (i < f.batch_end[1] + 16) {
        EXPECT_FALSE(ok) << "accepted bit " << b << " of byte " << i << " flipped";
      } else {
        ASSERT_TRUE(ok) << "byte " << i << " bit " << b << ": " << err;
        EXPECT_TRUE(back == f.state[1]) << "byte " << i << " bit " << b;
      }
    }
  }
}

// The state file is adversarial input: random truncations and bit flips of
// a multi-batch file must yield a clean error or one of its valid prefix
// states, never a crash or a state no save ever wrote.
TEST(CheckpointFuzz, MutatedMultiBatchFilesFailCleanlyOrYieldAPrefix) {
  const ThreeBatchFile f = three_batch_file();
  Rng rng(20261017);
  int accepted = 0;
  int rejected = 0;
  for (int it = 0; it < testutil::fuzz_iters(); ++it) {
    std::vector<std::uint8_t> bad = f.bytes;
    const std::uint64_t mode = rng.next_below(3);  // truncate, flip, or both
    if (mode != 1) bad.resize(rng.next_below(bad.size() + 1));
    if (mode != 0 && !bad.empty()) {
      const auto flips = rng.uniform_int(1, 4);
      for (std::int64_t k = 0; k < flips; ++k) {
        bad[rng.next_below(bad.size())] ^=
            static_cast<std::uint8_t>(1u << rng.next_below(8));
      }
    }
    net::NodeCheckpoint back;
    std::string err;
    if (!net::decode_checkpoint(bad, &back, &err)) {
      EXPECT_FALSE(err.empty());
      ++rejected;
      continue;
    }
    ++accepted;
    EXPECT_TRUE(back == f.state[0] || back == f.state[1] || back == f.state[2])
        << "iteration " << it << " decoded a state no save wrote";
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

/// Drives `c` one round at a time up to `rounds`, with a rumor every
/// fourth round from a rotating source, and saves every node every `every`
/// rounds through `save`.
template <typename Save>
void run_with_saves(ResumableCluster& c, Round rounds, Round every, Save save) {
  std::uint64_t seq = 1;
  for (Round r = c.link.round(); r < rounds; ++r) {
    if (r % 4 == 1 && r + 44 < c.max_rounds) {
      const auto src = static_cast<ProcessId>(seq % c.n);
      DynamicBitset dest(c.n);
      dest.set((src + 1 + seq % (c.n - 1)) % c.n);
      c.nodes[src]->inject(seq, r + 40, dest, {static_cast<std::uint8_t>(seq), 0x5A});
      ++seq;
    }
    c.run_rounds(1);
    if (c.link.round() % every == 0) {
      for (ProcessId p = 0; p < c.n; ++p) save(p);
    }
  }
}

TEST(CheckpointJournal, ResumeFromATornFileThenSaveReadsBackWhole) {
  const std::size_t n = 4;
  const ProcessId victim = 1;
  ResumableCluster c(n, 13, 64, "torn_resume");
  const std::string path = c.state_path(victim);
  std::string err;
  run_with_saves(c, 24, 8, [&](ProcessId p) {
    ASSERT_TRUE(c.nodes[p]->save_checkpoint(&err)) << err;
  });
  const net::NodeCheckpoint at16 = [&] {
    // The state as of the second save: the file cut inside its third batch.
    const std::vector<std::uint8_t> bytes = slurp(path);
    net::NodeCheckpoint whole;
    EXPECT_TRUE(net::decode_checkpoint(bytes, &whole, &err)) << err;
    EXPECT_EQ(whole.round, 24);
    std::filesystem::resize_file(path, bytes.size() - 5);
    net::NodeCheckpoint torn;
    EXPECT_TRUE(net::read_checkpoint_file(path, &torn, &err)) << err;
    return torn;
  }();
  ASSERT_EQ(at16.round, 16);

  c.crash_and_resume(victim, at16);
  EXPECT_EQ(c.nodes[victim]->journal_events(), 0u);
  c.nodes[victim]->advance_to(c.link.round());  // the downtime rounds
  c.run_rounds(8);
  const net::NodeCheckpoint unsaved = c.nodes[victim]->make_checkpoint();
  EXPECT_FALSE(unsaved.events.empty());
  ASSERT_TRUE(c.nodes[victim]->save_checkpoint(&err)) << err;

  net::NodeCheckpoint back;
  ASSERT_TRUE(net::read_checkpoint_file(path, &back, &err)) << err;
  EXPECT_EQ(back.round, 32);
  EXPECT_EQ(back.resume_count, 1u);
  std::vector<net::CheckpointEvent> history = at16.events;
  history.insert(history.end(), unsaved.events.begin(), unsaved.events.end());
  EXPECT_TRUE(back.events == history);
  // Nothing of the torn tail survives: exactly the resumed state rewritten
  // whole, then one appended batch.
  EXPECT_EQ(file_size(path), net::kCheckpointHeaderBytes +
                                 2 * net::kCheckpointBatchOverhead +
                                 events_bytes(back));

  // And the file resumes again.
  c.crash_and_resume(victim, back);
  c.run_rounds(64 - 32);
  EXPECT_TRUE(c.nodes[victim]->healthy()) << c.nodes[victim]->stats_json();
}

TEST(CheckpointJournal, FreshStartDiscardsAStaleFile) {
  const std::string path = node_state_path("stale", 2);
  net::NodeCheckpoint stale = sample_checkpoint();
  stale.id = 2;
  stale.n = 4;
  std::string err;
  ASSERT_TRUE(net::write_checkpoint_file(path, stale, &err)) << err;
  ASSERT_GT(file_size(path), 0u);

  ResumableCluster c(4, 3, 32, "stale");
  EXPECT_EQ(file_size(path), 0u) << "start() kept the stale file";
  c.run_rounds(8);
  const net::NodeCheckpoint unsaved = c.nodes[2]->make_checkpoint();
  ASSERT_TRUE(c.nodes[2]->save_checkpoint(&err)) << err;
  net::NodeCheckpoint back;
  ASSERT_TRUE(net::read_checkpoint_file(path, &back, &err)) << err;
  EXPECT_EQ(back.round, 8);
  EXPECT_EQ(back.resume_count, 0u);
  EXPECT_EQ(back.epoch_ms, kEpochMs);
  EXPECT_TRUE(back.events == unsaved.events);
}

// Flat memory and flat checkpoint cost over a long run (ROADMAP item 3):
// every save appends exactly its own events plus a constant, and a
// file-backed node never holds events from before its last save.
TEST(CheckpointJournal, SoakAppendsOnlyNewEventsInFlatMemory) {
  const std::size_t n = 4;
  const Round rounds = 10000;
  const Round every = 8;
  ResumableCluster c(n, 29, rounds, "soak");

  std::vector<Round> last_save(n, 0);
  std::vector<std::uint64_t> saved_events(n, 0);
  std::uint64_t saves = 0;
  std::size_t max_unsaved = 0;
  std::string err;
  run_with_saves(c, rounds, every, [&](ProcessId p) {
    // Stop saving after a failure: a journal that re-appended its history
    // would grow quadratically.
    if (::testing::Test::HasFailure()) return;
    net::NodeRuntime& rt = *c.nodes[p];
    const net::NodeCheckpoint unsaved = rt.make_checkpoint();
    for (const net::CheckpointEvent& e : unsaved.events) {
      ASSERT_GE(e.round, last_save[p]) << "node " << p << " kept a saved event";
    }
    max_unsaved = std::max(max_unsaved, unsaved.events.size());
    const std::uint64_t before = file_size(c.state_path(p));
    ASSERT_TRUE(rt.save_checkpoint(&err)) << err;
    ASSERT_EQ(file_size(c.state_path(p)) - before,
              events_bytes(unsaved) + net::kCheckpointBatchOverhead +
                  (before == 0 ? net::kCheckpointHeaderBytes : 0))
        << "node " << p << " save at round " << rt.now();
    ASSERT_EQ(rt.journal_events(), 0u);
    last_save[p] = rt.now();
    saved_events[p] += unsaved.events.size();
    ++saves;
  });

  EXPECT_EQ(saves, n * static_cast<std::uint64_t>(rounds / every));
  EXPECT_GT(max_unsaved, 0u);
  for (ProcessId p = 0; p < n; ++p) {
    EXPECT_TRUE(c.nodes[p]->healthy()) << c.nodes[p]->stats_json();
    EXPECT_GE(c.nodes[p]->deliveries(), 1u);
    net::NodeCheckpoint back;
    EXPECT_TRUE(net::read_checkpoint_file(c.state_path(p), &back, &err)) << err;
    EXPECT_EQ(back.round, rounds);
    EXPECT_EQ(back.events.size(), saved_events[p]);
  }
}

}  // namespace
}  // namespace congos
