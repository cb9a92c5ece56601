// Real-wire acceptance tests (ISSUE: real-wire runtime): fork an
// 8-process congos_d cluster over actual UDP sockets on 127.0.0.1, inject
// rumors with wall-clock deadlines, and require the observed-traffic
// audits to pass - once on clean links and once under the seeded
// socket-level fault shim.
//
// The daemon binary comes from $CONGOS_D_BIN (set by tests/CMakeLists.txt
// from the congos_d target); the tests skip when it is absent so the suite
// stays runnable from unusual build layouts.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "congos/fragment.h"
#include "harness/cluster.h"
#include "net/checkpoint.h"
#include "net/control.h"
#include "wire/compress.h"
#include "wire/envelope.h"

namespace congos {
namespace {

std::string daemon_path() {
  const char* env = std::getenv("CONGOS_D_BIN");
  return env != nullptr ? env : "";
}

std::string fresh_workdir(const std::string& tag) {
  return "cluster_" + tag + "_" + std::to_string(::getpid());
}

harness::ClusterConfig base_config(const std::string& tag) {
  harness::ClusterConfig cfg;
  cfg.daemon = daemon_path();
  cfg.workdir = fresh_workdir(tag);
  cfg.n = 8;
  cfg.seed = 20260808;
  cfg.rounds = 64;
  // Generous rounds: CI machines (especially under ASan) deschedule
  // daemons for tens of milliseconds; the retransmission layer absorbs
  // the resulting +-1 round skew.
  cfg.round_ms = 40;
  cfg.duration_s = 60;

  DynamicBitset d1(cfg.n);
  d1.set(3);
  d1.set(5);
  cfg.injections.push_back(
      {/*source=*/0, /*seq=*/1, /*round=*/2, /*deadline=*/40, d1,
       {0x11, 0x22, 0x33, 0x44}});
  DynamicBitset d2(cfg.n);
  d2.set(1);
  d2.set(6);
  d2.set(7);
  cfg.injections.push_back(
      {/*source=*/4, /*seq=*/2, /*round=*/4, /*deadline=*/40, d2,
       {0xAA, 0xBB}});
  return cfg;
}

void expect_cluster_ok(const harness::ClusterResult& r) {
  EXPECT_TRUE(r.error.empty()) << r.error;
  ASSERT_EQ(r.exit_codes.size(), 8u);
  for (std::size_t i = 0; i < r.exit_codes.size(); ++i) {
    EXPECT_EQ(r.exit_codes[i], 0) << "daemon " << i << " stats: "
                                  << r.stats_json[i];
  }
  EXPECT_EQ(r.log_parse_errors, 0u);
  EXPECT_EQ(r.injected, 2u);
  EXPECT_GT(r.recv_frames, 0u) << "no traffic observed";

  // QoD (Definition 1) on observed deliveries.
  EXPECT_TRUE(r.qod.ok()) << "late=" << r.qod.late
                          << " missing=" << r.qod.missing
                          << " mismatches=" << r.qod.data_mismatches;
  EXPECT_EQ(r.qod.admissible_pairs, 5u);  // 2 + 3 destinations
  EXPECT_EQ(r.qod.delivered_on_time, 5u);

  // Confidentiality (Definition 2) on every decoded wire frame.
  EXPECT_EQ(r.leaks, 0u);
  EXPECT_EQ(r.foreign_fragments, 0u);
  EXPECT_EQ(r.unknown_payloads, 0u);
  EXPECT_GT(r.weakest_coalition, 1u);  // Lemma 14: > tau

  EXPECT_TRUE(r.ok());
}

TEST(Cluster, EightDaemonsOverUdpSatisfyQodAndConfidentiality) {
  if (daemon_path().empty()) GTEST_SKIP() << "CONGOS_D_BIN not set";
  const harness::ClusterConfig cfg = base_config("clean");
  const harness::ClusterResult r = harness::run_cluster(cfg);
  expect_cluster_ok(r);
}

TEST(Cluster, SurvivesSeededFaultShim) {
  if (daemon_path().empty()) GTEST_SKIP() << "CONGOS_D_BIN not set";
  harness::ClusterConfig cfg = base_config("faults");
  // Within the delivery-guaranteed envelope (audit::delivery_guaranteed):
  // drop <= 10%, delays bounded by the retransmission layer's budget.
  cfg.fault_spec = "drop:0.05,dup:0.03,delay:2,delay-rate:0.05,seed:7";
  cfg.max_link_delay = 2;
  const harness::ClusterResult r = harness::run_cluster(cfg);
  expect_cluster_ok(r);
}

// The default cluster above runs the batched sendmmsg/recvmmsg fast path;
// this one forces the single-syscall fallback on every daemon. Identical
// acceptance bar: the two wire paths must be behaviorally equivalent at
// cluster scale, not just in the transport unit tests.
TEST(Cluster, SingleSyscallFallbackPathPassesSameAudits) {
  if (daemon_path().empty()) GTEST_SKIP() << "CONGOS_D_BIN not set";
  harness::ClusterConfig cfg = base_config("nobatch");
  cfg.udp_batch = false;
  const harness::ClusterResult r = harness::run_cluster(cfg);
  expect_cluster_ok(r);
}

// All daemons LZ4-compress their outbound datagrams (the receive side
// auto-detects, so this also exercises the container unwrap on every hop).
TEST(Cluster, Lz4CompressedClusterPassesSameAudits) {
  if (daemon_path().empty()) GTEST_SKIP() << "CONGOS_D_BIN not set";
  if (!wire::lz4_available()) GTEST_SKIP() << "LZ4 not available";
  harness::ClusterConfig cfg = base_config("lz4");
  cfg.compress = true;
  const harness::ClusterResult r = harness::run_cluster(cfg);
  expect_cluster_ok(r);
}

// -- crash/restart survival (DESIGN.md section 14) ---------------------------

TEST(KillSchedule, ReproducibleFromSeedAndRespectsProtectedIds) {
  harness::KillScheduleConfig gen;
  gen.seed = 99;
  gen.kills = 3;
  gen.protected_ids = {0, 4};
  const auto a = harness::make_kill_schedule(gen, 8, 64);
  const auto b = harness::make_kill_schedule(gen, 8, 64);
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(b.size(), a.size());
  std::vector<bool> seen(8, false);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].target, b[i].target);
    EXPECT_EQ(a[i].kill_round, b[i].kill_round);
    EXPECT_EQ(a[i].down_rounds, b[i].down_rounds);
    EXPECT_NE(a[i].target, 0u);
    EXPECT_NE(a[i].target, 4u);
    EXPECT_FALSE(seen[a[i].target]) << "victim drawn twice";
    seen[a[i].target] = true;
    EXPECT_GE(a[i].kill_round, gen.min_round);
    // Auto max leaves room to resume and drain before the round budget.
    EXPECT_LE(a[i].kill_round + a[i].down_rounds, 64 - 8);
    EXPECT_GE(a[i].down_rounds, gen.down_min);
    EXPECT_LE(a[i].down_rounds, gen.down_max);
    if (i > 0) {
      EXPECT_GE(a[i].kill_round, a[i - 1].kill_round);
    }
  }
  // A different seed draws a different schedule.
  gen.seed = 100;
  const auto c = harness::make_kill_schedule(gen, 8, 64);
  bool any_diff = false;
  for (std::size_t i = 0; i < c.size(); ++i) {
    any_diff = any_diff || c[i].target != a[i].target ||
               c[i].kill_round != a[i].kill_round;
  }
  EXPECT_TRUE(any_diff);
}

// The chaos acceptance gate from the issue: SIGKILL two of the eight
// daemons mid-run on a fixed schedule, respawn them with --resume from
// their durable checkpoints, and require both auditors to pass under the
// paper's continuously-alive admissibility rule. Daemon 6 is a destination
// of rumor 2 and dies inside its delivery window, so (rumor2, 6) becomes
// inadmissible; daemon 2 is neither source nor destination. Everything
// else must still deliver on time.
TEST(Cluster, SurvivesScheduledKillsWithResume) {
  if (daemon_path().empty()) GTEST_SKIP() << "CONGOS_D_BIN not set";
  harness::ClusterConfig cfg = base_config("chaos");
  cfg.checkpoint_every = 4;
  cfg.kill_plan = {{/*target=*/2, /*kill_round=*/10, /*down_rounds=*/6},
                   {/*target=*/6, /*kill_round=*/14, /*down_rounds=*/8}};
  const harness::ClusterResult r = harness::run_cluster(cfg);

  EXPECT_TRUE(r.error.empty()) << r.error;
  ASSERT_EQ(r.exit_codes.size(), 8u);
  for (std::size_t i = 0; i < r.exit_codes.size(); ++i) {
    EXPECT_EQ(r.exit_codes[i], 0) << "daemon " << i << " stats: "
                                  << r.stats_json[i];
  }
  EXPECT_EQ(r.scheduled_kills, 2u);
  EXPECT_EQ(r.resumes, 2u);
  EXPECT_EQ(r.unexpected_exits, 0u);
  EXPECT_EQ(r.respawn_failures, 0u);

  EXPECT_EQ(r.injected, 2u);
  EXPECT_TRUE(r.qod.ok()) << "late=" << r.qod.late
                          << " missing=" << r.qod.missing
                          << " mismatches=" << r.qod.data_mismatches;
  EXPECT_EQ(r.qod.admissible_pairs, 4u);   // (rumor2, 6) crashed out
  EXPECT_EQ(r.qod.delivered_on_time, 4u);

  // Confidentiality across crash/restart - wire frames AND the checkpoint
  // files the respawned daemons left on disk.
  EXPECT_EQ(r.leaks, 0u);
  EXPECT_EQ(r.foreign_fragments, 0u);
  EXPECT_EQ(r.state_files_audited, 8u);
  EXPECT_EQ(r.state_file_errors, 0u);
  EXPECT_GT(r.weakest_coalition, 1u);

  // The resumed incarnations report their lineage.
  for (const ProcessId victim : {2, 6}) {
    EXPECT_NE(r.stats_json[victim].find("\"resume_count\":1"),
              std::string::npos)
        << "daemon " << victim << " stats: " << r.stats_json[victim];
  }
  EXPECT_TRUE(r.ok());
}

// Same gate, but with the kill schedule drawn from a seed instead of
// hand-picked - the real-wire echo of the sim adversary's RandomChurn.
// Victims and timings vary with the seed, so the QoD assertion is the
// invariant form: no admissible pair may be late or missing.
TEST(Cluster, SeededKillSchedulePassesBothAuditors) {
  if (daemon_path().empty()) GTEST_SKIP() << "CONGOS_D_BIN not set";
  harness::ClusterConfig cfg = base_config("seeded");
  harness::KillScheduleConfig gen;
  gen.seed = cfg.seed;
  gen.kills = 2;
  gen.protected_ids = {0, 4};  // injection sources outlive their deadlines
  cfg.kill_plan = harness::make_kill_schedule(gen, cfg.n, cfg.rounds);
  ASSERT_EQ(cfg.kill_plan.size(), 2u);
  cfg.checkpoint_every = 4;
  const harness::ClusterResult r = harness::run_cluster(cfg);

  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.scheduled_kills, 2u);
  EXPECT_EQ(r.resumes, 2u);
  EXPECT_EQ(r.unexpected_exits, 0u);
  EXPECT_TRUE(r.qod.ok()) << "late=" << r.qod.late
                          << " missing=" << r.qod.missing;
  EXPECT_LE(r.qod.admissible_pairs, 5u);
  EXPECT_EQ(r.qod.delivered_on_time, r.qod.admissible_pairs);
  EXPECT_EQ(r.leaks, 0u);
  EXPECT_EQ(r.state_files_audited, 8u);
  EXPECT_EQ(r.state_file_errors, 0u);
  EXPECT_TRUE(r.ok());
}

// An unscheduled death must be surfaced, never masked: daemon 3's
// --duration backstop is shrunk so it exits mid-run (code 3) with no kill
// scheduled. The supervisor records it as an unexpected exit and ok()
// fails, even though the run itself completes.
TEST(Cluster, UnexpectedExitIsSurfacedNotMasked) {
  if (daemon_path().empty()) GTEST_SKIP() << "CONGOS_D_BIN not set";
  harness::ClusterConfig cfg = base_config("unexpected");
  cfg.duration_overrides.assign(cfg.n, 0);
  cfg.duration_overrides[3] = 1;  // dies ~1s in, long before round 64
  const harness::ClusterResult r = harness::run_cluster(cfg);

  EXPECT_TRUE(r.error.empty()) << r.error;  // surfaced as data, not failure
  EXPECT_EQ(r.unexpected_exits, 1u);
  EXPECT_EQ(r.scheduled_kills, 0u);
  EXPECT_EQ(r.resumes, 0u);
  ASSERT_EQ(r.exit_codes.size(), 8u);
  EXPECT_EQ(r.exit_codes[3], 3);  // the real exit code, recorded verbatim
  EXPECT_FALSE(r.daemons_ok());
  EXPECT_FALSE(r.ok());
}

// congos_d --resume must reject damaged state files with exit code 2
// (setup failure) before touching the network: garbage bytes and a
// truncated-but-genuine checkpoint both count.
TEST(Cluster, DaemonRejectsCorruptOrTruncatedStateFile) {
  if (daemon_path().empty()) GTEST_SKIP() << "CONGOS_D_BIN not set";
  const auto run_resume = [&](const std::string& state) {
    const std::string cmd = daemon_path() + " --id=0 --n=2 --resume=" + state +
                            " >/dev/null 2>&1";
    const int st = std::system(cmd.c_str());
    EXPECT_TRUE(WIFEXITED(st));
    return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
  };

  const std::string tag = std::to_string(::getpid());
  const std::string garbage = "resume_garbage_" + tag + ".ckpt";
  std::FILE* f = std::fopen(garbage.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("definitely not a checkpoint", f);
  std::fclose(f);
  EXPECT_EQ(run_resume(garbage), 2);

  net::NodeCheckpoint ck;
  ck.id = 0;
  ck.n = 2;
  ck.seed = 5;
  ck.round_ms = 40;
  ck.round = 4;
  const std::vector<std::uint8_t> bytes = net::encode_checkpoint(ck);
  ASSERT_GT(bytes.size(), 5u);
  const std::string truncated = "resume_truncated_" + tag + ".ckpt";
  f = std::fopen(truncated.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size() - 5, f),
            bytes.size() - 5);
  std::fclose(f);
  EXPECT_EQ(run_resume(truncated), 2);

  EXPECT_EQ(run_resume("no_such_state_file.ckpt"), 2);

  std::remove(garbage.c_str());
  std::remove(truncated.c_str());
}

TEST(Cluster, ReportsSpawnFailure) {
  harness::ClusterConfig cfg;
  cfg.daemon = "/nonexistent/congos_d";
  cfg.workdir = fresh_workdir("bad");
  cfg.n = 2;
  const harness::ClusterResult r = harness::run_cluster(cfg);
  EXPECT_FALSE(r.error.empty());
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// The offline audit on handcrafted logs: no daemon needed.

/// A workdir of hand-written logs for audit_cluster_logs, removed on exit.
class HandLogs {
 public:
  HandLogs(const std::string& tag, std::size_t n)
      : dir_(fresh_workdir(tag)), logs_(n) {
    std::filesystem::create_directories(dir_);
  }
  ~HandLogs() { std::filesystem::remove_all(dir_); }

  void line(std::size_t node, const std::string& text) {
    logs_[node] += text + "\n";
  }
  void lifecycle(const std::string& text) { lifecycle_ += text + "\n"; }
  harness::ClusterResult audit() const {
    for (std::size_t i = 0; i < logs_.size(); ++i) {
      std::ofstream(dir_ + "/node" + std::to_string(i) + ".log") << logs_[i];
    }
    std::ofstream(dir_ + "/lifecycle.log") << lifecycle_;
    harness::ClusterConfig cfg;
    cfg.workdir = dir_;
    cfg.n = logs_.size();
    cfg.rounds = 32;
    harness::ClusterResult r;
    harness::audit_cluster_logs(cfg, &r);
    return r;
  }

 private:
  std::string dir_;
  std::vector<std::string> logs_;
  std::string lifecycle_;
};

std::string inject_line(Round round, const sim::Rumor& rumor) {
  std::string out;
  net::append_inject_event(&out, round, rumor);
  return out;
}

std::string deliver_line(Round round, ProcessId at, const sim::Rumor& rumor) {
  std::string out;
  net::append_deliver_event(&out, round, at, rumor.uid, rumor.data);
  return out;
}

sim::Rumor hand_rumor(ProcessId src, std::uint64_t seq, std::size_t n,
                      std::vector<std::uint32_t> dest) {
  return sim::make_rumor(src, seq, {7, 8, 9}, /*deadline=*/10,
                         DynamicBitset::from_indices(n, dest));
}

TEST(ClusterAudit, WellFormedLogsGiveTheExpectedQod) {
  constexpr std::size_t kN = 4;
  HandLogs logs("audit_good", kN);
  const sim::Rumor r = hand_rumor(0, 1, kN, {1, 2});
  logs.line(0, inject_line(2, r));
  logs.line(1, deliver_line(5, 1, r));
  logs.line(1, deliver_line(9, 1, r));  // a repeat keeps the first round
  logs.line(2, deliver_line(8, 2, r));
  // Destination 2 dies inside [2, 12]: its delivery becomes a bonus.
  logs.lifecycle("crash round=10 id=2 scheduled=1 code=137");
  logs.lifecycle("restart round=14 id=2");
  const harness::ClusterResult res = logs.audit();

  EXPECT_EQ(res.log_parse_errors, 0u);
  EXPECT_EQ(res.injected, 1u);
  EXPECT_EQ(res.deliveries, 3u);
  audit::QodReport want;
  want.rumors = 1;
  want.admissible_pairs = 1;
  want.delivered_on_time = 1;
  want.bonus_deliveries = 1;
  want.mean_latency = 3.0;
  want.latency_p50 = 3;
  want.latency_p95 = 3;
  want.latency_max = 3;
  EXPECT_EQ(res.qod, want);
}

TEST(ClusterAudit, LinesNamingUnknownProcessesAreCountedNotFatal) {
  constexpr std::size_t kN = 4;
  HandLogs logs("audit_bad", kN);
  const sim::Rumor good = hand_rumor(0, 1, kN, {1});
  logs.line(0, inject_line(2, good));
  logs.line(1, deliver_line(4, 1, good));
  // inject from a source >= n.
  logs.line(0, inject_line(2, hand_rumor(kN, 2, kN, {1})));
  // inject whose dest is narrower, then wider, than n bits.
  logs.line(0, inject_line(3, hand_rumor(0, 3, kN - 1, {1})));
  logs.line(0, inject_line(3, hand_rumor(0, 4, kN + 1, {1})));
  // deliver at a process >= n, and of a rumor whose source is >= n.
  logs.line(1, deliver_line(4, kN, good));
  logs.line(1, "deliver round=4 at=1 src=" + std::to_string(kN) + " seq=1 data=070809");
  logs.line(1, "deliver round=4 at=-1 src=0 seq=1 data=070809");
  // recv frame addressed to a process >= n.
  sim::Envelope e;
  e.from = 0;
  e.to = kN;
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(wire::encode_envelope(e, 4, &frame));
  std::string recv;
  net::append_recv_event(&recv, 4, frame);
  logs.line(1, recv);
  // lifecycle event of a process >= n.
  logs.lifecycle("crash round=5 id=" + std::to_string(kN) + " scheduled=1 code=137");
  const harness::ClusterResult res = logs.audit();

  EXPECT_EQ(res.log_parse_errors, 8u);
  EXPECT_EQ(res.injected, 1u);
  EXPECT_EQ(res.deliveries, 1u);
  EXPECT_EQ(res.recv_frames, 1u);  // parsed; rejected only when audited
  EXPECT_EQ(res.qod.admissible_pairs, 1u);
  EXPECT_EQ(res.qod.delivered_on_time, 1u);
  EXPECT_TRUE(res.qod.ok());
  EXPECT_FALSE(res.ok());
}

TEST(ClusterAudit, FragmentsNamingUnknownPartitionsOrGroupsAreCounted) {
  // Partition and group indices come off the wire: a recv frame naming
  // partition 200, or a group past its partition's count, is an unknown
  // payload of the receiver and is never used as an index.
  constexpr std::size_t kN = 8;
  HandLogs logs("audit_partition", kN);
  const sim::Rumor r = hand_rumor(0, 1, kN, {1});
  logs.line(0, inject_line(2, r));
  logs.line(1, deliver_line(4, 1, r));
  const auto fragment = [&](PartitionIndex l, GroupIndex g) {
    core::Fragment f;
    f.meta.key = core::FragmentKey{r.uid, l, g};
    f.meta.dest = r.dest;
    f.meta.expires_at = 12;
    f.meta.dline = 10;
    f.meta.num_groups = 2;
    f.data = {1, 2, 3};
    return f;
  };
  auto partials = std::make_shared<core::PartialsPayload>();
  partials->fragments = {std::make_shared<const core::Fragment>(fragment(200, 0)),
                         std::make_shared<const core::Fragment>(fragment(0, 63))};
  const ProcessId curious = 5;  // neither source nor destination
  const sim::Envelope e{0, curious,
                        sim::ServiceTag{sim::ServiceKind::kGroupDistribution, 0}, partials};
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(wire::encode_envelope(e, 4, &frame));
  std::string recv;
  net::append_recv_event(&recv, 4, frame);
  logs.line(curious, recv);
  const harness::ClusterResult res = logs.audit();

  EXPECT_EQ(res.log_parse_errors, 0u);
  EXPECT_EQ(res.recv_frames, 1u);
  EXPECT_EQ(res.unknown_payloads, 2u);
  EXPECT_EQ(res.foreign_fragments, 0u);
  EXPECT_EQ(res.leaks, 0u);
  EXPECT_TRUE(res.qod.ok());
  EXPECT_FALSE(res.ok());
  // With daemons that exited clean, the unknown payloads alone fail the gate.
  harness::ClusterResult gated = res;
  gated.exit_codes.assign(kN, 0);
  EXPECT_FALSE(gated.ok());
  gated.unknown_payloads = 0;
  EXPECT_TRUE(gated.ok());
}

}  // namespace
}  // namespace congos
