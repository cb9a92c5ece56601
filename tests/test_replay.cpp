// Replay subsystem: codec round-trips, artifact rejection on corruption,
// recorded-run purity, byte-identical replay over a seed grid, sweep artifact
// dumping under the thread pool, and rewind as prefix re-execution.
// DESIGN.md section 7 documents the contracts pinned here.
#include "harness/record.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "harness/scenario.h"
#include "harness/sweep.h"
#include "replay/codec.h"
#include "replay/repro.h"
#include "common/bitset.h"
#include "common/rng.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "test_util.h"

namespace congos {
namespace {

using harness::Protocol;
using harness::ScenarioConfig;
using harness::ScenarioResult;
using replay::ByteReader;
using replay::ByteWriter;
using replay::ReproFile;

/// Every lifecycle event and no deliveries: what run_recorded keeps.
constexpr sim::TraceLog::Options kLifecycleOnly{.capacity = SIZE_MAX,
                                                .record_deliveries = false};

// ---------------------------------------------------------------------------
// Codec primitives

TEST(Codec, PrimitivesRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.boolean(true);
  w.f64(3.25);
  w.str("hello");
  w.vec_u64({1, 2, 3});

  const auto bytes = w.take();
  ByteReader r(bytes.data(), bytes.size());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.f64(), 3.25);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.vec_u64(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Codec, ReaderLatchesOnTruncation) {
  ByteWriter w;
  w.u64(7);
  const auto bytes = w.take();
  ByteReader r(bytes.data(), 3);  // not enough for a u64
  (void)r.u64();
  EXPECT_FALSE(r.ok());
  // Every subsequent read stays failed and returns zero values.
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Codec, HashMatchesGoldenFold) {
  // fnv1a_u64 folded over values must equal byte-wise fnv1a over their
  // little-endian encoding (the golden-trace definition in test_golden.cpp).
  const std::uint64_t values[] = {0, 1, 0xFFFFFFFFFFFFFFFFull, 12345};
  std::uint64_t folded = kFnvOffset;
  ByteWriter w;
  for (std::uint64_t v : values) {
    folded = fnv1a_u64(folded, v);
    w.u64(v);
  }
  const auto bytes = w.take();
  EXPECT_EQ(folded, fnv1a(bytes.data(), bytes.size()));
}

// ---------------------------------------------------------------------------
// ReproFile encode/decode

ReproFile sample_file() {
  ReproFile f;
  f.config.n = 24;
  f.config.seed = 99;
  f.config.rounds = 128;
  f.config.protocol = Protocol::kCongos;
  f.config.congos.tau = 2;
  f.config.congos.allow_degenerate = false;
  f.config.continuous.inject_prob = 0.03;
  f.config.continuous.dest_min = 2;
  f.config.continuous.dest_max = 5;
  f.config.continuous.deadlines = {48, 96};
  f.config.churn = adversary::RandomChurn::Options{};
  f.config.churn->crash_prob = 0.01;
  f.config.measure_from = 96;
  f.config.lazy_fraction = 0.125;
  f.config.faults.drop_rate = 0.05;
  f.config.faults.delay_rate = 0.25;
  f.config.faults.max_delay = 2;
  f.config.faults.seed = 31337;
  f.config.congos.retransmit.enabled = true;
  f.config.congos.retransmit.budget = 4;
  f.config.congos.retransmit.max_link_delay = 2;
  f.label = "unit";
  f.reason = "encode/decode round trip";
  f.round_deliveries = {0, 3, 9, 12};
  f.trace_hash = 0xFEEDFACE;
  f.total_messages = 1000;
  f.leaks = 1;
  f.faults_by_kind[0] = 17;
  f.faults_by_kind[2] = 4;
  f.duplicates_suppressed = 9;
  return f;
}

TEST(ReproFile, EncodeDecodeRoundTrip) {
  const ReproFile f = sample_file();
  const auto bytes = replay::encode(f);

  ReproFile g;
  std::string error;
  ASSERT_TRUE(replay::decode(bytes, &g, &error)) << error;

  EXPECT_EQ(g.config.n, f.config.n);
  EXPECT_EQ(g.config.seed, f.config.seed);
  EXPECT_EQ(g.config.rounds, f.config.rounds);
  EXPECT_EQ(g.config.protocol, f.config.protocol);
  EXPECT_EQ(g.config.congos.tau, f.config.congos.tau);
  EXPECT_EQ(g.config.congos.allow_degenerate, f.config.congos.allow_degenerate);
  EXPECT_EQ(g.config.continuous.inject_prob, f.config.continuous.inject_prob);
  EXPECT_EQ(g.config.continuous.deadlines, f.config.continuous.deadlines);
  ASSERT_TRUE(g.config.churn.has_value());
  EXPECT_EQ(g.config.churn->crash_prob, f.config.churn->crash_prob);
  EXPECT_EQ(g.config.measure_from, f.config.measure_from);
  EXPECT_EQ(g.config.lazy_fraction, f.config.lazy_fraction);
  EXPECT_EQ(g.label, f.label);
  EXPECT_EQ(g.reason, f.reason);
  EXPECT_EQ(g.round_deliveries, f.round_deliveries);
  EXPECT_EQ(g.trace_hash, f.trace_hash);
  EXPECT_EQ(g.total_messages, f.total_messages);
  EXPECT_EQ(g.leaks, f.leaks);
  EXPECT_EQ(g.config.faults, f.config.faults);
  EXPECT_EQ(g.config.congos.retransmit, f.config.congos.retransmit);
  for (std::size_t k = 0; k < sim::kNumFaultKinds; ++k) {
    EXPECT_EQ(g.faults_by_kind[k], f.faults_by_kind[k]) << "kind " << k;
  }
  EXPECT_EQ(g.duplicates_suppressed, f.duplicates_suppressed);
  EXPECT_EQ(g.wire_codec_version, f.wire_codec_version);
}

/// A version 4 artifact with every optional sub-config present and every
/// field away from its default, so a byte pin over it covers each field of
/// the layout.
ReproFile full_file() {
  ReproFile f;
  ScenarioConfig& c = f.config;
  c.n = 40;
  c.seed = 0x5EED;
  c.rounds = 300;
  c.protocol = Protocol::kStrongConfidential;
  c.congos.tau = 3;
  c.congos.partition_c = 2.5;
  c.congos.fanout_exponent = 5.0;
  c.congos.fanout_c = 1.25;
  c.congos.gossip_fanout = 4;
  c.congos.gossip_strategy = gossip::GossipStrategy::kExpander;
  c.congos.direct_threshold = 24;
  c.congos.max_effective_deadline = 512;
  c.congos.gd_alive_factor = 0.75;
  c.congos.allow_degenerate = false;
  c.congos.partition_seed = 1234;
  c.workload = harness::WorkloadKind::kTheorem1;
  c.continuous.inject_prob = 0.07;
  c.continuous.dest_min = 3;
  c.continuous.dest_max = 9;
  c.continuous.deadlines = {32, 64, 128};
  c.continuous.payload_len = 24;
  c.continuous.last_injection_round = 200;
  c.continuous.opaque_ids = true;
  c.theorem1.x = 6.5;
  c.theorem1.dmax = 96;
  c.theorem1.payload_len = 20;
  c.churn = adversary::RandomChurn::Options{
      .crash_prob = 0.02, .restart_prob = 0.125, .min_alive = 5, .protected_ids = {0, 7}};
  c.crash_on_service = adversary::CrashOnService::Options{
      .target = sim::ServiceKind::kFallback,
      .per_round_budget = 3,
      .total_budget = 50,
      .min_alive = 6,
      .protected_ids = {1},
      .restart_after = 12};
  c.crash_senders = adversary::CrashSenders::Options{
      .target = sim::ServiceKind::kAllGossip,
      .per_round_budget = 5,
      .total_budget = 70,
      .min_alive = 8,
      .protected_ids = {2, 3, 4},
      .delivery = sim::PartialDelivery::kDropAll};
  c.measure_from = 64;
  c.lazy_fraction = 0.0625;
  c.baseline_fanout = 5;
  c.audit_confidentiality = false;
  c.min_drain = 16;
  c.faults = sim::FaultConfig{.drop_rate = 0.05,
                              .dup_rate = 0.01,
                              .delay_rate = 0.2,
                              .max_delay = 3,
                              .partition_period = 40,
                              .partition_duration = 6,
                              .seed = 4242};
  c.congos.retransmit = {.enabled = true, .budget = 6, .max_link_delay = 3};
  f.label = "pin";
  f.reason = "every field set";
  f.round_deliveries = {1, 0, 5, 8};
  f.trace_hash = 0x0123456789ABCDEFull;
  std::uint64_t v = 100;
  for (std::uint64_t* field :
       {&f.total_messages, &f.total_bytes, &f.injected, &f.crashes, &f.restarts,
        &f.leaks, &f.foreign_fragments, &f.qod_delivered_on_time, &f.qod_late,
        &f.qod_missing, &f.qod_data_mismatches, &f.duplicates_suppressed}) {
    *field = v++;
  }
  for (std::size_t k = 0; k < sim::kNumFaultKinds; ++k) f.faults_by_kind[k] = 200 + k;
  f.wire_codec_version = 7;
  return f;
}

TEST(ReproFile, Version4BytesArePinned) {
  // The length and FNV-1a of a version 4 artifact, computed when each
  // record was written and read by its own hand-kept function pair. Any
  // change to the field order or widths fails here even if writer and
  // reader change together.
  const ReproFile f = full_file();
  const auto bytes = replay::encode(f);
  EXPECT_EQ(bytes.size(), 651u);
  EXPECT_EQ(fnv1a(bytes.data(), bytes.size()), 0x36de0551ddb79d21ull);

  ReproFile g;
  std::string error;
  ASSERT_TRUE(replay::decode(bytes, &g, &error)) << error;
  const ScenarioConfig& c = g.config;
  const ScenarioConfig& e = f.config;
  EXPECT_EQ(c.n, e.n);
  EXPECT_EQ(c.seed, e.seed);
  EXPECT_EQ(c.rounds, e.rounds);
  EXPECT_EQ(c.protocol, e.protocol);
  EXPECT_EQ(c.congos.tau, e.congos.tau);
  EXPECT_EQ(c.congos.partition_c, e.congos.partition_c);
  EXPECT_EQ(c.congos.fanout_exponent, e.congos.fanout_exponent);
  EXPECT_EQ(c.congos.fanout_c, e.congos.fanout_c);
  EXPECT_EQ(c.congos.gossip_fanout, e.congos.gossip_fanout);
  EXPECT_EQ(c.congos.gossip_strategy, e.congos.gossip_strategy);
  EXPECT_EQ(c.congos.direct_threshold, e.congos.direct_threshold);
  EXPECT_EQ(c.congos.max_effective_deadline, e.congos.max_effective_deadline);
  EXPECT_EQ(c.congos.gd_alive_factor, e.congos.gd_alive_factor);
  EXPECT_EQ(c.congos.allow_degenerate, e.congos.allow_degenerate);
  EXPECT_EQ(c.congos.partition_seed, e.congos.partition_seed);
  EXPECT_EQ(c.congos.retransmit, e.congos.retransmit);
  EXPECT_EQ(c.workload, e.workload);
  EXPECT_EQ(c.continuous.inject_prob, e.continuous.inject_prob);
  EXPECT_EQ(c.continuous.dest_min, e.continuous.dest_min);
  EXPECT_EQ(c.continuous.dest_max, e.continuous.dest_max);
  EXPECT_EQ(c.continuous.deadlines, e.continuous.deadlines);
  EXPECT_EQ(c.continuous.payload_len, e.continuous.payload_len);
  EXPECT_EQ(c.continuous.last_injection_round, e.continuous.last_injection_round);
  EXPECT_EQ(c.continuous.opaque_ids, e.continuous.opaque_ids);
  EXPECT_EQ(c.theorem1.x, e.theorem1.x);
  EXPECT_EQ(c.theorem1.dmax, e.theorem1.dmax);
  EXPECT_EQ(c.theorem1.payload_len, e.theorem1.payload_len);
  ASSERT_TRUE(c.churn.has_value());
  EXPECT_EQ(c.churn->crash_prob, e.churn->crash_prob);
  EXPECT_EQ(c.churn->restart_prob, e.churn->restart_prob);
  EXPECT_EQ(c.churn->min_alive, e.churn->min_alive);
  EXPECT_EQ(c.churn->protected_ids, e.churn->protected_ids);
  ASSERT_TRUE(c.crash_on_service.has_value());
  EXPECT_EQ(c.crash_on_service->target, e.crash_on_service->target);
  EXPECT_EQ(c.crash_on_service->per_round_budget, e.crash_on_service->per_round_budget);
  EXPECT_EQ(c.crash_on_service->total_budget, e.crash_on_service->total_budget);
  EXPECT_EQ(c.crash_on_service->min_alive, e.crash_on_service->min_alive);
  EXPECT_EQ(c.crash_on_service->protected_ids, e.crash_on_service->protected_ids);
  EXPECT_EQ(c.crash_on_service->restart_after, e.crash_on_service->restart_after);
  ASSERT_TRUE(c.crash_senders.has_value());
  EXPECT_EQ(c.crash_senders->target, e.crash_senders->target);
  EXPECT_EQ(c.crash_senders->per_round_budget, e.crash_senders->per_round_budget);
  EXPECT_EQ(c.crash_senders->total_budget, e.crash_senders->total_budget);
  EXPECT_EQ(c.crash_senders->min_alive, e.crash_senders->min_alive);
  EXPECT_EQ(c.crash_senders->protected_ids, e.crash_senders->protected_ids);
  EXPECT_EQ(c.crash_senders->delivery, e.crash_senders->delivery);
  EXPECT_EQ(c.measure_from, e.measure_from);
  EXPECT_EQ(c.lazy_fraction, e.lazy_fraction);
  EXPECT_EQ(c.baseline_fanout, e.baseline_fanout);
  EXPECT_EQ(c.audit_confidentiality, e.audit_confidentiality);
  EXPECT_EQ(c.min_drain, e.min_drain);
  EXPECT_EQ(c.faults, e.faults);

  EXPECT_EQ(g.label, f.label);
  EXPECT_EQ(g.reason, f.reason);
  EXPECT_EQ(g.round_deliveries, f.round_deliveries);
  EXPECT_EQ(g.trace_hash, f.trace_hash);
  EXPECT_EQ(g.total_messages, f.total_messages);
  EXPECT_EQ(g.total_bytes, f.total_bytes);
  EXPECT_EQ(g.injected, f.injected);
  EXPECT_EQ(g.crashes, f.crashes);
  EXPECT_EQ(g.restarts, f.restarts);
  EXPECT_EQ(g.leaks, f.leaks);
  EXPECT_EQ(g.foreign_fragments, f.foreign_fragments);
  EXPECT_EQ(g.qod_delivered_on_time, f.qod_delivered_on_time);
  EXPECT_EQ(g.qod_late, f.qod_late);
  EXPECT_EQ(g.qod_missing, f.qod_missing);
  EXPECT_EQ(g.qod_data_mismatches, f.qod_data_mismatches);
  for (std::size_t k = 0; k < sim::kNumFaultKinds; ++k) {
    EXPECT_EQ(g.faults_by_kind[k], f.faults_by_kind[k]) << "kind " << k;
  }
  EXPECT_EQ(g.duplicates_suppressed, f.duplicates_suppressed);
  EXPECT_EQ(g.wire_codec_version, f.wire_codec_version);
}

TEST(ReproFile, AcceptsVersion1Artifacts) {
  // A byte-exact v1 artifact (written before the fault layer existed): the
  // v2 decoder must accept it, defaulting the fault plan to "off" and the
  // fault counters to zero. This pins the v1 wire layout - if decode's
  // backward-compatibility path regresses, this is the test that fires.
  ByteWriter w;
  w.u32(replay::kReproMagic);
  w.u32(1);  // version 1
  // config (v1 layout: everything up to min_drain, nothing after)
  w.u64(8);               // n
  w.u64(5);               // seed
  w.i64(32);              // rounds
  w.u8(0);                // protocol = kCongos
  w.u32(1);               // congos.tau
  w.f64(1.0);             // congos.partition_c
  w.f64(48.0);            // congos.fanout_exponent
  w.f64(1.0);             // congos.fanout_c
  w.u32(2);               // congos.gossip_fanout
  w.u8(0);                // congos.gossip_strategy
  w.i64(48);              // congos.direct_threshold
  w.i64(1024);            // congos.max_effective_deadline
  w.f64(2.0 / 3.0);       // congos.gd_alive_factor
  w.boolean(true);        // congos.allow_degenerate
  w.u64(7);               // congos.partition_seed
  w.u8(1);                // workload = kContinuous
  w.f64(0.02);            // continuous.inject_prob
  w.u64(2);               // continuous.dest_min
  w.u64(8);               // continuous.dest_max
  w.vec_i64({64});        // continuous.deadlines
  w.u64(16);              // continuous.payload_len
  w.i64(-1);              // continuous.last_injection_round
  w.boolean(false);       // continuous.opaque_ids
  w.f64(4.0);             // theorem1.x
  w.i64(64);              // theorem1.dmax
  w.u64(16);              // theorem1.payload_len
  w.boolean(false);       // no churn
  w.boolean(false);       // no crash_on_service
  w.boolean(false);       // no crash_senders
  w.i64(0);               // measure_from
  w.f64(0.0);             // lazy_fraction
  w.u32(3);               // baseline_fanout
  w.boolean(true);        // audit_confidentiality
  w.i64(0);               // min_drain
  // trailer (v1 layout: no fault counters)
  w.str("v1-artifact");
  w.str("compat pin");
  w.u64(0);               // decisions
  w.vec_u64({1, 2, 3});   // round_deliveries
  w.u64(0xABCD);          // trace_hash
  w.u64(10);              // total_messages
  w.u64(100);             // total_bytes
  w.u64(1);               // injected
  w.u64(0);               // crashes
  w.u64(0);               // restarts
  w.u64(0);               // leaks
  w.u64(0);               // foreign_fragments
  w.u64(1);               // qod_delivered_on_time
  w.u64(0);               // qod_late
  w.u64(0);               // qod_missing
  w.u64(0);               // qod_data_mismatches
  w.str("");              // trace_tail
  auto bytes = w.take();
  const std::uint64_t sum = fnv1a(bytes.data(), bytes.size());
  for (int b = 0; b < 8; ++b) {
    bytes.push_back(static_cast<std::uint8_t>(sum >> (8 * b)));
  }

  ReproFile out;
  std::string error;
  ASSERT_TRUE(replay::decode(bytes, &out, &error)) << error;
  EXPECT_EQ(out.config.n, 8u);
  EXPECT_EQ(out.config.rounds, 32);
  EXPECT_EQ(out.label, "v1-artifact");
  EXPECT_EQ(out.round_deliveries, (std::vector<std::uint64_t>{1, 2, 3}));
  // The v2 fields default to "fault layer off, nothing counted".
  EXPECT_FALSE(out.config.faults.enabled());
  EXPECT_EQ(out.config.faults, sim::FaultConfig{});
  EXPECT_FALSE(out.config.congos.retransmit.enabled);
  for (std::size_t k = 0; k < sim::kNumFaultKinds; ++k) {
    EXPECT_EQ(out.faults_by_kind[k], 0u);
  }
  EXPECT_EQ(out.duplicates_suppressed, 0u);
  // ...and the v3 field to "pre-codec".
  EXPECT_EQ(out.wire_codec_version, 0u);
}

/// A byte-exact version 3 artifact, the last layout that stored the
/// adversary decision trace and a rendered trace tail. `n_decisions`
/// overrides the stored decision count (the records themselves are always
/// the two below).
std::vector<std::uint8_t> version3_artifact(std::uint64_t n_decisions = 2) {
  ByteWriter w;
  w.u32(replay::kReproMagic);
  w.u32(3);  // version 3
  // config: the v1 fields, then the v2 fault plan and retransmission knobs
  w.u64(16);              // n
  w.u64(9);               // seed
  w.i64(48);              // rounds
  w.u8(0);                // protocol = kCongos
  w.u32(2);               // congos.tau
  w.f64(1.5);             // congos.partition_c
  w.f64(48.0);            // congos.fanout_exponent
  w.f64(1.0);             // congos.fanout_c
  w.u32(3);               // congos.gossip_fanout
  w.u8(2);                // congos.gossip_strategy = kPushPull
  w.i64(32);              // congos.direct_threshold
  w.i64(1024);            // congos.max_effective_deadline
  w.f64(2.0 / 3.0);       // congos.gd_alive_factor
  w.boolean(false);       // congos.allow_degenerate
  w.u64(11);              // congos.partition_seed
  w.u8(1);                // workload = kContinuous
  w.f64(0.04);            // continuous.inject_prob
  w.u64(2);               // continuous.dest_min
  w.u64(6);               // continuous.dest_max
  w.vec_i64({40, 80});    // continuous.deadlines
  w.u64(16);              // continuous.payload_len
  w.i64(-1);              // continuous.last_injection_round
  w.boolean(false);       // continuous.opaque_ids
  w.f64(4.0);             // theorem1.x
  w.i64(64);              // theorem1.dmax
  w.u64(16);              // theorem1.payload_len
  w.boolean(true);        // churn
  w.f64(0.02);            //   crash_prob
  w.f64(0.1);             //   restart_prob
  w.u64(4);               //   min_alive
  w.vec_u32({0, 1});      //   protected_ids
  w.boolean(false);       // no crash_on_service
  w.boolean(false);       // no crash_senders
  w.i64(16);              // measure_from
  w.f64(0.25);            // lazy_fraction
  w.u32(3);               // baseline_fanout
  w.boolean(true);        // audit_confidentiality
  w.i64(0);               // min_drain
  w.f64(0.05);            // faults.drop_rate
  w.f64(0.0);             // faults.dup_rate
  w.f64(0.2);             // faults.delay_rate
  w.i64(2);               // faults.max_delay
  w.i64(0);               // faults.partition_period
  w.i64(0);               // faults.partition_duration
  w.u64(77);              // faults.seed
  w.boolean(true);        // retransmit.enabled
  w.u32(4);               // retransmit.budget
  w.i64(2);               // retransmit.max_link_delay
  // trailer
  w.str("v3-artifact");
  w.str("decision trace pin");
  w.u64(n_decisions);
  // decision: round, kind, process, policy, rumor source, seq, |D|, deadline
  w.i64(3); w.u8(0); w.u32(7); w.u8(1); w.u32(0); w.u64(0); w.u64(0); w.i64(0);
  w.i64(5); w.u8(2); w.u32(2); w.u8(0); w.u32(2); w.u64(1); w.u64(4); w.i64(40);
  w.vec_u64({4, 0, 9});   // round_deliveries
  w.u64(0x1234);          // trace_hash
  for (std::uint64_t v : {500, 6000, 2, 1, 0, 0, 0, 5, 0, 0, 0}) {
    w.u64(v);             // total_messages .. qod_data_mismatches
  }
  for (std::uint64_t v : {3, 0, 8, 0}) w.u64(v);  // faults_by_kind
  w.u64(12);              // duplicates_suppressed
  w.u32(1);               // wire_codec_version
  w.str("  [3] crash   p7\n  [5] inject  p2 rumor (2,1) |D|=4\n");  // trace tail
  auto bytes = w.take();
  const std::uint64_t sum = fnv1a(bytes.data(), bytes.size());
  for (int b = 0; b < 8; ++b) {
    bytes.push_back(static_cast<std::uint8_t>(sum >> (8 * b)));
  }
  return bytes;
}

TEST(ReproFile, AcceptsVersion3ArtifactsWithDecisionsAndTail) {
  ReproFile out;
  std::string error;
  ASSERT_TRUE(replay::decode(version3_artifact(), &out, &error)) << error;
  EXPECT_EQ(out.label, "v3-artifact");
  EXPECT_EQ(out.reason, "decision trace pin");
  EXPECT_EQ(out.round_deliveries, (std::vector<std::uint64_t>{4, 0, 9}));
  EXPECT_EQ(out.trace_hash, 0x1234u);
  EXPECT_EQ(out.total_bytes, 6000u);
  EXPECT_EQ(out.crashes, 1u);
  EXPECT_EQ(out.qod_delivered_on_time, 5u);
  EXPECT_EQ(out.faults_by_kind[2], 8u);
  EXPECT_EQ(out.duplicates_suppressed, 12u);
  EXPECT_EQ(out.wire_codec_version, 1u);

  const ScenarioConfig& c = out.config;
  EXPECT_EQ(c.n, 16u);
  EXPECT_EQ(c.seed, 9u);
  EXPECT_EQ(c.congos.tau, 2u);
  EXPECT_EQ(c.congos.gossip_strategy, gossip::GossipStrategy::kPushPull);
  EXPECT_FALSE(c.congos.allow_degenerate);
  EXPECT_EQ(c.continuous.deadlines, (std::vector<std::int64_t>{40, 80}));
  ASSERT_TRUE(c.churn.has_value());
  EXPECT_EQ(c.churn->restart_prob, 0.1);
  EXPECT_EQ(c.churn->protected_ids, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(c.lazy_fraction, 0.25);
  EXPECT_EQ(c.faults.delay_rate, 0.2);
  EXPECT_EQ(c.faults.seed, 77u);
  EXPECT_TRUE(c.congos.retransmit.enabled);
  EXPECT_EQ(c.congos.retransmit.budget, 4);

  // Re-encoded, it is a version 4 artifact with the same config and
  // fingerprints.
  const auto v4 = replay::encode(out);
  EXPECT_EQ(v4[4], 4u);
  ReproFile again;
  ASSERT_TRUE(replay::decode(v4, &again, &error)) << error;
  EXPECT_EQ(replay::encode(again), v4);
  EXPECT_EQ(again.config.continuous.deadlines, c.continuous.deadlines);
  EXPECT_EQ(again.config.faults, c.faults);
  EXPECT_EQ(again.config.congos.retransmit, c.congos.retransmit);
  EXPECT_EQ(again.round_deliveries, out.round_deliveries);
  EXPECT_EQ(again.trace_hash, out.trace_hash);
}

TEST(ReproFile, RejectsVersion3DecisionCountsPastTheEnd) {
  // The skipped records are bounds-checked: a count the file cannot hold is
  // an error, not an out-of-range read.
  for (std::uint64_t count : {std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    ReproFile out;
    std::string error;
    EXPECT_FALSE(replay::decode(version3_artifact(count), &out, &error)) << count;
    EXPECT_NE(error.find("decision"), std::string::npos) << error;
  }
  // One record too many still fits, and shifts the rest out of shape.
  ReproFile out;
  EXPECT_FALSE(replay::decode(version3_artifact(3), &out));
}

TEST(ReproFile, RejectsCorruptionEverywhere) {
  const auto bytes = replay::encode(sample_file());
  // Flip one bit at a spread of positions; decode must fail every time
  // (magic, checksum or a bounds check catches it).
  for (std::size_t pos = 0; pos < bytes.size(); pos += 7) {
    auto copy = bytes;
    copy[pos] ^= 0x10;
    ReproFile out;
    EXPECT_FALSE(replay::decode(copy, &out))
        << "bit flip at byte " << pos << " was accepted";
  }
}

TEST(ReproFile, RejectsTruncation) {
  const auto bytes = replay::encode(sample_file());
  for (std::size_t len : {std::size_t{0}, std::size_t{4}, std::size_t{15},
                          bytes.size() / 2, bytes.size() - 1}) {
    std::vector<std::uint8_t> copy(bytes.begin(), bytes.begin() + len);
    ReproFile out;
    std::string error;
    EXPECT_FALSE(replay::decode(copy, &out, &error))
        << "truncation to " << len << " bytes was accepted";
  }
}

TEST(ReproFile, RejectsBadMagicAndVersion) {
  auto bytes = replay::encode(sample_file());
  {
    auto copy = bytes;
    copy[0] ^= 0xFF;
    ReproFile out;
    std::string error;
    EXPECT_FALSE(replay::decode(copy, &out, &error));
    EXPECT_NE(error.find("magic"), std::string::npos) << error;
  }
  {
    // Bump the version and re-stamp the trailing checksum so only the
    // version check can reject it.
    auto copy = bytes;
    copy[4] += 1;
    const std::size_t body = copy.size() - 8;
    const std::uint64_t sum = fnv1a(copy.data(), body);
    for (int b = 0; b < 8; ++b) {
      copy[body + b] = static_cast<std::uint8_t>(sum >> (8 * b));
    }
    ReproFile out;
    std::string error;
    EXPECT_FALSE(replay::decode(copy, &out, &error));
    EXPECT_NE(error.find("version"), std::string::npos) << error;
  }
}

/// A byte-exact version 1 artifact carrying both crash patterns, so its
/// mutants reach the enum bytes and protected-id lists of each.
std::vector<std::uint8_t> version1_artifact() {
  ByteWriter w;
  w.u32(replay::kReproMagic);
  w.u32(1);  // version 1
  w.u64(12);              // n
  w.u64(3);               // seed
  w.i64(40);              // rounds
  w.u8(1);                // protocol = kDirect
  w.u32(1);               // congos.tau
  w.f64(2.0);             // congos.partition_c
  w.f64(6.0);             // congos.fanout_exponent
  w.f64(1.0);             // congos.fanout_c
  w.u32(3);               // congos.gossip_fanout
  w.u8(1);                // congos.gossip_strategy = kExpander
  w.i64(32);              // congos.direct_threshold
  w.i64(1024);            // congos.max_effective_deadline
  w.f64(2.0 / 3.0);       // congos.gd_alive_factor
  w.boolean(true);        // congos.allow_degenerate
  w.u64(5);               // congos.partition_seed
  w.u8(2);                // workload = kTheorem1
  w.f64(0.02);            // continuous.inject_prob
  w.u64(2);               // continuous.dest_min
  w.u64(8);               // continuous.dest_max
  w.vec_i64({64, 32});    // continuous.deadlines
  w.u64(16);              // continuous.payload_len
  w.i64(-1);              // continuous.last_injection_round
  w.boolean(false);       // continuous.opaque_ids
  w.f64(3.0);             // theorem1.x
  w.i64(48);              // theorem1.dmax
  w.u64(8);               // theorem1.payload_len
  w.boolean(false);       // no churn
  w.boolean(true);        // crash_on_service
  w.u8(2);                //   target = kProxy
  w.u64(4);               //   per_round_budget
  w.u64(100);             //   total_budget
  w.u64(2);               //   min_alive
  w.vec_u32({5});         //   protected_ids
  w.i64(8);               //   restart_after
  w.boolean(true);        // crash_senders
  w.u8(3);                //   target = kGroupDistribution
  w.u64(2);               //   per_round_budget
  w.u64(20);              //   total_budget
  w.u64(3);               //   min_alive
  w.vec_u32({0, 6});      //   protected_ids
  w.u8(2);                //   delivery = kRandom
  w.i64(8);               // measure_from
  w.f64(0.0);             // lazy_fraction
  w.u32(3);               // baseline_fanout
  w.boolean(true);        // audit_confidentiality
  w.i64(0);               // min_drain
  w.str("v1-fuzz");
  w.str("crash patterns");
  w.u64(0);               // decisions
  w.vec_u64({2, 2});      // round_deliveries
  for (std::uint64_t v : {0x99, 40, 900, 3, 2, 1, 0, 0, 3, 0, 0, 0}) {
    w.u64(v);             // trace_hash, total_messages .. qod_data_mismatches
  }
  w.str("  [4] crash   p2\n");  // trace tail
  auto bytes = w.take();
  const std::uint64_t sum = fnv1a(bytes.data(), bytes.size());
  for (int b = 0; b < 8; ++b) {
    bytes.push_back(static_cast<std::uint8_t>(sum >> (8 * b)));
  }
  return bytes;
}

/// Encoded bytes a decoded file holds in variable-length fields; a reader
/// that sized a buffer from a hostile length before its bounds check would
/// exceed the input here (or die allocating first).
std::size_t variable_bytes(const ReproFile& f) {
  std::size_t bytes = f.label.size() + f.reason.size() + 8 * f.round_deliveries.size() +
                      8 * f.config.continuous.deadlines.size();
  if (f.config.churn) bytes += 4 * f.config.churn->protected_ids.size();
  if (f.config.crash_on_service) bytes += 4 * f.config.crash_on_service->protected_ids.size();
  if (f.config.crash_senders) bytes += 4 * f.config.crash_senders->protected_ids.size();
  return bytes;
}

/// Every enum of a decoded config names a defined value: decode() must
/// reject an out-of-range enum byte rather than pass it on.
bool enums_in_range(const ScenarioConfig& c) {
  const auto le = [](auto v, auto max) {
    return static_cast<int>(v) <= static_cast<int>(max);
  };
  return le(c.protocol, Protocol::kPlainGossip) &&
         le(c.workload, harness::WorkloadKind::kTheorem1) &&
         le(c.congos.gossip_strategy, gossip::GossipStrategy::kPushPull) &&
         (!c.crash_on_service || le(c.crash_on_service->target, sim::ServiceKind::kOther)) &&
         (!c.crash_senders || (le(c.crash_senders->target, sim::ServiceKind::kOther) &&
                               le(c.crash_senders->delivery, sim::PartialDelivery::kRandom)));
}

// Bit flips alone never get past the whole-file checksum, so the field
// readers see hostile bytes only if the mutant's checksum is repaired. Each
// such mutant of a version 1, 3 or 4 artifact must decode or fail with an
// error; one that decodes must survive a version 4 round trip unchanged.
TEST(ReproFuzz, MutatedArtifactsFailCleanly) {
  const std::vector<std::uint8_t> originals[] = {
      version1_artifact(), version3_artifact(), replay::encode(full_file())};
  constexpr std::size_t kMagicAndVersion = 8;
  const std::uint64_t extremes[] = {0, 1, 0xFF, std::uint64_t{1} << 40,
                                    ~std::uint64_t{0}, std::uint64_t{1} << 63};
  Rng rng(20261019);
  int decoded = 0;
  int rejected = 0;
  for (int it = 0; it < testutil::fuzz_iters(); ++it) {
    const std::vector<std::uint8_t>& original = originals[it % 3];
    std::vector<std::uint8_t> body(original.begin(), original.end() - 8);
    const std::size_t pos =
        kMagicAndVersion + rng.next_below(body.size() - kMagicAndVersion);
    switch (rng.next_below(5)) {
      case 0:  // flip a few bits
        for (std::int64_t k = rng.uniform_int(1, 4); k > 0; --k) {
          body[kMagicAndVersion + rng.next_below(body.size() - kMagicAndVersion)] ^=
              static_cast<std::uint8_t>(1u << rng.next_below(8));
        }
        break;
      case 1:  // one random byte, e.g. an enum or flag out of range
        body[pos] = static_cast<std::uint8_t>(rng.next_below(256));
        break;
      case 2: {  // an extreme value over what may be a length prefix
        const std::uint64_t v = extremes[rng.next_below(std::size(extremes))];
        for (std::size_t b = 0; b < 8 && pos + b < body.size(); ++b) {
          body[pos + b] = static_cast<std::uint8_t>(v >> (8 * b));
        }
        break;
      }
      case 3:  // truncate
        body.resize(pos);
        break;
      default:  // drop a run of bytes, shifting every later field
        body.erase(body.begin() + static_cast<std::ptrdiff_t>(pos),
                   body.begin() + static_cast<std::ptrdiff_t>(
                                      std::min(body.size(), pos + 1 + rng.next_below(12))));
        break;
    }
    const std::uint64_t sum = fnv1a(body.data(), body.size());
    for (int b = 0; b < 8; ++b) body.push_back(static_cast<std::uint8_t>(sum >> (8 * b)));

    ReproFile out;
    std::string error;
    if (!replay::decode(body, &out, &error)) {
      EXPECT_FALSE(error.empty()) << "iteration " << it;
      ++rejected;
      continue;
    }
    ++decoded;
    EXPECT_LE(variable_bytes(out), body.size()) << "iteration " << it;
    EXPECT_TRUE(enums_in_range(out.config)) << "iteration " << it;
    const auto reencoded = replay::encode(out);
    ReproFile again;
    ASSERT_TRUE(replay::decode(reencoded, &again, &error)) << "iteration " << it << ": " << error;
    EXPECT_EQ(replay::encode(again), reencoded) << "iteration " << it;
  }
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

TEST(ReproFile, Recordability) {
  ScenarioConfig cfg;
  std::string why;
  EXPECT_TRUE(replay::is_recordable(cfg, &why)) << why;

  ScenarioConfig with_gen = cfg;
  with_gen.continuous.dest_gen = [](sim::Engine&, ProcessId) {
    return DynamicBitset(4);
  };
  EXPECT_FALSE(replay::is_recordable(with_gen, &why));

  adversary::OneShot extra({});
  ScenarioConfig with_adv = cfg;
  with_adv.extra_adversaries.push_back(&extra);
  EXPECT_FALSE(replay::is_recordable(with_adv));

  // Observers are passive: they never block recording.
  sim::TraceLog trace;
  ScenarioConfig with_obs = cfg;
  with_obs.extra_observers.push_back(&trace);
  EXPECT_TRUE(replay::is_recordable(with_obs, &why)) << why;
}

// ---------------------------------------------------------------------------
// Recorded runs and replay

ScenarioConfig small_config(std::uint64_t seed, Protocol proto) {
  ScenarioConfig cfg;
  cfg.protocol = proto;
  cfg.n = 16;
  cfg.seed = seed;
  cfg.rounds = 64;
  cfg.continuous.inject_prob = 0.05;
  cfg.continuous.deadlines = {32};
  cfg.churn = adversary::RandomChurn::Options{};
  cfg.churn->crash_prob = 0.01;
  cfg.churn->restart_prob = 0.05;
  cfg.churn->min_alive = 4;
  return cfg;
}

TEST(RecordedRun, ObserversArePassive) {
  const ScenarioConfig cfg = small_config(7, Protocol::kCongos);
  const ScenarioResult plain = harness::run_scenario(cfg);
  const auto recorded = harness::run_recorded(cfg, "test", "passivity");

  EXPECT_EQ(plain.total_messages, recorded.result.total_messages);
  EXPECT_EQ(plain.total_bytes, recorded.result.total_bytes);
  EXPECT_EQ(plain.injected, recorded.result.injected);
  EXPECT_EQ(plain.crashes, recorded.result.crashes);
  EXPECT_EQ(plain.qod.delivered_on_time, recorded.result.qod.delivered_on_time);
  EXPECT_EQ(plain.leaks, recorded.result.leaks);
  EXPECT_GT(recorded.trace.event_count(), 0u);
  EXPECT_EQ(recorded.trace.round_deliveries(), recorded.repro.round_deliveries);
  EXPECT_EQ(recorded.trace.trace_hash(), recorded.repro.trace_hash);
}

// The headline property: write -> read -> re-run reproduces the identical
// ScenarioResult and the identical golden trace hash, across a seed grid and
// across protocols.
TEST(Replay, ByteIdenticalAcrossSeedGrid) {
  for (Protocol proto : {Protocol::kCongos, Protocol::kPlainGossip}) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 20260805ull}) {
      SCOPED_TRACE(std::string(harness::to_string(proto)) + " seed " +
                   std::to_string(seed));
      const ScenarioConfig cfg = small_config(seed, proto);
      const auto recorded = harness::run_recorded(cfg, "grid", "property test");

      // Through the full serialization path, not just in-memory.
      const auto bytes = replay::encode(recorded.repro);
      ReproFile loaded;
      std::string error;
      ASSERT_TRUE(replay::decode(bytes, &loaded, &error)) << error;

      const harness::ReplayReport report = harness::replay_file(loaded);
      EXPECT_TRUE(report.complete);
      EXPECT_TRUE(report.verified());
      EXPECT_EQ(report.trace_hash, recorded.repro.trace_hash);
      EXPECT_EQ(report.result.total_messages, recorded.result.total_messages);
      EXPECT_EQ(report.result.total_bytes, recorded.result.total_bytes);
      EXPECT_EQ(report.result.injected, recorded.result.injected);
      EXPECT_EQ(report.result.crashes, recorded.result.crashes);
      EXPECT_EQ(report.result.restarts, recorded.result.restarts);
      EXPECT_EQ(report.result.leaks, recorded.result.leaks);
      EXPECT_EQ(report.result.qod.delivered_on_time,
                recorded.result.qod.delivered_on_time);
      EXPECT_EQ(report.result.qod.missing, recorded.result.qod.missing);
    }
  }
}

TEST(Replay, PrefixReplayVerifiesPrefix) {
  const ScenarioConfig cfg = small_config(11, Protocol::kCongos);
  const auto recorded = harness::run_recorded(cfg);

  harness::ReplayOptions opt;
  opt.until_round = 24;
  const auto report = harness::replay_file(recorded.repro, opt);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.executed_rounds, 24);
  EXPECT_TRUE(report.counts_match);
  EXPECT_TRUE(report.summary_diffs.empty());
  EXPECT_TRUE(report.verified());
}

TEST(Replay, DetectsTamperedObservations) {
  const ScenarioConfig cfg = small_config(13, Protocol::kCongos);
  auto recorded = harness::run_recorded(cfg);

  // Tamper with a mid-run count: the replay itself still executes fine but
  // verification must pinpoint the divergence.
  ASSERT_GT(recorded.repro.round_deliveries.size(), 10u);
  recorded.repro.round_deliveries[10] += 1;
  recorded.repro.trace_hash ^= 1;  // keep hash_match from masking the count
  const auto report = harness::replay_file(recorded.repro);
  EXPECT_FALSE(report.verified());
  EXPECT_FALSE(report.counts_match);
  EXPECT_EQ(report.first_count_divergence, 10);
}

TEST(Replay, DetectsTamperedSummary) {
  // The per-round counts and their hash are intact; only a stored result
  // field disagrees with the re-execution.
  const ScenarioConfig cfg = small_config(13, Protocol::kCongos);
  const auto recorded = harness::run_recorded(cfg);
  ASSERT_GT(recorded.repro.crashes, 0u);
  ASSERT_GT(recorded.repro.injected, 0u);
  for (const char* field : {"crashes", "injected"}) {
    SCOPED_TRACE(field);
    ReproFile tampered = recorded.repro;
    (std::string(field) == "crashes" ? tampered.crashes : tampered.injected) -= 1;
    const auto report = harness::replay_file(tampered);
    EXPECT_TRUE(report.complete);
    EXPECT_TRUE(report.counts_match);
    EXPECT_TRUE(report.hash_match);
    EXPECT_FALSE(report.verified());
    ASSERT_EQ(report.summary_diffs.size(), 1u);
    EXPECT_EQ(report.summary_diffs[0].rfind(field, 0), 0u) << report.summary_diffs[0];
  }
}

TEST(Replay, TotalBytesComparedOnlyUnderTheSameWireCodec) {
  const ScenarioConfig cfg = small_config(19, Protocol::kCongos);
  auto recorded = harness::run_recorded(cfg);
  recorded.repro.total_bytes += 1;
  EXPECT_FALSE(harness::replay_file(recorded.repro).verified());
  // Byte totals of another codec version are not comparable.
  recorded.repro.wire_codec_version = 0;
  EXPECT_TRUE(harness::replay_file(recorded.repro).verified());
}

TEST(Replay, ScheduleListsTheLiveRunsEvents) {
  // congos_replay --schedule re-executes the artifact into a TraceLog and
  // prints write_schedule(); every line must carry the fields of the same
  // event of a live run of the config.
  const ScenarioConfig cfg = small_config(31, Protocol::kCongos);
  sim::TraceLog live(kLifecycleOnly);
  ScenarioConfig observed = cfg;
  observed.extra_observers.push_back(&live);
  harness::run_scenario(observed);

  const auto recorded = harness::run_recorded(cfg, "schedule", "schedule test");
  ReproFile loaded;
  std::string error;
  ASSERT_TRUE(replay::decode(replay::encode(recorded.repro), &loaded, &error)) << error;
  sim::TraceLog trace(kLifecycleOnly);
  ASSERT_TRUE(harness::replay_file(loaded, {}, &trace).verified());
  std::ostringstream os;
  trace.write_schedule(os);

  std::istringstream in(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "# " + std::to_string(live.event_count()) + " lifecycle events");
  std::size_t i = 0;
  std::size_t kinds_seen[3] = {};
  for (; std::getline(in, line); ++i) {
    SCOPED_TRACE(line);
    ASSERT_LT(i, live.event_count());
    const sim::TraceLog::Event& e = live.events()[i];
    long long round = -1;
    char kind[8] = {};
    unsigned process = 0;
    ASSERT_EQ(std::sscanf(line.c_str(), "round %lld %7s p%u", &round, kind, &process), 3);
    EXPECT_EQ(round, e.when);
    EXPECT_EQ(process, e.process);
    const char* rest = line.c_str() + line.find(' ', line.find(" p") + 1);
    if (std::string(kind) == "inject") {
      ASSERT_EQ(e.kind, sim::TraceLog::Kind::kInject);
      unsigned source = 0;
      unsigned long long seq = 0, dests = 0;
      long long deadline = 0;
      ASSERT_EQ(std::sscanf(rest, " rumor=%u/%llu dests=%llu deadline=%lld", &source,
                            &seq, &dests, &deadline),
                4);
      EXPECT_EQ(source, e.rumor.source);
      EXPECT_EQ(seq, e.rumor.seq);
      EXPECT_EQ(dests, e.dest);
      EXPECT_EQ(deadline, e.deadline);
      ++kinds_seen[2];
    } else {
      ASSERT_EQ(e.kind, std::string(kind) == "crash" ? sim::TraceLog::Kind::kCrash
                                                     : sim::TraceLog::Kind::kRestart);
      int policy = -1;
      ASSERT_EQ(std::sscanf(rest, " policy=%d", &policy), 1);
      EXPECT_EQ(policy, static_cast<int>(e.policy));
      ++kinds_seen[e.kind == sim::TraceLog::Kind::kCrash ? 0 : 1];
    }
  }
  EXPECT_EQ(i, live.event_count());
  for (std::size_t seen : kinds_seen) EXPECT_GT(seen, 0u);
}

TEST(Replay, FileRoundTripThroughDisk) {
  const ScenarioConfig cfg = small_config(17, Protocol::kCongos);
  const auto recorded = harness::run_recorded(cfg, "disk", "io round trip");

  const std::string path = ::testing::TempDir() + "/replay_io_test.repro";
  ASSERT_TRUE(replay::write_file(path, recorded.repro));
  ReproFile loaded;
  std::string error;
  ASSERT_TRUE(replay::read_file(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.trace_hash, recorded.repro.trace_hash);
  EXPECT_EQ(loaded.round_deliveries, recorded.repro.round_deliveries);
  EXPECT_EQ(loaded.crashes, recorded.repro.crashes);
  std::remove(path.c_str());

  EXPECT_FALSE(replay::read_file(path + ".missing", &loaded, &error));
}

TEST(Replay, ReadErrorIsReportedAsIoNotAsDamage) {
  // A directory opens for reading but every read fails: that is an I/O
  // error, not a short or corrupted artifact.
  ReproFile loaded;
  std::string error;
  EXPECT_FALSE(replay::read_file(::testing::TempDir(), &loaded, &error));
  EXPECT_NE(error.find("cannot read"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Sweep artifact dumping

TEST(SweepArtifacts, FailingScenarioEmitsLoadableRepro) {
  // Plain gossip floods rumors to non-destinations, so the confidentiality
  // auditor always flags it: every grid entry fails and dumps an artifact.
  std::vector<ScenarioConfig> grid;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    grid.push_back(small_config(seed, Protocol::kPlainGossip));
  }
  // And one healthy scenario that must NOT produce an artifact.
  grid.push_back(small_config(4, Protocol::kCongos));

  const std::string dir = ::testing::TempDir() + "/repro_artifacts";
  harness::SweepRunner::Options opts;
  opts.threads = 2;  // exercise the pooled path
  opts.progress = false;
  opts.label = "leaktest";
  opts.artifact_dir = dir.c_str();
  harness::SweepRunner runner(opts);

  const auto results = runner.run(grid);
  ASSERT_EQ(results.size(), grid.size());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(harness::scenario_failed(results[i])) << "grid entry " << i;
  }
  EXPECT_FALSE(harness::scenario_failed(results[3]));
  ASSERT_EQ(runner.artifacts().size(), 3u);

  // Every artifact loads and replays verified.
  for (const std::string& path : runner.artifacts()) {
    SCOPED_TRACE(path);
    ReproFile loaded;
    std::string error;
    ASSERT_TRUE(replay::read_file(path, &loaded, &error)) << error;
    EXPECT_EQ(loaded.label, "leaktest");
    EXPECT_GT(loaded.leaks, 0u);
    const auto report = harness::replay_file(loaded);
    EXPECT_TRUE(report.verified());
    EXPECT_EQ(report.result.leaks, loaded.leaks);
    std::remove(path.c_str());
  }
}

TEST(SweepArtifacts, EmptyDirDisablesDumping) {
  std::vector<ScenarioConfig> grid = {small_config(1, Protocol::kPlainGossip)};
  harness::SweepRunner::Options opts;
  opts.progress = false;
  opts.artifact_dir = "";  // explicit off, regardless of CONGOS_REPRO_DIR
  harness::SweepRunner runner(opts);
  const auto results = runner.run(grid);
  EXPECT_TRUE(harness::scenario_failed(results[0]));
  EXPECT_TRUE(runner.artifacts().empty());
}

// ---------------------------------------------------------------------------
// Rewinds. Rewinding is re-execution: "rewind to round R" means re-running the
// config to R (DESIGN.md section 7). A run stopped at R and then finished must
// be indistinguishable from an uninterrupted one, and a prefix replay to R must
// verify.

/// Stops a fresh run of `cfg` at its midpoint, finishes it, and checks the
/// whole run and a prefix replay to the midpoint against `recorded`.
void expect_stop_and_resume_matches(const ScenarioConfig& cfg,
                                    const harness::RecordedRun& recorded) {
  sim::TraceLog rec(kLifecycleOnly);
  ScenarioConfig observed = cfg;
  observed.extra_observers.push_back(&rec);
  harness::ScenarioRun run(observed);
  const Round mid = run.total_rounds() / 2;
  run.run_until(mid);
  ASSERT_EQ(run.engine().now(), mid);
  ASSERT_FALSE(run.finished());
  run.run_all();
  ASSERT_TRUE(run.finished());
  EXPECT_EQ(rec.round_deliveries(), recorded.repro.round_deliveries);
  EXPECT_EQ(rec.events(), recorded.trace.events());
  EXPECT_EQ(rec.trace_hash(), recorded.repro.trace_hash);
  EXPECT_EQ(run.engine().stats().fault_total(), recorded.result.fault_total);

  harness::ReplayOptions opt;
  opt.until_round = mid;
  const auto report = harness::replay_file(recorded.repro, opt);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.executed_rounds, mid);
  EXPECT_TRUE(report.verified());
}

TEST(Checkpoint, RewindReproducesTheTail) {
  const ScenarioConfig cfg = small_config(23, Protocol::kCongos);
  const auto recorded = harness::run_recorded(cfg);
  EXPECT_EQ(recorded.result.fault_total, 0u);
  expect_stop_and_resume_matches(cfg, recorded);
}

TEST(Checkpoint, RestoreCanRepeat) {
  // Rewinding to the same round twice replays the same tail both times.
  const ScenarioConfig cfg = small_config(29, Protocol::kCongos);
  const auto recorded = harness::run_recorded(cfg);
  ASSERT_GE(recorded.repro.round_deliveries.size(), 40u);
  const std::vector<std::uint64_t> expected(
      recorded.repro.round_deliveries.begin() + 20,
      recorded.repro.round_deliveries.begin() + 40);

  std::vector<std::vector<std::uint64_t>> tails;
  for (int rewind = 0; rewind < 2; ++rewind) {
    sim::TraceLog rec(kLifecycleOnly);
    ScenarioConfig observed = cfg;
    observed.extra_observers.push_back(&rec);
    harness::ScenarioRun run(observed);
    run.run_until(20);
    ASSERT_EQ(run.engine().now(), 20);
    run.run_until(40);
    const auto& all = rec.round_deliveries();
    ASSERT_EQ(all.size(), 40u);
    tails.emplace_back(all.begin() + 20, all.end());
  }
  EXPECT_EQ(tails[0], expected);
  EXPECT_EQ(tails[1], expected);
}

TEST(Checkpoint, RewindUnderFaultsReproducesTheTail) {
  // Under faults the state carried across the stop round includes the
  // in-flight delayed queue and the dedicated fault Rng; if either diverged,
  // the tail would deliver a different envelope stream.
  ScenarioConfig cfg = small_config(37, Protocol::kCongos);
  cfg.faults.drop_rate = 0.1;
  cfg.faults.dup_rate = 0.1;
  cfg.faults.delay_rate = 0.2;
  cfg.faults.max_delay = 2;
  cfg.congos.retransmit.enabled = true;
  cfg.congos.retransmit.max_link_delay = 2;

  const auto recorded = harness::run_recorded(cfg);
  EXPECT_GT(recorded.result.fault_total, 0u);
  expect_stop_and_resume_matches(cfg, recorded);
}

}  // namespace
}  // namespace congos
