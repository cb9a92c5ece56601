#include "sim/trace.h"

#include <gtest/gtest.h>

#include <sstream>

#include "test_util.h"

namespace congos::sim {
namespace {

TEST(TraceLog, RecordsLifecycleEvents) {
  auto sys = testutil::make_system(4, 1,
                                   [](Round, Sender& out, testutil::ScriptedProcess& s) {
                                     if (s.id() == 0) out.send(testutil::make_msg(0, 1, 1));
                                   });
  TraceLog trace(TraceLog::Options{.record_deliveries = false});
  sys.engine->add_observer(&trace);
  testutil::LambdaAdversary adv;
  adv.on_round_start = [](Engine& e) {
    if (e.now() == 1) e.crash(2);
    if (e.now() == 2) e.restart(2);
    if (e.now() == 3) {
      e.inject(0, make_rumor(0, 1, {1, 2}, 16,
                             DynamicBitset::from_indices(4, {1, 3})));
    }
  };
  sys.engine->set_adversary(&adv);
  sys.engine->run(5);

  EXPECT_EQ(trace.total_events_seen(), 3u);
  std::ostringstream os;
  trace.dump(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("[1] crash   p2"), std::string::npos);
  EXPECT_NE(out.find("[2] restart p2"), std::string::npos);
  EXPECT_NE(out.find("[3] inject  p0 rumor (0,1) |D|=2"), std::string::npos);
  EXPECT_NE(out.find("deliveries/round"), std::string::npos);
}

TEST(TraceLog, RingBufferEvicts) {
  TraceLog trace(TraceLog::Options{.capacity = 3});
  for (Round t = 0; t < 10; ++t) {
    trace.on_crash(static_cast<ProcessId>(t % 4), t, PartialDelivery::kDropAll);
  }
  EXPECT_EQ(trace.event_count(), 3u);
  EXPECT_EQ(trace.total_events_seen(), 10u);
  std::ostringstream os;
  trace.dump(os);
  EXPECT_EQ(os.str().find("[6]"), std::string::npos);  // evicted
  EXPECT_NE(os.str().find("[9]"), std::string::npos);  // retained
}

TEST(TraceLog, DumpLimitsToLastN) {
  TraceLog trace;
  for (Round t = 0; t < 50; ++t) trace.on_crash(0, t, PartialDelivery::kDropAll);
  std::ostringstream os;
  trace.dump(os, 2);
  EXPECT_EQ(os.str().find("[47]"), std::string::npos);
  EXPECT_NE(os.str().find("[48]"), std::string::npos);
  EXPECT_NE(os.str().find("[49]"), std::string::npos);
}

TEST(TraceLog, RecordsDeliveriesWithServiceKind) {
  auto sys = testutil::make_system(
      3, 2, [](Round now, Sender& out, testutil::ScriptedProcess& s) {
        if (s.id() == 0 && now == 1) {
          out.send(testutil::make_msg(0, 1, 1, ServiceKind::kProxy));
        }
      });
  TraceLog trace;  // record_deliveries defaults to on
  sys.engine->add_observer(&trace);
  sys.engine->run(3);
  EXPECT_EQ(trace.total_events_seen(), 1u);
  const std::string out = trace.dump_string();
  EXPECT_NE(out.find("deliver p0 -> p1 [proxy]"), std::string::npos);
}

TEST(TraceLog, CountsDeliveriesPerRound) {
  auto sys = testutil::make_system(3, 2,
                                   [](Round now, Sender& out,
                                      testutil::ScriptedProcess& s) {
                                     if (s.id() == 0 && now == 1) {
                                       out.send(testutil::make_msg(0, 1, 1));
                                       out.send(testutil::make_msg(0, 2, 2));
                                     }
                                   });
  TraceLog trace;
  sys.engine->add_observer(&trace);
  sys.engine->run(3);
  std::ostringstream os;
  trace.dump(os);
  EXPECT_NE(os.str().find("0:0 1:2 2:0"), std::string::npos);
}

TEST(TraceLog, FoldsRoundCountsIntoTheGoldenHash) {
  auto sys = testutil::make_system(3, 2,
                                   [](Round now, Sender& out,
                                      testutil::ScriptedProcess& s) {
                                     if (s.id() == 0 && now % 2 == 1) {
                                       out.send(testutil::make_msg(0, 1, 1));
                                       out.send(testutil::make_msg(0, 2, 2));
                                     }
                                   });
  TraceLog trace(TraceLog::Options{.record_deliveries = false});
  sys.engine->add_observer(&trace);
  sys.engine->run(5);
  const std::vector<std::uint64_t> want = {0, 2, 0, 2, 0};
  EXPECT_EQ(trace.round_deliveries(), want);
  // The hash of the counts' little-endian bytes, folded as they arrive.
  std::vector<std::uint8_t> bytes;
  for (std::uint64_t c : want) {
    for (int b = 0; b < 8; ++b) bytes.push_back(static_cast<std::uint8_t>(c >> (8 * b)));
  }
  EXPECT_EQ(trace.trace_hash(), fnv1a(bytes.data(), bytes.size()));
  EXPECT_EQ(trace.event_count(), 0u);  // deliveries counted, not logged
}

TEST(TraceLog, LifecycleEventsCarryPolicyAndDeadline) {
  TraceLog trace;
  trace.on_crash(4, 7, PartialDelivery::kRandom);
  trace.on_restart(4, 9, PartialDelivery::kDropAll);
  trace.on_inject(make_rumor(2, 5, {1}, 48, DynamicBitset::from_indices(8, {1, 3, 6})),
                  11);
  ASSERT_EQ(trace.event_count(), 3u);
  const auto& ev = trace.events();
  EXPECT_EQ(ev[0].kind, TraceLog::Kind::kCrash);
  EXPECT_EQ(ev[0].policy, PartialDelivery::kRandom);
  EXPECT_EQ(ev[1].kind, TraceLog::Kind::kRestart);
  EXPECT_EQ(ev[1].policy, PartialDelivery::kDropAll);
  EXPECT_EQ(ev[2].kind, TraceLog::Kind::kInject);
  EXPECT_EQ(ev[2].when, 11);
  EXPECT_EQ(ev[2].process, 2u);
  EXPECT_EQ(ev[2].rumor, (RumorUid{2, 5}));
  EXPECT_EQ(ev[2].dest, 3u);
  EXPECT_EQ(ev[2].deadline, 48);

  std::ostringstream os;
  trace.write_schedule(os);
  EXPECT_EQ(os.str(),
            "# 3 lifecycle events\n"
            "round 7      crash   p4     policy=2\n"
            "round 9      restart p4     policy=1\n"
            "round 11     inject  p2     rumor=2/5 dests=3 deadline=48\n");
}

}  // namespace
}  // namespace congos::sim
