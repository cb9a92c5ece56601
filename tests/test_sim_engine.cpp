#include "sim/engine.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace congos::sim {
namespace {

using testutil::LambdaAdversary;
using testutil::make_msg;
using testutil::make_system;
using testutil::ScriptedProcess;

TEST(Engine, SameRoundDelivery) {
  // Process 0 sends to 1 every round; 1 receives it in the same round.
  auto sys = make_system(2, 1, [](Round now, Sender& out, ScriptedProcess& self) {
    if (self.id() == 0) out.send(make_msg(0, 1, static_cast<int>(now)));
  });
  sys.engine->run(3);
  ASSERT_EQ(sys.procs[1]->received.size(), 3u);
  EXPECT_EQ(sys.procs[1]->count_value(0), 1);
  EXPECT_EQ(sys.procs[1]->count_value(2), 1);
  EXPECT_EQ(sys.procs[1]->last_receive_round, 2);
}

TEST(Engine, CrashedProcessNeitherSendsNorReceives) {
  auto sys = make_system(3, 2, [](Round, Sender& out, ScriptedProcess& self) {
    // Everyone sends to everyone.
    for (ProcessId q = 0; q < 3; ++q) {
      if (q != self.id()) out.send(make_msg(self.id(), q, 1));
    }
  });
  LambdaAdversary adv;
  adv.on_round_start = [](Engine& e) {
    if (e.now() == 1 && e.alive(2)) e.crash(2);
  };
  sys.engine->set_adversary(&adv);
  sys.engine->run(3);
  // Round 0: p2 alive -> 2 sends each, receives 2. Rounds 1,2: p2 dead.
  EXPECT_EQ(sys.procs[2]->send_phases, 1);
  EXPECT_EQ(sys.procs[2]->received.size(), 2u);
  // p0 got msgs from p1 every round + p2 only round 0.
  EXPECT_EQ(sys.procs[0]->received.size(), 3u + 1u);
  EXPECT_EQ(sys.engine->alive_count(), 2u);
}

TEST(Engine, CrashAfterSendsDropAll) {
  auto sys = make_system(2, 3, [](Round, Sender& out, ScriptedProcess& self) {
    if (self.id() == 0) out.send(make_msg(0, 1, 42));
  });
  LambdaAdversary adv;
  adv.on_after_sends = [](Engine& e) {
    if (e.now() == 0) e.crash(0, PartialDelivery::kDropAll);
  };
  sys.engine->set_adversary(&adv);
  sys.engine->run(1);
  EXPECT_EQ(sys.procs[1]->received.size(), 0u);
  // Sent messages still count towards message complexity (Definition 3).
  EXPECT_EQ(sys.engine->stats().total_sent(), 1u);
}

TEST(Engine, CrashAfterSendsDeliverAll) {
  auto sys = make_system(2, 4, [](Round, Sender& out, ScriptedProcess& self) {
    if (self.id() == 0) out.send(make_msg(0, 1, 42));
  });
  LambdaAdversary adv;
  adv.on_after_sends = [](Engine& e) {
    if (e.now() == 0) e.crash(0, PartialDelivery::kDeliverAll);
  };
  sys.engine->set_adversary(&adv);
  sys.engine->run(1);
  EXPECT_EQ(sys.procs[1]->received.size(), 1u);
}

TEST(Engine, CrashVictimDoesNotReceiveItsLastRound) {
  auto sys = make_system(2, 5, [](Round, Sender& out, ScriptedProcess& self) {
    if (self.id() == 1) out.send(make_msg(1, 0, 5));
  });
  LambdaAdversary adv;
  adv.on_after_sends = [](Engine& e) {
    if (e.now() == 0) e.crash(0, PartialDelivery::kDeliverAll);
  };
  sys.engine->set_adversary(&adv);
  sys.engine->run(1);
  EXPECT_EQ(sys.procs[0]->received.size(), 0u);
}

TEST(Engine, RestartResetsStateAndResumesParticipation) {
  auto sys = make_system(2, 6, [](Round, Sender& out, ScriptedProcess& self) {
    if (self.id() == 0) out.send(make_msg(0, 1, 9));
  });
  LambdaAdversary adv;
  adv.on_round_start = [](Engine& e) {
    if (e.now() == 1) e.crash(1);
    if (e.now() == 3) e.restart(1);
  };
  sys.engine->set_adversary(&adv);
  sys.engine->run(5);
  EXPECT_EQ(sys.procs[1]->restarts, 1);
  EXPECT_EQ(sys.procs[1]->last_restart, 3);
  // Received rounds 3,4 post-restart (round 0 wiped by on_restart clear).
  EXPECT_EQ(sys.procs[1]->received.size(), 2u);
  EXPECT_EQ(sys.engine->alive_since(1), 3);
}

TEST(Engine, AliveSinceTracksRestarts) {
  auto sys = make_system(2, 7);
  LambdaAdversary adv;
  adv.on_round_start = [](Engine& e) {
    if (e.now() == 2) e.crash(0);
    if (e.now() == 5) e.restart(0);
  };
  sys.engine->set_adversary(&adv);
  sys.engine->run(7);
  EXPECT_EQ(sys.engine->alive_since(0), 5);
  EXPECT_EQ(sys.engine->alive_since(1), 0);
}

TEST(Engine, InjectStampsRoundAndRoutes) {
  auto sys = make_system(2, 8);
  LambdaAdversary adv;
  adv.on_round_start = [](Engine& e) {
    if (e.now() == 4) {
      Rumor r = make_rumor(0, 1, {1, 2, 3}, 16, DynamicBitset(2));
      e.inject(0, std::move(r));
    }
  };
  sys.engine->set_adversary(&adv);
  sys.engine->run(5);
  ASSERT_EQ(sys.procs[0]->injected.size(), 1u);
  EXPECT_EQ(sys.procs[0]->injected[0].injected_at, 4);
  EXPECT_EQ(sys.procs[0]->injected[0].expires_at(), 20);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    auto sys = make_system(8, 77, [](Round, Sender& out, ScriptedProcess& self) {
      out.send(make_msg(self.id(), (self.id() + 1) % 8, 1));
    });
    LambdaAdversary adv;
    adv.on_round_start = [](Engine& e) {
      // Random churn from the engine's own rng: deterministic per seed.
      for (ProcessId p = 0; p < e.n(); ++p) {
        if (e.alive(p) && e.alive_count() > 2 && e.rng().chance(0.1)) e.crash(p);
      }
    };
    sys.engine->set_adversary(&adv);
    sys.engine->run(50);
    return std::make_pair(sys.engine->stats().total_sent(), sys.engine->alive_count());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, ObserversSeeLifecycleEvents) {
  struct Recorder final : ExecutionObserver {
    int crashes = 0, restarts = 0, injects = 0, rounds = 0, delivered = 0;
    void on_crash(ProcessId, Round, PartialDelivery) override { ++crashes; }
    void on_restart(ProcessId, Round, PartialDelivery) override { ++restarts; }
    void on_inject(const Rumor&, Round) override { ++injects; }
    void on_round_end(Round) override { ++rounds; }
    void on_envelope_delivered(const Envelope&, Round) override { ++delivered; }
  } rec;

  auto sys = make_system(2, 9, [](Round now, Sender& out, ScriptedProcess& self) {
    if (self.id() == 0 && now == 0) out.send(make_msg(0, 1, 1));
  });
  LambdaAdversary adv;
  adv.on_round_start = [](Engine& e) {
    if (e.now() == 1) e.crash(1);
    if (e.now() == 2) e.restart(1);
    if (e.now() == 3) {
      e.inject(0, make_rumor(0, 1, {1}, 8, DynamicBitset(2)));
    }
  };
  sys.engine->set_adversary(&adv);
  sys.engine->add_observer(&rec);
  sys.engine->run(4);
  EXPECT_EQ(rec.crashes, 1);
  EXPECT_EQ(rec.restarts, 1);
  EXPECT_EQ(rec.injects, 1);
  EXPECT_EQ(rec.rounds, 4);
  EXPECT_EQ(rec.delivered, 1);
}

TEST(Engine, CrashAtRoundEndTakesEffectNextRound) {
  // Phase-C crash: the victim completed this round's receive, but must not
  // participate in the next round.
  auto sys = make_system(2, 14, [](Round, Sender& out, ScriptedProcess& self) {
    if (self.id() == 0) out.send(make_msg(0, 1, 1));
  });
  LambdaAdversary adv;
  adv.on_round_end = [](Engine& e) {
    if (e.now() == 1) e.crash(1);
  };
  sys.engine->set_adversary(&adv);
  sys.engine->run(4);
  // Received rounds 0 and 1; dead for 2, 3.
  EXPECT_EQ(sys.procs[1]->received.size(), 2u);
  EXPECT_EQ(sys.procs[1]->send_phases, 2);
}

TEST(Engine, RestartRandomPolicyDropsSomeInbound) {
  // A restarting process may lose an adversary-chosen subset of the round's
  // inbound messages (Section 2). With kRandom and many messages, some but
  // not all should survive.
  auto sys = make_system(2, 15, [](Round now, Sender& out, ScriptedProcess& self) {
    if (self.id() == 0 && now == 5) {
      for (int i = 0; i < 600; ++i) out.send(make_msg(0, 1, i));
    }
  });
  LambdaAdversary adv;
  adv.on_round_start = [](Engine& e) {
    if (e.now() == 2) e.crash(1);
    if (e.now() == 5) e.restart(1, PartialDelivery::kRandom);
  };
  sys.engine->set_adversary(&adv);
  sys.engine->run(6);
  const auto got = sys.procs[1]->received.size();
  EXPECT_GT(got, 150u);
  EXPECT_LT(got, 450u);
}

TEST(Engine, RestartDeliverAllKeepsInbound) {
  auto sys = make_system(2, 16, [](Round now, Sender& out, ScriptedProcess& self) {
    if (self.id() == 0 && now == 5) out.send(make_msg(0, 1, 1));
  });
  LambdaAdversary adv;
  adv.on_round_start = [](Engine& e) {
    if (e.now() == 2) e.crash(1);
    if (e.now() == 5) e.restart(1, PartialDelivery::kDeliverAll);
  };
  sys.engine->set_adversary(&adv);
  sys.engine->run(6);
  EXPECT_EQ(sys.procs[1]->received.size(), 1u);
}

TEST(Engine, InjectedFlagsResetEachRound) {
  auto sys = make_system(2, 17);
  LambdaAdversary adv;
  adv.on_round_start = [](Engine& e) {
    EXPECT_FALSE(e.injected_this_round(0));
    if (e.now() < 3) {
      e.inject(0, make_rumor(0, static_cast<std::uint64_t>(e.now()) + 1, {1}, 8,
                             DynamicBitset(2)));
      EXPECT_TRUE(e.injected_this_round(0));
    }
    EXPECT_FALSE(e.lifecycle_event_this_round(1));
  };
  sys.engine->set_adversary(&adv);
  sys.engine->run(4);
  EXPECT_EQ(sys.procs[0]->injected.size(), 3u);
}

TEST(EngineDeath, DoubleLifecycleEventSameRound) {
  auto sys = make_system(2, 10);
  LambdaAdversary adv;
  adv.on_round_start = [](Engine& e) {
    if (e.now() == 0) {
      e.crash(0);
      e.restart(0);  // second lifecycle event in the same round: forbidden
    }
  };
  sys.engine->set_adversary(&adv);
  EXPECT_DEATH(sys.engine->run(1), "one crash/restart per process");
}

TEST(EngineDeath, DoubleInjectSameRound) {
  auto sys = make_system(2, 11);
  LambdaAdversary adv;
  adv.on_round_start = [](Engine& e) {
    if (e.now() == 0) {
      e.inject(0, make_rumor(0, 1, {1}, 8, DynamicBitset(2)));
      e.inject(0, make_rumor(0, 2, {1}, 8, DynamicBitset(2)));
    }
  };
  sys.engine->set_adversary(&adv);
  EXPECT_DEATH(sys.engine->run(1), "one rumor");
}

TEST(EngineDeath, InjectAtCrashedProcess) {
  auto sys = make_system(2, 12);
  LambdaAdversary adv;
  adv.on_round_start = [](Engine& e) {
    if (e.now() == 0) e.crash(0);
    if (e.now() == 1) e.inject(0, make_rumor(0, 1, {1}, 8, DynamicBitset(2)));
  };
  sys.engine->set_adversary(&adv);
  EXPECT_DEATH(sys.engine->run(2), "crashed");
}

TEST(EngineDeath, SpoofedSenderId) {
  auto sys = make_system(2, 13, [](Round, Sender& out, ScriptedProcess& self) {
    if (self.id() == 0) out.send(make_msg(1, 0, 1));  // lies about `from`
  });
  EXPECT_DEATH(sys.engine->run(1), "spoofed");
}

}  // namespace
}  // namespace congos::sim
