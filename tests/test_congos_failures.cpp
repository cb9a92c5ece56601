// Targeted failure injection at the protocol's structural weak points:
// whole-group kills (the reason log n partitions exist - Lemma 5), mass
// crashes down to two survivors, block-boundary harassment, and
// source-kills right after injection.
#include <gtest/gtest.h>

#include <map>

#include "adversary/patterns.h"
#include "audit/confidentiality.h"
#include "audit/qod.h"
#include "congos/congos_process.h"
#include "gossip/continuous_gossip.h"
#include "harness/scenario.h"
#include "sim/engine.h"

namespace congos {
namespace {

struct Rig {
  std::shared_ptr<const core::CongosConfig> cfg;
  std::shared_ptr<const partition::PartitionSet> partitions;
  std::unique_ptr<audit::DeliveryAuditor> qod;
  std::unique_ptr<audit::ConfidentialityAuditor> conf;
  std::unique_ptr<sim::Engine> engine;
};

Rig make_rig(std::size_t n, std::uint64_t seed) {
  Rig rig;
  core::CongosConfig ccfg;
  rig.cfg = std::make_shared<const core::CongosConfig>(ccfg);
  rig.partitions = core::CongosProcess::build_partitions(n, ccfg);
  rig.qod = std::make_unique<audit::DeliveryAuditor>(n);
  rig.conf = std::make_unique<audit::ConfidentialityAuditor>(n, rig.partitions.get());
  std::vector<std::unique_ptr<sim::Process>> procs;
  Rng seeder(seed);
  for (ProcessId p = 0; p < n; ++p) {
    procs.push_back(std::make_unique<core::CongosProcess>(p, rig.cfg, rig.partitions,
                                                          seeder.next(), rig.qod.get()));
  }
  rig.engine = std::make_unique<sim::Engine>(std::move(procs), seeder.next());
  rig.engine->add_observer(rig.qod.get());
  rig.engine->add_observer(rig.conf.get());
  return rig;
}

sim::Rumor rumor_between(std::size_t n, ProcessId src, std::vector<std::uint32_t> dest,
                         Round deadline) {
  auto r = sim::make_rumor(src, 1, adversary::canonical_payload({src, 1}, 16),
                           deadline, DynamicBitset::from_indices(n, dest));
  return r;
}

TEST(CongosFailures, TwoSurvivorsStillDeliver) {
  // Lemma 5's extreme: right after injection, everyone except the source
  // and the single destination is crashed. Some bit partition separates the
  // two survivors, and in the worst case the deadline fallback covers it -
  // either way QoD must hold.
  const std::size_t n = 16;
  auto rig = make_rig(n, 91);
  adversary::Composite adv;
  std::vector<adversary::OneShot::Item> items;
  items.push_back({4, rumor_between(n, 3, {12}, 64)});
  adv.add(std::make_unique<adversary::OneShot>(std::move(items)));
  DynamicBitset survivors(n);
  survivors.set(3);
  survivors.set(12);
  adv.add(std::make_unique<adversary::MassCrash>(6, survivors));
  rig.engine->set_adversary(&adv);
  rig.engine->run(80);

  EXPECT_EQ(rig.qod->delivery_round({3, 1}, 12) != kNoRound, true);
  const auto report = rig.qod->finalize(rig.engine->now());
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.admissible_pairs, 1u);
  EXPECT_EQ(rig.conf->leaks(), 0u);
}

TEST(CongosFailures, WholeGroupOfOnePartitionKilled) {
  // Kill every process in group 0 of partition 0 (all even ids) except none
  // of the rumor's endpoints (both odd): the remaining partitions must keep
  // the pipeline alive (this is exactly why there are log n partitions).
  const std::size_t n = 16;
  auto rig = make_rig(n, 92);
  adversary::Composite adv;
  std::vector<adversary::OneShot::Item> items;
  items.push_back({2, rumor_between(n, 1, {5, 13}, 64)});
  adv.add(std::make_unique<adversary::OneShot>(std::move(items)));
  std::vector<adversary::Scripted::Event> kills;
  for (ProcessId p = 0; p < n; p += 2) {
    kills.push_back({3, adversary::Scripted::Event::Kind::kCrash, p,
                     sim::PartialDelivery::kDropAll});
  }
  adv.add(std::make_unique<adversary::Scripted>(std::move(kills)));
  rig.engine->set_adversary(&adv);
  rig.engine->run(80);

  const auto report = rig.qod->finalize(rig.engine->now());
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.admissible_pairs, 2u);
  EXPECT_EQ(report.delivered_on_time, 2u);
  EXPECT_EQ(rig.conf->leaks(), 0u);
}

TEST(CongosFailures, BlockBoundaryHarassment) {
  // One process is crashed at every 16-round boundary and restarted 2
  // rounds later: it never accumulates the uptime the services need, so it
  // contributes nothing - but rumors between the *other* processes must be
  // unaffected, and rumors destined to it are simply not admissible.
  const std::size_t n = 16;
  auto rig = make_rig(n, 93);
  adversary::Composite adv;

  adversary::Continuous::Options w;
  w.inject_prob = 0.05;
  w.deadlines = {64};
  w.dest_min = 2;
  w.dest_max = 4;
  w.last_injection_round = 200;
  adv.add(std::make_unique<adversary::Continuous>(w));

  std::vector<adversary::Scripted::Event> events;
  for (Round b = 16; b <= 260; b += 16) {
    events.push_back({b, adversary::Scripted::Event::Kind::kCrash, 9,
                      sim::PartialDelivery::kRandom});
    events.push_back({b + 2, adversary::Scripted::Event::Kind::kRestart, 9,
                      sim::PartialDelivery::kRandom});
  }
  adv.add(std::make_unique<adversary::Scripted>(std::move(events)));
  rig.engine->set_adversary(&adv);
  rig.engine->run(200 + 64 + 4);

  const auto report = rig.qod->finalize(rig.engine->now());
  EXPECT_GT(rig.qod->injected_count(), 0u);
  EXPECT_TRUE(report.ok()) << "late=" << report.late << " missing=" << report.missing;
  EXPECT_EQ(rig.conf->leaks(), 0u);
}

TEST(CongosFailures, SourceKilledImmediatelyAfterInjection) {
  // The adversary crashes the source in the very round of injection with
  // all its messages dropped: the rumor is not admissible for anyone, so
  // nothing is required - but nothing may leak either, and the auditors
  // must classify it correctly.
  const std::size_t n = 16;
  auto rig = make_rig(n, 94);

  struct KillSource final : sim::Adversary {
    bool injected = false;
    void at_round_start(sim::Engine& e) override {
      if (e.now() == 2) {
        e.inject(4, sim::make_rumor(4, 1, {1, 2, 3}, 64,
                                    DynamicBitset::from_indices(e.n(), {7, 9})));
        injected = true;
      }
    }
    void after_sends(sim::Engine& e) override {
      if (e.now() == 2) e.crash(4, sim::PartialDelivery::kDropAll);
    }
  } adv;
  rig.engine->set_adversary(&adv);
  rig.engine->run(80);

  const auto report = rig.qod->finalize(rig.engine->now());
  EXPECT_EQ(report.admissible_pairs, 0u);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(rig.conf->leaks(), 0u);
}

TEST(CongosFailures, LazyMajorityCannotBreakAnything) {
  // Section 7's "malicious users" direction: half the processes freeload
  // (drop proxy requests, never run GroupDistribution). QoD and
  // confidentiality are unconditional; the honest minority plus the source
  // fallback carry the load.
  harness::ScenarioConfig cfg;
  cfg.n = 32;
  cfg.seed = 96;
  cfg.rounds = 256;
  cfg.protocol = harness::Protocol::kCongos;
  cfg.lazy_fraction = 0.5;
  cfg.workload = harness::WorkloadKind::kContinuous;
  cfg.continuous.inject_prob = 0.02;
  cfg.continuous.deadlines = {64};
  const auto r = harness::run_scenario(cfg);
  EXPECT_GT(r.injected, 0u);
  EXPECT_TRUE(r.qod.ok()) << "late=" << r.qod.late << " missing=" << r.qod.missing;
  EXPECT_EQ(r.leaks, 0u);
  EXPECT_EQ(r.foreign_fragments, 0u);
}

TEST(CongosFailures, LazyAndChurnTogether) {
  harness::ScenarioConfig cfg;
  cfg.n = 32;
  cfg.seed = 97;
  cfg.rounds = 256;
  cfg.protocol = harness::Protocol::kCongos;
  cfg.lazy_fraction = 0.25;
  cfg.workload = harness::WorkloadKind::kContinuous;
  cfg.continuous.inject_prob = 0.02;
  cfg.continuous.deadlines = {64};
  cfg.churn = adversary::RandomChurn::Options{};
  cfg.churn->crash_prob = 0.004;
  cfg.churn->restart_prob = 0.05;
  cfg.churn->min_alive = 6;
  const auto r = harness::run_scenario(cfg);
  EXPECT_TRUE(r.qod.ok()) << "late=" << r.qod.late << " missing=" << r.qod.missing;
  EXPECT_EQ(r.leaks, 0u);
}

TEST(CongosFailures, DestinationChurnsAroundTheDeadline) {
  // A destination crashes mid-window and restarts before the deadline: not
  // continuously alive, so exempt - but it frequently still gets the rumor
  // (bonus delivery) because fragments keep flowing.
  const std::size_t n = 16;
  auto rig = make_rig(n, 95);
  adversary::Composite adv;
  std::vector<adversary::OneShot::Item> items;
  items.push_back({2, rumor_between(n, 1, {5, 6}, 64)});
  adv.add(std::make_unique<adversary::OneShot>(std::move(items)));
  std::vector<adversary::Scripted::Event> events{
      {20, adversary::Scripted::Event::Kind::kCrash, 6,
       sim::PartialDelivery::kDropAll},
      {30, adversary::Scripted::Event::Kind::kRestart, 6,
       sim::PartialDelivery::kDeliverAll},
  };
  adv.add(std::make_unique<adversary::Scripted>(std::move(events)));
  rig.engine->set_adversary(&adv);
  rig.engine->run(100);

  const auto report = rig.qod->finalize(rig.engine->now());
  EXPECT_EQ(report.admissible_pairs, 1u);  // only p5
  EXPECT_EQ(report.delivered_on_time, 1u);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(rig.conf->leaks(), 0u);
}

/// Every gossip rumor originated at `origin` that any process received:
/// its gid, the first round it was seen, and, for fragment bodies, the
/// rumor the fragment belongs to.
class OriginGossipLog final : public sim::ExecutionObserver {
 public:
  struct Sighting {
    Round first_seen = 0;
    RumorUid fragment_of;
  };

  explicit OriginGossipLog(ProcessId origin) : origin_(origin) {}

  void on_envelope_delivered(const sim::Envelope& e, Round now) override {
    if (e.body->kind() != sim::PayloadKind::kGossipMsg) return;
    for (const auto& entry : static_cast<const gossip::GossipMsg&>(*e.body).rumors) {
      const gossip::GossipRumor& r = *entry.rumor;
      if (r.origin != origin_ || sightings_.count(r.gid) > 0) continue;
      Sighting s{now, {}};
      if (r.body->kind() == sim::PayloadKind::kFragment) {
        const auto& body = static_cast<const core::FragmentBody&>(*r.body);
        s.fragment_of = body.fragment->meta.key.rumor;
      }
      sightings_.emplace(r.gid, s);
    }
  }

  const std::map<std::uint64_t, Sighting>& sightings() const { return sightings_; }

 private:
  ProcessId origin_;
  std::map<std::uint64_t, Sighting> sightings_;
};

TEST(CongosFailures, RestartedProcessGossipsUnderFreshGids) {
  // p3 injects A, crashes while its peers still hold A's fragments, restarts
  // and injects B. B's fragments must travel under gids no peer saw before
  // the crash; peers would take a reused gid for A's fragment and drop it.
  // The log files each gid under its first sighting, so a fragment of B
  // that reused a gid of A shows up as A's, not B's.
  const std::size_t n = 32;  // large enough to keep the fragment pipeline
  const ProcessId src = 3;
  const Round crash_at = 20;
  auto rig = make_rig(n, 97);
  OriginGossipLog log(src);
  rig.engine->add_observer(&log);

  const auto a = sim::make_rumor(src, 1, adversary::canonical_payload({src, 1}, 16), 64,
                                 DynamicBitset::from_indices(n, {9, 20}));
  const auto b = sim::make_rumor(src, 2, adversary::canonical_payload({src, 2}, 16), 64,
                                 DynamicBitset::from_indices(n, {9, 20}));
  adversary::Composite adv;
  std::vector<adversary::OneShot::Item> items;
  items.push_back({2, a});
  items.push_back({24, b});
  adv.add(std::make_unique<adversary::OneShot>(std::move(items)));
  std::vector<adversary::Scripted::Event> events{
      {crash_at, adversary::Scripted::Event::Kind::kCrash, src,
       sim::PartialDelivery::kDropAll},
      {22, adversary::Scripted::Event::Kind::kRestart, src,
       sim::PartialDelivery::kDeliverAll},
  };
  adv.add(std::make_unique<adversary::Scripted>(std::move(events)));
  rig.engine->set_adversary(&adv);
  rig.engine->run(100);

  std::size_t pre_crash = 0;
  std::size_t of_b = 0;
  for (const auto& [gid, s] : log.sightings()) {
    if (s.first_seen < crash_at) ++pre_crash;
    if (s.fragment_of == b.uid) {
      ++of_b;
      EXPECT_GE(s.first_seen, 24) << "gid " << gid << " of B was seen before the crash";
    }
  }
  EXPECT_GT(pre_crash, 0u);
  EXPECT_GT(of_b, 0u);
  const auto report = rig.qod->finalize(rig.engine->now());
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(rig.conf->leaks(), 0u);
}

}  // namespace
}  // namespace congos
