#include "gossip/continuous_gossip.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/gallop.h"
#include "sim/engine.h"
#include "test_util.h"
#include "wire/envelope.h"

namespace congos::gossip {
namespace {

constexpr sim::ServiceTag kTag{sim::ServiceKind::kGroupGossip, 0};

struct Delivery {
  std::uint64_t gid;
  Round when;
  ProcessId origin;
};

/// A process hosting exactly one gossip service.
class GossipHost final : public sim::Process {
 public:
  GossipHost(ProcessId id, GossipConfig cfg, std::uint64_t seed)
      : sim::Process(id), rng_(seed) {
    cfg_ = cfg;
    rebuild();
  }

  void on_restart(Round now) override {
    rebuild();
    svc_->reset(now);
    delivered.clear();
  }

  void send_phase(Round now, sim::Sender& out) override { svc_->send_phase(now, out); }

  void receive_phase(Round now, std::span<const sim::Envelope> inbox) override {
    for (const auto& e : inbox) svc_->on_envelope(now, e);
  }

  ContinuousGossipService& service() { return *svc_; }
  std::vector<Delivery> delivered;

 private:
  void rebuild() {
    svc_ = std::make_unique<ContinuousGossipService>(
        id(), cfg_, &rng_, [this](Round now, const GossipRumor& r) {
          delivered.push_back(Delivery{r.gid, now, r.origin});
        });
  }

  GossipConfig cfg_;
  Rng rng_;
  std::unique_ptr<ContinuousGossipService> svc_;
};

/// Records any stray envelopes (for out-of-universe leak checks).
class SilentProcess final : public sim::Process {
 public:
  explicit SilentProcess(ProcessId id) : sim::Process(id) {}
  void on_restart(Round) override {}
  void send_phase(Round, sim::Sender&) override {}
  void receive_phase(Round, std::span<const sim::Envelope> inbox) override {
    received += inbox.size();
  }
  std::size_t received = 0;
};

struct GossipSystem {
  std::vector<GossipHost*> hosts;          // index == id for in-universe hosts
  std::vector<SilentProcess*> silent;
  std::unique_ptr<sim::Engine> engine;
};

GossipSystem make_gossip_system(std::size_t n, const DynamicBitset& universe,
                                int fanout, bool guaranteed, std::uint64_t seed) {
  GossipSystem sys;
  sys.hosts.assign(n, nullptr);
  std::vector<std::unique_ptr<sim::Process>> procs;
  Rng seeder(seed);
  for (ProcessId p = 0; p < n; ++p) {
    if (universe.test(p)) {
      GossipConfig cfg;
      cfg.tag = kTag;
      cfg.universe = universe;
      cfg.fanout = fanout;
      cfg.guaranteed = guaranteed;
      auto host = std::make_unique<GossipHost>(p, cfg, seeder.next());
      sys.hosts[p] = host.get();
      procs.push_back(std::move(host));
    } else {
      auto s = std::make_unique<SilentProcess>(p);
      sys.silent.push_back(s.get());
      procs.push_back(std::move(s));
    }
  }
  sys.engine = std::make_unique<sim::Engine>(std::move(procs), seeder.next());
  return sys;
}

TEST(Gossip, EpidemicReachesWholeUniverse) {
  const std::size_t n = 16;
  auto universe = DynamicBitset::full(n);
  auto sys = make_gossip_system(n, universe, 3, false, 101);
  // Inject once before the first round's send phase via the adversary hook.
  testutil::LambdaAdversary adv;
  adv.on_round_start = [&](sim::Engine& e) {
    if (e.now() == 0) {
      sys.hosts[0]->service().inject(0, std::make_shared<testutil::IntPayload>(7),
                                     universe, 24);
    }
  };
  sys.engine->set_adversary(&adv);
  sys.engine->run(24);
  for (ProcessId p = 0; p < n; ++p) {
    ASSERT_EQ(sys.hosts[p]->delivered.size(), 1u) << "p=" << p;
    EXPECT_EQ(sys.hosts[p]->delivered[0].origin, 0u);
    EXPECT_LE(sys.hosts[p]->delivered[0].when, 24);
  }
}

TEST(Gossip, DeliversOnlyToDestinations) {
  const std::size_t n = 12;
  auto universe = DynamicBitset::full(n);
  auto sys = make_gossip_system(n, universe, 3, false, 102);
  DynamicBitset dest(n);
  dest.set(3);
  dest.set(7);
  testutil::LambdaAdversary adv;
  adv.on_round_start = [&](sim::Engine& e) {
    if (e.now() == 0) {
      sys.hosts[1]->service().inject(0, std::make_shared<testutil::IntPayload>(1),
                                     dest, 20);
    }
  };
  sys.engine->set_adversary(&adv);
  sys.engine->run(20);
  for (ProcessId p = 0; p < n; ++p) {
    const bool is_dest = dest.test(p);
    EXPECT_EQ(sys.hosts[p]->delivered.size(), is_dest ? 1u : 0u) << "p=" << p;
  }
}

TEST(Gossip, UniverseRestrictionIsAirtight) {
  // Universe = even ids. Odd processes must never receive a single envelope.
  const std::size_t n = 16;
  DynamicBitset universe(n);
  for (std::size_t p = 0; p < n; p += 2) universe.set(p);
  auto sys = make_gossip_system(n, universe, 3, false, 103);
  testutil::LambdaAdversary adv;
  adv.on_round_start = [&](sim::Engine& e) {
    if (e.now() == 0) {
      sys.hosts[0]->service().inject(0, std::make_shared<testutil::IntPayload>(1),
                                     universe, 30);
    }
  };
  sys.engine->set_adversary(&adv);
  sys.engine->run(30);
  for (auto* s : sys.silent) EXPECT_EQ(s->received, 0u);
  for (ProcessId p = 0; p < n; p += 2) {
    EXPECT_EQ(sys.hosts[p]->delivered.size(), 1u) << "p=" << p;
    EXPECT_EQ(sys.hosts[p]->service().filter_drops(), 0u);
  }
}

TEST(Gossip, GuaranteedModeBeatsImpossibleEpidemicWindow) {
  // fanout 1 and a 3-round deadline cannot reach 32 processes epidemically;
  // the origin's deterministic fallback must cover the rest.
  const std::size_t n = 32;
  auto universe = DynamicBitset::full(n);
  auto sys = make_gossip_system(n, universe, 1, true, 104);
  testutil::LambdaAdversary adv;
  adv.on_round_start = [&](sim::Engine& e) {
    if (e.now() == 0) {
      sys.hosts[5]->service().inject(0, std::make_shared<testutil::IntPayload>(9),
                                     universe, 3);
    }
  };
  sys.engine->set_adversary(&adv);
  sys.engine->run(4);
  for (ProcessId p = 0; p < n; ++p) {
    ASSERT_EQ(sys.hosts[p]->delivered.size(), 1u) << "p=" << p;
    EXPECT_LE(sys.hosts[p]->delivered[0].when, 3);
  }
}

TEST(Gossip, GuaranteedModeAcksSuppressDuplicateFallback) {
  // With a long deadline the epidemic finishes early; the fallback then has
  // nobody left to cover, so per-round traffic near the deadline stays flat.
  const std::size_t n = 16;
  auto universe = DynamicBitset::full(n);
  auto sys = make_gossip_system(n, universe, 3, true, 105);
  testutil::LambdaAdversary adv;
  adv.on_round_start = [&](sim::Engine& e) {
    if (e.now() == 0) {
      sys.hosts[0]->service().inject(0, std::make_shared<testutil::IntPayload>(2),
                                     universe, 40);
    }
  };
  sys.engine->set_adversary(&adv);
  sys.engine->run(41);
  // Every host delivered exactly once (dedup works).
  for (ProcessId p = 0; p < n; ++p) {
    ASSERT_EQ(sys.hosts[p]->delivered.size(), 1u);
  }
  // The fallback round (39) must not spike above the steady epidemic
  // traffic: every destination acked, so there is nobody left to cover.
  const auto& per_round = sys.engine->stats().per_round_totals();
  EXPECT_LE(per_round[39], per_round[38]);
}

TEST(Gossip, ExpiredRumorsArePurged) {
  const std::size_t n = 8;
  auto universe = DynamicBitset::full(n);
  auto sys = make_gossip_system(n, universe, 2, false, 106);
  testutil::LambdaAdversary adv;
  adv.on_round_start = [&](sim::Engine& e) {
    if (e.now() == 0) {
      sys.hosts[0]->service().inject(0, std::make_shared<testutil::IntPayload>(3),
                                     universe, 5);
    }
  };
  sys.engine->set_adversary(&adv);
  sys.engine->run(10);
  for (ProcessId p = 0; p < n; ++p) {
    EXPECT_EQ(sys.hosts[p]->service().known_active(10), 0u);
  }
  // No gossip traffic after expiry (rounds 7+ silent).
  const auto& per_round = sys.engine->stats().per_round_totals();
  for (std::size_t r = 7; r < per_round.size(); ++r) {
    EXPECT_EQ(per_round[r], 0u) << "round " << r;
  }
}

TEST(Gossip, RestartWipesStateAndGidsStayUnique) {
  const std::size_t n = 8;
  auto universe = DynamicBitset::full(n);
  auto sys = make_gossip_system(n, universe, 2, false, 107);
  std::uint64_t gid_before = 0, gid_after = 0;
  testutil::LambdaAdversary adv;
  adv.on_round_start = [&](sim::Engine& e) {
    if (e.now() == 0) {
      gid_before = sys.hosts[2]->service().inject(
          0, std::make_shared<testutil::IntPayload>(1), universe, 30);
    }
    if (e.now() == 2) e.crash(2);
    if (e.now() == 4) e.restart(2);
    if (e.now() == 5) {
      gid_after = sys.hosts[2]->service().inject(
          5, std::make_shared<testutil::IntPayload>(2), universe, 30);
    }
  };
  sys.engine->set_adversary(&adv);
  sys.engine->run(30);
  EXPECT_NE(gid_before, gid_after);
  // Host 2 redelivers the first rumor after restart (relearned from peers)
  // and its own second rumor.
  EXPECT_EQ(sys.hosts[2]->delivered.size(), 2u);
  // Everyone else got both rumors.
  for (ProcessId p = 0; p < n; ++p) {
    if (p == 2) continue;
    EXPECT_EQ(sys.hosts[p]->delivered.size(), 2u) << "p=" << p;
  }
}

TEST(Gossip, SurvivesSourceCrashOnceSeeded) {
  // After the rumor has spread a bit, killing the source must not stop the
  // epidemic (the collaboration benefit the paper builds on).
  const std::size_t n = 24;
  auto universe = DynamicBitset::full(n);
  auto sys = make_gossip_system(n, universe, 3, false, 108);
  testutil::LambdaAdversary adv;
  adv.on_round_start = [&](sim::Engine& e) {
    if (e.now() == 0) {
      sys.hosts[0]->service().inject(0, std::make_shared<testutil::IntPayload>(4),
                                     universe, 30);
    }
    if (e.now() == 3) e.crash(0);
  };
  sys.engine->set_adversary(&adv);
  sys.engine->run(30);
  for (ProcessId p = 1; p < n; ++p) {
    EXPECT_EQ(sys.hosts[p]->delivered.size(), 1u) << "p=" << p;
  }
}

// ---------------------------------------------------------------------------
// Deterministic expander strategy (the [13]-style derandomized black box)
// ---------------------------------------------------------------------------

TEST(Expander, NeighborsAreDistinctMembersAndExcludeSelf) {
  DynamicBitset universe(64);
  for (std::size_t p = 0; p < 64; p += 2) universe.set(p);  // even ids
  for (ProcessId self = 0; self < 64; self += 2) {
    auto nb = expander_neighbors(self, universe, 5, 42);
    ASSERT_EQ(nb.size(), 5u);
    std::set<ProcessId> uniq(nb.begin(), nb.end());
    EXPECT_EQ(uniq.size(), nb.size());
    for (auto q : nb) {
      EXPECT_NE(q, self);
      EXPECT_TRUE(universe.test(q));
    }
  }
}

TEST(Expander, SameSeedSameGraphEverywhere) {
  // Every member derives the same skips, so the graph is consistent: if i's
  // k-th neighbor at rank r, then the member at rank r-skip has i... we just
  // check two independent computations agree.
  DynamicBitset universe = DynamicBitset::full(33);
  for (ProcessId self : {0u, 7u, 32u}) {
    EXPECT_EQ(expander_neighbors(self, universe, 4, 7),
              expander_neighbors(self, universe, 4, 7));
  }
  EXPECT_NE(expander_neighbors(0, universe, 4, 7),
            expander_neighbors(0, universe, 4, 8));
}

TEST(Expander, GraphHasLogarithmicDiameter) {
  // BFS from node 0 over the directed circulant; with degree ~log2 m the
  // eccentricity should be small.
  const std::size_t m = 200;
  DynamicBitset universe = DynamicBitset::full(m);
  const int degree = 8;
  std::vector<int> dist(m, -1);
  std::vector<ProcessId> frontier = {0};
  dist[0] = 0;
  int depth = 0;
  while (!frontier.empty()) {
    ++depth;
    std::vector<ProcessId> next;
    for (auto u : frontier) {
      for (auto v : expander_neighbors(u, universe, degree, 99)) {
        if (dist[v] < 0) {
          dist[v] = depth;
          next.push_back(v);
        }
      }
    }
    frontier = std::move(next);
  }
  int ecc = 0;
  for (std::size_t v = 0; v < m; ++v) {
    ASSERT_GE(dist[v], 0) << "node " << v << " unreachable";
    ecc = std::max(ecc, dist[v]);
  }
  EXPECT_LE(ecc, 10) << "diameter should be ~log m";
}

TEST(Expander, TinyUniverses) {
  DynamicBitset lone(4);
  lone.set(2);
  EXPECT_TRUE(expander_neighbors(2, lone, 3, 1).empty());
  DynamicBitset pair(4);
  pair.set(1);
  pair.set(3);
  auto nb = expander_neighbors(1, pair, 3, 1);
  ASSERT_EQ(nb.size(), 1u);
  EXPECT_EQ(nb[0], 3u);
}

TEST(Expander, DeliversDeterministically) {
  const std::size_t n = 24;
  auto universe = DynamicBitset::full(n);
  auto run_once = [&] {
    GossipSystem sys;
    sys.hosts.assign(n, nullptr);
    std::vector<std::unique_ptr<sim::Process>> procs;
    Rng seeder(200);
    for (ProcessId p = 0; p < n; ++p) {
      GossipConfig cfg;
      cfg.tag = kTag;
      cfg.universe = universe;
      cfg.strategy = GossipStrategy::kExpander;
      cfg.fanout = 3;
      auto host = std::make_unique<GossipHost>(p, cfg, seeder.next());
      sys.hosts[p] = host.get();
      procs.push_back(std::move(host));
    }
    sys.engine = std::make_unique<sim::Engine>(std::move(procs), seeder.next());
    testutil::LambdaAdversary adv;
    adv.on_round_start = [&](sim::Engine& e) {
      if (e.now() == 0) {
        sys.hosts[3]->service().inject(0, std::make_shared<testutil::IntPayload>(1),
                                       universe, 20);
      }
    };
    sys.engine->set_adversary(&adv);
    sys.engine->run(20);
    std::size_t delivered = 0;
    for (auto* h : sys.hosts) delivered += h->delivered.size();
    return std::make_pair(delivered, sys.engine->stats().total_sent());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, n);  // everyone delivered
  EXPECT_EQ(a, b);        // deterministic traffic
}

// ---------------------------------------------------------------------------
// Push-pull strategy (Karp et al. [19])
// ---------------------------------------------------------------------------

GossipSystem make_pushpull_system(std::size_t n, std::uint64_t seed) {
  GossipSystem sys;
  sys.hosts.assign(n, nullptr);
  auto universe = DynamicBitset::full(n);
  std::vector<std::unique_ptr<sim::Process>> procs;
  Rng seeder(seed);
  for (ProcessId p = 0; p < n; ++p) {
    GossipConfig cfg;
    cfg.tag = kTag;
    cfg.universe = universe;
    cfg.fanout = 2;
    cfg.strategy = GossipStrategy::kPushPull;
    auto host = std::make_unique<GossipHost>(p, cfg, seeder.next());
    sys.hosts[p] = host.get();
    procs.push_back(std::move(host));
  }
  sys.engine = std::make_unique<sim::Engine>(std::move(procs), seeder.next());
  return sys;
}

TEST(PushPull, ReachesWholeUniverse) {
  const std::size_t n = 24;
  auto sys = make_pushpull_system(n, 300);
  auto universe = DynamicBitset::full(n);
  testutil::LambdaAdversary adv;
  adv.on_round_start = [&](sim::Engine& e) {
    if (e.now() == 0) {
      sys.hosts[0]->service().inject(0, std::make_shared<testutil::IntPayload>(1),
                                     universe, 24);
    }
  };
  sys.engine->set_adversary(&adv);
  sys.engine->run(24);
  for (ProcessId p = 0; p < n; ++p) {
    EXPECT_EQ(sys.hosts[p]->delivered.size(), 1u) << "p=" << p;
  }
}

TEST(PushPull, IdleUniverseStillSendsPullRequests) {
  // Pull requests are the anti-entropy heartbeat: one per member per round
  // even with no rumors in flight.
  const std::size_t n = 8;
  auto sys = make_pushpull_system(n, 301);
  sys.engine->run(5);
  const auto& per_round = sys.engine->stats().per_round_totals();
  for (auto count : per_round) EXPECT_EQ(count, n);
}

TEST(PushPull, RestartedProcessCatchesUpByPulling) {
  const std::size_t n = 12;
  auto sys = make_pushpull_system(n, 302);
  auto universe = DynamicBitset::full(n);
  testutil::LambdaAdversary adv;
  adv.on_round_start = [&](sim::Engine& e) {
    if (e.now() == 0) {
      sys.hosts[4]->service().inject(0, std::make_shared<testutil::IntPayload>(1),
                                     universe, 40);
    }
    if (e.now() == 10) e.crash(7);
    if (e.now() == 20) e.restart(7);  // wipes its state (delivered cleared)
  };
  sys.engine->set_adversary(&adv);
  sys.engine->run(40);
  // Host 7 re-learned the still-active rumor after its restart.
  ASSERT_EQ(sys.hosts[7]->delivered.size(), 1u);
  EXPECT_GE(sys.hosts[7]->delivered[0].when, 20);
}

TEST(GossipDeath, InjectOutsideUniverse) {
  const std::size_t n = 8;
  DynamicBitset universe(n);
  universe.set(0);
  universe.set(1);
  GossipConfig cfg;
  cfg.tag = kTag;
  cfg.universe = universe;
  Rng rng(1);
  ContinuousGossipService svc(0, cfg, &rng, nullptr);
  DynamicBitset bad(n);
  bad.set(5);  // not in universe
  EXPECT_DEATH(svc.inject(0, nullptr, bad, 10), "within the service universe");
}

TEST(Gossip, GidPackingAtEpochBoundary) {
  // The packed layout is [source:24 | epoch+1:19 | counter:21]; the largest
  // epoch round whose stored value epoch+1 still fits 19 bits is 2^19 - 2.
  const std::size_t n = 4;
  auto universe = DynamicBitset::full(n);
  GossipConfig cfg;
  cfg.tag = kTag;
  cfg.universe = universe;
  Rng rng(7);
  ContinuousGossipService svc(2, cfg, &rng, nullptr);
  constexpr Round kMaxEpoch = (Round{1} << 19) - 2;
  svc.reset(kMaxEpoch);
  const auto gid = svc.inject(kMaxEpoch, nullptr, universe, kMaxEpoch + 8);
  EXPECT_EQ(gid >> 40, 2u);  // source-id field untouched by the epoch
  EXPECT_EQ((gid >> 21) & ((1u << 19) - 1),
            static_cast<std::uint64_t>(kMaxEpoch) + 1);
  EXPECT_EQ(gid & ((1u << 21) - 1), 0u);  // first counter value of the epoch
}

// -- receive-side merge walk ------------------------------------------------

TEST(Gallop, MatchesLowerBoundFromEveryHint) {
  const std::vector<int> v{1, 3, 3, 3, 5, 8, 13, 21, 21, 34};
  for (int key = 0; key <= 36; ++key) {
    const auto want = std::lower_bound(v.begin(), v.end(), key);
    for (auto hint = v.begin(); hint <= v.end(); ++hint) {
      EXPECT_EQ(gallop_lower_bound(v.begin(), hint, v.end(), key), want)
          << "key " << key << " hint " << (hint - v.begin());
    }
  }
  const std::vector<int> empty;
  EXPECT_EQ(gallop_lower_bound(empty.begin(), empty.begin(), empty.end(), 4), empty.end());
}

/// Discards everything sent (the property test drives one service alone).
/// Keeps every envelope of the current send phase.
struct RecordingSender final : sim::Sender {
  std::vector<sim::Envelope> sent;
  void send(sim::Envelope e) override { sent.push_back(std::move(e)); }
};

std::vector<std::pair<std::uint64_t, Round>> gids_and_deadlines(const GossipMsg& m) {
  std::vector<std::pair<std::uint64_t, Round>> out;
  for (const auto& r : m.rumors) out.emplace_back(r.gid, r.deadline_at);
  return out;
}

TEST(Gossip, MergeWalkMatchesSetModel) {
  // Random batches against a std::map model of the known set: unsorted
  // gids, a gid repeated inside one batch, rumors expired in flight, one-
  // rumor batches, own injections and send phases in between. Delivery
  // order, duplicates_suppressed(), known_active() and every pushed batch
  // must match the model. Some rounds keep the last pushed batch alive
  // across the next send phase, as a delayed envelope does: the service
  // must then build a new batch and leave the held one as it was.
  constexpr std::size_t kN = 16;
  constexpr ProcessId kSelf = 5;
  const auto universe = DynamicBitset::full(kN);
  GossipConfig cfg;
  cfg.tag = kTag;
  cfg.universe = universe;
  Rng svc_rng(11);
  std::vector<std::uint64_t> delivered;
  ContinuousGossipService svc(kSelf, cfg, &svc_rng, [&](Round, const GossipRumor& r) {
    delivered.push_back(r.gid);
  });

  std::map<std::uint64_t, Round> model;  // gid -> deadline first accepted
  std::vector<std::uint64_t> want_delivered;
  std::uint64_t want_dups = 0;
  const auto model_accept = [&](Round now, std::uint64_t gid, Round deadline, bool to_self) {
    if (deadline < now) return;
    if (!model.emplace(gid, deadline).second) {
      ++want_dups;
    } else if (to_self) {
      want_delivered.push_back(gid);
    }
  };

  Rng rng(2024);
  Rng hold_rng(7);  // separate stream: the batch draws above stay as they were
  std::shared_ptr<const sim::Payload> held;
  std::vector<std::pair<std::uint64_t, Round>> held_contents;
  std::uint64_t rounds_with_unsorted = 0;
  std::uint64_t pushes = 0;
  std::uint64_t copies_while_held = 0;
  for (Round now = 0; now < 400; ++now) {
    const int batches = static_cast<int>(rng.next_below(4));
    for (int b = 0; b < batches; ++b) {
      auto msg = std::make_shared<GossipMsg>();
      const std::size_t len =
          rng.next_below(4) == 0 ? 1 : 1 + static_cast<std::size_t>(rng.next_below(24));
      for (std::size_t i = 0; i < len; ++i) {
        GossipRumor r;
        // Sources 0..3 (never kSelf), 64 gids each: repeats are common.
        r.gid = (rng.next_below(4) << 40) | rng.next_below(64);
        r.origin = static_cast<ProcessId>(r.gid >> 40);
        r.deadline_at = now - 3 + static_cast<Round>(rng.next_below(40));
        r.dest = DynamicBitset(kN);
        if (rng.next_below(2) == 0) r.dest.set(kSelf);
        msg->rumors.push_back(make_entry(std::move(r)));
      }
      if (len > 2 && rng.next_below(3) == 0) {
        msg->rumors.push_back(msg->rumors[rng.next_below(len)]);  // repeat in batch
      }
      if (rng.next_below(2) == 0) {
        std::sort(msg->rumors.begin(), msg->rumors.end(),
                  [](const RumorEntry& a, const RumorEntry& c) { return a.gid < c.gid; });
      } else {
        ++rounds_with_unsorted;
      }
      for (const auto& r : msg->rumors) {
        model_accept(now, r.gid, r.deadline_at, r.rumor->dest.test(kSelf));
      }
      svc.on_envelope(now, sim::Envelope{1, kSelf, kTag, msg});
    }
    if (rng.next_below(8) == 0) {
      const Round deadline = now + static_cast<Round>(rng.next_below(20));
      const std::uint64_t gid = svc.inject(now, nullptr, DynamicBitset::full(kN), deadline);
      model_accept(now, gid, deadline, true);
    }
    if (rng.next_below(3) == 0) {
      RecordingSender out;
      svc.send_phase(now, out);
      std::erase_if(model, [&](const auto& kv) { return kv.second < now; });
      const std::vector<std::pair<std::uint64_t, Round>> live(model.begin(), model.end());
      const sim::Payload* pushed = nullptr;
      for (const auto& e : out.sent) {
        ASSERT_EQ(e.body->kind(), sim::PayloadKind::kGossipMsg);
        ASSERT_EQ(gids_and_deadlines(static_cast<const GossipMsg&>(*e.body)), live)
            << "round " << now;
        pushed = e.body.get();
        ++pushes;
      }
      ASSERT_EQ(pushed == nullptr, live.empty()) << "round " << now;
      if (held != nullptr) {
        EXPECT_EQ(gids_and_deadlines(static_cast<const GossipMsg&>(*held)), held_contents)
            << "held batch changed, round " << now;
        if (pushed != nullptr && held_contents != live) {
          EXPECT_NE(pushed, held.get()) << "round " << now;
          ++copies_while_held;
        }
        held.reset();
      }
      if (pushed != nullptr && hold_rng.next_below(2) == 0) {
        held = out.sent.back().body;
        held_contents = live;
      }
    }
    std::size_t want_active = 0;
    for (const auto& [gid, deadline] : model) want_active += deadline >= now ? 1 : 0;
    ASSERT_EQ(svc.known_active(now), want_active) << "round " << now;
    ASSERT_EQ(svc.duplicates_suppressed(), want_dups) << "round " << now;
    ASSERT_EQ(delivered, want_delivered) << "round " << now;
  }
  EXPECT_GT(want_dups, 1000u);
  EXPECT_GT(delivered.size(), 100u);
  EXPECT_GT(rounds_with_unsorted, 100u);
  EXPECT_GT(pushes, 200u);
  EXPECT_GT(copies_while_held, 20u);
}

TEST(Gossip, RestartedOriginStillFallsBackForItsOldRumor) {
  // Guaranteed mode: process 0 injects a rumor, restarts, and then hears
  // its previous incarnation's rumor back from a peer. It is still the
  // rumor's origin, so it tracks acks for it and direct-sends to every
  // unacked destination in the round before the deadline.
  constexpr std::size_t kN = 6;
  const auto universe = DynamicBitset::full(kN);
  GossipConfig cfg;
  cfg.tag = kTag;
  cfg.universe = universe;
  cfg.fanout = 1;
  cfg.guaranteed = true;
  const auto run = [&](bool hears_it_back) {
    Rng svc_rng(3);
    ContinuousGossipService svc(0, cfg, &svc_rng, {});
    constexpr Round kDeadline = 10;
    auto body = std::make_shared<testutil::IntPayload>(4);
    const std::uint64_t gid = svc.inject(0, body, universe, kDeadline);
    svc.reset(1);
    if (hears_it_back) {
      auto msg = std::make_shared<GossipMsg>();
      msg->rumors.push_back(make_entry(GossipRumor{gid, 0, kDeadline, universe, body}));
      svc.on_envelope(2, sim::Envelope{1, 0, kTag, msg});
      auto ack = std::make_shared<GossipAck>();
      ack->gids.push_back(gid);
      svc.on_envelope(2, sim::Envelope{2, 0, kTag, ack});
    }
    std::vector<std::size_t> sends;  // per round 3..kDeadline
    std::set<ProcessId> last_round_targets;
    for (Round now = 3; now <= kDeadline; ++now) {
      RecordingSender out;
      svc.send_phase(now, out);
      sends.push_back(out.sent.size());
      for (const auto& e : out.sent) {
        const auto& m = static_cast<const GossipMsg&>(*e.body);
        EXPECT_EQ(m.rumors.size(), 1u);
        EXPECT_EQ(m.rumors.front().gid, gid);
        if (now == kDeadline - 1) last_round_targets.insert(e.to);
      }
    }
    return std::make_pair(sends, last_round_targets);
  };
  const auto [sends, targets] = run(true);
  // One push per round; in round 9, the fallback adds 1, 3, 4 and 5 (2 acked).
  EXPECT_EQ(sends, (std::vector<std::size_t>{1, 1, 1, 1, 1, 1, 5, 1}));
  for (ProcessId q : {1, 3, 4, 5}) EXPECT_EQ(targets.count(q), 1u) << "q=" << q;
  // Without the rumor coming back, the restarted process holds nothing.
  EXPECT_EQ(run(false).first, (std::vector<std::size_t>(8, 0)));
}

TEST(Gossip, OneRecordPerRumorAcrossHolders) {
  // A rumor record is built once, by inject, and every holder keeps a handle
  // to that one record, at any engine thread count.
  constexpr std::size_t kN = 64;
  const auto universe = DynamicBitset::full(kN);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    auto sys = make_gossip_system(kN, universe, 3, false, 404);
    sys.engine->set_threads(threads);
    std::uint64_t gid = 0;
    GossipRumorPtr injected;
    testutil::LambdaAdversary adv;
    adv.on_round_start = [&](sim::Engine& e) {
      if (e.now() != 0) return;
      ContinuousGossipService& origin = sys.hosts[0]->service();
      gid = origin.inject(0, std::make_shared<testutil::IntPayload>(7), universe, 40);
      injected = origin.record(gid);
    };
    sys.engine->set_adversary(&adv);
    sys.engine->run(24);
    ASSERT_NE(injected, nullptr);
    for (ProcessId p = 0; p < kN; ++p) {
      ASSERT_EQ(sys.hosts[p]->delivered.size(), 1u) << "threads=" << threads << " p=" << p;
      EXPECT_EQ(sys.hosts[p]->service().record(gid), injected)
          << "threads=" << threads << " p=" << p;
    }
  }

  // The wire reader builds one record per rumor too: a decode memo hands the
  // record of a repeated frame back, and a rumor whose fields differ by one
  // byte (its deadline) gets a record of its own.
  const auto frame = [&](Round deadline) {
    auto msg = std::make_shared<GossipMsg>();
    msg->rumors.push_back(make_entry(GossipRumor{5, 1, deadline, universe, nullptr}));
    std::vector<std::uint8_t> bytes;
    EXPECT_TRUE(wire::encode_envelope(sim::Envelope{1, 2, kTag, msg}, 3, &bytes));
    return bytes;
  };
  RumorDecodeMemo memo;
  const auto decoded = [&](const std::vector<std::uint8_t>& bytes) -> GossipRumorPtr {
    wire::DecodedEnvelope d;
    if (!wire::decode_envelope(bytes.data(), bytes.size(), &d, nullptr, &memo)) return nullptr;
    return static_cast<const GossipMsg&>(*d.env.body).rumors.at(0).rumor;
  };
  const auto a = frame(30);
  const auto b = frame(31);
  ASSERT_EQ(a.size(), b.size());
  const GossipRumorPtr first = decoded(a);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(decoded(a), first);
  const GossipRumorPtr other = decoded(b);
  ASSERT_NE(other, nullptr);
  EXPECT_NE(other, first);
  EXPECT_EQ(other->deadline_at, 31);
  EXPECT_EQ(memo.hits(), 1u);
}

TEST(GossipDeath, GidEpochOverflowAborts) {
  // One restart round later, epoch+1 == 2^19 would spill into bit 40 and
  // alias gids of source self+1, epoch 0. The service must refuse instead
  // of silently colliding.
  const std::size_t n = 4;
  auto universe = DynamicBitset::full(n);
  GossipConfig cfg;
  cfg.tag = kTag;
  cfg.universe = universe;
  Rng rng(7);
  ContinuousGossipService svc(2, cfg, &rng, nullptr);
  constexpr Round kOverflowEpoch = (Round{1} << 19) - 1;
  svc.reset(kOverflowEpoch);
  EXPECT_DEATH(svc.inject(kOverflowEpoch, nullptr, universe, kOverflowEpoch + 8),
               "gid packing range");
}

TEST(GossipDeath, HostMustBeInUniverse) {
  DynamicBitset universe(8);
  universe.set(1);
  GossipConfig cfg;
  cfg.tag = kTag;
  cfg.universe = universe;
  Rng rng(1);
  EXPECT_DEATH(ContinuousGossipService(0, cfg, &rng, nullptr), "belong");
}

}  // namespace
}  // namespace congos::gossip
