// The auditors audit the protocols; these tests audit the auditors, by
// feeding them synthetic events with planted violations.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <thread>
#include <tuple>

#include "audit/confidentiality.h"
#include "audit/qod.h"
#include "baseline/baseline_payload.h"
#include "gossip/continuous_gossip.h"
#include "partition/bit_partition.h"

namespace congos::audit {
namespace {

sim::Rumor test_rumor(ProcessId src, std::uint64_t seq, std::size_t n,
                      std::vector<std::uint32_t> dest, Round deadline = 64) {
  auto r = sim::make_rumor(src, seq, {1, 2, 3, 4}, deadline,
                           DynamicBitset::from_indices(n, dest));
  r.injected_at = 0;
  return r;
}

core::FragmentPtr frag_for(const sim::Rumor& r, PartitionIndex l, GroupIndex g,
                           GroupIndex groups) {
  auto f = std::make_shared<core::Fragment>();
  f->meta.key = core::FragmentKey{r.uid, l, g};
  f->meta.dest = r.dest;
  f->meta.expires_at = r.expires_at();
  f->meta.dline = 64;
  f->meta.num_groups = groups;
  f->data = {9, 9, 9, 9};
  return f;
}

sim::Envelope partials_env(ProcessId from, ProcessId to,
                           std::vector<core::FragmentPtr> frags) {
  auto p = std::make_shared<core::PartialsPayload>();
  p->fragments = std::move(frags);
  return sim::Envelope{from, to,
                       sim::ServiceTag{sim::ServiceKind::kGroupDistribution, 0}, p};
}

sim::Envelope direct_env(ProcessId from, ProcessId to, const sim::Rumor& r) {
  auto p = std::make_shared<core::DirectRumorPayload>();
  p->rumor = r;
  return sim::Envelope{from, to, sim::ServiceTag{sim::ServiceKind::kFallback, 0}, p};
}

class ConfAuditorTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 8;
  partition::PartitionSet parts = partition::make_bit_partitions(kN);
  ConfidentialityAuditor auditor{kN, &parts};
};

TEST_F(ConfAuditorTest, CleanDeliveryNoViolations) {
  auto r = test_rumor(0, 1, kN, {2, 3});
  auditor.on_inject(r, 0);
  auditor.on_envelope_delivered(direct_env(0, 2, r), 1);
  auditor.on_envelope_delivered(direct_env(0, 3, r), 1);
  EXPECT_EQ(auditor.leaks(), 0u);
  EXPECT_TRUE(auditor.knowledge().knows_full(2, r.uid));
}

TEST_F(ConfAuditorTest, FullLeakDetected) {
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  auditor.on_envelope_delivered(direct_env(0, 5, r), 3);  // 5 not in D!
  EXPECT_EQ(auditor.count(ViolationKind::kFullLeak), 1u);
  ASSERT_EQ(auditor.violations().size(), 1u);
  EXPECT_EQ(auditor.violations()[0].process, 5u);
  EXPECT_EQ(auditor.violations()[0].when, 3);
}

TEST_F(ConfAuditorTest, FullLeakCountedOncePerProcess) {
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  auditor.on_envelope_delivered(direct_env(0, 5, r), 3);
  auditor.on_envelope_delivered(direct_env(0, 5, r), 4);
  EXPECT_EQ(auditor.count(ViolationKind::kFullLeak), 1u);
}

TEST_F(ConfAuditorTest, FragmentSetLeakDetected) {
  // A curious process receiving both groups' fragments of partition 0 can
  // XOR them together: that is a Definition-2 violation.
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  const ProcessId curious = 6;
  auditor.on_envelope_delivered(
      partials_env(0, curious, {frag_for(r, 0, 0, 2)}), 1);
  EXPECT_EQ(auditor.leaks(), 0u);  // one fragment alone is harmless
  auditor.on_envelope_delivered(
      partials_env(1, curious, {frag_for(r, 0, 1, 2)}), 2);
  EXPECT_EQ(auditor.count(ViolationKind::kFragmentSetLeak), 1u);
  EXPECT_TRUE(auditor.knowledge().can_reconstruct(curious, r.uid));
}

TEST_F(ConfAuditorTest, FragmentsAcrossPartitionsDoNotReconstruct) {
  // Fragments of *different* partitions never combine.
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  const ProcessId curious = 6;
  auditor.on_envelope_delivered(partials_env(0, curious, {frag_for(r, 0, 0, 2)}), 1);
  auditor.on_envelope_delivered(partials_env(0, curious, {frag_for(r, 1, 1, 2)}), 1);
  auditor.on_envelope_delivered(partials_env(0, curious, {frag_for(r, 2, 0, 2)}), 1);
  EXPECT_EQ(auditor.leaks(), 0u);
  EXPECT_FALSE(auditor.knowledge().can_reconstruct(curious, r.uid));
}

TEST_F(ConfAuditorTest, ForeignFragmentDetected) {
  // Process 6 is in group (6>>0)&1 = 0 of partition 0; handing it a group-1
  // fragment breaks the structural invariant even if it cannot reconstruct.
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 1, 2)}), 1);
  EXPECT_EQ(auditor.count(ViolationKind::kForeignFragment), 1u);
  EXPECT_EQ(auditor.leaks(), 0u);
}

TEST_F(ConfAuditorTest, DestinationsMayKnowEverything) {
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  auditor.on_envelope_delivered(partials_env(0, 2, {frag_for(r, 0, 0, 2)}), 1);
  auditor.on_envelope_delivered(partials_env(1, 2, {frag_for(r, 0, 1, 2)}), 1);
  auditor.on_envelope_delivered(direct_env(0, 2, r), 2);
  EXPECT_EQ(auditor.leaks(), 0u);
  EXPECT_EQ(auditor.count(ViolationKind::kForeignFragment), 0u);
}

TEST_F(ConfAuditorTest, CoalitionAnalysis) {
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  // Give curious 4 the group-0 fragment and curious 5 the group-1 fragment
  // of partition 0 (process 4 is in group 0, 5 in group 1: structural ok).
  auditor.on_envelope_delivered(partials_env(0, 4, {frag_for(r, 0, 0, 2)}), 1);
  EXPECT_EQ(auditor.min_breaking_coalition(r.uid), SIZE_MAX);
  auditor.on_envelope_delivered(partials_env(0, 5, {frag_for(r, 0, 1, 2)}), 1);
  EXPECT_EQ(auditor.min_breaking_coalition(r.uid), 2u);
  EXPECT_FALSE(auditor.breakable_by_coalition(r.uid, 1));
  EXPECT_TRUE(auditor.breakable_by_coalition(r.uid, 2));
  EXPECT_TRUE(
      auditor.knowledge().coalition_can_reconstruct({4, 5}, r.uid));
  EXPECT_FALSE(auditor.knowledge().coalition_can_reconstruct({4}, r.uid));
}

TEST_F(ConfAuditorTest, BaselineWholePayloadsTracked) {
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  auto whole = std::make_shared<baseline::BaselineRumorPayload>();
  whole->rumor = r;
  auditor.on_envelope_delivered(
      sim::Envelope{0, 7, sim::ServiceTag{sim::ServiceKind::kBaseline, 0}, whole}, 1);
  EXPECT_EQ(auditor.count(ViolationKind::kFullLeak), 1u);
}

// -- repeat sightings --------------------------------------------------------
// Gossip re-delivers the same fragment to the same process many times; the
// auditor must judge each sighting exactly as if it were the first one it
// saw under the same knowledge.

struct Seen {
  ViolationKind kind;
  ProcessId process;
  Round when;
  friend bool operator==(const Seen&, const Seen&) = default;
};

std::vector<Seen> seen(const ConfidentialityAuditor& a) {
  std::vector<Seen> out;
  for (const auto& v : a.violations()) out.push_back({v.kind, v.process, v.when});
  return out;
}

TEST_F(ConfAuditorTest, RepeatedForeignFragmentCountsEverySighting) {
  // 6 is in group 0 of partition 0, 7 in group 1: each is handed the other
  // group's fragment, interleaved, and twice within one envelope.
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 1, 2)}), 1);
  auditor.on_envelope_delivered(partials_env(0, 7, {frag_for(r, 0, 0, 2)}), 2);
  auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 1, 2)}), 3);
  auditor.on_envelope_delivered(
      partials_env(0, 6, {frag_for(r, 0, 1, 2), frag_for(r, 0, 1, 2)}), 4);
  constexpr auto kF = ViolationKind::kForeignFragment;
  EXPECT_EQ(seen(auditor),
            (std::vector<Seen>{{kF, 6, 1}, {kF, 7, 2}, {kF, 6, 3}, {kF, 6, 4}, {kF, 6, 4}}));
  EXPECT_EQ(auditor.count(kF), 5u);
  EXPECT_EQ(auditor.leaks(), 0u);
}

TEST_F(ConfAuditorTest, RepeatedOwnGroupFragmentStaysSilent) {
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  for (Round t = 1; t <= 3; ++t) {
    auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 0, 2)}), t);
    auditor.on_envelope_delivered(partials_env(0, 2, {frag_for(r, 0, 1, 2)}), t);
  }
  EXPECT_TRUE(auditor.violations().empty());
  EXPECT_EQ(auditor.knowledge().fragment_mask(6, r.uid, 0), 0b01u);
  EXPECT_EQ(auditor.knowledge().fragment_mask(2, r.uid, 0), 0b10u);
}

TEST_F(ConfAuditorTest, CompletedSetLeaksOnlyOnce) {
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 0, 2)}), 1);
  auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 1, 2)}), 2);
  auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 0, 2)}), 3);
  auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 1, 2)}), 4);
  constexpr auto kF = ViolationKind::kForeignFragment;
  constexpr auto kS = ViolationKind::kFragmentSetLeak;
  EXPECT_EQ(seen(auditor), (std::vector<Seen>{{kF, 6, 2}, {kS, 6, 2}, {kF, 6, 4}}));
  EXPECT_EQ(auditor.count(kS), 1u);
  EXPECT_EQ(auditor.leaks(), 1u);
  EXPECT_TRUE(auditor.knowledge().can_reconstruct(6, r.uid));
}

TEST_F(ConfAuditorTest, SightingsBeforeInjectionAreJudgedAgainAfter) {
  // A fragment of a rumor the auditor has not been told about is recorded as
  // knowledge but judged harmless; once the rumor is injected, the same
  // fragment counts again, and the knowledge recorded earlier stands.
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 1, 2)}), 1);
  auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 1, 2)}), 2);
  EXPECT_TRUE(auditor.violations().empty());
  EXPECT_EQ(auditor.knowledge().fragment_mask(6, r.uid, 0), 0b10u);

  auditor.on_inject(r, 3);
  auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 1, 2)}), 4);
  auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 0, 2)}), 5);
  constexpr auto kF = ViolationKind::kForeignFragment;
  constexpr auto kS = ViolationKind::kFragmentSetLeak;
  EXPECT_EQ(seen(auditor), (std::vector<Seen>{{kF, 6, 4}, {kS, 6, 5}}));
}

TEST_F(ConfAuditorTest, RepeatWithOtherGroupCountIsJudgedAfresh) {
  // The tracker keeps the group count of the latest fragment per (process,
  // rumor), so a fragment re-seen under another count can complete a set.
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 0, 3)}), 1);
  auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 1, 3)}), 2);
  EXPECT_EQ(auditor.leaks(), 0u);  // groups {0,1} of 3
  auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 1, 2)}), 3);
  constexpr auto kF = ViolationKind::kForeignFragment;
  constexpr auto kS = ViolationKind::kFragmentSetLeak;
  EXPECT_EQ(seen(auditor), (std::vector<Seen>{{kF, 6, 2}, {kF, 6, 3}, {kS, 6, 3}}));

}

TEST_F(ConfAuditorTest, RepeatAfterAnotherFragmentMovedTheGroupCount) {
  // A repeat whose count matches its own first sighting, but not the count a
  // later fragment of the same rumor left behind, restores that count and
  // can complete the set a second time.
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 0, 2)}), 1);
  auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 1, 2)}), 2);
  auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 1, 1, 3)}), 3);
  EXPECT_FALSE(auditor.knowledge().can_reconstruct(6, r.uid));
  auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 0, 2)}), 4);
  EXPECT_TRUE(auditor.knowledge().can_reconstruct(6, r.uid));
  constexpr auto kF = ViolationKind::kForeignFragment;
  constexpr auto kS = ViolationKind::kFragmentSetLeak;
  EXPECT_EQ(seen(auditor), (std::vector<Seen>{{kF, 6, 2}, {kS, 6, 2}, {kS, 6, 4}}));
}

TEST_F(ConfAuditorTest, CountsMatchTheViolationList) {
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  auditor.on_envelope_delivered(direct_env(0, 5, r), 1);
  auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 0, 2)}), 1);
  auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 1, 2)}), 2);
  auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 1, 2)}), 3);
  for (auto kind : {ViolationKind::kFullLeak, ViolationKind::kFragmentSetLeak,
                    ViolationKind::kForeignFragment}) {
    std::uint64_t scanned = 0;
    for (const auto& v : auditor.violations()) scanned += (v.kind == kind) ? 1 : 0;
    EXPECT_EQ(auditor.count(kind), scanned);
  }
  EXPECT_EQ(auditor.leaks(), 2u);
}

TEST_F(ConfAuditorTest, GroupCountChangeElsewhereLeavesRepeatVerdictsAlone) {
  // The repeat path is disabled per process: 6 seeing two group counts for
  // r must not change how 7's repeats of its own fragments of r are judged.
  // 7 is in group 1 of partitions 0 and 1; (1, 0) is foreign to it.
  auto r = test_rumor(0, 1, kN, {2});
  const auto feed_7 = [&](ConfidentialityAuditor& a, Round t) {
    a.on_envelope_delivered(partials_env(0, 7, {frag_for(r, 0, 1, 2)}), t);
    a.on_envelope_delivered(partials_env(0, 7, {frag_for(r, 1, 0, 2)}), t);
  };
  ConfidentialityAuditor alone{kN, &parts};  // never sees 6's traffic
  auditor.on_inject(r, 0);
  alone.on_inject(r, 0);
  feed_7(auditor, 1);
  feed_7(alone, 1);

  auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 0, 3)}), 2);
  auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 0, 2)}), 2);
  EXPECT_TRUE(auditor.group_counts_vary(6));
  EXPECT_FALSE(auditor.group_counts_vary(7));

  for (Round t = 3; t <= 5; ++t) {
    feed_7(auditor, t);
    feed_7(alone, t);
  }
  EXPECT_FALSE(auditor.group_counts_vary(7));
  constexpr auto kF = ViolationKind::kForeignFragment;
  EXPECT_EQ(seen(alone),
            (std::vector<Seen>{{kF, 7, 1}, {kF, 7, 3}, {kF, 7, 4}, {kF, 7, 5}}));
  EXPECT_EQ(seen(auditor), seen(alone));
  EXPECT_EQ(auditor.knowledge().fragment_mask(7, r.uid, 0), 0b10u);
  EXPECT_EQ(auditor.knowledge().fragment_mask(7, r.uid, 1), 0b01u);
  EXPECT_FALSE(auditor.knowledge().can_reconstruct(7, r.uid));
  EXPECT_EQ(auditor.leaks(), 0u);
}

TEST_F(ConfAuditorTest, ViolationsComeInCanonicalOrder) {
  // Round, then receiving process, then sighting order at that process,
  // whatever order the receivers are fed in and whenever the list is read.
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  constexpr auto kF = ViolationKind::kForeignFragment;
  constexpr auto kL = ViolationKind::kFullLeak;
  auditor.on_envelope_delivered(partials_env(0, 7, {frag_for(r, 0, 0, 2)}), 2);
  auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 1, 2)}), 2);
  auditor.on_envelope_delivered(direct_env(0, 7, r), 2);
  EXPECT_EQ(seen(auditor), (std::vector<Seen>{{kF, 6, 2}, {kF, 7, 2}, {kL, 7, 2}}));
  // Sightings of an earlier round read after the list was built.
  auditor.on_envelope_delivered(partials_env(0, 5, {frag_for(r, 0, 0, 2)}), 1);
  auditor.on_envelope_delivered(partials_env(0, 6, {frag_for(r, 0, 1, 2)}), 2);
  auditor.on_envelope_delivered(partials_env(0, 4, {frag_for(r, 0, 1, 2)}), 1);
  EXPECT_EQ(seen(auditor), (std::vector<Seen>{{kF, 4, 1},
                                              {kF, 5, 1},
                                              {kF, 6, 2},
                                              {kF, 6, 2},
                                              {kF, 7, 2},
                                              {kL, 7, 2}}));
  EXPECT_EQ(auditor.count(kF), 5u);
}

// -- gossip bodies judged clean ----------------------------------------------
// GossipMsg rumors carry shared body objects that every holder re-pushes;
// a body judged clean at a process is remembered there by (tag, gid, object).
// Each test checks a case where remembering must not change a verdict.

sim::PayloadPtr fragment_body(core::FragmentPtr f) {
  auto b = std::make_shared<core::FragmentBody>();
  b->fragment = std::move(f);
  return b;
}

sim::PayloadPtr share_body(std::vector<core::FragmentPtr> frags) {
  auto b = std::make_shared<core::ProxyShareBody>();
  b->proxied = std::move(frags);
  return b;
}

struct Pushed {
  std::uint64_t gid = 0;
  sim::PayloadPtr body;
  Round deadline_at = 64;
};

/// The record of `p`, built once while anything holds it: like a holder's
/// re-pushes, repeated pushes of the same (gid, body, deadline) carry the one
/// record. The cache holds records weakly, so it keeps no body alive, and is
/// locked: receivers on their own threads share it.
gossip::GossipRumorPtr record_of(const Pushed& p) {
  using Key = std::tuple<std::uint64_t, const sim::Payload*, Round>;
  static std::mutex lock;
  static std::map<Key, std::weak_ptr<const gossip::GossipRumor>> records;
  const std::lock_guard<std::mutex> guard(lock);
  std::weak_ptr<const gossip::GossipRumor>& slot =
      records[Key{p.gid, p.body.get(), p.deadline_at}];
  gossip::GossipRumorPtr r = slot.lock();
  if (r == nullptr) {
    r = std::make_shared<const gossip::GossipRumor>(
        gossip::GossipRumor{p.gid, 0, p.deadline_at, {}, p.body});
    slot = r;
  }
  return r;
}

sim::Envelope gossip_env(ProcessId to, const std::vector<Pushed>& rumors,
                         PartitionIndex l = 0) {
  auto m = std::make_shared<gossip::GossipMsg>();
  for (const Pushed& p : rumors) m->rumors.emplace_back(record_of(p));
  return sim::Envelope{0, to, sim::ServiceTag{sim::ServiceKind::kGroupGossip, l}, m};
}

using Judged = std::tuple<ViolationKind, ProcessId, RumorUid, Round>;

std::vector<Judged> judged(const ConfidentialityAuditor& a) {
  std::vector<Judged> out;
  for (const auto& v : a.violations()) out.emplace_back(v.kind, v.process, v.rumor, v.when);
  return out;
}

TEST_F(ConfAuditorTest, GossipBodySwappedUnderAKnownGidIsJudgedAgain) {
  // 6 is in group 0 of partition 0: `own` is clean there. The same gid then
  // arrives with another body object carrying the group-1 fragment.
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  const auto own = fragment_body(frag_for(r, 0, 0, 2));
  for (Round t = 1; t <= 3; ++t) auditor.on_envelope_delivered(gossip_env(6, {{7, own}}), t);
  EXPECT_TRUE(auditor.violations().empty());
  const auto swapped = fragment_body(frag_for(r, 0, 1, 2));
  auditor.on_envelope_delivered(gossip_env(6, {{7, swapped}}), 4);
  auditor.on_envelope_delivered(gossip_env(6, {{7, own}, {7, swapped}}), 5);
  constexpr auto kF = ViolationKind::kForeignFragment;
  constexpr auto kS = ViolationKind::kFragmentSetLeak;
  EXPECT_EQ(seen(auditor), (std::vector<Seen>{{kF, 6, 4}, {kS, 6, 4}, {kF, 6, 5}}));

  // A second record under gid 7 that carries `own` again, as a frame decoded
  // afresh does: the memo keys on the record, so it is judged again, the
  // judgment is clean, and the memo keeps the new record from then on.
  auto again = std::make_shared<gossip::GossipMsg>();
  again->rumors.push_back(gossip::make_entry(gossip::GossipRumor{7, 0, 64, {}, own}));
  const gossip::GossipRumorPtr record = again->rumors.front().rumor;
  for (Round t = 6; t <= 7; ++t) {
    auditor.on_envelope_delivered(
        sim::Envelope{0, 6, sim::ServiceTag{sim::ServiceKind::kGroupGossip, 0}, again}, t);
  }
  again.reset();
  EXPECT_EQ(record.use_count(), 2);  // here and in the memo
  EXPECT_EQ(seen(auditor), (std::vector<Seen>{{kF, 6, 4}, {kS, 6, 4}, {kF, 6, 5}}));
}

TEST_F(ConfAuditorTest, RepeatedForeignGossipBodyIsFlaggedEveryTime) {
  // 6 is in group 1 of partition 1, so the share's (1, 0) fragment is
  // foreign; the (0, 0) one is its own. Neither completes a set.
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  const auto share = share_body({frag_for(r, 0, 0, 2), frag_for(r, 1, 0, 2)});
  constexpr int kTimes = 5;
  for (Round t = 1; t <= kTimes; ++t) {
    auditor.on_envelope_delivered(gossip_env(6, {{3, share}}), t);
  }
  auditor.on_envelope_delivered(gossip_env(6, {{3, share}, {3, share}}), kTimes + 1);
  EXPECT_EQ(auditor.count(ViolationKind::kForeignFragment), kTimes + 2u);
  EXPECT_EQ(auditor.leaks(), 0u);
}

TEST_F(ConfAuditorTest, GossipMemoStopsAnsweringOnceGroupCountsVary) {
  // RepeatAfterAnotherFragmentMovedTheGroupCount, carried by gossip: after
  // the (1, 1, 3) fragment moves 6's group count, the clean body `own`
  // completes the set again and must be judged, not remembered - later in
  // the same batch, and in a later batch.
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  const auto own = fragment_body(frag_for(r, 0, 0, 2));
  const auto three = fragment_body(frag_for(r, 1, 1, 3));  // 6: group 1 of l=1
  auditor.on_envelope_delivered(gossip_env(6, {{1, own}}), 1);
  auditor.on_envelope_delivered(gossip_env(6, {{1, own}}), 1);
  auditor.on_envelope_delivered(gossip_env(6, {{2, fragment_body(frag_for(r, 0, 1, 2))}}), 2);
  auditor.on_envelope_delivered(gossip_env(6, {{1, own}}), 2);
  EXPECT_FALSE(auditor.group_counts_vary(6));
  auditor.on_envelope_delivered(gossip_env(6, {{3, three}, {1, own}}), 3);
  EXPECT_TRUE(auditor.group_counts_vary(6));
  auditor.on_envelope_delivered(gossip_env(6, {{3, three}}), 4);
  EXPECT_FALSE(auditor.knowledge().can_reconstruct(6, r.uid));
  auditor.on_envelope_delivered(gossip_env(6, {{1, own}}), 5);
  EXPECT_TRUE(auditor.knowledge().can_reconstruct(6, r.uid));
  constexpr auto kF = ViolationKind::kForeignFragment;
  constexpr auto kS = ViolationKind::kFragmentSetLeak;
  EXPECT_EQ(seen(auditor),
            (std::vector<Seen>{{kF, 6, 2}, {kS, 6, 2}, {kS, 6, 3}, {kS, 6, 5}}));
}

TEST_F(ConfAuditorTest, GossipMemoReleasesBodiesPastTheirDeadline) {
  // The memo holds each clean body it remembers, and lets go of it at the
  // receiver's first gossip delivery in a round past the rumor's deadline.
  // A foreign body is never remembered.
  auto r = test_rumor(0, 1, kN, {2});
  auditor.on_inject(r, 0);
  const auto own = fragment_body(frag_for(r, 0, 0, 2));
  const auto foreign = fragment_body(frag_for(r, 1, 0, 2));  // 6: group 1 of l=1
  auditor.on_envelope_delivered(gossip_env(6, {{1, own, 10}, {2, foreign, 10}}), 5);
  EXPECT_EQ(own.use_count(), 2);
  EXPECT_EQ(foreign.use_count(), 1);
  auditor.on_envelope_delivered(gossip_env(6, {{1, own, 10}}), 10);
  EXPECT_EQ(own.use_count(), 2);  // the deadline round itself still holds it
  auditor.on_envelope_delivered(gossip_env(6, {}), 11);
  EXPECT_EQ(own.use_count(), 1);
  EXPECT_EQ(auditor.count(ViolationKind::kForeignFragment), 1u);
}

TEST_F(ConfAuditorTest, GossipMemoConcurrentReceiversMatchSerialAndFlatPath) {
  // Every process gets its own stream of gossip batches over shared bodies:
  // own-group and foreign fragments, proxy shares, rumors never injected,
  // and a 3-group variant that makes some processes' group counts vary.
  // Receivers on their own threads must match a serial auditor, and both
  // must match the same fragments delivered as partials, which no memo sees.
  std::vector<sim::Rumor> rumors;
  for (std::uint64_t seq = 0; seq < 6; ++seq) {
    rumors.push_back(test_rumor(static_cast<ProcessId>(seq % kN), seq, kN,
                                {static_cast<std::uint32_t>((seq * 3 + 1) % kN)}));
  }
  std::vector<Pushed> pool;
  for (const sim::Rumor& r : rumors) {
    for (PartitionIndex l = 0; l < 3; ++l) {
      for (GroupIndex g = 0; g < 2; ++g) {
        pool.push_back({pool.size(), fragment_body(frag_for(r, l, g, 2))});
      }
    }
    pool.push_back({pool.size(), share_body({frag_for(r, 0, 0, 2), frag_for(r, 1, 1, 2)})});
  }
  pool.push_back({pool.size(), fragment_body(frag_for(rumors[4], 2, 0, 3))});
  const auto batch = [&](ProcessId p, Round t) {
    std::vector<Pushed> out;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const std::size_t h = i * 7 + p * 3 + static_cast<std::size_t>(t) * 5;
      if (i + 1 == pool.size() && p % 2 == 0) continue;  // odd p only: count varies
      if (h % 4 < 3) out.push_back(pool[i]);
      if (h % 13 == 0) out.push_back(pool[i]);  // a repeat within the batch
    }
    return out;
  };
  constexpr Round kRounds = 10;
  ConfidentialityAuditor serial{kN, &parts};
  ConfidentialityAuditor concurrent{kN, &parts};
  ConfidentialityAuditor flat{kN, &parts};
  for (std::size_t i = 0; i + 2 < rumors.size(); ++i) {  // the last two stay unknown
    for (ConfidentialityAuditor* a : {&serial, &concurrent, &flat}) a->on_inject(rumors[i], 0);
  }
  for (Round t = 1; t <= kRounds; ++t) {
    for (ProcessId p = 0; p < kN; ++p) {
      serial.on_envelope_delivered(gossip_env(p, batch(p, t)), t);
      std::vector<core::FragmentPtr> frags;
      for (const Pushed& b : batch(p, t)) {
        if (b.body->kind() == sim::PayloadKind::kFragment) {
          frags.push_back(static_cast<const core::FragmentBody&>(*b.body).fragment);
        } else {
          for (const auto& f : static_cast<const core::ProxyShareBody&>(*b.body).proxied) {
            frags.push_back(f);
          }
        }
      }
      flat.on_envelope_delivered(partials_env(0, p, std::move(frags)), t);
    }
  }
  {
    std::vector<std::thread> threads;
    for (ProcessId p = 0; p < kN; ++p) {
      threads.emplace_back([&, p] {
        for (Round t = 1; t <= kRounds; ++t) {
          concurrent.on_envelope_delivered(gossip_env(p, batch(p, t)), t);
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }

  const std::vector<Judged> want = judged(flat);
  EXPECT_GT(flat.count(ViolationKind::kForeignFragment), 0u);
  EXPECT_GT(flat.count(ViolationKind::kFragmentSetLeak), 0u);
  EXPECT_EQ(judged(serial), want);
  EXPECT_EQ(judged(concurrent), want);
  bool some_vary = false;
  for (ProcessId p = 0; p < kN; ++p) {
    some_vary = some_vary || flat.group_counts_vary(p);
    EXPECT_EQ(serial.group_counts_vary(p), flat.group_counts_vary(p)) << p;
    EXPECT_EQ(concurrent.group_counts_vary(p), flat.group_counts_vary(p)) << p;
    for (const sim::Rumor& r : rumors) {
      for (PartitionIndex l = 0; l < 3; ++l) {
        EXPECT_EQ(concurrent.knowledge().fragment_mask(p, r.uid, l),
                  flat.knowledge().fragment_mask(p, r.uid, l));
      }
    }
  }
  EXPECT_TRUE(some_vary);
  EXPECT_EQ(serial.unknown_payloads(), 0u);
  EXPECT_EQ(concurrent.unknown_payloads(), 0u);
}

// ---------------------------------------------------------------------------

class QodAuditorTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 4;
  static constexpr auto kDropAll = sim::PartialDelivery::kDropAll;
  DeliveryAuditor auditor{kN};
};

TEST_F(QodAuditorTest, OnTimeDeliveryIsOk) {
  auto r = test_rumor(0, 1, kN, {1, 2}, 10);
  auditor.on_inject(r, 0);
  auditor.on_rumor_delivered(1, r.uid, 4, r.data);
  auditor.on_rumor_delivered(2, r.uid, 10, r.data);  // exactly at deadline
  auto rep = auditor.finalize(100);
  EXPECT_EQ(rep.admissible_pairs, 2u);
  EXPECT_EQ(rep.delivered_on_time, 2u);
  EXPECT_TRUE(rep.ok());
  EXPECT_NEAR(rep.mean_latency, 7.0, 1e-9);
}

TEST_F(QodAuditorTest, LateAndMissingDetected) {
  auto r = test_rumor(0, 1, kN, {1, 2}, 10);
  auditor.on_inject(r, 0);
  auditor.on_rumor_delivered(1, r.uid, 11, r.data);  // one round late
  auto rep = auditor.finalize(100);
  EXPECT_EQ(rep.late, 1u);
  EXPECT_EQ(rep.missing, 1u);
  EXPECT_FALSE(rep.ok());
}

TEST_F(QodAuditorTest, DataMismatchDetected) {
  auto r = test_rumor(0, 1, kN, {1}, 10);
  auditor.on_inject(r, 0);
  const std::vector<std::uint8_t> wrong = {9, 9, 9, 9};
  auditor.on_rumor_delivered(1, r.uid, 4, wrong);
  auto rep = auditor.finalize(100);
  EXPECT_EQ(rep.data_mismatches, 1u);
}

TEST_F(QodAuditorTest, CrashedDestinationIsNotAdmissible) {
  auto r = test_rumor(0, 1, kN, {1, 2}, 10);
  auditor.on_inject(r, 0);
  auditor.on_crash(2, 5, kDropAll);  // destination 2 dies mid-window
  auditor.on_rumor_delivered(1, r.uid, 4, r.data);
  auto rep = auditor.finalize(100);
  EXPECT_EQ(rep.admissible_pairs, 1u);
  EXPECT_TRUE(rep.ok());
}

TEST_F(QodAuditorTest, CrashedSourceExemptsAllDestinations) {
  auto r = test_rumor(0, 1, kN, {1, 2}, 10);
  auditor.on_inject(r, 0);
  auditor.on_crash(0, 3, kDropAll);
  auto rep = auditor.finalize(100);
  EXPECT_EQ(rep.admissible_pairs, 0u);
  EXPECT_TRUE(rep.ok());
}

TEST_F(QodAuditorTest, RestartBeforeInjectionDoesNotExempt) {
  auditor.on_crash(1, 2, kDropAll);
  auditor.on_restart(1, 5, kDropAll);
  auto r = test_rumor(0, 1, kN, {1}, 10);
  r.injected_at = 8;  // injected after 1 is back up
  auditor.on_inject(r, 8);
  auto rep = auditor.finalize(100);
  EXPECT_EQ(rep.admissible_pairs, 1u);
  EXPECT_EQ(rep.missing, 1u);
}

TEST_F(QodAuditorTest, BonusDeliveriesCounted) {
  auto r = test_rumor(0, 1, kN, {1}, 10);
  auditor.on_inject(r, 0);
  auditor.on_crash(1, 5, kDropAll);
  auditor.on_restart(1, 6, kDropAll);
  auditor.on_rumor_delivered(1, r.uid, 8, r.data);  // delivered anyway
  auto rep = auditor.finalize(100);
  EXPECT_EQ(rep.admissible_pairs, 0u);
  EXPECT_EQ(rep.bonus_deliveries, 1u);
  EXPECT_TRUE(rep.ok());
}

TEST_F(QodAuditorTest, ContinuouslyAliveLogic) {
  auditor.on_crash(1, 10, kDropAll);
  auditor.on_restart(1, 20, kDropAll);
  EXPECT_TRUE(auditor.continuously_alive(1, 0, 9));
  EXPECT_FALSE(auditor.continuously_alive(1, 0, 10));
  EXPECT_FALSE(auditor.continuously_alive(1, 10, 15));
  EXPECT_FALSE(auditor.continuously_alive(1, 15, 25));  // dead at start
  EXPECT_TRUE(auditor.continuously_alive(1, 21, 100));
  EXPECT_TRUE(auditor.continuously_alive(0, 0, 1000));  // never touched
}

TEST_F(QodAuditorTest, InFlightRumorsAreSkipped) {
  auto r = test_rumor(0, 1, kN, {1}, 50);
  auditor.on_inject(r, 0);
  auto rep = auditor.finalize(10);  // deadline (50) not yet reached
  EXPECT_EQ(rep.rumors, 0u);
  EXPECT_TRUE(rep.ok());
}

TEST_F(QodAuditorTest, DuplicateDeliveriesKeepFirst) {
  auto r = test_rumor(0, 1, kN, {1}, 10);
  auditor.on_inject(r, 0);
  auditor.on_rumor_delivered(1, r.uid, 3, r.data);
  auditor.on_rumor_delivered(1, r.uid, 9, r.data);
  EXPECT_EQ(auditor.delivery_round(r.uid, 1), 3);
  auto rep = auditor.finalize(100);
  EXPECT_EQ(rep.delivered_on_time, 1u);
}

// The engine's receive shards call on_rumor_delivered concurrently, each
// process reporting only at itself. Per-process state makes the answers
// independent of that interleaving: they equal a serial auditor's.
TEST_F(QodAuditorTest, ConcurrentReportsAtDistinctProcessesMatchSerial) {
  constexpr std::size_t kProcs = 8;
  constexpr std::uint64_t kRumors = 64;
  std::vector<sim::Rumor> rumors;
  for (std::uint64_t s = 0; s < kRumors; ++s) {
    std::vector<std::uint32_t> dest;
    for (std::uint32_t q = 0; q < kProcs; ++q) {
      if ((q + s) % 3 != 0) dest.push_back(q);
    }
    rumors.push_back(test_rumor(static_cast<ProcessId>(s % kProcs), s, kProcs, dest, 16));
  }
  const std::vector<std::uint8_t> wrong = {9, 9, 9, 9};
  // Process p's reports, in its own order: every rumor twice (the repeat
  // must not move the first round), some late, some with wrong bytes.
  const auto report_all_at = [&](DeliveryAuditor& a, ProcessId p) {
    for (int pass = 0; pass < 2; ++pass) {
      for (const sim::Rumor& r : rumors) {
        const Round when = static_cast<Round>((r.uid.seq * 7 + p) % 20 + pass);
        const bool corrupt = (r.uid.seq + p) % 11 == 0;
        a.on_rumor_delivered(p, r.uid, when, corrupt ? wrong : r.data);
      }
    }
  };
  DeliveryAuditor serial(kProcs);
  DeliveryAuditor concurrent(kProcs);
  for (const sim::Rumor& r : rumors) {
    serial.on_inject(r, 0);
    concurrent.on_inject(r, 0);
  }
  serial.on_crash(3, 5, kDropAll);
  concurrent.on_crash(3, 5, kDropAll);
  for (ProcessId p = 0; p < kProcs; ++p) report_all_at(serial, p);
  {
    std::vector<std::thread> threads;
    for (ProcessId p = 0; p < kProcs; ++p) {
      threads.emplace_back([&, p] { report_all_at(concurrent, p); });
    }
    for (std::thread& t : threads) t.join();
  }

  const QodReport want = serial.finalize(100);
  EXPECT_GT(want.delivered_on_time, 0u);
  EXPECT_GT(want.late, 0u);
  EXPECT_GT(want.bonus_deliveries, 0u);
  EXPECT_GT(want.data_mismatches, 0u);
  EXPECT_EQ(concurrent.finalize(100), want);
  for (const sim::Rumor& r : rumors) {
    for (ProcessId p = 0; p < kProcs; ++p) {
      EXPECT_EQ(concurrent.delivery_round(r.uid, p), serial.delivery_round(r.uid, p));
    }
  }
}

}  // namespace
}  // namespace congos::audit
