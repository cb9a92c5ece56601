// White-box unit tests of the ConfidentialGossip coordinator (Fig. 8):
// splitting, routing, reassembly, the confirmation matrix, and the deadline
// fallback - with mocked Proxy/GroupDistribution hooks.
#include "congos/confidential_gossip.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "adversary/workload.h"
#include "partition/bit_partition.h"

namespace congos::core {
namespace {

constexpr std::size_t kN = 8;  // 3 bit partitions

struct FakeSender final : sim::Sender {
  std::vector<sim::Envelope> sent;
  void send(sim::Envelope e) override { sent.push_back(std::move(e)); }
};

struct GossipInjection {
  PartitionIndex partition;
  Round when;
  sim::PayloadPtr body;
  Round deadline_at;
};

struct Delivery {
  RumorUid uid;
  Round when;
  std::vector<std::uint8_t> data;
};

class CgFixture : public ::testing::Test, public sim::DeliveryListener {
 protected:
  CgFixture() : partitions_(partition::make_bit_partitions(kN)), rng_(5) {
    // Mock Proxy/GD instances: record enqueued fragments.
    ConfidentialGossipService::Hooks hooks;
    hooks.gossip_fragment = [this](PartitionIndex l, Round now, sim::PayloadPtr body,
                                   Round deadline_at) {
      gossip_.push_back(GossipInjection{l, now, std::move(body), deadline_at});
    };
    hooks.proxy = [this](Round dline, PartitionIndex l) {
      if (!proxy_) {
        ProxyService::Hooks ph;
        ph.alive_since = [] { return 0; };
        proxy_ = std::make_unique<ProxyService>(kSelf, l, &partitions_[l], dline,
                                                &cfg_, &rng_, std::move(ph));
      }
      return proxy_.get();
    };
    hooks.gd = [this](Round dline, PartitionIndex l) {
      if (!gd_) {
        GroupDistributionService::Hooks gh;
        gh.alive_since = [] { return 0; };
        gd_ = std::make_unique<GroupDistributionService>(
            kSelf, l, &partitions_[l], dline, &cfg_, &rng_, std::move(gh));
      }
      return gd_.get();
    };
    cg_ = std::make_unique<ConfidentialGossipService>(
        kSelf, &cfg_, &partitions_, /*degenerate=*/false, &rng_, this,
        std::move(hooks));
  }

  void on_rumor_delivered(ProcessId at, const RumorUid& uid, Round when,
                          std::span<const std::uint8_t> data) override {
    EXPECT_EQ(at, kSelf);
    deliveries_.push_back(Delivery{uid, when, {data.begin(), data.end()}});
  }

  static constexpr ProcessId kSelf = 0;  // group 0 of every bit partition
  partition::PartitionSet partitions_;
  CongosConfig cfg_;
  Rng rng_;
  std::vector<GossipInjection> gossip_;
  std::vector<Delivery> deliveries_;
  std::unique_ptr<ProxyService> proxy_;
  std::unique_ptr<GroupDistributionService> gd_;
  std::unique_ptr<ConfidentialGossipService> cg_;
};

sim::Rumor test_rumor(ProcessId src, Round deadline, std::vector<std::uint32_t> dest) {
  auto r = sim::make_rumor(src, 1, adversary::canonical_payload({src, 1}, 16),
                           deadline, DynamicBitset::from_indices(kN, dest));
  r.injected_at = 0;
  return r;
}

TEST_F(CgFixture, InjectSplitsPerPartitionOwnGroupToGossip) {
  cg_->inject(0, test_rumor(kSelf, 64, {3, 5}));
  // One own-group fragment per partition goes to GroupGossip.
  ASSERT_EQ(gossip_.size(), partitions_.count());
  for (const auto& g : gossip_) {
    const auto* body = dynamic_cast<const FragmentBody*>(g.body.get());
    ASSERT_NE(body, nullptr);
    // Self is 0 -> group 0 in every bit partition.
    EXPECT_EQ(body->fragment->meta.key.group, 0u);
    EXPECT_EQ(body->fragment->meta.key.partition, g.partition);
    EXPECT_EQ(body->fragment->meta.dline, 64);
    EXPECT_EQ(g.deadline_at, 8);  // now + sqrt(64)
  }
  EXPECT_EQ(cg_->counters().injected, 1u);
  EXPECT_EQ(cg_->counters().injected_direct, 0u);
}

TEST_F(CgFixture, ShortDeadlineGoesDirect) {
  cg_->inject(0, test_rumor(kSelf, 8, {3, 5}));
  EXPECT_TRUE(gossip_.empty());
  EXPECT_EQ(cg_->counters().injected_direct, 1u);
  FakeSender out;
  cg_->send_phase(0, out);
  ASSERT_EQ(out.sent.size(), 2u);  // one per destination
  for (const auto& e : out.sent) {
    EXPECT_EQ(e.tag.kind, sim::ServiceKind::kFallback);
    EXPECT_TRUE(e.to == 3 || e.to == 5);
  }
}

TEST_F(CgFixture, SourceInDestinationDeliversImmediately) {
  cg_->inject(0, test_rumor(kSelf, 64, {0, 3}));
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].uid, (RumorUid{kSelf, 1}));
}

TEST_F(CgFixture, PartialsReassembleAcrossGroups) {
  // Build a 2-fragment rumor (partition 0) addressed to self and feed both
  // partials; reassembly must reproduce the original bytes.
  auto r = test_rumor(3, 64, {0});
  auto frags = split_rumor(r, 0, 2, 64, 64, rng_);
  PartialsPayload p1, p2;
  p1.fragments.push_back(frags[0]);
  p2.fragments.push_back(frags[1]);
  cg_->on_partials(5, p1);
  EXPECT_TRUE(deliveries_.empty());  // one share reveals nothing
  cg_->on_partials(6, p2);
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].when, 6);
  EXPECT_EQ(deliveries_[0].data, r.data);
  EXPECT_EQ(cg_->counters().reassembled, 1u);
}

TEST_F(CgFixture, MixedPartitionFragmentsDoNotReassemble) {
  auto r = test_rumor(3, 64, {0});
  auto f0 = split_rumor(r, 0, 2, 64, 64, rng_);
  auto f1 = split_rumor(r, 1, 2, 64, 64, rng_);
  PartialsPayload p;
  p.fragments.push_back(f0[0]);
  // Different partition: useless pair.
  p.fragments.push_back(f1[1]);
  cg_->on_partials(5, p);
  EXPECT_TRUE(deliveries_.empty());
}

TEST_F(CgFixture, DuplicateDeliveryIsSuppressed) {
  auto r = test_rumor(3, 64, {0});
  auto frags = split_rumor(r, 0, 2, 64, 64, rng_);
  PartialsPayload p;
  p.fragments = frags;
  cg_->on_partials(5, p);
  DirectRumorPayload direct;
  direct.rumor = r;
  cg_->on_direct(6, direct);
  EXPECT_EQ(deliveries_.size(), 1u);
}

TEST_F(CgFixture, ConfirmationNeedsEveryGroupAndEveryDestination) {
  cg_->inject(0, test_rumor(kSelf, 64, {3, 5}));
  auto report = [&](GroupIndex g, ProcessId reporter,
                    std::vector<ProcessId> targets) {
    DistributionReportBody rep;
    rep.reporter = reporter;
    rep.partition = 0;
    rep.group = g;
    rep.dline = 64;
    for (auto t : targets) rep.hits.push_back(Hit{t, RumorUid{kSelf, 1}});
    cg_->on_report(10, rep);
  };
  // Group 0 covered both destinations; group 1 only one: not confirmed yet.
  report(0, 2, {3, 5});
  report(1, 1, {3});
  EXPECT_EQ(cg_->counters().confirmed, 0u);
  // Group 1 covers the remaining destination: confirmed.
  report(1, 1, {5});
  EXPECT_EQ(cg_->counters().confirmed, 1u);
  // Confirmed rumor is not shot at the deadline.
  FakeSender out;
  cg_->send_phase(64, out);
  EXPECT_TRUE(out.sent.empty());
  EXPECT_EQ(cg_->counters().shoots, 0u);
}

TEST_F(CgFixture, UnconfirmedRumorIsShotAtDeadline) {
  cg_->inject(0, test_rumor(kSelf, 64, {3, 5}));
  FakeSender out;
  cg_->send_phase(63, out);
  EXPECT_TRUE(out.sent.empty());  // not yet
  cg_->send_phase(64, out);
  ASSERT_EQ(out.sent.size(), 2u);
  EXPECT_EQ(cg_->counters().shoots, 1u);
  for (const auto& e : out.sent) {
    const auto* d = dynamic_cast<const DirectRumorPayload*>(e.body.get());
    ASSERT_NE(d, nullptr);
    EXPECT_TRUE(d->rumor.dest.test(e.to));
  }
  // Shot once only.
  FakeSender out2;
  cg_->send_phase(64 + 1, out2);
  EXPECT_TRUE(out2.sent.empty());
}

TEST_F(CgFixture, ReportsForForeignRumorsAreIgnored) {
  DistributionReportBody rep;
  rep.reporter = 2;
  rep.partition = 0;
  rep.group = 0;
  rep.dline = 64;
  rep.hits.push_back(Hit{3, RumorUid{7, 99}});  // we are not the source
  cg_->on_report(10, rep);  // must not crash or confirm anything
  EXPECT_EQ(cg_->counters().confirmed, 0u);
}

TEST_F(CgFixture, ResetForgetsInFlightRumors) {
  cg_->inject(0, test_rumor(kSelf, 64, {3, 5}));
  cg_->reset(10);
  FakeSender out;
  cg_->send_phase(64, out);
  EXPECT_TRUE(out.sent.empty());  // no memory of the rumor, no shoot
}

// on_report against a reference full scan of the report: every hit of an
// own, unconfirmed rumor marks (partition, group, target), and a rumor is
// confirmed once some partition covers every destination in every group.
// Sorted reports (what every honest reporter sends) carry foreign rumors,
// targets outside the destination set and hits of already-confirmed
// rumors, and must confirm exactly what the scan confirms. A shuffled
// report may confirm less than the scan, never more.
TEST_F(CgFixture, ReportLookupMatchesFullScan) {
  for (const bool sorted : {true, false}) {
    SCOPED_TRACE(sorted ? "sorted reports" : "shuffled reports");
    Rng ops(sorted ? 21 : 22);
    std::uint64_t scan_confirmed = cg_->counters().confirmed;
    std::uint64_t seq = sorted ? 100 : 200;
    for (int trial = 0; trial < 60; ++trial) {
      cg_->reset(0);
      // Own rumors in flight, with their reference coverage matrices.
      std::map<RumorUid, DynamicBitset> dest_of;
      std::map<RumorUid, std::vector<std::vector<DynamicBitset>>> covered;
      std::set<RumorUid> done;
      for (auto k = 1 + ops.next_below(3); k > 0; --k) {
        std::vector<std::uint32_t> dest;
        for (std::uint32_t q = 1; q < kN; ++q) {
          if (ops.next_below(3) == 0) dest.push_back(q);
        }
        if (dest.empty()) dest.push_back(3);
        ++seq;
        auto r = sim::make_rumor(kSelf, seq, adversary::canonical_payload({kSelf, seq}, 8),
                                 64, DynamicBitset::from_indices(kN, dest));
        r.injected_at = 0;
        cg_->inject(0, r);
        dest_of.emplace(r.uid, r.dest);
        auto& m = covered[r.uid];
        for (PartitionIndex l = 0; l < partitions_.count(); ++l) {
          m.emplace_back(partitions_[l].num_groups(), DynamicBitset(kN));
        }
      }
      std::vector<RumorUid> uids;
      for (const auto& [uid, _] : dest_of) uids.push_back(uid);
      uids.push_back(RumorUid{kSelf, seq + 1000});  // own source, never injected
      uids.push_back(RumorUid{4, seq});             // another source's rumor

      for (int rep_i = 0; rep_i < 12; ++rep_i) {
        DistributionReportBody rep;
        rep.reporter = static_cast<ProcessId>(ops.next_below(kN));
        rep.partition = static_cast<PartitionIndex>(ops.next_below(partitions_.count()));
        rep.group = partitions_[rep.partition].group_of(rep.reporter);
        rep.dline = 64;
        for (auto k = ops.next_below(40); k > 0; --k) {
          rep.hits.push_back(Hit{static_cast<ProcessId>(ops.next_below(kN)),
                                 uids[ops.next_below(uids.size())]});
        }
        std::sort(rep.hits.begin(), rep.hits.end());
        rep.hits.erase(std::unique(rep.hits.begin(), rep.hits.end()), rep.hits.end());
        if (!sorted) {
          for (std::size_t i = rep.hits.size(); i > 1; --i) {
            std::swap(rep.hits[i - 1], rep.hits[ops.next_below(i)]);
          }
        }

        // Reference: scan every hit in report order.
        for (const Hit& h : rep.hits) {
          if (!covered.contains(h.rumor) || done.contains(h.rumor)) continue;
          auto& m = covered[h.rumor];
          m[rep.partition][rep.group].set(h.target);
          for (const auto& groups : m) {
            if (std::all_of(groups.begin(), groups.end(), [&](const DynamicBitset& c) {
                  return c.contains_all(dest_of.at(h.rumor));
                })) {
              done.insert(h.rumor);
              ++scan_confirmed;
              break;
            }
          }
        }

        cg_->on_report(10, rep);
        if (sorted) {
          ASSERT_EQ(cg_->counters().confirmed, scan_confirmed)
              << "trial " << trial << " report " << rep_i;
        } else {
          ASSERT_LE(cg_->counters().confirmed, scan_confirmed)
              << "trial " << trial << " report " << rep_i;
        }
      }
    }
    if (sorted) {
      EXPECT_GT(scan_confirmed, 40u);  // the reports did confirm rumors
    }
    // Carry the shuffled phase's bound from the counter it starts at.
    scan_confirmed = cg_->counters().confirmed;
  }
}

}  // namespace
}  // namespace congos::core
