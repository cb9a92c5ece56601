// White-box unit tests of the GroupDistribution[l] state machine (Fig. 10).
//
// Geometry: dline = 256 -> block 64, iteration 18 (3 per block). Iterations
// start at block round 2 (round 1 waits for late fragments):
//   block offset 1           - collect waiting fragments, activate;
//   block offset 2 (io==1)   - distribute partials to destinations;
//   block offset 3 (io==2)   - share hitSet via GroupGossip;
//   block offset 63          - publish the sanitized AllGossip report.
#include "congos/group_distribution.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "partition/bit_partition.h"

namespace congos::core {
namespace {

constexpr std::size_t kN = 16;
constexpr Round kDline = 256;
constexpr Round kBlock = 64;
constexpr Round kIter = 18;

struct FakeSender final : sim::Sender {
  std::vector<sim::Envelope> sent;
  void send(sim::Envelope e) override { sent.push_back(std::move(e)); }
  void clear() { sent.clear(); }
};

struct Record {
  Round when;
  sim::PayloadPtr body;
  Round deadline_at;
};

class GdFixture : public ::testing::Test {
 protected:
  GdFixture() : partitions_(partition::make_bit_partitions(kN)), rng_(7) {
    GroupDistributionService::Hooks hooks;
    hooks.gossip_share = [this](Round now, sim::PayloadPtr body, Round deadline_at) {
      shares_.push_back(Record{now, std::move(body), deadline_at});
    };
    hooks.all_gossip = [this](Round now, sim::PayloadPtr body, Round deadline_at) {
      reports_.push_back(Record{now, std::move(body), deadline_at});
    };
    hooks.alive_since = [this] { return alive_since_; };
    gd_ = std::make_unique<GroupDistributionService>(/*self=*/0, /*l=*/0,
                                                     &partitions_[0], kDline, &cfg_,
                                                     &rng_, std::move(hooks));
  }

  void run(Round from, Round to) {
    for (Round t = from; t <= to; ++t) gd_->send_phase(t, sender_);
  }

  std::shared_ptr<Fragment> own_fragment(std::vector<std::uint32_t> dest,
                                         std::uint64_t seq = 1,
                                         Round expires = 20 * kBlock) {
    auto f = std::make_shared<Fragment>();
    f->meta.key = FragmentKey{RumorUid{5, seq}, 0, 0};  // group 0 = self's group
    f->meta.dest = DynamicBitset::from_indices(kN, dest);
    f->meta.expires_at = expires;
    f->meta.dline = kDline;
    f->meta.num_groups = 2;
    f->data = {9, 9};
    return f;
  }

  partition::PartitionSet partitions_;
  CongosConfig cfg_;
  Rng rng_;
  Round alive_since_ = 0;
  FakeSender sender_;
  std::vector<Record> shares_;
  std::vector<Record> reports_;
  std::unique_ptr<GroupDistributionService> gd_;
};

// The 2/3*dline uptime requirement means activation first succeeds at the
// block boundary after round ceil(2*256/3) = 171, i.e. block 3 (round 192).
constexpr Round kFirstActiveBlock = 3 * kBlock;

TEST_F(GdFixture, ActivationNeedsTwoThirdsDeadlineUptime) {
  gd_->enqueue(0, own_fragment({3}));
  run(0, kFirstActiveBlock);  // blocks 0..2: too young
  EXPECT_TRUE(sender_.sent.empty());
  EXPECT_FALSE(gd_->active());
  run(kFirstActiveBlock + 1, kFirstActiveBlock + 2);
  EXPECT_TRUE(gd_->active());
  EXPECT_FALSE(sender_.sent.empty());
}

TEST_F(GdFixture, PartialsGoOnlyToDestinations) {
  gd_->enqueue(0, own_fragment({3, 6, 9}));
  run(0, kFirstActiveBlock + 2);
  ASSERT_FALSE(sender_.sent.empty());
  std::set<ProcessId> hit;
  for (const auto& e : sender_.sent) {
    EXPECT_EQ(e.tag.kind, sim::ServiceKind::kGroupDistribution);
    EXPECT_TRUE(e.to == 3 || e.to == 6 || e.to == 9) << e.to;
    const auto* p = dynamic_cast<const PartialsPayload*>(e.body.get());
    ASSERT_NE(p, nullptr);
    for (const auto& f : p->fragments) EXPECT_TRUE(f->meta.dest.test(e.to));
    hit.insert(e.to);
  }
  // Fan-out at this scale saturates: all three destinations hit at once.
  EXPECT_EQ(hit.size(), 3u);
}

TEST_F(GdFixture, HitDestinationsAreNotRetargeted) {
  gd_->enqueue(0, own_fragment({3, 6}));
  run(0, kFirstActiveBlock + 2);  // first distribution round
  const auto first = sender_.sent.size();
  ASSERT_GT(first, 0u);
  sender_.clear();
  // Second iteration's distribution round: everyone already hit.
  run(kFirstActiveBlock + 3, kFirstActiveBlock + 1 + kIter + 1);
  EXPECT_EQ(sender_.sent.size(), 0u);
}

TEST_F(GdFixture, HitSetSharedViaGroupGossip) {
  gd_->enqueue(0, own_fragment({3}));
  run(0, kFirstActiveBlock + 3);  // through the share round (offset 3)
  ASSERT_FALSE(shares_.empty());
  const auto* share = dynamic_cast<const HitSetShareBody*>(shares_.back().body.get());
  ASSERT_NE(share, nullptr);
  ASSERT_EQ(share->hits.size(), 1u);
  EXPECT_EQ(share->hits[0].target, 3u);
  EXPECT_EQ(share->hits[0].rumor, (RumorUid{5, 1}));
  EXPECT_EQ(shares_.back().deadline_at, shares_.back().when + 16);
}

TEST_F(GdFixture, LearnedHitsSuppressOwnSends) {
  gd_->enqueue(0, own_fragment({3}));
  // Before our first distribution round, a collaborator tells us 3 was hit.
  HitSetShareBody share;
  share.from = 2;
  share.hits.push_back(Hit{3, RumorUid{5, 1}});
  run(0, kFirstActiveBlock + 1);  // activate and collect
  gd_->on_share(kFirstActiveBlock + 1, share);
  run(kFirstActiveBlock + 2, kFirstActiveBlock + 2);
  EXPECT_TRUE(sender_.sent.empty());  // nothing left to send
}

TEST_F(GdFixture, ReportPublishedAtBlockEndWithGroupTag) {
  gd_->enqueue(0, own_fragment({3}));
  run(0, kFirstActiveBlock + kBlock - 1);
  ASSERT_FALSE(reports_.empty());
  const auto& rec = reports_.back();
  EXPECT_EQ(rec.when, kFirstActiveBlock + kBlock - 1);
  EXPECT_EQ(rec.deadline_at, rec.when + kBlock - 1);
  const auto* rep = dynamic_cast<const DistributionReportBody*>(rec.body.get());
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->reporter, 0u);
  EXPECT_EQ(rep->group, 0u);
  EXPECT_EQ(rep->partition, 0u);
  ASSERT_EQ(rep->hits.size(), 1u);
  EXPECT_EQ(rep->hits[0].target, 3u);
}

TEST_F(GdFixture, NoReportWhenNothingWasSent) {
  run(0, kFirstActiveBlock + kBlock - 1);
  EXPECT_TRUE(reports_.empty());
}

TEST_F(GdFixture, FragmentsEnqueuedMidBlockWaitForNextBlock) {
  run(0, kFirstActiveBlock + 1);  // active, empty
  gd_->enqueue(kFirstActiveBlock + 2, own_fragment({3}));
  run(kFirstActiveBlock + 2, kFirstActiveBlock + kBlock - 1);
  EXPECT_TRUE(sender_.sent.empty());  // waits for the next collection
  run(kFirstActiveBlock + kBlock, kFirstActiveBlock + kBlock + 2);
  EXPECT_FALSE(sender_.sent.empty());
}

TEST_F(GdFixture, ExpiredFragmentsNeverDistributed) {
  gd_->enqueue(0, own_fragment({3}, 1, /*expires=*/kFirstActiveBlock - 1));
  run(0, kFirstActiveBlock + kBlock - 1);
  EXPECT_TRUE(sender_.sent.empty());
  EXPECT_TRUE(reports_.empty());
}

TEST_F(GdFixture, ResetWipesState) {
  gd_->enqueue(0, own_fragment({3}));
  gd_->reset(5);
  run(0, kFirstActiveBlock + kBlock - 1);
  EXPECT_TRUE(sender_.sent.empty());
}

// Every partials message carries the very fragment object that was
// enqueued: the block state and each message share it, none copies it.
TEST_F(GdFixture, PartialsCarryTheEnqueuedFragmentObject) {
  const FragmentPtr frag = own_fragment({3, 6, 9});
  gd_->enqueue(0, frag);
  run(0, kFirstActiveBlock + 2);
  ASSERT_FALSE(sender_.sent.empty());
  for (const auto& e : sender_.sent) {
    const auto* p = dynamic_cast<const PartialsPayload*>(e.body.get());
    ASSERT_NE(p, nullptr);
    ASSERT_EQ(p->fragments.size(), 1u);
    EXPECT_EQ(p->fragments[0].get(), frag.get());
  }
}

TEST_F(GdFixture, WrongGroupFragmentAborts) {
  auto f = own_fragment({3});
  f->meta.key.group = 1;  // self is in group 0
  EXPECT_DEATH(gd_->enqueue(0, f), "own-group");
}

// The hit set against a std::set model: random collaborator shares
// (identical, subset, superset, disjoint, unsorted, duplicated), the
// service's own distribute() sends, partials acks and block turns. After
// every step hitset_size() must equal the model, and every share and report
// body must list exactly the model, ascending. Runs without and with ack
// gating (retransmission), where a send counts only once its target acks.
class GroupDistribution : public GdFixture {};

TEST_F(GroupDistribution, HitSetMatchesSetModel) {
  for (const bool ack_gated : {false, true}) {
    SCOPED_TRACE(ack_gated ? "ack-gated" : "fire-and-forget");
    cfg_.retransmit.enabled = ack_gated;
    gd_->reset(0);
    shares_.clear();
    reports_.clear();
    Rng ops(ack_gated ? 12 : 11);
    std::set<Hit> model;
    std::map<ProcessId, std::vector<Hit>> pending;  // ack-gated sends in flight
    std::size_t checked_shares = 0;
    std::size_t checked_reports = 0;
    std::size_t acks_merged = 0;

    const auto random_hit = [&] {
      const ProcessId source = ops.next_below(2) == 0 ? 5 : 6;
      return Hit{static_cast<ProcessId>(ops.next_below(kN)),
                 RumorUid{source, 1 + ops.next_below(8)}};
    };
    const auto ascending_model = [&] {
      return std::vector<Hit>(model.begin(), model.end());
    };
    const auto shuffle = [&](std::vector<Hit>& v) {
      for (std::size_t i = v.size(); i > 1; --i) {
        std::swap(v[i - 1], v[ops.next_below(i)]);
      }
    };
    const auto random_share = [&] {
      std::vector<Hit> hits;
      const auto superset = [&] {
        hits = ascending_model();
        for (auto k = 1 + ops.next_below(5); k > 0; --k) hits.push_back(random_hit());
        std::sort(hits.begin(), hits.end());
        hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
      };
      switch (ops.next_below(6)) {
        case 0:  // identical
          hits = ascending_model();
          break;
        case 1:  // subset
          for (const Hit& h : model) {
            if (ops.next_below(2) == 0) hits.push_back(h);
          }
          break;
        case 2:
          superset();
          break;
        case 3: {  // disjoint
          std::set<Hit> fresh;
          for (auto k = 1 + ops.next_below(6); k > 0; --k) {
            const Hit h = random_hit();
            if (!model.contains(h)) fresh.insert(h);
          }
          hits.assign(fresh.begin(), fresh.end());
          break;
        }
        case 4:  // unsorted: only a buggy peer sends one
          superset();
          shuffle(hits);
          break;
        default: {  // duplicated entries
          superset();
          const auto size = hits.size();
          for (std::size_t i = 0; i < size; ++i) hits.push_back(hits[i]);
          std::sort(hits.begin(), hits.end());
          break;
        }
      }
      return hits;
    };

    for (Round t = 0; t < 9 * kBlock; ++t) {
      if (t % kBlock == 0) {
        for (auto k = 1 + ops.next_below(3); k > 0; --k) {
          std::vector<std::uint32_t> dest;
          for (std::uint32_t q = 1; q < kN; ++q) {
            if (ops.next_below(3) == 0) dest.push_back(q);
          }
          if (dest.empty()) {
            dest.push_back(1 + static_cast<std::uint32_t>(ops.next_below(kN - 1)));
          }
          gd_->enqueue(t, own_fragment(dest, 1 + ops.next_below(8)));
        }
      }
      if (t % kBlock == 1) {  // begin_block forgets the previous block's hits
        model.clear();
        pending.clear();
      }

      // Send phase. Shares and reports are published in rounds without a
      // distribution, so they must list the model as it stood before it.
      const auto shares_before = shares_.size();
      const auto reports_before = reports_.size();
      sender_.clear();
      gd_->send_phase(t, sender_);
      for (auto i = shares_before; i < shares_.size(); ++i) {
        const auto& share = static_cast<const HitSetShareBody&>(*shares_[i].body);
        EXPECT_EQ(share.hits, ascending_model()) << "share at round " << t;
        if (!share.hits.empty()) ++checked_shares;
      }
      for (auto i = reports_before; i < reports_.size(); ++i) {
        const auto& report =
            static_cast<const DistributionReportBody&>(*reports_[i].body);
        EXPECT_EQ(report.hits, ascending_model()) << "report at round " << t;
        ++checked_reports;
      }
      for (const auto& e : sender_.sent) {
        const auto& partials = static_cast<const PartialsPayload&>(*e.body);
        std::vector<Hit> sent;
        for (const auto& f : partials.fragments) {
          sent.push_back(Hit{e.to, f->meta.key.rumor});
        }
        if (ack_gated) {
          pending[e.to] = std::move(sent);
        } else {
          model.insert(sent.begin(), sent.end());
        }
      }
      ASSERT_EQ(gd_->hitset_size(), model.size()) << "after send phase " << t;

      // Receive phase: a few random inputs.
      for (auto k = ops.next_below(3); k > 0; --k) {
        if (ack_gated && !pending.empty() && ops.next_below(2) == 0) {
          auto it = pending.begin();
          std::advance(it, static_cast<long>(ops.next_below(pending.size())));
          gd_->on_partials_ack(t, it->first);
          model.insert(it->second.begin(), it->second.end());
          pending.erase(it);
          ++acks_merged;
        } else {
          HitSetShareBody share;
          share.from = static_cast<ProcessId>(1 + ops.next_below(kN - 1));
          share.hits = random_share();
          gd_->on_share(t, share);
          model.insert(share.hits.begin(), share.hits.end());
        }
        ASSERT_EQ(gd_->hitset_size(), model.size()) << "after an input at round " << t;
      }
    }
    EXPECT_GT(checked_shares, 10u);
    EXPECT_GT(checked_reports, 3u);
    if (ack_gated) {
      EXPECT_GT(acks_merged, 10u);
    }
  }
}

}  // namespace
}  // namespace congos::core
