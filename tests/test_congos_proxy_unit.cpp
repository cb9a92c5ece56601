// White-box unit tests of the Proxy[l] service state machine (Fig. 9),
// driven directly with a mock sender and scripted inputs - no engine.
//
// Geometry used throughout: dline = 256 -> block length 64, iteration length
// sqrt(256)+2 = 18, hence 3 whole iterations per block. Iteration k of block
// B occupies rounds 64B + 18k .. 64B + 18k + 17, with
//   round offset 0  - proxy requests,
//   round offset 1  - intra-group share via GroupGossip,
//   round offset 17 - acknowledgements.
#include "congos/proxy.h"

#include <gtest/gtest.h>

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
  std::size_t count(sim::ServiceKind kind) const {
    std::size_t c = 0;
    for (const auto& e : sent) {
      if (e.tag.kind == kind) ++c;
    }
    return c;
  }
};

struct ShareRecord {
  Round when;
  sim::PayloadPtr body;
  Round deadline_at;
};

class ProxyFixture : public ::testing::Test {
 protected:
  ProxyFixture()
      : partitions_(partition::make_bit_partitions(kN)), rng_(42) {
    rebuild(/*self=*/0);
  }

  void rebuild(ProcessId self) {
    self_ = self;
    ProxyService::Hooks hooks;
    hooks.gossip_share = [this](Round now, sim::PayloadPtr body, Round deadline_at) {
      shares_.push_back(ShareRecord{now, std::move(body), deadline_at});
    };
    hooks.return_partials = [this](Round /*now*/, std::vector<FragmentPtr> partials) {
      for (auto& f : partials) returned_.push_back(std::move(f));
    };
    hooks.alive_since = [this] { return alive_since_; };
    proxy_ = std::make_unique<ProxyService>(self, /*l=*/0, &partitions_[0], kDline,
                                            &cfg_, &rng_, std::move(hooks));
  }

  /// Runs send_phase for rounds [from, to].
  void run(Round from, Round to) {
    for (Round t = from; t <= to; ++t) proxy_->send_phase(t, sender_);
  }

  FragmentPtr fragment_for_group(GroupIndex g, std::uint64_t seq = 1,
                                 Round expires = 10 * kBlock) {
    auto f = std::make_shared<Fragment>();
    f->meta.key = FragmentKey{RumorUid{self_, seq}, 0, g};
    f->meta.dest = DynamicBitset::from_indices(kN, {3});
    f->meta.expires_at = expires;
    f->meta.dline = kDline;
    f->meta.num_groups = 2;
    f->data = {1, 2, 3};
    return f;
  }

  partition::PartitionSet partitions_;
  CongosConfig cfg_;
  Rng rng_;
  ProcessId self_ = 0;
  Round alive_since_ = 0;
  FakeSender sender_;
  std::vector<ShareRecord> shares_;
  std::vector<FragmentPtr> returned_;
  std::unique_ptr<ProxyService> proxy_;
};

TEST_F(ProxyFixture, IdleServiceSendsNothing) {
  run(0, 2 * kBlock);
  EXPECT_TRUE(sender_.sent.empty());
  EXPECT_TRUE(shares_.empty());
  EXPECT_FALSE(proxy_->active());
}

TEST_F(ProxyFixture, ActivationWaitsForBlockBoundaryAndUptime) {
  // Fragment enqueued mid-block 0; process alive since round 0, so it has
  // the required dline/4 uptime at the block-1 boundary.
  proxy_->enqueue(5, fragment_for_group(1));
  run(5, kBlock - 1);
  EXPECT_TRUE(sender_.sent.empty());  // still waiting for the block boundary
  run(kBlock, kBlock);                // block 1, iteration 0, round 1
  EXPECT_TRUE(proxy_->active());
  EXPECT_GT(sender_.count(sim::ServiceKind::kProxy), 0u);
}

TEST_F(ProxyFixture, RecentlyRestartedProcessStaysIdleForOneBlock) {
  alive_since_ = kBlock - 4;  // restarted 4 rounds before the boundary
  proxy_->enqueue(kBlock - 3, fragment_for_group(1));
  run(kBlock, 2 * kBlock - 1);
  EXPECT_TRUE(sender_.sent.empty());  // not alive for dline/4 at block 1
  run(2 * kBlock, 2 * kBlock);
  EXPECT_TRUE(proxy_->active());  // block 2: uptime satisfied, rumor kept
  EXPECT_GT(sender_.count(sim::ServiceKind::kProxy), 0u);
}

TEST_F(ProxyFixture, RequestsTargetOnlyTheFragmentGroup) {
  // Self = 0 is in group 0 of partition 0 (bit 0); the fragment belongs to
  // group 1, so every request must go to an odd id ([PROXY:CONFIDENTIAL]).
  proxy_->enqueue(0, fragment_for_group(1));
  run(kBlock, kBlock);
  ASSERT_GT(sender_.sent.size(), 0u);
  for (const auto& e : sender_.sent) {
    EXPECT_EQ(e.tag.kind, sim::ServiceKind::kProxy);
    EXPECT_EQ(partitions_[0].group_of(e.to), 1u);
    const auto* req = dynamic_cast<const ProxyRequestPayload*>(e.body.get());
    ASSERT_NE(req, nullptr);
    EXPECT_EQ(req->dline, kDline);
    ASSERT_EQ(req->fragments.size(), 1u);
    EXPECT_EQ(req->fragments[0]->meta.key.group, 1u);
  }
}

TEST_F(ProxyFixture, UnacknowledgedProxiesAreRetriedAndMarkedFailed) {
  // Shrink the fan-out to one target per iteration so the failed-proxy
  // exclusion is observable (at full fan-out the whole group is tried at
  // once and the exhausted pool legitimately resets).
  cfg_.fanout_c = 1e-9;
  proxy_->enqueue(0, fragment_for_group(1));
  run(kBlock, kBlock);  // iteration 0 requests
  std::vector<ProcessId> first_targets;
  for (const auto& e : sender_.sent) first_targets.push_back(e.to);
  ASSERT_EQ(first_targets.size(), 1u);
  sender_.clear();
  // No acks arrive. Iteration 1 round 0 = kBlock + kIter.
  run(kBlock + 1, kBlock + kIter);
  std::vector<ProcessId> second_targets;
  for (const auto& e : sender_.sent) {
    if (e.tag.kind == sim::ServiceKind::kProxy &&
        dynamic_cast<const ProxyRequestPayload*>(e.body.get()) != nullptr) {
      second_targets.push_back(e.to);
    }
  }
  ASSERT_GT(second_targets.size(), 0u);  // still active: retried
  // Failed proxies from iteration 0 are excluded in iteration 1.
  for (auto t : second_targets) {
    for (auto f : first_targets) EXPECT_NE(t, f);
  }
}

TEST_F(ProxyFixture, ExhaustedProxyPoolResetsToWholeGroup) {
  // With saturating fan-out every group member is tried (and unresponsive)
  // in iteration 0; iteration 1 must fall back to retrying the full group
  // rather than going silent.
  proxy_->enqueue(0, fragment_for_group(1));
  run(kBlock, kBlock);
  const auto first = sender_.count(sim::ServiceKind::kProxy);
  ASSERT_EQ(first, kN / 2);  // all of group 1
  sender_.clear();
  run(kBlock + 1, kBlock + kIter);
  EXPECT_EQ(sender_.count(sim::ServiceKind::kProxy), kN / 2);
}

TEST_F(ProxyFixture, AckSatisfiesGroupAndGoesIdle) {
  proxy_->enqueue(0, fragment_for_group(1));
  run(kBlock, kBlock);
  ASSERT_GT(sender_.sent.size(), 0u);
  const ProcessId acker = sender_.sent[0].to;
  sender_.clear();
  proxy_->on_ack(kBlock + kIter - 1, acker);
  // Iteration 1: the ack settles, all groups satisfied -> idle, no requests.
  run(kBlock + 1, kBlock + kIter);
  EXPECT_EQ(sender_.count(sim::ServiceKind::kProxy), 0u);
  EXPECT_FALSE(proxy_->active());
}

TEST_F(ProxyFixture, ProxySideCachesSharesAndAcks) {
  // This process receives a request for its own group (0).
  ProxyRequestPayload req;
  req.dline = kDline;
  req.fragments.push_back(fragment_for_group(0));
  proxy_->on_request(kBlock + 0, req, /*from=*/7);

  // Round 1 of the iteration: it shares the proxied fragment in-group.
  run(kBlock + 1, kBlock + 1);
  ASSERT_EQ(shares_.size(), 1u);
  const auto* share = dynamic_cast<const ProxyShareBody*>(shares_[0].body.get());
  ASSERT_NE(share, nullptr);
  ASSERT_EQ(share->proxied.size(), 1u);
  EXPECT_EQ(share->proxied[0]->meta.key.group, 0u);
  EXPECT_EQ(shares_[0].deadline_at, kBlock + 1 + 16);  // sqrt(256)

  // Last round of the iteration: acknowledgement to the requester.
  run(kBlock + 2, kBlock + kIter - 1);
  ASSERT_EQ(sender_.count(sim::ServiceKind::kProxy), 1u);
  EXPECT_EQ(sender_.sent.back().to, 7u);
  EXPECT_NE(dynamic_cast<const ProxyAckPayload*>(sender_.sent.back().body.get()),
            nullptr);
}

TEST_F(ProxyFixture, DuplicateRequestsAckOnceAndCacheOnce) {
  ProxyRequestPayload req;
  req.dline = kDline;
  req.fragments.push_back(fragment_for_group(0));
  proxy_->on_request(kBlock, req, 7);
  proxy_->on_request(kBlock, req, 7);
  proxy_->on_request(kBlock, req, 9);
  run(kBlock + 1, kBlock + kIter - 1);
  ASSERT_EQ(shares_.size(), 1u);
  const auto* share = dynamic_cast<const ProxyShareBody*>(shares_[0].body.get());
  ASSERT_EQ(share->proxied.size(), 1u);  // deduplicated by fragment key
  EXPECT_EQ(sender_.count(sim::ServiceKind::kProxy), 2u);  // acks to 7 and 9
}

TEST_F(ProxyFixture, SharedFragmentsAreReturnedAtNextBlock) {
  ProxyShareBody share;
  share.dline = kDline;
  share.from = 2;
  share.proxied.push_back(fragment_for_group(0));
  proxy_->on_share(kBlock + 5, share);
  EXPECT_TRUE(returned_.empty());
  run(2 * kBlock, 2 * kBlock);  // next block boundary returns partials
  ASSERT_EQ(returned_.size(), 1u);
  EXPECT_EQ(returned_[0]->meta.key.group, 0u);
}

TEST_F(ProxyFixture, ExpiredFragmentsAreDroppedEverywhere) {
  proxy_->enqueue(0, fragment_for_group(1, 1, /*expires=*/kBlock - 1));
  run(kBlock, kBlock + kIter);
  EXPECT_EQ(sender_.count(sim::ServiceKind::kProxy), 0u);  // nothing to place

  ProxyShareBody share;
  share.dline = kDline;
  share.from = 2;
  share.proxied.push_back(fragment_for_group(0, 2, /*expires=*/kBlock));
  proxy_->on_share(2 * kBlock - 1, share);
  returned_.clear();
  run(2 * kBlock, 2 * kBlock);
  EXPECT_TRUE(returned_.empty());  // expired before the return boundary
}

TEST_F(ProxyFixture, ResetWipesEverything) {
  proxy_->enqueue(0, fragment_for_group(1));
  ProxyRequestPayload req;
  req.dline = kDline;
  req.fragments.push_back(fragment_for_group(0));
  proxy_->on_request(3, req, 7);
  proxy_->reset(10);
  run(kBlock, 3 * kBlock);
  EXPECT_TRUE(sender_.sent.empty());
  EXPECT_TRUE(shares_.empty());
  EXPECT_TRUE(returned_.empty());
}

// A fragment is built once and then only shared: the requester's queue,
// its proxy request, the proxy's buffer and share, and a collaborator's
// returned partials all hold the very object that was enqueued.
TEST_F(ProxyFixture, OneFragmentObjectFromEnqueueToReturnedPartials) {
  const auto peer = [&](ProcessId self, std::vector<ShareRecord>* shares,
                        std::vector<FragmentPtr>* returned) {
    ProxyService::Hooks hooks;
    hooks.gossip_share = [shares](Round now, sim::PayloadPtr body, Round deadline_at) {
      shares->push_back(ShareRecord{now, std::move(body), deadline_at});
    };
    hooks.return_partials = [returned](Round /*now*/, std::vector<FragmentPtr> partials) {
      returned->insert(returned->end(), partials.begin(), partials.end());
    };
    hooks.alive_since = [] { return Round{0}; };
    return std::make_unique<ProxyService>(self, /*l=*/0, &partitions_[0], kDline, &cfg_,
                                          &rng_, std::move(hooks));
  };
  std::vector<ShareRecord> proxy_shares, collaborator_shares;
  std::vector<FragmentPtr> proxy_returned, collaborator_returned;
  auto proxy = peer(/*self=*/1, &proxy_shares, &proxy_returned);  // group 1
  auto collaborator = peer(/*self=*/3, &collaborator_shares, &collaborator_returned);

  const FragmentPtr frag = fragment_for_group(1);
  proxy_->enqueue(0, frag);
  run(kBlock, kBlock);  // the requester sends its proxy requests
  proxy->send_phase(kBlock, sender_);
  collaborator->send_phase(kBlock, sender_);
  ASSERT_FALSE(sender_.sent.empty());
  const auto* req = dynamic_cast<const ProxyRequestPayload*>(sender_.sent[0].body.get());
  ASSERT_NE(req, nullptr);
  ASSERT_EQ(req->fragments.size(), 1u);
  EXPECT_EQ(req->fragments[0].get(), frag.get());

  proxy->on_request(kBlock, *req, self_);
  proxy->send_phase(kBlock + 1, sender_);  // shares its proxy buffer in-group
  ASSERT_EQ(proxy_shares.size(), 1u);
  const auto* share = dynamic_cast<const ProxyShareBody*>(proxy_shares[0].body.get());
  ASSERT_NE(share, nullptr);
  ASSERT_EQ(share->proxied.size(), 1u);
  EXPECT_EQ(share->proxied[0].get(), frag.get());

  collaborator->send_phase(kBlock + 1, sender_);
  collaborator->on_share(kBlock + 1, *share);
  for (Round t = kBlock + 2; t <= 2 * kBlock; ++t) collaborator->send_phase(t, sender_);
  ASSERT_EQ(collaborator_returned.size(), 1u);
  EXPECT_EQ(collaborator_returned[0].get(), frag.get());
}

TEST_F(ProxyFixture, OwnGroupFragmentEnqueueAborts) {
  EXPECT_DEATH(proxy_->enqueue(0, fragment_for_group(0)),
               "own-group fragments");
}

}  // namespace
}  // namespace congos::core
