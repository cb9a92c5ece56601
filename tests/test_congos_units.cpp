#include <gtest/gtest.h>

#include <cmath>

#include "adversary/workload.h"
#include "common/math.h"
#include "congos/config.h"
#include "congos/congos_process.h"
#include "congos/fragment.h"

namespace congos::core {
namespace {

TEST(Config, EffectiveDeadlinePolicy) {
  CongosConfig cfg;  // direct_threshold 32, cap 1024
  EXPECT_EQ(effective_deadline(1, cfg), 0);
  EXPECT_EQ(effective_deadline(31, cfg), 0);
  EXPECT_EQ(effective_deadline(32, cfg), 32);
  EXPECT_EQ(effective_deadline(33, cfg), 32);
  EXPECT_EQ(effective_deadline(63, cfg), 32);
  EXPECT_EQ(effective_deadline(64, cfg), 64);
  EXPECT_EQ(effective_deadline(100, cfg), 64);
  EXPECT_EQ(effective_deadline(1 << 14, cfg), 1 << 10);  // capped
}

TEST(Config, EffectiveDeadlineIsAlwaysUsable) {
  CongosConfig cfg;
  for (Round d = 32; d <= 4096; ++d) {
    const Round e = effective_deadline(d, cfg);
    ASSERT_GE(e, 32);
    ASSERT_LE(e, d);
    ASSERT_TRUE(is_pow2(static_cast<std::uint64_t>(e)));
    ASSERT_GE(iterations_per_block(e), 1);
  }
}

TEST(Config, BlockAndIterationGeometry) {
  EXPECT_EQ(block_length(32), 8);
  EXPECT_EQ(block_length(128), 32);
  EXPECT_EQ(iteration_length(64), 10);   // sqrt(64)+2
  EXPECT_EQ(iteration_length(100), 12);  // floor(sqrt(100))+2
  EXPECT_EQ(iterations_per_block(64), 1);
  EXPECT_EQ(iterations_per_block(256), 3);  // 64 / 18
  EXPECT_EQ(iterations_per_block(1024), 7); // 256 / 34
}

TEST(Config, Lemma6IterationLowerBound) {
  // Lemma 6: at least sqrt(dline)/8 iterations per block.
  CongosConfig cfg;
  cfg.max_effective_deadline = 1 << 14;
  for (Round d : {64, 256, 1024, 4096, 16384}) {
    const double want = std::sqrt(static_cast<double>(d)) / 8.0;
    EXPECT_GE(static_cast<double>(iterations_per_block(d)) + 1e-9, std::floor(want))
        << d;
  }
}

TEST(Config, ServiceFanoutShape) {
  CongosConfig cfg;
  cfg.fanout_exponent = 6.0;
  cfg.fanout_c = 1.0;
  // More collaborators -> smaller per-process fan-out.
  const auto few = service_fanout(256, 256, 2, cfg);
  const auto many = service_fanout(256, 256, 200, cfg);
  EXPECT_GT(few, many);
  // Longer deadlines -> smaller fan-out.
  const auto short_d = service_fanout(256, 64, 50, cfg);
  const auto long_d = service_fanout(256, 1024, 50, cfg);
  EXPECT_GE(short_d, long_d);
  // Clamped to [1, n].
  EXPECT_GE(service_fanout(256, 1 << 20, 1 << 20, cfg), 1u);
  EXPECT_LE(service_fanout(256, 32, 1, cfg), 256u);
}

TEST(Config, DegenerateTauThreshold) {
  CongosConfig cfg;
  cfg.tau = 1;
  EXPECT_FALSE(CongosProcess::is_degenerate(256, cfg));
  cfg.tau = 200;  // 256/log2(256)^2 = 4
  EXPECT_TRUE(CongosProcess::is_degenerate(256, cfg));
  cfg.tau = 4;
  EXPECT_TRUE(CongosProcess::is_degenerate(256, cfg));
  cfg.tau = 3;
  EXPECT_FALSE(CongosProcess::is_degenerate(256, cfg));
}

TEST(Fragment, SplitRumorMetadata) {
  Rng rng(1);
  sim::Rumor r = sim::make_rumor(3, 9, adversary::canonical_payload({3, 9}, 24), 64,
                                 DynamicBitset::from_indices(16, {1, 5}));
  r.injected_at = 100;
  auto frags = split_rumor(r, 2, 3, 164, 64, rng);
  ASSERT_EQ(frags.size(), 3u);
  for (GroupIndex g = 0; g < 3; ++g) {
    EXPECT_EQ(frags[g]->meta.key.rumor, r.uid);
    EXPECT_EQ(frags[g]->meta.key.partition, 2u);
    EXPECT_EQ(frags[g]->meta.key.group, g);
    EXPECT_EQ(frags[g]->meta.dest, r.dest);
    EXPECT_EQ(frags[g]->meta.expires_at, 164);
    EXPECT_EQ(frags[g]->meta.dline, 64);
    EXPECT_EQ(frags[g]->meta.num_groups, 3u);
    EXPECT_EQ(frags[g]->data.size(), r.data.size());
  }
  // XOR of all fragments reconstructs the datum.
  std::vector<coding::Bytes> parts;
  for (const auto& f : frags) parts.push_back(f->data);
  EXPECT_EQ(coding::combine(parts), r.data);
}

TEST(Fragment, SplitsAreIndependentAcrossPartitions) {
  Rng rng(2);
  sim::Rumor r = sim::make_rumor(0, 1, coding::Bytes(32, 0xAB), 64,
                                 DynamicBitset(8));
  auto a = split_rumor(r, 0, 2, 64, 64, rng);
  auto b = split_rumor(r, 1, 2, 64, 64, rng);
  EXPECT_NE(a[0]->data, b[0]->data);  // fresh randomness per partition
}

TEST(Fragment, KeyHashAndEquality) {
  FragmentKey a{{1, 2}, 3, 0};
  FragmentKey b{{1, 2}, 3, 0};
  FragmentKey c{{1, 2}, 3, 1};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  FragmentKeyHash h;
  EXPECT_EQ(h(a), h(b));
  EXPECT_NE(h(a), h(c));  // not guaranteed in general, but true for this hash
}

TEST(Types, RumorUidPackRoundTrips) {
  RumorUid a{7, 12345};
  RumorUid b{7, 12346};
  EXPECT_NE(pack(a), pack(b));
  std::hash<RumorUid> h;
  EXPECT_EQ(h(a), h(a));
  EXPECT_NE(h(a), h(b));
}

TEST(Partitions, BuildPartitionsMatchesTau) {
  CongosConfig cfg;
  cfg.tau = 1;
  auto bit = CongosProcess::build_partitions(64, cfg);
  EXPECT_EQ(bit->count(), 6u);
  cfg.tau = 2;
  auto rnd = CongosProcess::build_partitions(64, cfg);
  EXPECT_EQ((*rnd)[0].num_groups(), 3u);
  // Deterministic: same seed, same family.
  auto rnd2 = CongosProcess::build_partitions(64, cfg);
  for (PartitionIndex l = 0; l < rnd->count(); ++l) {
    for (ProcessId p = 0; p < 64; ++p) {
      EXPECT_EQ((*rnd)[l].group_of(p), (*rnd2)[l].group_of(p));
    }
  }
}

}  // namespace
}  // namespace congos::core
