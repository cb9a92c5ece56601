// ConfidentialGossip service (Section 4.3, Fig. 2/8): the main protocol.
//
// On injection, a rumor is split per partition into one XOR fragment per
// group; the own-group fragment enters GroupGossip[l], the other fragments
// enter Proxy[l]. Fragments received back from GroupGossip[l]/Proxy[l] are
// fed into GroupDistribution[l]; fragments received as GroupDistribution
// "partials" are stored and reassembled (delivery to the user happens here).
// AllGossip distribution reports accumulate into a per-rumor confirmation
// matrix: once some partition shows every destination was sent every group's
// fragment, the rumor is confirmed. An unconfirmed rumor is sent *directly*
// to its destination set when its deadline expires - this fallback is what
// makes Quality of Delivery deterministic (Lemma 4).
#pragma once

#include <functional>
#include <vector>

#include "common/flat_map.h"
#include "common/flat_set.h"
#include "common/pool.h"
#include "common/rng.h"
#include "congos/config.h"
#include "congos/fragment.h"
#include "congos/group_distribution.h"
#include "congos/proxy.h"
#include "partition/partition.h"
#include "sim/process.h"

namespace congos::core {

/// Progress counters exposed for tests and the E7 service-breakdown bench.
struct CgCounters {
  std::uint64_t injected = 0;
  std::uint64_t injected_direct = 0;   // below-threshold deadline: direct path
  std::uint64_t confirmed = 0;         // confirmed before the deadline
  std::uint64_t shoots = 0;            // fallback direct-send events (rumors)
  std::uint64_t shoot_messages = 0;    // fallback messages sent
  std::uint64_t delivered = 0;         // rumors delivered to this process
  std::uint64_t reassembled = 0;       // ... of which via fragment reassembly
};

class ConfidentialGossipService {
 public:
  struct Hooks {
    /// Inject a FragmentBody into GroupGossip[l] with dest = own group.
    std::function<void(PartitionIndex l, Round now, sim::PayloadPtr body,
                       Round deadline_at)>
        gossip_fragment;
    /// Access the Proxy[l] instance for a deadline class.
    std::function<ProxyService*(Round dline, PartitionIndex l)> proxy;
    /// Access the GroupDistribution[l] instance for a deadline class.
    std::function<GroupDistributionService*(Round dline, PartitionIndex l)> gd;
  };

  ConfidentialGossipService(ProcessId self, const CongosConfig* cfg,
                            const partition::PartitionSet* partitions, bool degenerate,
                            Rng* rng, sim::DeliveryListener* listener, Hooks hooks);

  void reset(Round now);

  void inject(Round now, const sim::Rumor& rumor);

  /// Flushes queued direct sends and fires the deadline fallback.
  void send_phase(Round now, sim::Sender& out);

  // -- inputs from the services ---------------------------------------------

  /// Own-group fragment delivered by GroupGossip[l].
  void on_group_fragment(Round now, PartitionIndex l, const FragmentPtr& frag);
  /// Own-group fragments returned by Proxy[l] at block end.
  void on_proxy_return(Round now, PartitionIndex l, std::vector<FragmentPtr> frags);
  /// GroupDistribution partials addressed to this process.
  void on_partials(Round now, const PartialsPayload& partials);
  /// Fallback direct rumor.
  void on_direct(Round now, const DirectRumorPayload& direct);
  /// Receipt ack for a direct send (retransmission mode): `from` confirmed
  /// the rumor, so the fallback stops re-firing towards it.
  void on_direct_ack(RumorUid uid, ProcessId from);
  /// AllGossip distribution report (confirmation metadata).
  void on_report(Round now, const DistributionReportBody& report);

  const CgCounters& counters() const { return counters_; }

 private:
  struct CacheEntry {
    sim::Rumor rumor;
    Round shoot_at = 0;
    /// Next round the deadline fallback fires. Without retransmission this
    /// equals shoot_at (the classic fire-once shoot); with it, the schedule
    /// of congos/retransmit.h starts early and re-fires until every
    /// destination acked or the rumor expired.
    Round next_shot = kNoRound;
    bool confirmed = false;
    /// Destinations that acknowledged a direct send (retransmission mode
    /// only; empty otherwise).
    DynamicBitset acked;
  };
  struct StoreKey {
    RumorUid uid;
    PartitionIndex partition = 0;
    friend bool operator==(const StoreKey&, const StoreKey&) = default;
  };
  struct StoreKeyHash {
    std::size_t operator()(const StoreKey& k) const noexcept {
      return FragmentKeyHash{}(FragmentKey{k.uid, k.partition, 0});
    }
  };
  struct StoreEntry {
    GroupIndex num_groups = 0;
    Round expires_at = 0;
    FlatMap<GroupIndex, FragmentPtr> parts;
  };
  /// Per-rumor confirmation matrix: partition x group -> destinations known
  /// to have been sent that group's fragment.
  using ConfirmMatrix = std::vector<std::vector<DynamicBitset>>;

  ProcessId self_;
  const CongosConfig* cfg_;
  const partition::PartitionSet* partitions_;
  bool degenerate_;
  Rng* rng_;
  sim::DeliveryListener* listener_;
  Hooks hooks_;

  FlatMap<RumorUid, CacheEntry> cache_;  // only rumors this process injected
  FlatMap<RumorUid, ConfirmMatrix> confirm_;
  FlatMap<StoreKey, StoreEntry, StoreKeyHash> store_;
  FlatSet<RumorUid> delivered_;
  std::vector<sim::Envelope> pending_direct_;
  PayloadPool<DirectRumorPayload> direct_pool_;
  CgCounters counters_;
  Round last_gc_ = 0;

  void deliver_local(Round now, RumorUid uid, const coding::Bytes& data,
                     bool reassembled);
  /// Queues direct sends to the rumor's destinations; `skip` (may be null)
  /// suppresses destinations that already acknowledged.
  void queue_direct(Round now, const sim::Rumor& rumor,
                    const DynamicBitset* skip = nullptr);
  /// Arms entry.next_shot per the retransmission schedule (or the classic
  /// fire-once shoot when retransmission is off).
  void arm_fallback(CacheEntry& entry, Round now);
  /// Fires one fallback attempt and advances/retires the schedule.
  void fire_fallback(CacheEntry& entry, Round now);
  bool all_destinations_acked(const CacheEntry& entry) const;
  void add_fragment_for_reassembly(Round now, const FragmentPtr& frag);
  void check_confirmed(RumorUid uid);
  void gc(Round now);
};

}  // namespace congos::core
