// GroupDistribution[l] service (Section 4.5, Fig. 4/10).
//
// Distributes the fragments a group holds to the rumors' destination sets.
// Each iteration, every active collaborator samples destination processes
// that have not yet been "hit" and sends each one exactly the fragments whose
// destination set contains it ([GD:CONFIDENTIAL]). The group shares hitSets
// via GroupGossip[l], so collaborators do not duplicate work, and counts its
// active members to size the fan-out. At the end of each block, the sanitized
// hitSet (identifiers only, no fragment data) is published via AllGossip so
// sources can confirm delivery ([GD:CONFIRM]) and suppress their fallback.
//
// Note on targeting: the outline samples targets from the opposite group,
// but Lemma 9's proof measures progress over all of [n] \ hitProcs, and
// confirmation (Fig. 8 lines 41-46) needs hitSet coverage of *every*
// destination, including destinations in the sender's own group. We
// therefore target any not-yet-hit destination in [n]; this only ever sends
// fragments to processes in their destination set, so [GD:CONFIDENTIAL] is
// unaffected. (See DESIGN.md section 6.)
#pragma once

#include <functional>
#include <vector>

#include "common/flat_map.h"
#include "common/flat_set.h"
#include "common/pool.h"
#include "common/rng.h"
#include "congos/config.h"
#include "congos/fragment.h"
#include "partition/partition.h"
#include "sim/process.h"

namespace congos::core {

class GroupDistributionService {
 public:
  struct Hooks {
    /// Inject a metadata rumor into GroupGossip[l] (dest = own group).
    std::function<void(Round now, sim::PayloadPtr body, Round deadline_at)> gossip_share;
    /// Inject the sanitized report into AllGossip (dest = [n]).
    std::function<void(Round now, sim::PayloadPtr body, Round deadline_at)> all_gossip;
    /// Rounds this process has been continuously alive (from the host).
    std::function<Round()> alive_since;
  };

  GroupDistributionService(ProcessId self, PartitionIndex l,
                           const partition::Partition* part, Round dline,
                           const CongosConfig* cfg, Rng* rng, Hooks hooks);

  void reset(Round now);

  /// ConfidentialGossip routes own-group fragments here (waiting-partials).
  void enqueue(Round now, FragmentPtr frag);

  void send_phase(Round now, sim::Sender& out);

  /// Intra-group hitSet share delivered by GroupGossip[l].
  void on_share(Round now, const HitSetShareBody& share);

  /// Receipt ack for a partials message (retransmission mode): the hits sent
  /// to `from` graduate from pending to the hitSet. Until then the
  /// destination stays targetable, so the next distribute() round is the
  /// retransmission - confirmations only ever report *acknowledged* hits.
  void on_partials_ack(Round now, ProcessId from);

  bool active() const { return status_active_; }
  Round dline() const { return dline_; }
  std::size_t hitset_size() const { return hitset_.size(); }

 private:
  ProcessId self_;
  PartitionIndex partition_;
  const partition::Partition* part_;
  Round dline_;
  Round block_len_;
  Round iter_len_;
  Round iters_per_block_;
  const CongosConfig* cfg_;
  Rng* rng_;
  Hooks hooks_;
  GroupIndex my_group_;

  std::vector<FragmentPtr> waiting_;  // enqueued, not yet collected
  /// This block's fragments to distribute; every partials message pushes
  /// these handles (DESIGN.md section 9).
  std::vector<FragmentPtr> partials_;
  FlatSet<FragmentKey, FragmentKeyHash> partial_keys_;
  /// The hit set: one sorted, duplicate-free run. Shares and reports copy it
  /// as is, and a share that repeats it costs one compare per hit.
  std::vector<Hit> hitset_;
  /// Retransmission mode only: hits sent but not yet acknowledged, keyed by
  /// destination. Cleared at block boundaries (unacked sends of a finished
  /// block were lost for good - the fallback covers those rumors).
  FlatMap<ProcessId, std::vector<Hit>> pending_unacked_;
  DynamicBitset collaborators_;
  bool status_active_ = false;

  // Per-round scratch for distribute(), hoisted so the needed-map and its
  // per-target lists keep their capacity between rounds instead of being
  // reallocated each call (DESIGN.md section 9).
  FlatMap<ProcessId, std::uint32_t> needed_index_;  // target -> slot in lists
  std::vector<std::vector<std::uint32_t>> needed_lists_;  // indices into partials_
  std::vector<Hit> fresh_hits_;  // hits not yet in hitset_, merged in one pass
  std::vector<ProcessId> candidates_;
  std::vector<std::uint32_t> pick_scratch_;
  PayloadPool<PartialsPayload> partials_pool_;

  void begin_block(Round now);
  void distribute(Round now, sim::Sender& out);
  /// Merges `fresh` (any order, duplicates allowed) into hitset_.
  void merge_hits(std::vector<Hit>& fresh);
  void inject_share(Round now);
  void publish_report(Round now);
};

}  // namespace congos::core
