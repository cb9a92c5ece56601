// Proxy[l] service (Section 4.4, Fig. 3/9).
//
// Delivers rumor fragments safely across group boundaries. A process p in
// group b holding fragments destined for other groups repeatedly samples
// potential proxies from those groups and asks them to distribute the
// fragments inside their own group via GroupGossip[l]. Processes in the same
// group collaborate: they share, over GroupGossip[l], the set of proxies
// discovered to have failed and the set of still-active collaborators, which
// both concentrates fan-out and keeps the per-round message count at
// O(n^{1+E/sqrt(dline)} log n) collectively ([PROXY:MESSAGES]).
//
// Timing: blocks of dline/4 rounds aligned to the global clock, each block
// split into iterations of sqrt(dline)+2 rounds:
//   round 1                  - send proxy requests (fragments) to sampled
//                              members of each other group;
//   rounds 2..sqrt(dline)+1  - GroupGossip[l]: share proxied fragments,
//                              failed-proxies, collaborator liveness;
//   round sqrt(dline)+2      - proxies acknowledge; requesters mark
//                              non-acknowledging proxies failed.
//
// [PROXY:CONFIDENTIAL]: a fragment bound to group g is only ever sent to
// processes in group g (enforced here, asserted by the auditor).
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

class ProxyService {
 public:
  struct Hooks {
    /// Inject a metadata rumor into GroupGossip[l] (dest = own group).
    std::function<void(Round now, sim::PayloadPtr body, Round deadline_at)> gossip_share;
    /// Return collected partial rumors to ConfidentialGossip (block end).
    std::function<void(Round now, std::vector<FragmentPtr> partials)> return_partials;
    /// Rounds this process has been continuously alive (from the host).
    std::function<Round()> alive_since;
  };

  ProxyService(ProcessId self, PartitionIndex l, const partition::Partition* part,
               Round dline, const CongosConfig* cfg, Rng* rng, Hooks hooks);

  /// Crash-restart wipe.
  void reset(Round now);

  /// ConfidentialGossip queues a fragment destined for another group.
  void enqueue(Round now, FragmentPtr frag);

  void send_phase(Round now, sim::Sender& out);

  /// A proxy request arrived: cache the fragments (they belong to this
  /// process's own group) and remember to acknowledge the requester.
  void on_request(Round now, const ProxyRequestPayload& req, ProcessId from);

  /// A proxy acknowledged our request.
  void on_ack(Round now, ProcessId from);

  /// Intra-group share delivered by GroupGossip[l].
  void on_share(Round now, const ProxyShareBody& share);

  bool active() const { return status_active_; }
  Round dline() const { return dline_; }

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

  // Requester-side state.
  std::vector<FragmentPtr> waiting_;  // enqueued since block start
  /// Fragments to place, keyed by target group.
  FlatMap<GroupIndex, std::vector<FragmentPtr>> my_rumors_;
  FlatMap<GroupIndex, bool> group_satisfied_;
  /// Scratch: sorted group keys for the send_requests() pass (iteration
  /// order feeds RNG draws, so it must be bucket-layout independent).
  std::vector<GroupIndex> request_groups_;
  /// Scratch for send_requests()' per-group draw (DESIGN.md section 9):
  /// the candidate pool, its members in order, and the picks.
  DynamicBitset pool_scratch_;
  std::vector<ProcessId> candidates_;
  std::vector<std::uint32_t> pick_scratch_;
  bool status_active_ = false;
  DynamicBitset failed_proxies_;
  DynamicBitset collaborators_;
  /// Requests outstanding in the current iteration, keyed by group.
  FlatMap<GroupIndex, std::vector<ProcessId>> outstanding_;
  DynamicBitset acks_received_;

  // Recycled wire payloads (DESIGN.md section 9).
  PayloadPool<ProxyRequestPayload> req_pool_;
  PayloadPool<ProxyAckPayload> ack_pool_;

  // Proxy-side state.
  std::vector<FragmentPtr> proxy_buffer_;  // fragments cached for my own group
  FlatSet<FragmentKey, FragmentKeyHash> buffered_keys_;
  std::vector<ProcessId> requesters_to_ack_;

  // Collector state.
  std::vector<FragmentPtr> partial_rumors_;  // my-group fragments from shares
  FlatSet<FragmentKey, FragmentKeyHash> partial_keys_;

  void begin_block(Round now);
  void settle_acks();
  void send_requests(Round now, sim::Sender& out);
  /// Retransmission mode only: re-sends this iteration's outstanding requests
  /// mid-iteration, so a single dropped request no longer costs the whole
  /// iteration (the proxy side is idempotent; acks still settle at round 0).
  void resend_requests(Round now, sim::Sender& out);
  void inject_share(Round now);
  void send_acks(Round now, sim::Sender& out);
};

}  // namespace congos::core
