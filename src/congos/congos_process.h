// CongosProcess: one node of the CONGOS system.
//
// Owns and wires the full service stack of Fig. 1 for one process:
// ConfidentialGossip on top; per-partition GroupGossip[l] instances (filtered
// to the process's group) and one unfiltered AllGossip below; per
// (deadline-class, partition) Proxy[l] and GroupDistribution[l] instances
// created lazily. All services multiplex over the simulator Network via
// tagged envelopes; this class is the router.
#pragma once

#include <map>
#include <memory>

#include "congos/confidential_gossip.h"
#include "congos/config.h"
#include "congos/group_distribution.h"
#include "congos/proxy.h"
#include "gossip/continuous_gossip.h"
#include "partition/partition.h"
#include "sim/process.h"

namespace congos::core {

class CongosProcess final : public sim::Process {
 public:
  /// All CongosProcesses of one system share `cfg` and `partitions` (the
  /// partition family is common knowledge - part of the algorithm's input).
  /// `behavior` selects the honest protocol or the Section-7 lazy
  /// (freeloading) variant used by experiment E14.
  CongosProcess(ProcessId id, std::shared_ptr<const CongosConfig> cfg,
                std::shared_ptr<const partition::PartitionSet> partitions,
                std::uint64_t seed, sim::DeliveryListener* listener,
                ProcessBehavior behavior = ProcessBehavior::kHonest);

  void on_start(Round now) override;
  void on_restart(Round now) override;
  void send_phase(Round now, sim::Sender& out) override;
  void receive_phase(Round now, std::span<const sim::Envelope> inbox) override;
  void inject(const sim::Rumor& rumor) override;

  // -- introspection ---------------------------------------------------------

  const CgCounters& counters() const { return cg_->counters(); }
  /// Total messages dropped by the group filters (must be 0; bug canary).
  std::uint64_t filter_drops() const;
  /// Gossip rumors absorbed by gid-idempotence across all gossip instances
  /// (re-pushes, fault-layer duplicates, retransmissions).
  std::uint64_t duplicates_suppressed() const;
  Round alive_since() const { return wakeup_; }

  /// Builds the shared partition family for a system of n processes.
  static std::shared_ptr<const partition::PartitionSet> build_partitions(
      std::size_t n, const CongosConfig& cfg);

  /// Theorem 16 first case: with tau >= n/log^2 n CONGOS degenerates to
  /// direct sending.
  static bool is_degenerate(std::size_t n, const CongosConfig& cfg);

 private:
  struct Instance {
    std::vector<std::unique_ptr<ProxyService>> proxies;  // one per partition
    std::vector<std::unique_ptr<GroupDistributionService>> gds;
  };

  std::shared_ptr<const CongosConfig> cfg_;
  std::shared_ptr<const partition::PartitionSet> partitions_;
  Rng rng_;
  sim::DeliveryListener* listener_;
  ProcessBehavior behavior_ = ProcessBehavior::kHonest;
  bool degenerate_;
  Round wakeup_ = 0;
  Round now_ = 0;  // tracked for hooks called outside phase entry points

  std::vector<std::unique_ptr<gossip::ContinuousGossipService>> group_gossip_;
  std::unique_ptr<gossip::ContinuousGossipService> all_gossip_;
  std::map<Round, Instance> instances_;  // keyed by deadline class
  std::unique_ptr<ConfidentialGossipService> cg_;

  /// Receipt acks queued during receive_phase (retransmission mode only),
  /// flushed at the start of the next send_phase.
  std::vector<sim::Envelope> pending_acks_;
  PayloadPool<PartialsAckPayload> partials_ack_pool_;
  PayloadPool<DirectAckPayload> direct_ack_pool_;

  Instance& instance(Round dline);
  ProxyService* proxy(Round dline, PartitionIndex l);
  GroupDistributionService* gd(Round dline, PartitionIndex l);

  void on_group_gossip_deliver(PartitionIndex l, Round now,
                               const gossip::GossipRumor& rumor);
  void on_all_gossip_deliver(Round now, const gossip::GossipRumor& rumor);
};

}  // namespace congos::core
