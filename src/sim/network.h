// Synchronous point-to-point network (Section 2).
//
// By default the network is *reliable*, exactly as the paper assumes:
// messages sent in round t are received in round t, and messages between two
// processes that are alive for the whole round are never lost. When a process
// crashes mid-round, an adversary-chosen subset of its outgoing messages is
// delivered; symmetrically for the inbound messages of a process that
// restarts mid-round.
//
// set_faults() breaks the reliability assumption deliberately: a seeded
// FaultConfig adds per-envelope drop / duplication / bounded delay and
// transient bidirectional partitions on top of the crash/restart filters
// (DESIGN.md section 10). Fault randomness lives in a dedicated Rng so the
// faults-off path stays byte-identical to the reliable network.
#pragma once

#include <span>
#include <vector>

#include "common/bitset.h"
#include "common/rng.h"
#include "common/types.h"
#include "sim/faults.h"
#include "sim/message.h"
#include "sim/stats.h"

namespace congos::sim {

/// Per-delivery hook for Network::deliver. A plain virtual interface rather
/// than std::function: deliver() runs once per round for every envelope in
/// flight, and the indirect call must not allocate or touch a type-erased
/// wrapper on that path.
class DeliveryObserver {
 public:
  virtual ~DeliveryObserver() = default;
  virtual void on_delivered(const Envelope& e) = 0;
};

/// How the adversary resolves the in-flight messages of a process that
/// crashes (outgoing) or restarts (incoming) in the current round.
enum class PartialDelivery : std::uint8_t {
  kDeliverAll,  // every in-flight message goes through
  kDropAll,     // every in-flight message is lost
  kRandom,      // each in-flight message delivered with probability 1/2
};

class Network {
 public:
  explicit Network(std::size_t n, MessageStats* stats) : n_(n), stats_(stats) {}

  /// Arm the link-fault layer. Resets the dedicated fault Rng from
  /// cfg.seed; call before the first round.
  void set_faults(const FaultConfig& cfg) {
    faults_ = cfg;
    faults_enabled_ = cfg.enabled();
    fault_rng_ = Rng(cfg.seed);
  }
  const FaultConfig& faults() const { return faults_; }
  bool faults_enabled() const { return faults_enabled_; }

  /// Envelopes currently held back by the fault layer (delays/duplicates).
  std::size_t in_flight_delayed() const { return delayed_.size(); }

  std::size_t n() const { return n_; }

  /// Queue a message for same-round delivery. Counted as "sent" immediately
  /// (Definition 3 counts sent messages), with `frame_bytes`, the exact v1
  /// frame size wire::encoded_envelope_size(e, round()) that the sender
  /// measured, as its bytes.
  void submit(Envelope e, std::uint64_t frame_bytes);
  /// The same, measuring the frame on the calling thread.
  void submit(Envelope e);

  /// The round deliver() resolves next; Engine::now() while an engine drives
  /// this network.
  Round round() const { return round_; }

  const std::vector<Envelope>& pending() const { return pending_; }

  /// Resolve the round: move each pending envelope into its target inbox,
  /// applying the crash/restart delivery filters.
  ///
  /// drop_from[p]  - p crashed this round; policy applies to p's sends.
  /// drop_to[p]    - p is unable to receive this round (crashed, or was dead
  ///                 at send time); restart partial delivery uses the policy.
  /// observer      - called for every *delivered* envelope (auditing);
  ///                 nullptr when nobody is listening.
  void deliver(const std::vector<PartialDelivery>& out_policy,
               const DynamicBitset& out_filtered,
               const std::vector<PartialDelivery>& in_policy,
               const DynamicBitset& in_filtered, Rng& rng,
               DeliveryObserver* observer);

  /// Inbox of process p for the current round; cleared by end_round().
  std::span<const Envelope> inbox(ProcessId p) const {
    return {inboxes_[p].data(), inboxes_[p].size()};
  }

  void end_round();

  std::uint64_t messages_sent_total() const { return sent_total_; }

 private:
  /// An envelope the fault layer held back, due for delivery in round `due`.
  struct DelayedEnvelope {
    Envelope env;
    Round due = 0;
  };

  /// Applies the fault plan to a kept envelope. Returns true when the
  /// envelope should be delivered this round; may schedule delayed copies.
  bool apply_faults(const Envelope& e);
  /// Delivers delayed envelopes that came due, compacting the queue.
  void release_delayed(const std::vector<PartialDelivery>& in_policy,
                       const DynamicBitset& in_filtered,
                       DeliveryObserver* observer);

  std::size_t n_;
  MessageStats* stats_;
  // pending_ and the inboxes are cleared - never deallocated - between
  // rounds, so after warm-up the hot path performs no queue reallocation.
  std::vector<Envelope> pending_;
  std::vector<std::vector<Envelope>> inboxes_ = std::vector<std::vector<Envelope>>(n_);
  /// Global high-water mark of per-inbox messages received in a round.
  /// deliver() pre-reserves every inbox against it (with headroom), so after
  /// ramp-up a record-setting round almost never reallocates (DESIGN.md
  /// section 9).
  std::size_t inbox_high_water_ = 0;
  std::uint64_t sent_total_ = 0;

  // -- link-fault layer (inert unless set_faults() armed it) -----------------
  FaultConfig faults_;
  bool faults_enabled_ = false;
  Rng fault_rng_{0};
  /// Envelopes held back by delay/duplication faults, in scheduling order
  /// (FIFO per due round: earlier-submitted envelopes release first).
  std::vector<DelayedEnvelope> delayed_;
  /// Round clock mirroring Engine::now(): deliver() runs during round
  /// `round_`, end_round() advances it. Owned here so delayed releases do
  /// not change any public signature on the reliable path.
  Round round_ = 0;
};

}  // namespace congos::sim
