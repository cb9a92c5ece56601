// The synchronous round engine.
//
// Drives the computation described in Section 2: globally numbered rounds,
// each consisting of a send phase, an adversary phase (the CRRI adversary is
// adaptive and may crash processes *after* seeing this round's sends and
// random choices), a delivery phase, and a receive/compute phase.
//
// The engine owns lifecycle state (alive/crashed), enforces the "at most one
// crash or restart per process per round" rule, and fans events out to
// registered observers (auditors, statistics).
//
// Sharded round execution (DESIGN.md section 12): the send and receive
// phases touch only per-process state (each process draws from its own RNG;
// the engine RNG is confined to the serial adversary and delivery phases),
// so every step runs them in fixed contiguous shards of the alive-id list.
// Per-shard send buffers are merged into the network in ascending shard
// order, so the submission order is process order at any shard count and
// traces are byte-identical at any thread count (set_threads). Receiver
// observers (add_receiver_observer) see each inbox on the shard that
// receives it, just before the process does; every other observer hook runs
// on the driving thread.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitset.h"
#include "common/rng.h"
#include "common/types.h"
#include "sim/network.h"
#include "sim/process.h"
#include "sim/stats.h"

namespace congos {
class ThreadPool;
}  // namespace congos

namespace congos::sim {

class Engine;

/// The parts of Engine::step() that Engine::phase_ns() times. Together they
/// cover the whole step: the boundaries are consecutive clock reads.
enum class StepPhase : std::uint8_t {
  kAdversary,  // the three adversary hooks (injections and their observers)
  kSend,       // send phase, on the shards
  kMerge,      // per-shard envelopes and sizes into the network
  kDeliver,    // Network::deliver plus the serial delivery observers
  kReceive,    // receive phase, receiver observers included
  kRoundEnd,   // round bookkeeping: flag clears, end_round, on_round_end
};
inline constexpr std::size_t kNumStepPhases = 6;

const char* to_string(StepPhase phase);

/// The CRRI adversary hook points. Implementations live in src/adversary.
class Adversary {
 public:
  virtual ~Adversary() = default;

  /// Before the send phase: inject rumors, crash (process will not send),
  /// restart processes.
  virtual void at_round_start(Engine& /*engine*/) {}

  /// After the send phase, before delivery: the adaptive adversary may
  /// inspect Engine::pending() (the messages and hence the random choices of
  /// this round) and crash processes; their outgoing messages are then
  /// subject to the chosen PartialDelivery policy and they receive nothing.
  virtual void after_sends(Engine& /*engine*/) {}

  /// After the receive phase.
  virtual void at_round_end(Engine& /*engine*/) {}
};

/// Passive observers of the execution (auditors, tracing).
///
/// Crash/restart hooks carry the PartialDelivery policy the adversary chose
/// (for a crash: the victim's in-flight messages; for a restart: the messages
/// addressed to it this round). Observers that only track liveness ignore it.
class ExecutionObserver {
 public:
  virtual ~ExecutionObserver() = default;
  virtual void on_envelope_delivered(const Envelope& /*e*/, Round /*now*/) {}
  virtual void on_crash(ProcessId /*p*/, Round /*now*/, PartialDelivery /*policy*/) {}
  virtual void on_restart(ProcessId /*p*/, Round /*now*/, PartialDelivery /*policy*/) {}
  virtual void on_inject(const Rumor& /*rumor*/, Round /*now*/) {}
  virtual void on_round_end(Round /*now*/) {}
};

class Engine {
 public:
  /// `seed` determines every random choice in the execution (network tie
  /// breaking, adversary randomness drawn from Engine::rng()).
  Engine(std::vector<std::unique_ptr<Process>> processes, std::uint64_t seed);
  ~Engine();

  std::size_t n() const { return processes_.size(); }
  Round now() const { return now_; }
  Rng& rng() { return rng_; }
  MessageStats& stats() { return stats_; }
  const MessageStats& stats() const { return stats_; }
  Network& network() { return network_; }

  Process& process(ProcessId p) { return *processes_[p]; }
  const Process& process(ProcessId p) const { return *processes_[p]; }

  bool alive(ProcessId p) const { return alive_.test(p); }
  /// Maintained incrementally by crash()/restart(); workloads call this every
  /// round, so it must not rescan alive_.
  std::size_t alive_count() const { return alive_count_; }
  /// The alive process ids in ascending order, likewise maintained
  /// incrementally (ordered insert/erase on lifecycle events). The shard
  /// partition walks this list directly.
  const std::vector<ProcessId>& alive_ids() const { return alive_ids_; }

  /// Rounds the process has been continuously alive, as of the current round
  /// (the Proxy / GroupDistribution activation checks use this through the
  /// process's own bookkeeping; exposed here for adversaries and tests).
  Round alive_since(ProcessId p) const { return alive_since_[p]; }

  // -- adversary actions ---------------------------------------------------

  /// Crash p. If called after the send phase, p's outgoing messages of this
  /// round are resolved per `policy`. At most one lifecycle event per
  /// process per round.
  void crash(ProcessId p, PartialDelivery policy = PartialDelivery::kDropAll);

  /// Restart p with default-initial state. `policy` governs the in-flight
  /// messages addressed to p this round.
  void restart(ProcessId p, PartialDelivery policy = PartialDelivery::kDeliverAll);

  /// Inject a rumor at alive process p (at most one injection per process per
  /// round). Stamps rumor.injected_at.
  void inject(ProcessId p, Rumor rumor);

  /// True iff p already received an injection this round (composite
  /// workloads use this to respect the one-injection-per-round rule).
  bool injected_this_round(ProcessId p) const { return injected_this_round_.test(p); }

  /// True iff p already crashed or restarted this round (composite
  /// adversaries use this to respect the one-lifecycle-event rule).
  bool lifecycle_event_this_round(ProcessId p) const {
    return lifecycle_event_this_round_.test(p);
  }

  /// Messages submitted this round so far (valid inside Adversary hooks).
  const std::vector<Envelope>& pending() const { return network_.pending(); }

  // -- wiring ----------------------------------------------------------------

  void set_adversary(Adversary* adversary) { adversary_ = adversary; }

  /// Every hook runs on the driving thread; on_envelope_delivered runs inside
  /// Network::deliver, in delivery order across all receivers.
  void add_observer(ExecutionObserver* obs) {
    observers_.push_back(obs);
    delivery_observers_.push_back(obs);
  }

  /// Like add_observer, except that on_envelope_delivered runs in the receive
  /// phase: for each alive process, over its inbox in inbox order, on the
  /// shard that runs that process's receive_phase and just before it. The
  /// observer must therefore tolerate concurrent calls for envelopes with
  /// different receivers (e.to), and see the same envelopes per receiver in
  /// the same order as a delivery observer would. The other hooks keep
  /// add_observer's semantics.
  void add_receiver_observer(ExecutionObserver* obs) {
    observers_.push_back(obs);
    receiver_observers_.push_back(obs);
  }

  /// Wall nanoseconds spent in each StepPhase over every step() so far,
  /// indexed by StepPhase.
  const std::array<std::uint64_t, kNumStepPhases>& phase_ns() const { return phase_ns_; }

  /// Deterministic intra-round parallelism (DESIGN.md section 12): run the
  /// send and receive phases on `threads` threads, the calling thread
  /// included, so the engine keeps threads - 1 pool workers. One thread
  /// runs a single shard inline; k > 1 threads run 2k fixed contiguous
  /// chunks of the ascending alive-id list, over-decomposed for load
  /// balance. Results are byte-identical at any thread count. Processes
  /// report deliveries from the shard that runs them, so a DeliveryListener
  /// the processes share is called concurrently: each process reports only
  /// at itself, and the listener must keep its state per `at` (as
  /// audit::DeliveryAuditor does). Adversary hooks, the delivery phase and
  /// every observer hook except a receiver observer's on_envelope_delivered
  /// stay on the calling thread. An engine starts with one thread. Only
  /// valid at a round boundary; `threads` must be at least 1.
  void set_threads(std::size_t threads);

  // -- execution ---------------------------------------------------------

  /// Run `rounds` additional rounds.
  void run(Round rounds);

  /// Run a single round.
  void step();

 private:
  enum class Phase { kIdle, kRoundStart, kSending, kAfterSends, kDelivering, kReceiving, kRoundEnd };

  std::vector<std::unique_ptr<Process>> processes_;
  Rng rng_;
  MessageStats stats_;
  Network network_;

  Adversary* adversary_ = nullptr;
  std::vector<ExecutionObserver*> observers_;           // all but delivery hooks
  std::vector<ExecutionObserver*> delivery_observers_;  // inside Network::deliver
  std::vector<ExecutionObserver*> receiver_observers_;  // in the receive phase
  std::array<std::uint64_t, kNumStepPhases> phase_ns_{};

  Round now_ = 0;
  Phase phase_ = Phase::kIdle;
  bool started_ = false;

  DynamicBitset alive_;
  std::size_t alive_count_ = 0;     // invariant: == count of set bits in alive_
  std::vector<Round> alive_since_;  // round the current "alive" run began
  /// Ascending ids of alive processes, maintained incrementally by
  /// crash()/restart() (ordered erase/insert of one id) so the send/receive
  /// loops skip dead processes without ever rescanning alive_.
  std::vector<ProcessId> alive_ids_;

  // Per-round flags as bitsets, one "touched" bool per flag so begin_round()
  // skips even the word-clear when the previous round left the flag empty —
  // a faults-off steady-state round does no per-process bookkeeping at all.
  DynamicBitset lifecycle_event_this_round_;
  DynamicBitset injected_this_round_;
  bool lifecycle_touched_ = false;
  bool injected_touched_ = false;

  // crash/restart bookkeeping for the delivery filters of the current round.
  // Invariant between rounds: every dead process has in_policy_ == kDropAll
  // (established by crash()), so begin_round() only marks filter *bits* for
  // the dead set.
  std::vector<PartialDelivery> out_policy_;
  DynamicBitset out_filtered_;
  std::vector<PartialDelivery> in_policy_;
  DynamicBitset in_filtered_;
  bool out_touched_ = false;
  bool in_touched_ = false;
  DynamicBitset sent_this_round_;  // participated in the send phase

  // Shard state: one buffer per shard, and the workers when threads > 1.
  std::unique_ptr<ThreadPool> pool_;
  struct ShardBuffer {
    std::vector<Envelope> out;         // send-phase submissions, in submission order
    std::vector<std::uint64_t> bytes;  // frame size of each, measured at send
  };
  std::vector<ShardBuffer> shard_buffers_;

  class ShardSender;
  class DeliveryFanout;
  class PhaseTask;

  void begin_round();
  void run_phase(bool receive);
  void merge_shard_sends();
  void receive(ProcessId p);
  void notify_crash(ProcessId p, PartialDelivery policy);
  void notify_restart(ProcessId p, PartialDelivery policy);
};

}  // namespace congos::sim
