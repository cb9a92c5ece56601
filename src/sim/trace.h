// TraceLog: the recorder of a run.
//
// Registered as an ExecutionObserver, it keeps
//   * every completed round's delivered-envelope count (8 bytes per round)
//     and their incrementally folded FNV-1a hash, the golden trace hash the
//     regression tests pin and a .repro stores (src/replay);
//   * the most recent events in a ring buffer: crashes and restarts with
//     their partial-delivery policy, injections with the rumor's identity,
//     destination count and deadline, and (optionally) envelope deliveries
//     tagged with the service that sent them.
// It renders a human-readable tail and the lifecycle schedule on demand.
// Used by the CLI (--trace), by .repro recording and replay, and by the
// tests. It draws no randomness and never touches the engine, so attaching
// it cannot perturb the run it records; overhead is O(1) per event.
#pragma once

#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "sim/engine.h"

namespace congos::sim {

class TraceLog final : public ExecutionObserver {
 public:
  struct Options {
    /// Maximum retained events (older ones are evicted).
    std::size_t capacity = 4096;
    /// Record one kEnvelopeDelivered event per delivery (with its
    /// ServiceKind) in the ring buffer. High-volume: on a busy round these
    /// evict older lifecycle events, which is exactly what a post-mortem of
    /// the failing round wants; disable for lifecycle-only logs. Per-round
    /// counts are kept either way.
    bool record_deliveries = true;
  };

  enum class Kind : std::uint8_t { kCrash, kRestart, kInject, kEnvelopeDelivered };
  struct Event {
    Round when = 0;
    Kind kind = Kind::kCrash;
    ProcessId process = kNoProcess;  // victim / injection source / receiver
    PartialDelivery policy = PartialDelivery::kDeliverAll;  // kCrash, kRestart
    RumorUid rumor;         // kInject only
    std::size_t dest = 0;   // kInject only: |D|
    Round deadline = 0;     // kInject only: relative deadline
    // kEnvelopeDelivered only: sending service and sender.
    ServiceKind service = ServiceKind::kOther;
    ProcessId from = kNoProcess;

    friend bool operator==(const Event&, const Event&) = default;
  };

  TraceLog() = default;
  explicit TraceLog(Options opt) : opt_(opt) {}

  // -- ExecutionObserver ------------------------------------------------------
  void on_crash(ProcessId p, Round now, PartialDelivery policy) override;
  void on_restart(ProcessId p, Round now, PartialDelivery policy) override;
  void on_inject(const Rumor& rumor, Round now) override;
  void on_envelope_delivered(const Envelope& e, Round now) override;
  void on_round_end(Round now) override;

  /// Renders the last `last_n` retained events plus the per-round delivery
  /// counts of the most recent rounds.
  void dump(std::ostream& os, std::size_t last_n = 100) const;

  /// dump() into a string.
  std::string dump_string(std::size_t last_n = 100) const;

  /// A count line, then one line per retained crash, restart and injection
  /// with every field the event holds (what `congos_replay --schedule`
  /// prints).
  void write_schedule(std::ostream& os) const;

  const std::deque<Event>& events() const { return events_; }
  std::size_t event_count() const { return events_.size(); }
  std::uint64_t total_events_seen() const { return seen_; }

  /// Delivered-envelope count of every completed round, oldest first.
  const std::vector<std::uint64_t>& round_deliveries() const { return rounds_; }
  /// FNV-1a fold of round_deliveries().
  std::uint64_t trace_hash() const { return hash_; }

 private:
  void push(Event e);
  void push_lifecycle(Kind kind, ProcessId p, Round now, PartialDelivery policy);

  Options opt_{};
  std::deque<Event> events_;
  std::uint64_t seen_ = 0;
  std::vector<std::uint64_t> rounds_;
  Round first_round_ = 0;  // the round rounds_[0] counts
  std::uint64_t current_round_deliveries_ = 0;
  std::uint64_t hash_ = kFnvOffset;
};

}  // namespace congos::sim
