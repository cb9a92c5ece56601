// TraceLog: a bounded execution event log for debugging and post-mortems.
//
// Registered as an ExecutionObserver, it keeps the most recent events
// (crashes, restarts, injections, and envelope deliveries tagged with the
// service that sent them) in a ring buffer plus a per-round delivery
// counter, and renders a human-readable tail on demand. Used by the CLI
// (--trace), embedded in .repro failure artifacts (src/replay), and
// available to tests; overhead is O(1) per event.
#pragma once

#include <deque>
#include <iosfwd>
#include <string>

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
    /// the failing round wants; disable for long-lived lifecycle-only logs.
    bool record_deliveries = true;
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

  /// dump() into a string (the form embedded in .repro artifacts).
  std::string dump_string(std::size_t last_n = 100) const;

  std::size_t event_count() const { return events_.size(); }
  std::uint64_t total_events_seen() const { return seen_; }

 private:
  enum class Kind : std::uint8_t { kCrash, kRestart, kInject, kEnvelopeDelivered };
  struct Event {
    Round when = 0;
    Kind kind = Kind::kCrash;
    ProcessId process = kNoProcess;  // victim / injection target / receiver
    RumorUid rumor;       // kInject only
    std::size_t dest = 0; // kInject only: |D|
    // kEnvelopeDelivered only: sending service and sender.
    ServiceKind service = ServiceKind::kOther;
    ProcessId from = kNoProcess;
  };

  void push(Event e);

  Options opt_{};
  std::deque<Event> events_;
  std::uint64_t seen_ = 0;
  // most recent rounds' delivered-message counts (bounded window)
  std::deque<std::pair<Round, std::uint64_t>> round_deliveries_;
  std::uint64_t current_round_deliveries_ = 0;
};

}  // namespace congos::sim
