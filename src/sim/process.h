// The process abstraction (Section 2 of the paper).
//
// Each round an alive process: (i) sends point-to-point messages, (ii)
// receives the messages sent to it in the current round, (iii) performs local
// computation. Crashed processes do nothing; a restarting process is reset to
// its default initial state (no durable storage) knowing only the algorithm,
// [n], and the global clock.
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "sim/message.h"
#include "sim/rumor.h"

namespace congos::sim {

/// Interface through which a process hands messages to the network during its
/// send phase.
class Sender {
 public:
  virtual ~Sender() = default;
  virtual void send(Envelope e) = 0;
};

/// Sink for application-level rumor deliveries: a protocol process calls this
/// exactly when it "returns" a rumor to its user (reassembly in CONGOS,
/// direct receipt in the baselines). The QoD auditor listens here.
///
/// Sharding contract: a process reports only at itself (`at` is its own id).
/// An engine with several threads (Engine::set_threads) runs processes on
/// several threads at once, so a listener shared by several processes is
/// called concurrently for different `at`; it must keep its state per `at`.
class DeliveryListener {
 public:
  virtual ~DeliveryListener() = default;
  virtual void on_rumor_delivered(ProcessId at, const RumorUid& uid, Round when,
                                  std::span<const std::uint8_t> data) = 0;
};

class Process {
 public:
  explicit Process(ProcessId id) : id_(id) {}
  virtual ~Process() = default;

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  ProcessId id() const { return id_; }

  /// Initial boot (round 0, or whenever the engine first starts the process).
  virtual void on_start(Round /*now*/) {}

  /// Crash-and-restart: all protocol state must be discarded. The process may
  /// read the global clock (`now`).
  virtual void on_restart(Round now) = 0;

  /// Phase (i): emit this round's messages.
  virtual void send_phase(Round now, Sender& out) = 0;

  /// Phases (ii)+(iii): consume the messages delivered this round and run
  /// local computation.
  virtual void receive_phase(Round now, std::span<const Envelope> inbox) = 0;

  /// Rumor injection (adversary-driven). Protocols that do not accept
  /// injections may keep the default no-op.
  virtual void inject(const Rumor& /*rumor*/) {}

 private:
  ProcessId id_;
};

}  // namespace congos::sim
