// Shared helpers for the test suite: tiny scriptable processes and payloads
// used to exercise the simulator substrate in isolation.
#pragma once

#include <cstdlib>
#include <functional>
#include <memory>
#include <vector>

#include "sim/engine.h"
#include "sim/message.h"
#include "sim/process.h"

namespace congos::testutil {

/// Iterations for the decode fuzz tests: 256, or CONGOS_WIRE_FUZZ_ITERS
/// when set (the sanitizer CI job raises it).
inline int fuzz_iters() {
  if (const char* env = std::getenv("CONGOS_WIRE_FUZZ_ITERS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 256;
}

struct IntPayload final : sim::Payload {
  explicit IntPayload(int v) : value(v) {}
  int value;
};

/// A process driven by lambdas; records everything it receives.
class ScriptedProcess final : public sim::Process {
 public:
  using SendFn = std::function<void(Round, sim::Sender&, ScriptedProcess&)>;

  explicit ScriptedProcess(ProcessId id, SendFn on_send = nullptr)
      : sim::Process(id), on_send_(std::move(on_send)) {}

  void on_restart(Round now) override {
    ++restarts;
    last_restart = now;
    received.clear();  // no durable storage
  }

  void send_phase(Round now, sim::Sender& out) override {
    ++send_phases;
    if (on_send_) on_send_(now, out, *this);
  }

  void receive_phase(Round now, std::span<const sim::Envelope> inbox) override {
    last_receive_round = now;
    for (const auto& e : inbox) received.push_back(e);
  }

  void inject(const sim::Rumor& rumor) override { injected.push_back(rumor); }

  /// Convenience: count received messages with a given int payload value.
  int count_value(int v) const {
    int c = 0;
    for (const auto& e : received) {
      if (const auto* p = dynamic_cast<const IntPayload*>(e.body.get())) {
        if (p->value == v) ++c;
      }
    }
    return c;
  }

  std::vector<sim::Envelope> received;
  std::vector<sim::Rumor> injected;
  int send_phases = 0;
  int restarts = 0;
  Round last_restart = kNoRound;
  Round last_receive_round = kNoRound;

 private:
  SendFn on_send_;
};

inline sim::Envelope make_msg(ProcessId from, ProcessId to, int value,
                              sim::ServiceKind kind = sim::ServiceKind::kOther) {
  return sim::Envelope{from, to, sim::ServiceTag{kind, 0},
                       std::make_shared<IntPayload>(value)};
}

/// Builds an engine over `n` ScriptedProcesses sharing one send function.
struct ScriptedSystem {
  std::vector<ScriptedProcess*> procs;  // borrowed from the engine
  std::unique_ptr<sim::Engine> engine;
};

inline ScriptedSystem make_system(std::size_t n, std::uint64_t seed,
                                  ScriptedProcess::SendFn send = nullptr) {
  ScriptedSystem sys;
  std::vector<std::unique_ptr<sim::Process>> procs;
  for (ProcessId p = 0; p < n; ++p) {
    auto sp = std::make_unique<ScriptedProcess>(p, send);
    sys.procs.push_back(sp.get());
    procs.push_back(std::move(sp));
  }
  sys.engine = std::make_unique<sim::Engine>(std::move(procs), seed);
  return sys;
}

/// One-shot adversary from a lambda (runs at a specific hook point).
class LambdaAdversary final : public sim::Adversary {
 public:
  std::function<void(sim::Engine&)> on_round_start;
  std::function<void(sim::Engine&)> on_after_sends;
  std::function<void(sim::Engine&)> on_round_end;

  void at_round_start(sim::Engine& e) override {
    if (on_round_start) on_round_start(e);
  }
  void after_sends(sim::Engine& e) override {
    if (on_after_sends) on_after_sends(e);
  }
  void at_round_end(sim::Engine& e) override {
    if (on_round_end) on_round_end(e);
  }
};

}  // namespace congos::testutil
