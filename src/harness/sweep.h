// SweepRunner: executes a grid of independent scenarios across a fixed-size
// worker pool.
//
// Every experiment in EXPERIMENTS.md is a grid of run_scenario() calls that
// share nothing: each scenario derives all randomness from its own seed and
// owns its engine, network and auditors. The runner exploits exactly that —
// scenarios are the unit of parallelism, the engine stays single-threaded —
// so per-scenario results are byte-identical to serial execution regardless
// of thread count (tests/test_sweep.cpp pins this, including a golden trace).
//
// Thread count resolution: Options::threads when non-zero, else the
// CONGOS_BENCH_THREADS environment variable, else hardware concurrency
// divided by the per-scenario engine thread count (CONGOS_ENGINE_THREADS) —
// sweep workers and engine shards draw from the same core budget.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "harness/scenario.h"

namespace congos::harness {

class SweepRunner {
 public:
  struct Options {
    /// Worker threads; 0 = default_threads().
    std::size_t threads = 0;
    /// Emit a live "[label] done/total" progress line (stderr, only when
    /// stderr is a terminal, so piped/CI output stays clean).
    bool progress = true;
    /// Progress-line prefix, typically the experiment id.
    const char* label = "sweep";
    /// Directory for .repro failure artifacts: when a scenario trips the
    /// auditor predicate (harness::scenario_failed), a self-contained
    /// reproduction file is written here as <label>-<index>.repro. nullptr
    /// defers to the CONGOS_REPRO_DIR environment variable; "" disables
    /// dumping. The directory is created if missing. Works under any thread
    /// count: each worker records its own scenario independently.
    const char* artifact_dir = nullptr;
  };

  SweepRunner();
  explicit SweepRunner(Options opts);

  /// Resolved worker count for this runner.
  std::size_t threads() const { return threads_; }

  /// Runs every scenario in `grid` and returns the results in submission
  /// order. Scenarios with extra_observers/extra_adversaries run fine, but
  /// those objects must not be shared between grid entries (each runs on its
  /// own thread).
  std::vector<ScenarioResult> run(const std::vector<ScenarioConfig>& grid) const;

  /// CONGOS_BENCH_THREADS when it holds a thread count parse_thread_count
  /// accepts, else hardware_concurrency / default_engine_threads() (>= 1,
  /// so the sweep and the sharded engines don't oversubscribe the machine
  /// together). Parsed once and cached.
  static std::size_t default_threads();

  /// Paths of the .repro artifacts written by the last run(), in grid order
  /// (empty when nothing failed or dumping is disabled).
  const std::vector<std::string>& artifacts() const { return artifacts_; }

 private:
  /// Resolved artifact directory ("" = disabled).
  std::string artifact_dir() const;
  /// Runs one grid entry; on auditor failure writes a .repro into `dir`
  /// (when enabled) and stores its path in *artifact.
  ScenarioResult run_one(const ScenarioConfig& cfg, const std::string& dir,
                         std::size_t index, std::string* artifact) const;

  Options opts_;
  std::size_t threads_;
  /// Written by run(): each worker fills its own pre-sized slot, then run()
  /// compacts, so no locking is needed.
  mutable std::vector<std::string> artifacts_;
};

/// One-call convenience used by the bench binaries.
inline std::vector<ScenarioResult> run_sweep(
    const std::vector<ScenarioConfig>& grid, SweepRunner::Options opts = {}) {
  return SweepRunner(opts).run(grid);
}

}  // namespace congos::harness
