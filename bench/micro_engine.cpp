// Microbenchmarks: simulator round throughput (how much system we can
// afford to simulate) for an idle system, plain gossip, and full CONGOS.
#include <benchmark/benchmark.h>

#include <array>
#include <string>

#include "adversary/adversary.h"
#include "adversary/workload.h"
#include "harness/scenario.h"

namespace {

using namespace congos;

void BM_EngineIdleRounds(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  harness::ScenarioConfig cfg;
  cfg.n = n;
  cfg.rounds = 1;
  cfg.workload = harness::WorkloadKind::kNone;
  for (auto _ : state) {
    auto r = harness::run_scenario(cfg);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EngineIdleRounds)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_PlainGossipRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  harness::ScenarioConfig cfg;
  cfg.n = n;
  cfg.rounds = 128;
  cfg.protocol = harness::Protocol::kPlainGossip;
  cfg.continuous.inject_prob = 0.02;
  cfg.continuous.deadlines = {64};
  for (auto _ : state) {
    auto r = harness::run_scenario(cfg);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PlainGossipRun)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

// The headline throughput number tracked in BENCH_engine.json
// (tools/check_bench.sh): simulated rounds per second of the full message
// hot path (gossip dispatch + delivery + confidentiality audit) at n=1024.
// `rounds_per_sec` is the figure of merit; it must not regress across PRs.
// It is a wall-clock rate (UseRealTime): with engine shards on worker
// threads, main-thread CPU time would overstate it. The engine thread count
// comes from CONGOS_ENGINE_THREADS (check_bench.sh defaults it to 4 and
// stamps it into every record).
void BM_HotPathRounds(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  harness::ScenarioConfig cfg;
  cfg.n = n;
  cfg.rounds = 32;
  cfg.protocol = harness::Protocol::kPlainGossip;
  // Workload scaling with n. Up to 1024 this is the historical configuration
  // (records comparable back through the trajectory). Above it the
  // per-process injection probability shrinks so the *absolute* injection
  // rate (~20 rumors/round) stays constant — the engine scales, the rumor
  // load does not. Above 4096 even one saturated rumor means every process
  // gossips every round (~3n envelopes/round), so the largest configuration
  // switches to a sparse regime — quadratically scaled injection and a short
  // deadline — measuring per-round engine overhead at scale instead of an
  // epidemic flood.
  const double scale = 1024.0 / static_cast<double>(n);
  cfg.continuous.inject_prob =
      n <= 1024 ? 0.02 : (n <= 4096 ? 0.02 * scale : 0.02 * scale * scale);
  const Round deadline = n <= 4096 ? 16 : 8;
  cfg.continuous.deadlines = {deadline};
  const double rounds_per_iter =
      static_cast<double>(cfg.rounds + deadline + 2);  // incl. drain window
  for (auto _ : state) {
    auto r = harness::run_scenario(cfg);
    benchmark::DoNotOptimize(r);
  }
  state.counters["rounds_per_sec"] = benchmark::Counter(
      rounds_per_iter * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HotPathRounds)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(65536)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Full CONGOS runs, audit on. `rounds_per_sec` (wall clock, like
// BM_HotPathRounds) is the gated figure of merit of the /128 and /256 rows,
// which tools/check_bench.sh records. Besides it, each engine step phase
// reports its wall time per simulated round (<phase>_us_per_round, from
// Engine::phase_ns()), so a change in the total can be traced to a phase.
void BM_CongosRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  harness::ScenarioConfig cfg;
  cfg.n = n;
  cfg.rounds = 128;
  cfg.protocol = harness::Protocol::kCongos;
  cfg.continuous.inject_prob = 0.02;
  const Round deadline = 64;
  cfg.continuous.deadlines = {deadline};
  const double rounds_per_iter =
      static_cast<double>(cfg.rounds + deadline + 2);  // incl. drain window
  std::array<std::uint64_t, sim::kNumStepPhases> phase_ns{};
  for (auto _ : state) {
    auto r = harness::run_scenario(cfg);
    for (std::size_t i = 0; i < sim::kNumStepPhases; ++i) phase_ns[i] += r.phase_ns[i];
    benchmark::DoNotOptimize(r);
  }
  const double rounds = rounds_per_iter * static_cast<double>(state.iterations());
  for (std::size_t i = 0; i < sim::kNumStepPhases; ++i) {
    state.counters[std::string(sim::to_string(static_cast<sim::StepPhase>(i))) +
                   "_us_per_round"] = static_cast<double>(phase_ns[i]) / 1e3 / rounds;
  }
  state.counters["rounds_per_sec"] =
      benchmark::Counter(rounds, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CongosRun)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
