// E3 (Theorem 11): per-round message complexity vs n.
//
// Fixed deadline (within the near-linear regime), fixed per-process
// injection rate; sweep n. Theorem 11 predicts CONGOS's maximum per-round
// complexity scales like n^{1+E/sqrt(d)} polylog n - near-linear in n once
// deadlines are comfortable. We report the peak and mean per-round message
// counts for CONGOS and the baselines, plus CONGOS's peak normalized by
// n^{1+E/sqrt(d)}*log^2 n (the theorem's shape; roughly flat if the shape
// holds).
#include <cmath>

#include "bench_util.h"
#include "harness/scenario.h"
#include "harness/table.h"

using namespace congos;

int main() {
  bench::banner("E3 / Theorem 11",
                "CONGOS per-round message complexity vs n at fixed deadline d=64 "
                "(shape: n^{1+E/sqrt(d)} polylog n, E = fanout_exponent = 6).");

  // n = 16 is excluded: tau = 1 >= 16/log2(16)^2 triggers the Theorem 16
  // degenerate cutoff and CONGOS sends everything directly.
  std::vector<std::size_t> ns = {32, 64, 128};
  if (bench::full_scale()) ns.push_back(256);
  const Round deadline = 64;

  // Byte columns report ACTUAL wire-codec frame sizes (src/wire).
  harness::Table table({"n", "congos max/rnd", "congos mean/rnd", "congos p95/rnd",
                        "normalized", "congos MB (wire)",
                        "direct max/rnd", "paced max/rnd", "plain max/rnd"});

  // (n x protocol) grid, executed through the sweep runner: every point is an
  // independent seeded scenario, so results are identical to serial runs.
  const harness::Protocol protocols[] = {
      harness::Protocol::kCongos, harness::Protocol::kDirect,
      harness::Protocol::kDirectPaced, harness::Protocol::kPlainGossip};
  std::vector<harness::ScenarioConfig> grid;
  for (std::size_t n : ns) {
    harness::ScenarioConfig cfg;
    cfg.n = n;
    cfg.seed = 7 * n + 1;
    cfg.rounds = 384;
    cfg.workload = harness::WorkloadKind::kContinuous;
    cfg.continuous.inject_prob = 0.02;
    cfg.continuous.dest_min = 2;
    cfg.continuous.dest_max = 8;
    cfg.continuous.deadlines = {deadline};
    cfg.measure_from = 2 * deadline;
    // Pure cost sweep: confidentiality is machine-checked in E2; skipping the
    // per-envelope payload inspection here keeps large n affordable.
    cfg.audit_confidentiality = false;
    for (harness::Protocol p : protocols) {
      cfg.protocol = p;
      grid.push_back(cfg);
    }
  }
  harness::SweepRunner::Options opts;
  opts.label = "E3";
  const auto results = harness::run_sweep(grid, opts);

  for (std::size_t i = 0; i < ns.size(); ++i) {
    const std::size_t n = ns[i];
    const auto& congos = results[4 * i + 0];
    const auto& direct = results[4 * i + 1];
    const auto& paced = results[4 * i + 2];
    const auto& plain = results[4 * i + 3];

    const double nd = static_cast<double>(n);
    const double shape = std::pow(nd, 1.0 + 6.0 / std::sqrt(static_cast<double>(
                                            deadline))) *
                         std::pow(std::max(1.0, std::log2(nd)), 2.0);
    table.row({harness::cell(static_cast<std::uint64_t>(n)),
               harness::cell(congos.max_per_round),
               harness::cell(congos.mean_per_round, 1),
               // steady-state percentile: excludes the warm-up rounds, like
               // max/mean (percentile_from(measure_from, .)).
               harness::cell(congos.p95_per_round),
               harness::cell(static_cast<double>(congos.max_per_round) / shape, 4),
               harness::cell(static_cast<double>(congos.total_bytes) /
                                 (1024.0 * 1024.0),
                             1),
               harness::cell(direct.max_per_round), harness::cell(paced.max_per_round),
               harness::cell(plain.max_per_round)});

    if (!congos.qod.ok() || congos.leaks != 0) {
      std::printf("UNEXPECTED: CONGOS correctness violation at n=%zu\n", n);
      return 1;
    }
  }
  table.print(std::cout);
  std::printf(
      "\nReading: the 'normalized' column (peak / n^{1+6/sqrt(64)} log^2 n) stays\n"
      "roughly flat, matching Theorem 11's shape; plain gossip is cheaper but\n"
      "leaks; direct send is cheap here because destination sets are small -\n"
      "E1 shows where it loses. 'congos MB (wire)' is actual encoded bytes.\n");
  return 0;
}
