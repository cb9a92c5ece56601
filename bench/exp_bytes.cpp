// E15 (Section 7, communication complexity): bits, not just messages.
//
// The paper is explicit that its efficiency metric counts messages, and that
// if rumors are large and cannot be merged, the *bit* complexity tells a
// different story: collaborative dissemination replicates every fragment
// across whole groups, so CONGOS moves ~n copies of each rumor's worth of
// data, while direct sending moves |D| copies. We sweep the rumor payload
// size and report bytes per (real) rumor for CONGOS vs direct send - the
// honest cost of confidential collaboration.
//
// Byte columns are ACTUAL encoded sizes under the versioned wire codec
// (src/wire): exactly what encode_envelope() emits, frame header and
// checksum included.
#include "bench_util.h"
#include "harness/scenario.h"
#include "harness/table.h"

using namespace congos;

int main() {
  bench::banner("E15 / Section 7 (communication complexity)",
                "Bytes moved per rumor as payloads grow: collaboration "
                "replicates fragments group-wide; direct send moves |D| copies.");

  const std::size_t n = 48;
  harness::Table table({"payload B", "congos msgs/rumor", "congos KB/rumor",
                        "direct KB/rumor", "byte ratio", "congos peak KB/rnd"});

  const std::vector<std::size_t> payloads = {16, 256, 4096};
  std::vector<harness::ScenarioConfig> grid;
  for (std::size_t payload : payloads) {
    harness::ScenarioConfig cfg;
    cfg.n = n;
    cfg.seed = 55;
    cfg.rounds = 320;
    cfg.workload = harness::WorkloadKind::kContinuous;
    cfg.continuous.inject_prob = 0.01;
    cfg.continuous.dest_min = 4;
    cfg.continuous.dest_max = 4;
    cfg.continuous.deadlines = {64};
    cfg.continuous.payload_len = payload;
    cfg.measure_from = 128;
    cfg.audit_confidentiality = false;
    cfg.protocol = harness::Protocol::kCongos;
    grid.push_back(cfg);
    cfg.protocol = harness::Protocol::kDirect;
    grid.push_back(cfg);
  }
  harness::SweepRunner::Options opts;
  opts.label = "E15";
  const auto results = harness::run_sweep(grid, opts);

  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const std::size_t payload = payloads[i];
    const auto& congos = results[2 * i + 0];
    const auto& direct = results[2 * i + 1];
    if (!congos.qod.ok() || !direct.qod.ok()) return 1;

    const double c_kb = static_cast<double>(congos.total_bytes) /
                        static_cast<double>(congos.injected) / 1024.0;
    const double d_kb = static_cast<double>(direct.total_bytes) /
                        static_cast<double>(direct.injected) / 1024.0;
    table.row({harness::cell(static_cast<std::uint64_t>(payload)),
               harness::cell(static_cast<double>(congos.total_messages) /
                                 static_cast<double>(congos.injected),
                             0),
               harness::cell(c_kb, 1), harness::cell(d_kb, 1),
               harness::cell(c_kb / d_kb, 0),
               harness::cell(static_cast<double>(congos.max_bytes_per_round) / 1024.0,
                             0)});
  }
  table.print(std::cout);

  // Where the CONGOS bytes actually go, for the largest payload: the
  // by-service split of total_bytes (MessageStats::total_bytes(kind)).
  const auto& breakdown = results[2 * (payloads.size() - 1)];
  std::printf("\nCONGOS byte breakdown by service (payload %zu B):\n",
              payloads.back());
  for (std::size_t k = 0; k < sim::kNumServiceKinds; ++k) {
    const std::uint64_t bytes = breakdown.total_bytes_by_kind[k];
    if (bytes == 0) continue;
    std::printf("  %-18s %10.1f KB  (%5.1f%%)\n",
                sim::to_string(static_cast<sim::ServiceKind>(k)),
                static_cast<double>(bytes) / 1024.0,
                100.0 * static_cast<double>(bytes) /
                    static_cast<double>(breakdown.total_bytes));
  }
  std::printf(
      "\nByte columns are actual wire-codec frame sizes (EXPERIMENTS.md).\n"
      "\nReading: message counts are payload-independent, but bytes scale with\n"
      "payload x replication x epidemic re-pushing (our gossip realization\n"
      "re-sends active rumors every round, so the byte premium over direct send\n"
      "is large and dominated by metadata for small payloads - the ratio falls\n"
      "as payloads amortize it). This is the paper's own caveat, verbatim: 'if\n"
      "the rumors cannot be merged, then gossip protocols may not be efficient'.\n");
  return 0;
}
