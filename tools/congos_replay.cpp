// congos_replay: load a .repro artifact and re-execute it deterministically.
//
// The simulator is a pure function of (ScenarioConfig, seed), so a replay
// must reproduce the recorded run byte-for-byte: the per-round delivered
// envelope counts, their FNV-1a golden hash and the result summary. Any
// divergence is reported with the first differing round or the differing
// summary fields. The artifact stores only the config and these
// fingerprints; --schedule and --show-trace re-execute the config with a
// TraceLog attached to show the run's events.
//
// Examples:
//   congos_replay sweep-17.repro                  # full verified replay
//   congos_replay sweep-17.repro --until-round=96 # prefix replay
//   congos_replay sweep-17.repro --dump-state --until-round=96
//   congos_replay sweep-17.repro --schedule       # crash/restart/inject list
//   congos_replay sweep-17.repro --show-trace     # trace tail
//
// Exit codes: 0 verified, 1 divergence detected, 2 usage or load error.
#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "harness/record.h"
#include "replay/repro.h"
#include "sim/trace.h"
#include "wire/wire.h"

using namespace congos;

namespace {

const char kUsage[] = R"(congos_replay - deterministic .repro re-execution

  congos_replay FILE.repro [flags]

  --until-round=R  stop the re-execution at round R (default: run to the end;
                   prefix replays verify per-round counts up to R only, and
                   a complete replay also checks the result summary)
  --dump-state     print an engine state summary at the stop round
  --schedule       print every crash, restart and injection of the
                   re-execution, then verify it
  --show-trace     print the re-execution's TraceLog tail, then verify it
  --show-faults    print the recorded link-fault plan and fault counters, exit
  --help           this text
)";

int fail_usage(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n\n%s", msg.c_str(), kUsage);
  return 2;
}

void print_faults(const replay::ReproFile& file) {
  std::printf("fault plan       : %s\n", sim::describe(file.config.faults).c_str());
  const auto& rt = file.config.congos.retransmit;
  if (rt.enabled) {
    std::printf("retransmission   : on (budget %d, max link delay %lld)\n",
                rt.budget, static_cast<long long>(rt.max_link_delay));
  } else {
    std::printf("retransmission   : off\n");
  }
  std::printf("fault events     : ");
  for (std::size_t f = 0; f < sim::kNumFaultKinds; ++f) {
    std::printf("%s%llu %s", f == 0 ? "" : ", ",
                static_cast<unsigned long long>(file.faults_by_kind[f]),
                sim::to_string(static_cast<sim::FaultKind>(f)));
  }
  std::printf("\nduplicates       : %llu suppressed by gossip idempotence\n",
              static_cast<unsigned long long>(file.duplicates_suppressed));
  if (!file.config.faults.enabled()) {
    std::printf("(fault layer was off for this run - a v1 artifact reads the "
                "same way)\n");
  }
}

void dump_state(const replay::ReproFile& file, const harness::ReplayReport& report) {
  std::printf("-- engine state at round %lld --\n",
              static_cast<long long>(report.executed_rounds));
  std::printf("processes        : %zu (%zu alive)\n", file.config.n,
              file.config.n - report.crashed.size());
  std::string dead;
  for (const ProcessId p : report.crashed) dead += " p" + std::to_string(p);
  std::printf("crashed          :%s\n", dead.empty() ? " (none)" : dead.c_str());
  std::printf("messages         : %llu total, %llu bytes\n",
              static_cast<unsigned long long>(report.result.total_messages),
              static_cast<unsigned long long>(report.result.total_bytes));
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.get_bool("help", false)) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  const auto unknown = flags.unknown_keys(
      {"until-round", "dump-state", "schedule", "show-faults", "show-trace",
       "help"});
  if (!unknown.empty()) return fail_usage("unknown flag --" + unknown.front());
  if (flags.positional().size() != 1) {
    return fail_usage("expected exactly one FILE.repro argument");
  }

  const std::string path = flags.positional().front();
  replay::ReproFile file;
  std::string error;
  if (!replay::read_file(path, &file, &error)) {
    std::fprintf(stderr, "error: cannot load %s: %s\n", path.c_str(),
                 error.c_str());
    return 2;
  }

  std::printf("artifact         : %s\n", path.c_str());
  std::printf("label            : %s%s%s\n", file.label.c_str(),
              file.reason.empty() ? "" : " - ", file.reason.c_str());
  std::printf("scenario         : %s n=%zu seed=%llu rounds=%lld\n",
              harness::to_string(file.config.protocol), file.config.n,
              static_cast<unsigned long long>(file.config.seed),
              static_cast<long long>(file.config.rounds));
  std::printf("recorded         : %zu rounds, trace hash %016" PRIx64 "\n",
              file.round_deliveries.size(), file.trace_hash);
  if (file.wire_codec_version == 0) {
    std::printf("wire codec       : pre-codec (byte totals use the old "
                "fixed-width model)\n");
  } else {
    std::printf("wire codec       : v%u%s\n", file.wire_codec_version,
                file.wire_codec_version == wire::kWireFormatVersion
                    ? ""
                    : " (DIFFERS from this build - byte totals not comparable)");
  }

  if (flags.get_bool("show-faults", false)) {
    print_faults(file);
    return 0;
  }

  harness::ReplayOptions opt;
  opt.until_round = flags.get_int("until-round", -1);
  if (!flags.malformed().empty()) {
    return fail_usage("--until-round expects a number, got '" +
                      flags.get("until-round", "") + "'");
  }
  const bool schedule = flags.get_bool("schedule", false);
  const bool show_trace = flags.get_bool("show-trace", false);
  // --show-trace wants the deliveries of the last rounds; the schedule wants
  // every lifecycle event and no deliveries.
  sim::TraceLog trace(show_trace ? sim::TraceLog::Options{}
                                 : sim::TraceLog::Options{.capacity = SIZE_MAX,
                                                          .record_deliveries = false});

  const harness::ReplayReport report = harness::replay_file(file, opt, &trace);
  if (schedule) trace.write_schedule(std::cout);
  if (show_trace) trace.dump(std::cout);
  std::printf("replayed         : %lld rounds (%s), trace hash %016" PRIx64 "\n",
              static_cast<long long>(report.executed_rounds),
              report.complete ? "complete" : "prefix", report.trace_hash);
  if (!report.counts_match) {
    std::printf("counts           : DIVERGED at round %lld\n",
                static_cast<long long>(report.first_count_divergence));
  } else {
    std::printf("counts           : match over the executed prefix\n");
  }
  if (report.complete) {
    std::printf("hash             : %s\n",
                report.hash_match ? "match" : "MISMATCH");
  }

  for (const std::string& diff : report.summary_diffs) {
    std::printf("summary          : DIFFERS %s\n", diff.c_str());
  }
  if (report.complete && report.summary_diffs.empty()) {
    std::printf("summary          : match\n");
  }

  const int rc = report.verified() ? 0 : 1;
  if (flags.get_bool("dump-state", false)) {
    dump_state(file, report);
  }
  std::printf("verdict          : %s\n", rc == 0 ? "REPLAY VERIFIED"
                                                 : "REPLAY DIVERGED");
  return rc;
}
