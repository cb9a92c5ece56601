// congos_sim: command-line driver for the simulator.
//
// Runs one fully-audited scenario and prints a summary (or CSV). Exit code 0
// iff Quality of Delivery held and no confidentiality violation occurred.
//
// Examples:
//   congos_sim --protocol=congos --n=64 --deadline=128 --rounds=512
//   congos_sim --protocol=congos --tau=2 --no-degenerate --churn=0.005
//   congos_sim --protocol=plain-gossip --n=32          # watch it leak
//   congos_sim --protocol=congos --expander --csv
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "common/flags.h"
#include "harness/record.h"
#include "harness/scenario.h"
#include "sim/faults.h"
#include "sim/trace.h"

using namespace congos;

namespace {

const char kUsage[] = R"(congos_sim - confidential continuous gossip simulator

  --protocol=P     congos | direct | direct-paced | strong-conf | plain-gossip
  --n=N            number of processes                      (default 64)
  --rounds=R       injection horizon in rounds              (default 512)
  --seed=S         experiment seed                          (default 1)
  --deadline=D     rumor deadline in rounds                 (default 128)
  --inject-prob=P  per-process injection probability        (default 0.01)
  --dest-min=K --dest-max=K  destination-set size range     (default 2..8)
  --tau=T          collusion tolerance (congos only)        (default 1)
  --no-degenerate  keep the fragment pipeline below the Thm 16 cutoff
  --expander       deterministic expander gossip instead of epidemic push
  --gossip-fanout=F  black-box gossip fan-out               (default 3)
  --churn=P        per-round crash probability (restart 0.05)
  --faults=SPEC    link-fault plan: comma-separated key:value pairs, e.g.
                   drop:0.05,delay:2 - keys: drop/dup (probabilities),
                   delay:K (max lateness), delay-rate:P, partition:PERIOD/DUR,
                   seed:S
  --retransmit     deadline-aware ack/retransmit hardening (congos only);
                   --retransmit-budget=B (default 3) and
                   --max-link-delay=K (default: the fault plan's delay bound)
                   tune the schedule
  --lazy=F         fraction of freeloading processes (congos only)
  --measure-from=R exclude rounds < R from peak statistics  (default 2*D)
  --duration=SEC   wall-clock cap; exceeding it exits 3 (CI hang guard)
  --no-audit       skip the confidentiality auditor (faster)
  --record-repro=F write a replayable .repro artifact of this run to F
  --csv            machine-readable one-line output
  --trace=N        dump the last N lifecycle events after the run
  --help           this text
)";

int fail_usage(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n\n%s", msg.c_str(), kUsage);
  return 2;
}

// --duration hang guard: a lockstep run has no natural place to poll a
// wall clock, so the cap is an alarm that aborts the process outright
// (async-signal-safe write + _exit) with the distinct exit code 3.
void on_duration_exceeded(int) {
  const char msg[] = "error: --duration exceeded\n";
  (void)!::write(STDERR_FILENO, msg, sizeof(msg) - 1);
  ::_exit(3);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.get_bool("help", false)) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  const auto unknown = flags.unknown_keys(
      {"protocol", "n", "rounds", "seed", "deadline", "inject-prob", "dest-min",
       "dest-max", "tau", "no-degenerate", "expander", "gossip-fanout", "churn",
       "faults", "retransmit", "retransmit-budget", "max-link-delay", "lazy",
       "measure-from", "duration", "no-audit", "record-repro", "csv", "trace",
       "help"});
  if (!unknown.empty()) return fail_usage("unknown flag --" + unknown.front());

  const std::int64_t duration_s = flags.get_int("duration", 0);
  if (duration_s < 0) return fail_usage("--duration must be >= 0");
  if (duration_s > 0) {
    std::signal(SIGALRM, on_duration_exceeded);
    ::alarm(static_cast<unsigned>(duration_s));
  }

  harness::ScenarioConfig cfg;
  const std::string proto = flags.get("protocol", "congos");
  if (proto == "congos") {
    cfg.protocol = harness::Protocol::kCongos;
  } else if (proto == "direct") {
    cfg.protocol = harness::Protocol::kDirect;
  } else if (proto == "direct-paced") {
    cfg.protocol = harness::Protocol::kDirectPaced;
  } else if (proto == "strong-conf") {
    cfg.protocol = harness::Protocol::kStrongConfidential;
  } else if (proto == "plain-gossip") {
    cfg.protocol = harness::Protocol::kPlainGossip;
  } else {
    return fail_usage("unknown protocol '" + proto + "'");
  }

  const std::int64_t n = flags.get_int("n", 64);
  if (n < 2) return fail_usage("--n must be at least 2");
  cfg.n = static_cast<std::size_t>(n);
  cfg.rounds = flags.get_int("rounds", 512);
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const Round deadline = flags.get_int("deadline", 128);
  cfg.workload = harness::WorkloadKind::kContinuous;
  cfg.continuous.inject_prob = flags.get_double("inject-prob", 0.01);
  cfg.continuous.dest_min = static_cast<std::size_t>(flags.get_int("dest-min", 2));
  cfg.continuous.dest_max = static_cast<std::size_t>(flags.get_int("dest-max", 8));
  cfg.continuous.deadlines = {deadline};
  cfg.congos.tau = static_cast<std::uint32_t>(flags.get_int("tau", 1));
  cfg.congos.allow_degenerate = !flags.get_bool("no-degenerate", false);
  cfg.congos.gossip_fanout = static_cast<int>(flags.get_int("gossip-fanout", 3));
  if (flags.get_bool("expander", false)) {
    cfg.congos.gossip_strategy = gossip::GossipStrategy::kExpander;
  }
  cfg.measure_from = flags.get_int("measure-from", 2 * deadline);
  cfg.audit_confidentiality = !flags.get_bool("no-audit", false);
  cfg.lazy_fraction = flags.get_double("lazy", 0.0);
  const double churn = flags.get_double("churn", 0.0);
  if (churn > 0) {
    cfg.churn = adversary::RandomChurn::Options{};
    cfg.churn->crash_prob = churn;
    cfg.churn->restart_prob = 0.05;
    cfg.churn->min_alive = std::max<std::size_t>(2, cfg.n / 8);
  }

  const std::string fault_spec = flags.get("faults", "");
  if (!fault_spec.empty()) {
    std::string err;
    if (!sim::parse_fault_spec(fault_spec, &cfg.faults, &err)) {
      return fail_usage("bad --faults spec: " + err);
    }
  }
  if (flags.get_bool("retransmit", false)) {
    cfg.congos.retransmit.enabled = true;
    cfg.congos.retransmit.budget =
        static_cast<int>(flags.get_int("retransmit-budget", 3));
    // Default the delay budget to the fault plan's own bound, so "turn on
    // retransmission" alone is already sized to the configured faults.
    const Round default_mld =
        (cfg.faults.delay_rate > 0.0 || cfg.faults.dup_rate > 0.0)
            ? cfg.faults.max_delay
            : 0;
    cfg.congos.retransmit.max_link_delay =
        flags.get_int("max-link-delay", default_mld);
  }

  sim::TraceLog trace;
  const auto trace_n = flags.get_int("trace", 0);
  if (trace_n > 0) cfg.extra_observers.push_back(&trace);
  // Every numeric flag has been read (a malformed one as its default);
  // refuse the run before it starts.
  if (!flags.malformed().empty()) {
    const std::string& key = flags.malformed().front();
    return fail_usage("--" + key + " expects a number, got '" +
                      flags.get(key, "") + "'");
  }

  harness::ScenarioResult r;
  const std::string repro_path = flags.get("record-repro", "");
  if (!repro_path.empty()) {
    std::string why;
    if (!replay::is_recordable(cfg, &why)) {
      return fail_usage("cannot record this configuration: " + why);
    }
    auto recorded = harness::run_recorded(cfg, "congos_sim",
                                          "recorded via --record-repro");
    r = recorded.result;
    if (!replay::write_file(repro_path, recorded.repro)) {
      std::fprintf(stderr, "error: cannot write %s\n", repro_path.c_str());
      return 2;
    }
    std::fprintf(stderr, "wrote %s (%zu lifecycle events, %zu rounds)\n",
                 repro_path.c_str(), recorded.trace.event_count(),
                 recorded.repro.round_deliveries.size());
  } else {
    r = harness::run_scenario(cfg);
  }
  const bool ok = r.qod.ok() && r.leaks == 0;

  if (trace_n > 0) trace.dump(std::cerr, static_cast<std::size_t>(trace_n));

  if (flags.get_bool("csv", false)) {
    std::printf(
        "protocol,n,rounds,seed,deadline,injected,admissible,on_time,late,missing,"
        "leaks,shoots,max_per_round,mean_per_round,max_bytes_per_round,ok\n");
    std::printf("%s,%zu,%lld,%llu,%lld,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%.1f,%llu,%d\n",
                proto.c_str(), cfg.n, static_cast<long long>(cfg.rounds),
                static_cast<unsigned long long>(cfg.seed),
                static_cast<long long>(deadline),
                static_cast<unsigned long long>(r.injected),
                static_cast<unsigned long long>(r.qod.admissible_pairs),
                static_cast<unsigned long long>(r.qod.delivered_on_time),
                static_cast<unsigned long long>(r.qod.late),
                static_cast<unsigned long long>(r.qod.missing),
                static_cast<unsigned long long>(r.leaks),
                static_cast<unsigned long long>(r.cg_shoots),
                static_cast<unsigned long long>(r.max_per_round), r.mean_per_round,
                static_cast<unsigned long long>(r.max_bytes_per_round), ok ? 1 : 0);
    return ok ? 0 : 1;
  }

  std::printf("protocol         : %s (n=%zu, seed=%llu)\n", proto.c_str(), cfg.n,
              static_cast<unsigned long long>(cfg.seed));
  std::printf("rumors           : %llu injected, deadline %lld\n",
              static_cast<unsigned long long>(r.injected),
              static_cast<long long>(deadline));
  std::printf("delivery         : %llu/%llu admissible on time (late %llu, "
              "missing %llu, corrupted %llu)\n",
              static_cast<unsigned long long>(r.qod.delivered_on_time),
              static_cast<unsigned long long>(r.qod.admissible_pairs),
              static_cast<unsigned long long>(r.qod.late),
              static_cast<unsigned long long>(r.qod.missing),
              static_cast<unsigned long long>(r.qod.data_mismatches));
  std::printf("latency (rounds) : mean %.1f, p50 %lld, p95 %lld, max %lld\n",
              r.qod.mean_latency, static_cast<long long>(r.qod.latency_p50),
              static_cast<long long>(r.qod.latency_p95),
              static_cast<long long>(r.qod.latency_max));
  std::printf("confidentiality  : %llu leaks, %llu structural violations%s\n",
              static_cast<unsigned long long>(r.leaks),
              static_cast<unsigned long long>(r.foreign_fragments),
              cfg.audit_confidentiality ? "" : " (auditing disabled)");
  std::printf("cost             : max %llu msgs/round, mean %.1f; peak %llu "
              "bytes/round\n",
              static_cast<unsigned long long>(r.max_per_round), r.mean_per_round,
              static_cast<unsigned long long>(r.max_bytes_per_round));
  if (cfg.protocol == harness::Protocol::kCongos) {
    std::printf("pipeline         : %llu confirmed, %llu fallback shoots, %llu "
                "direct (short deadline)\n",
                static_cast<unsigned long long>(r.cg_confirmed),
                static_cast<unsigned long long>(r.cg_shoots),
                static_cast<unsigned long long>(r.cg_injected_direct));
  }
  if (cfg.faults.enabled()) {
    std::printf("faults           : %s\n", sim::describe(cfg.faults).c_str());
    std::printf("fault events     : %llu dropped, %llu duplicated, %llu delayed, "
                "%llu partitioned; %llu dup rumors suppressed\n",
                static_cast<unsigned long long>(
                    r.faults_by_kind[static_cast<int>(sim::FaultKind::kDropped)]),
                static_cast<unsigned long long>(
                    r.faults_by_kind[static_cast<int>(sim::FaultKind::kDuplicated)]),
                static_cast<unsigned long long>(
                    r.faults_by_kind[static_cast<int>(sim::FaultKind::kDelayed)]),
                static_cast<unsigned long long>(
                    r.faults_by_kind[static_cast<int>(sim::FaultKind::kPartitioned)]),
                static_cast<unsigned long long>(r.duplicates_suppressed));
    std::printf("retransmission   : %s (QoD contract %s)\n",
                cfg.congos.retransmit.enabled ? "on" : "off",
                audit::delivery_guaranteed(cfg.faults, cfg.congos.retransmit)
                    ? "guaranteed"
                    : "not guaranteed - violations are detected, never masked");
  }
  std::printf("verdict          : %s\n", ok ? "OK" : "VIOLATIONS DETECTED");
  return ok ? 0 : 1;
}
