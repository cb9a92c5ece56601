// congos_bench: end-to-end CONGOS benchmark over the lockstep simulator
// (harness::ScenarioRun) and a real-wire congos_d cluster
// (harness::run_cluster).
//
//   congos_bench --workload=NAME --seed=S [--seconds=T] [--trace=FILE]
//                [--daemon=PATH] [--workdir=DIR] [--smoke]
//   congos_bench --report=FILE
//
// Workloads (README.md says why each was chosen):
//   sim-steady        CONGOS tau=1, continuous injection, clean links
//   sim-churn-faults  the same plus RandomChurn, link faults, retransmission
//   wire-durable      8 congos_d daemons on UDP loopback, durable checkpoints
//   wire-lossy-lz4    8 daemons, socket drop shim, retransmission, LZ4
//
// The seed only generates inputs: the scenario config handed to ScenarioRun,
// or the cluster config and injection schedule handed to run_cluster.
//
// Untraced, a run repeats its workload on seeds drawn from --seed until
// --seconds have passed and prints every end-to-end metric (the median over
// the repetitions) with its unit. With --trace=FILE it runs the workload
// once untraced and once traced, times each layer from outside by wrapping
// the calls into its public functions, writes the spans to FILE at exit and
// prints every per-layer metric. --report=FILE prints self time per layer
// from such a file. The last stdout line of a run is one JSON object:
//
//   {"correct":true,"attempted":N,"failed":0,
//    "metrics":{"name":{"value":v,"unit":"u"},..}}
//
// attempted counts admissible (rumor, destination) pairs, failed the late,
// missing or corrupted ones. Exit status: 0 when every check held; 1 on a
// QoD violation, a leak or foreign fragment, a failed cluster, or a traced
// run that diverged from the untraced one; 2 on a usage or setup error.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/patterns.h"
#include "adversary/workload.h"
#include "audit/confidentiality.h"
#include "common/assert.h"
#include "common/flags.h"
#include "common/rng.h"
#include "congos/congos_process.h"
#include "harness/cluster.h"
#include "harness/scenario.h"
#include "net/checkpoint.h"
#include "net/control.h"
#include "net/runtime.h"
#include "net/sim_transport.h"
#include "sim/faults.h"
#include "spans.h"
#include "wire/compress.h"
#include "wire/envelope.h"

namespace congos::bench {
namespace {

namespace fs = std::filesystem;

// -- metric schema (BENCHMARK.json lists the same names and units) -----------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"rounds_per_s", "rounds/s"},
    {"offclock_s", "s"},
    {"cpu_ms_per_node_round", "ms"},
    {"latency_rounds_p50", "rounds"},
    {"latency_rounds_mean", "rounds"},
    {"msgs_per_round_max", "msgs"},
    {"bytes_per_delivery", "bytes"},
};

constexpr MetricDef kPerLayer[] = {
    {"harness.setup_ms", "ms"},
    {"partition.build_ms", "ms"},
    {"sim.step_ms_p50", "ms"},
    {"sim.step_ms_p90", "ms"},
    {"sim.step_ms_max", "ms"},
    {"sim.step_self_ms", "ms"},
    {"msgs.total", "count"},
    {"msgs.bytes_per_msg", "bytes"},
    {"msgs.group_gossip", "count"},
    {"msgs.all_gossip", "count"},
    {"msgs.proxy", "count"},
    {"msgs.group_distribution", "count"},
    {"msgs.fallback", "count"},
    {"faults.events", "count"},
    {"lifecycle.crashes", "count"},
    {"lifecycle.restarts", "count"},
    {"rumors.injected", "count"},
    {"audit.confidentiality_ms", "ms"},
    {"audit.confidentiality_us_per_envelope", "us"},
    {"audit.confidentiality_share", "fraction"},
    {"audit.envelopes", "count"},
    {"congos.confirmed", "count"},
    {"congos.shoots", "count"},
    {"congos.confirmed_frac", "fraction"},
    {"congos.filter_drops", "count"},
    {"gossip.duplicates_suppressed", "count"},
    {"net.send_syscalls_per_dgram", "ratio"},
    {"net.recv_syscalls_per_dgram", "ratio"},
    {"net.datagrams_sent", "count"},
    {"net.queue_hwm", "count"},
    {"net.queue_overflow", "count"},
    {"net.decode_errors", "count"},
    {"net.checkpoint_writes", "count"},
    {"net.state_bytes", "bytes"},
    {"net.log_bytes", "bytes"},
    {"net.log_parse_ms", "ms"},
    {"net.checkpoint_decode_ms", "ms"},
    {"net.checkpoint_resume_ms", "ms"},
    {"wire.frames_per_datagram", "ratio"},
    {"wire.lz4_compressed_frac", "fraction"},
    {"wire.decode_us_per_frame", "us"},
    {"trace_overhead_frac", "fraction"},
};

/// One run's verdict and metric values (every metric of the schema it
/// prints; layers a workload does not run read 0).
struct Outcome {
  bool correct = true;
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
};

void print_outcome(const Outcome& out, const MetricDef* defs, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = out.values.find(defs[i].name);
    std::printf("%-40s %18.6f %s\n", defs[i].name,
                it == out.values.end() ? 0.0 : it->second, defs[i].unit);
  }
  for (const std::string& p : out.problems) std::printf("FAILED: %s\n", p.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"metrics\":{",
              out.correct ? "true" : "false", out.attempted, out.failed);
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = out.values.find(defs[i].name);
    // %.17g keeps every digit the measurement has.
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i == 0 ? "" : ",",
                defs[i].name, it == out.values.end() ? 0.0 : it->second,
                defs[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// -- small helpers -----------------------------------------------------------

double cpu_seconds(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }
double millis(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Nearest-rank percentile (p in [0, 100]) of a non-empty sample.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}

double median(const std::vector<double>& v) {
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const std::size_t m = s.size() / 2;
  return s.size() % 2 == 1 ? s[m] : (s[m - 1] + s[m]) / 2.0;
}

/// Repetition seeds: a fixed stream drawn from the run's --seed.
std::vector<std::uint64_t> episode_seeds(std::uint64_t seed, std::size_t count) {
  Rng rng(seed);
  std::vector<std::uint64_t> out(count);
  for (std::uint64_t& s : out) s = rng.next() >> 1;  // fits flags' int64
  return out;
}

/// Collects one value per repetition for each end-to-end metric.
struct Samples {
  std::map<std::string, std::vector<double>> by_metric;
  void add(const char* name, double v) { by_metric[name].push_back(v); }
  void medians_into(Outcome* out) const {
    for (const auto& [name, v] : by_metric) out->values[name] = median(v);
  }
};

/// Runs `episode(i)` for i = 0, 1, ...: `min_reps` times, then on while the
/// next one (judged by the median repetition so far) would end within
/// `budget_s`.
template <class F>
void repeat_within(double budget_s, std::size_t min_reps, std::size_t max_reps,
                   F episode) {
  const std::int64_t start = now_ns();
  std::vector<double> took;
  std::size_t i = 0;
  while (i < max_reps &&
         (i < min_reps || seconds(now_ns() - start) + median(took) <= budget_s)) {
    const std::int64_t t0 = now_ns();
    episode(i++);
    took.push_back(seconds(now_ns() - t0));
  }
}

// -- simulator workloads -------------------------------------------------------

struct SimSpec {
  std::size_t n = 128;
  Round rounds = 36;  // injection horizon; the run drains to rounds+deadline+2
  Round deadline = 64;
  double inject_prob = 0.02;
  bool churn_faults = false;
};

SimSpec sim_spec(bool churn_faults, bool smoke) {
  SimSpec s;
  s.churn_faults = churn_faults;
  if (smoke) {
    s.n = 32;
    s.rounds = 6;  // 6 + 32 + 2 = 40 rounds
    s.deadline = 32;
    s.inject_prob = 0.05;
  }
  return s;
}

harness::ScenarioConfig sim_config(const SimSpec& w, std::uint64_t seed) {
  harness::ScenarioConfig cfg;
  cfg.n = w.n;
  cfg.seed = seed;
  cfg.rounds = w.rounds;
  cfg.protocol = harness::Protocol::kCongos;
  cfg.congos.tau = 1;
  cfg.workload = harness::WorkloadKind::kContinuous;
  cfg.continuous.inject_prob = w.inject_prob;
  cfg.continuous.dest_min = 2;
  cfg.continuous.dest_max = 8;
  cfg.continuous.deadlines = {w.deadline};
  cfg.continuous.payload_len = 16;
  cfg.measure_from = 0;
  cfg.engine_threads = 2;
  cfg.audit_confidentiality = true;
  if (w.churn_faults) {
    adversary::RandomChurn::Options churn;
    churn.crash_prob = 0.005;
    churn.restart_prob = 0.05;
    churn.min_alive = w.n / 8;
    cfg.churn = churn;
    std::string err;
    const bool parsed =
        sim::parse_fault_spec("drop:0.05,delay:2,delay-rate:0.1", &cfg.faults, &err);
    CONGOS_ASSERT_MSG(parsed, "built-in fault spec");
    cfg.faults.seed = seed ^ 0xfa0175eedull;
    cfg.congos.retransmit.enabled = true;
    cfg.congos.retransmit.budget = 3;
    cfg.congos.retransmit.max_link_delay = 2;
  }
  return cfg;
}

struct SimRun {
  harness::ScenarioResult result;
  Round rounds = 0;
  std::int64_t setup_ns = 0;  // ScenarioRun construction
  std::int64_t steps_ns = 0;  // run_all()
  std::int64_t run_ns = 0;    // run_all() + finalize()
  std::int64_t start_ns = 0;  // construction began
  std::int64_t end_ns = 0;    // finalize() returned
  double cpu_s = 0.0;         // whole process, over run_all()
};

SimRun run_sim(const harness::ScenarioConfig& cfg) {
  SimRun out;
  out.start_ns = now_ns();
  harness::ScenarioRun run(cfg);
  const std::int64_t built = now_ns();
  const double cpu0 = cpu_seconds(RUSAGE_SELF);
  run.run_all();
  out.cpu_s = cpu_seconds(RUSAGE_SELF) - cpu0;
  const std::int64_t stepped = now_ns();
  out.result = run.finalize();
  out.end_ns = now_ns();
  out.rounds = run.total_rounds();
  out.setup_ns = built - out.start_ns;
  out.steps_ns = stepped - built;
  out.run_ns = out.end_ns - built;
  return out;
}

void check_sim(const harness::ScenarioResult& r, std::uint32_t tau, Outcome* out) {
  out->attempted += r.qod.admissible_pairs;
  out->failed += r.qod.late + r.qod.missing + r.qod.data_mismatches;
  out->check(r.qod.ok(), "QoD violated: late=" + std::to_string(r.qod.late) +
                             " missing=" + std::to_string(r.qod.missing) +
                             " corrupted=" + std::to_string(r.qod.data_mismatches));
  out->check(r.leaks == 0, std::to_string(r.leaks) + " confidentiality leaks");
  out->check(r.foreign_fragments == 0,
             std::to_string(r.foreign_fragments) + " foreign fragments");
  out->check(r.unknown_payloads == 0,
             std::to_string(r.unknown_payloads) + " unknown payloads");
  out->check(r.filter_drops == 0, std::to_string(r.filter_drops) + " filter drops");
  out->check(r.weakest_coalition > tau, "a coalition of <= tau breaks a rumor");
  out->check(r.injected > 0 && r.qod.delivered_on_time > 0,
             "nothing injected or delivered");
}

/// The deterministic outputs a traced run must reproduce exactly.
std::string sim_fingerprint(const harness::ScenarioResult& r) {
  const audit::QodReport& q = r.qod;
  std::string s;
  for (const std::uint64_t v :
       {r.total_messages, r.total_bytes, r.max_per_round, r.max_bytes_per_round,
        r.injected, r.crashes, r.restarts, r.fault_total, r.duplicates_suppressed,
        r.cg_confirmed, r.cg_shoots, r.leaks, r.foreign_fragments, q.rumors,
        q.admissible_pairs, q.delivered_on_time, q.late, q.missing,
        q.bonus_deliveries, q.data_mismatches,
        static_cast<std::uint64_t>(q.latency_p50),
        static_cast<std::uint64_t>(q.latency_p95),
        static_cast<std::uint64_t>(q.latency_max)}) {
    s += std::to_string(v) + "/";
  }
  return s;
}

int run_sim_untraced(const SimSpec& w, std::uint64_t seed, double budget_s,
                     bool smoke) {
  Outcome out;
  Samples samples;
  std::vector<double> setups;
  const std::int64_t start = now_ns();
  const std::vector<std::uint64_t> seeds = episode_seeds(seed, 64);
  // Construction takes well under a millisecond, so setup_s gets extra
  // samples beside the one per repetition.
  for (std::size_t i = 0; i < (smoke ? 1u : 16u); ++i) {
    const harness::ScenarioConfig cfg = sim_config(w, seeds[i]);
    const std::int64_t t0 = now_ns();
    const auto probe = std::make_unique<harness::ScenarioRun>(cfg);
    setups.push_back(seconds(now_ns() - t0));
  }
  // At least three repetitions, so the median means something on a slow
  // host.
  const double left = smoke ? 0.0 : budget_s - seconds(now_ns() - start);
  repeat_within(left, smoke ? 1 : 3, seeds.size(), [&](std::size_t i) {
    const harness::ScenarioConfig cfg = sim_config(w, seeds[i]);
    const SimRun run = run_sim(cfg);
    const harness::ScenarioResult& r = run.result;
    check_sim(r, cfg.congos.tau, &out);
    setups.push_back(seconds(run.setup_ns));
    samples.add("rounds_per_s", ratio(run.rounds, seconds(run.steps_ns)));
    samples.add("offclock_s", seconds(run.run_ns));
    samples.add("cpu_ms_per_node_round",
                1e3 * run.cpu_s / static_cast<double>(cfg.n * run.rounds));
    samples.add("latency_rounds_p50", static_cast<double>(r.qod.latency_p50));
    samples.add("latency_rounds_mean", r.qod.mean_latency);
    samples.add("msgs_per_round_max", static_cast<double>(r.max_per_round));
    samples.add("bytes_per_delivery",
                ratio(static_cast<double>(r.total_bytes),
                      static_cast<double>(r.qod.delivered_on_time)));
  });
  samples.medians_into(&out);
  out.values["setup_s"] = median(setups);
  print_outcome(out, kEndToEnd, std::size(kEndToEnd));
  return out.correct ? 0 : 1;
}

// Per-round spans of the traced sim run: one `round` per Engine::step with
// an `adversary` and an `audit.confidentiality` child accumulating the
// round's calls.
class RoundSpans {
 public:
  explicit RoundSpans(SpanLog* log) : log_(log) {}
  void open(std::uint64_t parent) {
    round_ = log_->begin(kTracedRun, "round", parent);
    adversary_ = 0;
    audit_ = 0;
  }
  void close() { log_->end(round_); }
  void adversary(std::int64_t t0, std::int64_t t1) {
    log_->accumulate(&adversary_, "adversary", round_, t0, t1);
  }
  void audit(std::int64_t t0, std::int64_t t1) {
    log_->accumulate(&audit_, "audit.confidentiality", round_, t0, t1);
  }

 private:
  SpanLog* log_;
  std::uint64_t round_ = 0;
  std::uint64_t adversary_ = 0;
  std::uint64_t audit_ = 0;
};

class TimedAdversary final : public sim::Adversary {
 public:
  TimedAdversary(sim::Adversary* inner, RoundSpans* spans)
      : inner_(inner), spans_(spans) {}
  void at_round_start(sim::Engine& e) override {
    const std::int64_t t0 = now_ns();
    inner_->at_round_start(e);
    spans_->adversary(t0, now_ns());
  }
  void after_sends(sim::Engine& e) override {
    const std::int64_t t0 = now_ns();
    inner_->after_sends(e);
    spans_->adversary(t0, now_ns());
  }
  void at_round_end(sim::Engine& e) override {
    const std::int64_t t0 = now_ns();
    inner_->at_round_end(e);
    spans_->adversary(t0, now_ns());
  }

 private:
  sim::Adversary* inner_;
  RoundSpans* spans_;
};

class TimedAuditor final : public sim::ExecutionObserver {
 public:
  TimedAuditor(audit::ConfidentialityAuditor* inner, RoundSpans* spans)
      : inner_(inner), spans_(spans) {}
  // Injections reach observers from inside the workload's at_round_start,
  // so their (small) audit cost stays in the adversary span rather than
  // overlapping it.
  void on_inject(const sim::Rumor& rumor, Round now) override {
    inner_->on_inject(rumor, now);
  }
  void on_envelope_delivered(const sim::Envelope& e, Round now) override {
    const std::int64_t t0 = now_ns();
    inner_->on_envelope_delivered(e, now);
    spans_->audit(t0, now_ns());
    ++envelopes_;
  }
  std::uint64_t envelopes() const { return envelopes_; }

 private:
  audit::ConfidentialityAuditor* inner_;
  RoundSpans* spans_;
  std::uint64_t envelopes_ = 0;
};

int run_sim_traced(const SimSpec& w, std::uint64_t seed, const std::string& path) {
  Outcome out;
  SpanLog log;
  const std::uint64_t ep_seed = episode_seeds(seed, 1)[0];

  // Untraced reference on the same inputs.
  const harness::ScenarioConfig plain = sim_config(w, ep_seed);
  const SimRun ref = run_sim(plain);
  check_sim(ref.result, plain.congos.tau, &out);
  log.add(kUntracedRun, "run", 0, ref.start_ns, ref.end_ns);

  // Traced variant: the same workload, but the workload, the churn (in that
  // order, as ScenarioRun registers them) and the confidentiality auditor
  // are handed in behind timing wrappers.
  harness::ScenarioConfig cfg = plain;
  adversary::Continuous::Options injection = cfg.continuous;
  injection.last_injection_round = cfg.rounds - 1;
  adversary::Continuous workload(injection);
  std::optional<adversary::RandomChurn> churn;
  if (cfg.churn) churn.emplace(*cfg.churn);
  RoundSpans rounds(&log);
  TimedAdversary timed_workload(&workload, &rounds);
  std::optional<TimedAdversary> timed_churn;
  cfg.workload = harness::WorkloadKind::kNone;
  cfg.min_drain = w.deadline;
  cfg.churn.reset();
  cfg.audit_confidentiality = false;
  cfg.extra_adversaries = {&timed_workload};
  if (churn) {
    timed_churn.emplace(&*churn, &rounds);
    cfg.extra_adversaries.push_back(&*timed_churn);
  }

  const std::uint64_t root = log.begin(kTracedRun, "run");
  const std::uint64_t pb = log.begin(kTracedRun, "partition.build", root);
  const auto partitions = core::CongosProcess::build_partitions(cfg.n, cfg.congos);
  log.end(pb);
  audit::ConfidentialityAuditor auditor(cfg.n, partitions.get());
  TimedAuditor timed_audit(&auditor, &rounds);
  cfg.extra_observers = {&timed_audit};

  const std::uint64_t setup = log.begin(kTracedRun, "setup", root);
  harness::ScenarioRun run(cfg);
  log.end(setup);
  while (!run.finished()) {
    rounds.open(root);
    run.run_until(run.engine().now() + 1);
    rounds.close();
  }
  const std::uint64_t fin = log.begin(kTracedRun, "finalize", root);
  harness::ScenarioResult r = run.finalize();
  log.end(fin);
  log.end(root);
  r.leaks = auditor.leaks();
  r.foreign_fragments = auditor.count(audit::ViolationKind::kForeignFragment);
  r.unknown_payloads = auditor.unknown_payloads();
  r.weakest_coalition = auditor.weakest_rumor_coalition();

  // The traced run must not change what the system does.
  Outcome traced_checks;
  check_sim(r, cfg.congos.tau, &traced_checks);
  for (const std::string& p : traced_checks.problems) out.fail("traced: " + p);
  out.check(sim_fingerprint(r) == sim_fingerprint(ref.result),
            "traced run diverged from the untraced run: " + sim_fingerprint(r) +
                " vs " + sim_fingerprint(ref.result));

  std::vector<double> steps;
  std::int64_t adversary_ns = 0;
  std::int64_t audit_ns = 0;
  for (const Span& s : log.spans()) {
    if (s.trace != kTracedRun) continue;
    if (s.name == "round") steps.push_back(millis(s.duration_ns()));
    if (s.name == "adversary") adversary_ns += s.duration_ns();
    if (s.name == "audit.confidentiality") audit_ns += s.duration_ns();
  }
  double step_total_ms = 0.0;
  for (const double v : steps) step_total_ms += v;

  TraceReport report;
  std::string err;
  if (!build_report(log.spans(), &report, &err)) out.fail("trace report: " + err);
  out.check(report.consistent, "layer self times do not sum to the traced wall time");
  if (!log.write(path, &err)) out.fail(err);

  auto& v = out.values;
  v["harness.setup_ms"] = millis(log.span(setup).duration_ns());
  v["partition.build_ms"] = millis(log.span(pb).duration_ns());
  v["sim.step_ms_p50"] = percentile(steps, 50);
  v["sim.step_ms_p90"] = percentile(steps, 90);
  v["sim.step_ms_max"] = percentile(steps, 100);
  v["sim.step_self_ms"] = step_total_ms - millis(adversary_ns + audit_ns);
  v["msgs.total"] = static_cast<double>(r.total_messages);
  v["msgs.bytes_per_msg"] = ratio(static_cast<double>(r.total_bytes),
                                  static_cast<double>(r.total_messages));
  using sim::ServiceKind;
  const auto kind = [&](ServiceKind k) {
    return static_cast<double>(r.total_by_kind[static_cast<std::size_t>(k)]);
  };
  v["msgs.group_gossip"] = kind(ServiceKind::kGroupGossip);
  v["msgs.all_gossip"] = kind(ServiceKind::kAllGossip);
  v["msgs.proxy"] = kind(ServiceKind::kProxy);
  v["msgs.group_distribution"] = kind(ServiceKind::kGroupDistribution);
  v["msgs.fallback"] = kind(ServiceKind::kFallback);
  v["faults.events"] = static_cast<double>(r.fault_total);
  v["lifecycle.crashes"] = static_cast<double>(r.crashes);
  v["lifecycle.restarts"] = static_cast<double>(r.restarts);
  v["rumors.injected"] = static_cast<double>(r.injected);
  v["audit.confidentiality_ms"] = millis(audit_ns);
  v["audit.confidentiality_us_per_envelope"] =
      ratio(millis(audit_ns) * 1e3, static_cast<double>(timed_audit.envelopes()));
  v["audit.confidentiality_share"] =
      ratio(static_cast<double>(audit_ns), static_cast<double>(report.wall_ns));
  v["audit.envelopes"] = static_cast<double>(timed_audit.envelopes());
  v["congos.confirmed"] = static_cast<double>(r.cg_confirmed);
  v["congos.shoots"] = static_cast<double>(r.cg_shoots);
  v["congos.confirmed_frac"] =
      ratio(static_cast<double>(r.cg_confirmed),
            static_cast<double>(r.cg_confirmed + r.cg_shoots));
  v["congos.filter_drops"] = static_cast<double>(r.filter_drops);
  v["gossip.duplicates_suppressed"] = static_cast<double>(r.duplicates_suppressed);
  v["trace_overhead_frac"] = report.overhead_frac;
  print_outcome(out, kPerLayer, std::size(kPerLayer));
  return out.correct ? 0 : 1;
}

// -- real-wire workloads -------------------------------------------------------

struct WireSpec {
  std::size_t n = 8;
  Round rounds = 200;
  std::int64_t round_ms = 20;
  Round deadline = 40;
  Round inject_every = 2;
  bool lossy_lz4 = false;  // else durable checkpoints
};

WireSpec wire_spec(bool lossy_lz4, bool smoke) {
  WireSpec s;
  s.lossy_lz4 = lossy_lz4;
  if (smoke) s.rounds = 80;
  return s;
}

/// One rumor every `inject_every` rounds from a random source to 2-4 random
/// other daemons, early enough that every deadline falls inside the run.
std::vector<harness::ClusterInject> wire_schedule(const WireSpec& w,
                                                  std::uint64_t seed) {
  Rng rng(seed ^ 0x5c4ed0113ull);
  std::vector<harness::ClusterInject> plan;
  std::uint64_t seq = 1;
  for (Round r = 2; r + w.deadline + 2 <= w.rounds; r += w.inject_every) {
    harness::ClusterInject inj;
    inj.source = static_cast<ProcessId>(rng.next_below(w.n));
    inj.seq = seq++;
    inj.round = r;
    inj.deadline = w.deadline;
    inj.dest = DynamicBitset(w.n);
    const auto k = static_cast<std::uint32_t>(rng.uniform_int(2, 4));
    for (const std::uint32_t d :
         rng.sample_without_replacement(static_cast<std::uint32_t>(w.n - 1), k)) {
      inj.dest.set(d >= inj.source ? d + 1 : d);
    }
    inj.data.resize(16);
    for (std::uint8_t& b : inj.data) b = static_cast<std::uint8_t>(rng.next());
    plan.push_back(std::move(inj));
  }
  return plan;
}

harness::ClusterConfig wire_config(const WireSpec& w, std::uint64_t seed,
                                   const std::string& daemon,
                                   const std::string& workdir) {
  harness::ClusterConfig cc;
  cc.daemon = daemon;
  cc.workdir = workdir;
  cc.n = w.n;
  cc.seed = seed;
  cc.tau = 1;
  cc.retransmit = true;
  cc.max_link_delay = 2;
  cc.udp_batch = true;
  cc.rounds = w.rounds;
  cc.round_ms = w.round_ms;
  cc.duration_s = w.rounds * w.round_ms / 1000 + 30;
  if (w.lossy_lz4) {
    cc.fault_spec = "drop:0.05,seed:" + std::to_string(seed % 1000000007ull);
    cc.compress = true;
  }
  cc.durable_state = !w.lossy_lz4;
  cc.checkpoint_every = 8;
  cc.injections = wire_schedule(w, seed);
  return cc;
}

/// A cluster with no rounds to speak of: spawn, READY handshake, start,
/// one round, reap and an empty audit - what every cluster run pays before
/// its first real round.
harness::ClusterConfig bring_up_config(const WireSpec& w, std::uint64_t seed,
                                       const std::string& daemon,
                                       const std::string& workdir) {
  WireSpec one = w;
  one.rounds = 1;
  harness::ClusterConfig cc = wire_config(one, seed, daemon, workdir);
  cc.injections.clear();
  return cc;
}

/// The value of `"key":<unsigned>` in a daemon's flat-ish STATS JSON (every
/// key the benchmark reads is unique within it); 0 when absent.
std::uint64_t stat(const std::string& json, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

std::uint64_t stat_sum(const harness::ClusterResult& r, const char* key) {
  std::uint64_t total = 0;
  for (const std::string& j : r.stats_json) total += stat(j, key);
  return total;
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

std::string node_log(const harness::ClusterConfig& cc, std::size_t i) {
  return cc.workdir + "/node" + std::to_string(i) + ".log";
}

std::string state_file(const harness::ClusterConfig& cc, std::size_t i) {
  return cc.workdir + "/state" + std::to_string(i) + ".ckpt";
}

/// What the bench re-derives from the daemons' event logs.
struct LoggedTraffic {
  std::vector<std::pair<sim::Rumor, Round>> injects;
  std::vector<std::pair<std::vector<std::uint8_t>, Round>> frames;
  std::uint64_t parse_errors = 0;
};

LoggedTraffic parse_logs(const harness::ClusterConfig& cc) {
  LoggedTraffic t;
  for (std::size_t i = 0; i < cc.n; ++i) {
    std::ifstream in(node_log(cc, i));
    std::string text;
    while (std::getline(in, text)) {
      if (text.empty()) continue;
      net::Line line;
      if (!net::parse_line(text, &line)) {
        ++t.parse_errors;
        continue;
      }
      bool ok = true;
      if (line.verb == "inject") {
        sim::Rumor rumor;
        Round round = 0;
        std::string err;
        if (net::parse_inject_event(line, &rumor, &round, &err)) {
          t.injects.emplace_back(std::move(rumor), round);
        } else {
          ++t.parse_errors;
        }
      } else if (line.verb == "recv") {
        const Round round = line.get_int("round", &ok);
        std::vector<std::uint8_t> frame;
        if (ok && net::from_hex(line.get("frame", &ok), &frame) && ok) {
          t.frames.emplace_back(std::move(frame), round);
        } else {
          ++t.parse_errors;
        }
      }
    }
  }
  return t;
}

/// Most frames received in one cluster round, summed over the daemons' logs:
/// the wire's view of Definition 3's messages per round.
std::uint64_t max_frames_per_round(const LoggedTraffic& t) {
  std::map<Round, std::uint64_t> per_round;
  std::uint64_t most = 0;
  for (const auto& [frame, round] : t.frames) most = std::max(most, ++per_round[round]);
  return most;
}

struct WireRun {
  harness::ClusterResult result;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double daemon_cpu_s = 0.0;
};

WireRun run_wire(const harness::ClusterConfig& cc) {
  WireRun out;
  fs::remove_all(cc.workdir);
  const double cpu0 = cpu_seconds(RUSAGE_CHILDREN);
  out.start_ns = now_ns();
  out.result = harness::run_cluster(cc);
  out.end_ns = now_ns();
  out.daemon_cpu_s = cpu_seconds(RUSAGE_CHILDREN) - cpu0;
  return out;
}

void check_wire(const harness::ClusterConfig& cc, const harness::ClusterResult& r,
                Outcome* out) {
  out->attempted += r.qod.admissible_pairs;
  out->failed += r.qod.late + r.qod.missing + r.qod.data_mismatches;
  if (!r.ok()) {
    std::string codes;
    for (const int c : r.exit_codes) codes += std::to_string(c) + " ";
    out->fail("cluster not ok: error='" + r.error + "' exit codes [" + codes +
              "] late=" + std::to_string(r.qod.late) +
              " missing=" + std::to_string(r.qod.missing) +
              " corrupted=" + std::to_string(r.qod.data_mismatches) +
              " leaks=" + std::to_string(r.leaks) +
              " foreign=" + std::to_string(r.foreign_fragments) +
              " log_parse_errors=" + std::to_string(r.log_parse_errors) +
              " state_file_errors=" + std::to_string(r.state_file_errors));
    return;
  }
  out->check(r.injected == cc.injections.size(),
             "injected " + std::to_string(r.injected) + " of " +
                 std::to_string(cc.injections.size()) + " scheduled rumors");
  out->check(r.unknown_payloads == 0,
             std::to_string(r.unknown_payloads) + " unknown payloads");
  out->check(r.weakest_coalition > cc.tau, "a coalition of <= tau breaks a rumor");
  if (!cc.injections.empty()) {
    out->check(r.recv_frames > 0 && r.qod.delivered_on_time > 0,
               "a silent cluster: nothing received or delivered");
  }
  if (cc.durable_state) {
    out->check(r.state_files_audited == cc.n,
               "audited " + std::to_string(r.state_files_audited) + " state files");
  }
}

std::string episode_dir(const std::string& workdir, const std::string& name,
                        std::uint64_t seed, const char* tag, std::size_t i) {
  return workdir + "/" + name + "-" + std::to_string(seed) + "-" + tag +
         std::to_string(i);
}

bool lz4_ready(const WireSpec& w) {
  if (w.lossy_lz4 && !wire::lz4_available()) {
    std::fprintf(stderr,
                 "error: wire-lossy-lz4 compresses datagrams but LZ4 "
                 "(liblz4.so.1) is not available\n");
    return false;
  }
  return true;
}

int run_wire_untraced(const WireSpec& w, const std::string& name,
                      std::uint64_t seed, double budget_s, bool smoke,
                      const std::string& daemon, const std::string& workdir) {
  if (!lz4_ready(w)) return 2;
  Outcome out;
  Samples samples;
  std::vector<double> setups;
  const std::int64_t start = now_ns();
  const std::vector<std::uint64_t> seeds = episode_seeds(seed, 64);
  for (std::size_t i = 0; i < (smoke ? 1u : 3u); ++i) {
    const harness::ClusterConfig cc = bring_up_config(
        w, seeds[0], daemon, episode_dir(workdir, name, seed, "setup", i));
    const WireRun run = run_wire(cc);
    check_wire(cc, run.result, &out);
    setups.push_back(seconds(run.end_ns - run.start_ns));
    fs::remove_all(cc.workdir);
  }
  // Two repetitions even past the budget: each is ~8.6 s of round clock and
  // teardown, and a median of one would be a single sample.
  const double left = smoke ? 0.0 : budget_s - seconds(now_ns() - start);
  repeat_within(left, smoke ? 1 : 2, seeds.size(), [&](std::size_t i) {
    const harness::ClusterConfig cc =
        wire_config(w, seeds[i], daemon, episode_dir(workdir, name, seed, "run", i));
    const WireRun run = run_wire(cc);
    const harness::ClusterResult& r = run.result;
    check_wire(cc, r, &out);
    const double wall = seconds(run.end_ns - run.start_ns);
    samples.add("rounds_per_s", ratio(static_cast<double>(w.rounds), wall));
    samples.add("offclock_s",
                wall - static_cast<double>(w.rounds * w.round_ms) / 1e3);
    samples.add("cpu_ms_per_node_round",
                1e3 * run.daemon_cpu_s / static_cast<double>(w.n * w.rounds));
    samples.add("latency_rounds_p50", static_cast<double>(r.qod.latency_p50));
    samples.add("latency_rounds_mean", r.qod.mean_latency);
    const LoggedTraffic traffic = parse_logs(cc);
    out.check(traffic.parse_errors == 0, "unparseable event-log lines");
    samples.add("msgs_per_round_max", static_cast<double>(max_frames_per_round(traffic)));
    samples.add("bytes_per_delivery",
                ratio(static_cast<double>(stat_sum(r, "bytes_sent")),
                      static_cast<double>(r.qod.delivered_on_time)));
    fs::remove_all(cc.workdir);
  });
  samples.medians_into(&out);
  out.values["setup_s"] = median(setups);
  print_outcome(out, kEndToEnd, std::size(kEndToEnd));
  return out.correct ? 0 : 1;
}

int run_wire_traced(const WireSpec& w, const std::string& name, std::uint64_t seed,
                    const std::string& daemon, const std::string& workdir,
                    const std::string& path) {
  if (!lz4_ready(w)) return 2;
  Outcome out;
  SpanLog log;
  const std::uint64_t ep_seed = episode_seeds(seed, 1)[0];

  // Untraced reference: the same cluster run with nothing recorded.
  {
    const harness::ClusterConfig cc =
        wire_config(w, ep_seed, daemon, episode_dir(workdir, name, seed, "ref", 0));
    const WireRun ref = run_wire(cc);
    check_wire(cc, ref.result, &out);
    log.add(kUntracedRun, "cluster.run", 0, ref.start_ns, ref.end_ns);
    fs::remove_all(cc.workdir);
  }

  const harness::ClusterConfig cc =
      wire_config(w, ep_seed, daemon, episode_dir(workdir, name, seed, "traced", 0));
  const std::uint64_t root = log.begin(kTracedRun, "run");

  const harness::ClusterConfig up =
      bring_up_config(w, ep_seed, daemon, episode_dir(workdir, name, seed, "setup", 0));
  const std::uint64_t setup = log.begin(kTracedRun, "setup", root);
  const WireRun bring_up = run_wire(up);
  log.end(setup);
  check_wire(up, bring_up.result, &out);
  fs::remove_all(up.workdir);

  core::CongosConfig ccfg;
  ccfg.tau = cc.tau;
  ccfg.allow_degenerate = !cc.no_degenerate;
  const std::uint64_t pb = log.begin(kTracedRun, "partition.build", root);
  const auto partitions = core::CongosProcess::build_partitions(cc.n, ccfg);
  log.end(pb);

  const std::uint64_t cluster = log.begin(kTracedRun, "cluster.run", root);
  const WireRun run = run_wire(cc);
  log.end(cluster);
  const harness::ClusterResult& r = run.result;
  check_wire(cc, r, &out);

  // The offline audit run_cluster just did, re-run layer by layer.
  const std::uint64_t parse = log.begin(kTracedRun, "net.log_parse", root);
  const LoggedTraffic traffic = parse_logs(cc);
  log.end(parse);
  out.check(traffic.parse_errors == 0, "unparseable event-log lines");

  std::vector<std::pair<sim::Envelope, Round>> envelopes;
  envelopes.reserve(traffic.frames.size());
  std::uint64_t frame_bytes = 0;
  std::uint64_t by_kind[sim::kNumServiceKinds] = {};
  const std::uint64_t decode = log.begin(kTracedRun, "wire.decode", root);
  for (const auto& [frame, round] : traffic.frames) {
    wire::DecodedEnvelope dec;
    if (!wire::decode_envelope(frame, &dec)) {
      out.fail("a logged frame does not decode");
      continue;
    }
    frame_bytes += frame.size();
    ++by_kind[static_cast<std::size_t>(dec.env.tag.kind)];
    envelopes.emplace_back(std::move(dec.env), round);
  }
  log.end(decode);

  const std::uint64_t audit_span = log.begin(kTracedRun, "audit.confidentiality", root);
  audit::ConfidentialityAuditor auditor(cc.n, partitions.get());
  for (const auto& [rumor, round] : traffic.injects) auditor.on_inject(rumor, round);
  for (const auto& [env, round] : envelopes) auditor.on_envelope_delivered(env, round);
  log.end(audit_span);
  out.check(auditor.leaks() == 0 &&
                auditor.count(audit::ViolationKind::kForeignFragment) == 0,
            "re-audit found a confidentiality violation");

  std::int64_t ck_decode_ns = 0;
  std::int64_t ck_resume_ns = 0;
  std::uint64_t state_bytes = 0;
  if (cc.durable_state) {
    for (ProcessId id = 0; id < cc.n; ++id) {
      state_bytes += file_bytes(state_file(cc, id));
      net::NodeCheckpoint ck;
      std::string err;
      const std::uint64_t d = log.begin(kTracedRun, "checkpoint.decode", root);
      const bool decoded = net::read_checkpoint_file(state_file(cc, id), &ck, &err);
      log.end(d);
      ck_decode_ns += log.span(d).duration_ns();
      if (!decoded) {
        out.fail("state file " + std::to_string(id) + ": " + err);
        continue;
      }
      net::NodeConfig node;
      node.id = ck.id;
      node.n = ck.n;
      node.seed = ck.seed;
      node.congos.tau = ck.tau;
      node.congos.allow_degenerate = ck.allow_degenerate;
      node.congos.retransmit = ck.retransmit;
      node.max_rounds = ck.max_rounds;
      net::SimLink link(cc.n);
      net::NodeRuntime rt(node, &link.endpoint(id));
      const std::uint64_t s = log.begin(kTracedRun, "checkpoint.resume", root);
      const bool resumed = rt.resume(ck, &err);
      log.end(s);
      ck_resume_ns += log.span(s).duration_ns();
      out.check(resumed && rt.healthy(),
                "state file " + std::to_string(id) + " does not resume: " + err);
    }
  }
  log.end(root);
  std::uint64_t log_bytes = 0;
  for (std::size_t i = 0; i < cc.n; ++i) log_bytes += file_bytes(node_log(cc, i));
  fs::remove_all(cc.workdir);

  TraceReport report;
  std::string err;
  if (!build_report(log.spans(), &report, &err)) out.fail("trace report: " + err);
  out.check(report.consistent, "layer self times do not sum to the traced wall time");
  if (!log.write(path, &err)) out.fail(err);

  const double frames = static_cast<double>(traffic.frames.size());
  const double sent = static_cast<double>(stat_sum(r, "datagrams_sent"));
  const double received = static_cast<double>(stat_sum(r, "datagrams_received"));
  const std::int64_t audit_ns = log.span(audit_span).duration_ns();
  auto& v = out.values;
  v["harness.setup_ms"] = millis(log.span(setup).duration_ns());
  v["partition.build_ms"] = millis(log.span(pb).duration_ns());
  v["msgs.total"] = frames;
  v["msgs.bytes_per_msg"] = ratio(static_cast<double>(frame_bytes), frames);
  using sim::ServiceKind;
  const auto kind = [&](ServiceKind k) {
    return static_cast<double>(by_kind[static_cast<std::size_t>(k)]);
  };
  v["msgs.group_gossip"] = kind(ServiceKind::kGroupGossip);
  v["msgs.all_gossip"] = kind(ServiceKind::kAllGossip);
  v["msgs.proxy"] = kind(ServiceKind::kProxy);
  v["msgs.group_distribution"] = kind(ServiceKind::kGroupDistribution);
  v["msgs.fallback"] = kind(ServiceKind::kFallback);
  v["faults.events"] = static_cast<double>(
      stat_sum(r, "dropped") + stat_sum(r, "duplicated") + stat_sum(r, "delayed") +
      stat_sum(r, "partitioned"));
  v["lifecycle.crashes"] = static_cast<double>(r.scheduled_kills + r.unexpected_exits);
  v["lifecycle.restarts"] = static_cast<double>(r.resumes);
  v["rumors.injected"] = static_cast<double>(r.injected);
  v["audit.confidentiality_ms"] = millis(audit_ns);
  v["audit.confidentiality_us_per_envelope"] =
      ratio(millis(audit_ns) * 1e3, static_cast<double>(envelopes.size()));
  v["audit.confidentiality_share"] =
      ratio(static_cast<double>(audit_ns), static_cast<double>(report.wall_ns));
  v["audit.envelopes"] = static_cast<double>(envelopes.size());
  const double confirmed = static_cast<double>(stat_sum(r, "confirmed"));
  const double shoots = static_cast<double>(stat_sum(r, "shoots"));
  v["congos.confirmed"] = confirmed;
  v["congos.shoots"] = shoots;
  v["congos.confirmed_frac"] = ratio(confirmed, confirmed + shoots);
  v["congos.filter_drops"] = static_cast<double>(stat_sum(r, "filter_drops"));
  v["gossip.duplicates_suppressed"] =
      static_cast<double>(stat_sum(r, "duplicates_suppressed"));
  v["net.send_syscalls_per_dgram"] =
      ratio(static_cast<double>(stat_sum(r, "send_syscalls")), sent);
  v["net.recv_syscalls_per_dgram"] =
      ratio(static_cast<double>(stat_sum(r, "recv_syscalls")), received);
  v["net.datagrams_sent"] = sent;
  std::uint64_t hwm = 0;
  for (const std::string& j : r.stats_json) hwm = std::max(hwm, stat(j, "queue_hwm"));
  v["net.queue_hwm"] = static_cast<double>(hwm);
  v["net.queue_overflow"] = static_cast<double>(stat_sum(r, "queue_overflow"));
  v["net.decode_errors"] = static_cast<double>(stat_sum(r, "decode_errors"));
  v["net.checkpoint_writes"] = static_cast<double>(stat_sum(r, "checkpoint_writes"));
  v["net.state_bytes"] = static_cast<double>(state_bytes);
  v["net.log_bytes"] = static_cast<double>(log_bytes);
  v["net.log_parse_ms"] = millis(log.span(parse).duration_ns());
  v["net.checkpoint_decode_ms"] = millis(ck_decode_ns);
  v["net.checkpoint_resume_ms"] = millis(ck_resume_ns);
  v["wire.frames_per_datagram"] =
      ratio(static_cast<double>(stat_sum(r, "frames_received")), received);
  v["wire.lz4_compressed_frac"] =
      ratio(static_cast<double>(stat_sum(r, "datagrams_compressed")), sent);
  v["wire.decode_us_per_frame"] =
      ratio(millis(log.span(decode).duration_ns()) * 1e3, frames);
  v["trace_overhead_frac"] = report.overhead_frac;
  print_outcome(out, kPerLayer, std::size(kPerLayer));
  return out.correct ? 0 : 1;
}

int report_main(const std::string& path) {
  std::vector<Span> spans;
  std::string err;
  TraceReport report;
  if (!read_spans(path, &spans, &err) || !build_report(spans, &report, &err)) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 2;
  }
  print_report(report);
  return report.consistent ? 0 : 1;
}

constexpr char kUsage[] =
    R"(congos_bench - end-to-end CONGOS benchmark

  --workload=NAME  sim-steady | sim-churn-faults | wire-durable | wire-lossy-lz4
  --seed=S         input seed                                   (default 1)
  --seconds=T      measurement budget of an untraced run        (default 20)
  --trace=FILE     run traced: write spans to FILE, print per-layer metrics
  --report=FILE    print self time per layer of a span file and exit
  --smoke          smoke sizes (sim n=32 over 40 rounds, wire 80 rounds)
  --daemon=PATH    congos_d binary                    (default: the one built)
  --workdir=DIR    cluster artifacts              (default congos_bench_work)
)";

}  // namespace
}  // namespace congos::bench

int main(int argc, char** argv) {
  using namespace congos::bench;
  const congos::Flags flags(argc, argv);
  const auto unknown = flags.unknown_keys({"workload", "seed", "seconds", "trace",
                                           "report", "smoke", "daemon", "workdir",
                                           "help"});
  if (flags.get_bool("help", false)) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (!unknown.empty()) {
    std::fprintf(stderr, "error: unknown flag --%s\n\n%s", unknown.front().c_str(),
                 kUsage);
    return 2;
  }
  if (flags.has("report")) return report_main(flags.get("report", ""));

  const std::string workload = flags.get("workload", "");
  const std::int64_t seed = flags.get_int("seed", 1);
  const double budget_s = flags.get_double("seconds", 20.0);
  const bool smoke = flags.get_bool("smoke", false);
  const std::string trace = flags.get("trace", "");
  const std::string daemon = flags.get("daemon", CONGOS_BENCH_DAEMON);
  const std::string workdir = flags.get("workdir", "congos_bench_work");
  if (seed < 0 || budget_s <= 0.0) {
    std::fprintf(stderr, "error: --seed must be >= 0 and --seconds > 0\n");
    return 2;
  }
  const auto useed = static_cast<std::uint64_t>(seed);

  if (workload == "sim-steady" || workload == "sim-churn-faults") {
    const SimSpec w = sim_spec(workload == "sim-churn-faults", smoke);
    return trace.empty() ? run_sim_untraced(w, useed, budget_s, smoke)
                         : run_sim_traced(w, useed, trace);
  }
  if (workload == "wire-durable" || workload == "wire-lossy-lz4") {
    const WireSpec w = wire_spec(workload == "wire-lossy-lz4", smoke);
    std::error_code ec;
    fs::create_directories(workdir, ec);
    if (ec) {
      std::fprintf(stderr, "error: cannot create %s\n", workdir.c_str());
      return 2;
    }
    return trace.empty() ? run_wire_untraced(w, workload, useed, budget_s, smoke,
                                             daemon, workdir)
                         : run_wire_traced(w, workload, useed, daemon, workdir, trace);
  }
  std::fprintf(stderr, "error: unknown --workload '%s'\n\n%s", workload.c_str(), kUsage);
  return 2;
}
