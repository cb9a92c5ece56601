#include "harness/record.h"

#include <algorithm>

#include "common/assert.h"
#include "wire/wire.h"

namespace congos::harness {

namespace {

void fill_result_summary(replay::ReproFile* file, const ScenarioResult& r) {
  file->total_messages = r.total_messages;
  file->total_bytes = r.total_bytes;
  file->injected = r.injected;
  file->crashes = r.crashes;
  file->restarts = r.restarts;
  file->leaks = r.leaks;
  file->foreign_fragments = r.foreign_fragments;
  file->qod_delivered_on_time = r.qod.delivered_on_time;
  file->qod_late = r.qod.late;
  file->qod_missing = r.qod.missing;
  file->qod_data_mismatches = r.qod.data_mismatches;
  for (std::size_t f = 0; f < sim::kNumFaultKinds; ++f) {
    file->faults_by_kind[f] = r.faults_by_kind[f];
  }
  file->duplicates_suppressed = r.duplicates_suppressed;
  // v3: total_bytes above is only comparable across runs serialized with the
  // same wire codec version, so the artifact records which one it was.
  file->wire_codec_version = wire::kWireFormatVersion;
}

std::vector<std::string> summary_diffs(const replay::ReproFile& file,
                                       const ScenarioResult& r) {
  struct Field {
    const char* name;
    std::uint64_t recorded;
    std::uint64_t replayed;
  };
  std::vector<Field> fields = {
      {"total_messages", file.total_messages, r.total_messages},
      {"injected", file.injected, r.injected},
      {"crashes", file.crashes, r.crashes},
      {"restarts", file.restarts, r.restarts},
      {"leaks", file.leaks, r.leaks},
      {"foreign_fragments", file.foreign_fragments, r.foreign_fragments},
      {"qod_delivered_on_time", file.qod_delivered_on_time, r.qod.delivered_on_time},
      {"qod_late", file.qod_late, r.qod.late},
      {"qod_missing", file.qod_missing, r.qod.missing},
      {"qod_data_mismatches", file.qod_data_mismatches, r.qod.data_mismatches},
  };
  if (file.wire_codec_version == wire::kWireFormatVersion) {
    fields.push_back({"total_bytes", file.total_bytes, r.total_bytes});
  }
  std::vector<std::string> diffs;
  for (const Field& f : fields) {
    if (f.recorded != f.replayed) {
      diffs.push_back(std::string(f.name) + " recorded=" + std::to_string(f.recorded) +
                      " replayed=" + std::to_string(f.replayed));
    }
  }
  return diffs;
}

}  // namespace

RecordedRun run_recorded(const ScenarioConfig& cfg, const std::string& label,
                         const std::string& reason) {
  std::string why;
  CONGOS_ASSERT_MSG(replay::is_recordable(cfg, &why), why.c_str());

  RecordedRun out;
  ScenarioConfig copy = cfg;
  copy.extra_observers.push_back(&out.trace);
  out.result = run_scenario(copy);

  // The artifact stores the caller's config (without this function's
  // observer) so a replay re-attaches its own.
  out.repro.config = cfg;
  out.repro.config.extra_observers.clear();
  out.repro.label = label;
  out.repro.reason = reason;
  out.repro.round_deliveries = out.trace.round_deliveries();
  out.repro.trace_hash = out.trace.trace_hash();
  fill_result_summary(&out.repro, out.result);
  return out;
}

ReplayReport replay_file(const replay::ReproFile& file, ReplayOptions opt,
                         sim::TraceLog* trace) {
  sim::TraceLog own({.capacity = 0, .record_deliveries = false});
  if (trace == nullptr) trace = &own;

  ScenarioConfig cfg = file.config;
  cfg.extra_observers.assign(1, trace);
  cfg.extra_adversaries.clear();

  ScenarioRun run(cfg);
  run.run_until(opt.until_round < 0 ? run.total_rounds() : opt.until_round);

  ReplayReport report;
  report.result = run.finalize();
  report.executed_rounds = run.engine().now();
  report.complete = run.finished();
  for (ProcessId p = 0; p < run.engine().n(); ++p) {
    if (!run.engine().alive(p)) report.crashed.push_back(p);
  }
  report.trace_hash = trace->trace_hash();
  report.hash_match = report.complete && report.trace_hash == file.trace_hash;

  const auto& got = trace->round_deliveries();
  const auto& want = file.round_deliveries;
  const auto [got_end, want_end] =
      std::mismatch(got.begin(), got.end(), want.begin(), want.end());
  report.counts_match = got_end == got.end() || want_end == want.end();
  if (!report.counts_match) {
    report.first_count_divergence = static_cast<Round>(got_end - got.begin());
  } else if (report.complete && got.size() != want.size()) {
    // A complete replay must cover exactly the recorded rounds.
    report.counts_match = false;
    report.first_count_divergence =
        static_cast<Round>(std::min(got.size(), want.size()));
  }
  if (report.complete) report.summary_diffs = summary_diffs(file, report.result);
  return report;
}

}  // namespace congos::harness
