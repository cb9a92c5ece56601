#include "harness/sweep.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "common/thread_pool.h"
#include "harness/record.h"
#include "replay/repro.h"

namespace congos::harness {

namespace {

/// Serializes the progress line; completions arrive from every worker.
class ProgressLine {
 public:
  ProgressLine(const char* label, std::size_t total, std::size_t threads,
               bool enabled)
      : label_(label),
        total_(total),
        threads_(threads),
        enabled_(enabled && isatty(fileno(stderr)) != 0) {}

  void tick() {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    ++done_;
    std::fprintf(stderr, "\r[%s] %zu/%zu scenarios (threads=%zu)", label_, done_,
                 total_, threads_);
    if (done_ == total_) std::fprintf(stderr, "\n");
    std::fflush(stderr);
  }

 private:
  const char* label_;
  std::size_t total_;
  std::size_t threads_;
  bool enabled_;
  std::mutex mu_;
  std::size_t done_ = 0;
};

}  // namespace

SweepRunner::SweepRunner() : SweepRunner(Options{}) {}

SweepRunner::SweepRunner(Options opts) : opts_(opts) {
  threads_ = opts_.threads != 0 ? opts_.threads : default_threads();
}

std::size_t SweepRunner::default_threads() {
  static const std::size_t cached = [] {
    const std::size_t hw = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
    return thread_count_from_env("CONGOS_BENCH_THREADS",
                                 std::max<std::size_t>(hw / default_engine_threads(), 1));
  }();
  return cached;
}

std::string SweepRunner::artifact_dir() const {
  if (opts_.artifact_dir != nullptr) return opts_.artifact_dir;
  if (const char* env = std::getenv("CONGOS_REPRO_DIR")) return env;
  return {};
}

ScenarioResult SweepRunner::run_one(const ScenarioConfig& cfg,
                                    const std::string& dir, std::size_t index,
                                    std::string* artifact) const {
  if (dir.empty() || !replay::is_recordable(cfg)) return run_scenario(cfg);

  // Recording observers are passive, so the result stays byte-identical to
  // an unrecorded run (tests/test_replay.cpp pins this).
  auto recorded = run_recorded(cfg, opts_.label,
                               "auditor failure during sweep");
  if (scenario_failed(recorded.result)) {
    std::string path = dir + "/" + opts_.label + "-" + std::to_string(index) +
                       ".repro";
    if (replay::write_file(path, recorded.repro)) {
      *artifact = std::move(path);
    } else {
      std::fprintf(stderr, "[%s] failed to write repro artifact %s\n",
                   opts_.label, path.c_str());
    }
  }
  return recorded.result;
}

std::vector<ScenarioResult> SweepRunner::run(
    const std::vector<ScenarioConfig>& grid) const {
  std::vector<ScenarioResult> results(grid.size());
  const std::size_t workers = std::min(threads_, std::max<std::size_t>(grid.size(), 1));
  ProgressLine progress(opts_.label, grid.size(), workers, opts_.progress);

  const std::string dir = artifact_dir();
  if (!dir.empty()) {
    ::mkdir(dir.c_str(), 0777);  // best effort; write_file reports failures
  }
  std::vector<std::string> paths(grid.size());

  if (workers <= 1) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      results[i] = run_one(grid[i], dir, i, &paths[i]);
      progress.tick();
    }
  } else {
    ThreadPool pool(workers);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      pool.submit([this, &grid, &results, &progress, &dir, &paths, i] {
        results[i] = run_one(grid[i], dir, i, &paths[i]);
        progress.tick();
      });
    }
    pool.wait_idle();
  }

  artifacts_.clear();
  for (auto& p : paths) {
    if (!p.empty()) artifacts_.push_back(std::move(p));
  }
  return results;
}

}  // namespace congos::harness
