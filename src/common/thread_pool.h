// A fixed-size thread pool for embarrassingly parallel work.
//
// Two modes of use (see DESIGN.md sections 6 and 12):
//   * submit(): queued type-erased jobs, used by SweepRunner to run
//     *independent* scenario executions — each with its own engine, RNG and
//     auditors — across the machine.
//   * run_shards(): a fork-join primitive for deterministic intra-round
//     parallelism inside one engine. Unlike submit() it is allocation-free
//     (no std::function, no queue nodes), which the zero-alloc steady-state
//     contract of the round hot path requires.
// Jobs must not touch shared mutable state unless they synchronize it
// themselves.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

namespace congos {

/// Largest thread count a thread-count environment variable may ask for.
inline constexpr std::size_t kMaxThreadCount = 256;

/// A thread count written as a plain decimal integer in [1, kMaxThreadCount]:
/// no sign, no whitespace, no trailing characters. Returns 0 for any other
/// text.
std::size_t parse_thread_count(std::string_view text);

/// The thread count in environment variable `name`, or `fallback` when it is
/// unset or empty. A value parse_thread_count refuses is reported on stderr
/// and `fallback` is used instead.
std::size_t thread_count_from_env(const char* name, std::size_t fallback);

/// A batch of independently runnable shards, executed by
/// ThreadPool::run_shards. A plain virtual interface rather than
/// std::function: shard dispatch runs every round on the engine hot path and
/// must not allocate.
class ShardTask {
 public:
  virtual ~ShardTask() = default;
  virtual void run_shard(std::size_t shard) = 0;
};

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to >= 1). Workers idle until jobs are
  /// submitted and are joined by the destructor after the queue drains.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a job. Safe to call from any thread, including pool workers.
  void submit(std::function<void()> job);

  /// Blocks until every submitted job has finished (queue empty and no job
  /// in flight). The pool stays usable afterwards.
  void wait_idle();

  /// Runs task.run_shard(i) for every i in [0, count) across the workers
  /// *and the calling thread*, returning when all shards finished. Shards
  /// are claimed dynamically (atomic counter), so callers may pass more
  /// shards than threads for load balance; which thread runs which shard is
  /// unspecified and must not affect results. Allocation-free: safe on the
  /// zero-alloc round hot path. Must not be called from inside the pool
  /// (a worker or another run_shards), and not concurrently with submit()
  /// jobs that expect the pool to themselves.
  void run_shards(ShardTask& task, std::size_t count);

 private:
  void worker_loop();
  /// Claims and runs shards until the current batch is exhausted.
  void drain_shards(ShardTask& task, std::size_t count);

  std::mutex mu_;
  std::condition_variable work_cv_;  // wakes workers: job/shards available or stop
  std::condition_variable idle_cv_;  // wakes wait_idle()/run_shards(): drained
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;

  // run_shards() state: one batch at a time. `shard_epoch_` (guarded by mu_)
  // tells sleeping workers a fresh batch exists; the claim counter and the
  // done counter are atomics so the hot claim loop never takes the lock.
  ShardTask* shard_task_ = nullptr;   // guarded by mu_
  std::size_t shard_count_ = 0;       // guarded by mu_
  std::uint64_t shard_epoch_ = 0;     // guarded by mu_
  std::size_t shard_workers_ = 0;     // workers inside the batch; guarded by mu_
  std::atomic<std::size_t> shard_next_{0};
  std::atomic<std::size_t> shard_done_{0};

  std::vector<std::thread> workers_;
};

}  // namespace congos
