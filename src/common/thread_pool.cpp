#include "common/thread_pool.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace congos {

std::size_t parse_thread_count(std::string_view text) {
  std::size_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value > kMaxThreadCount) return 0;
  return value;
}

std::size_t thread_count_from_env(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  if (const std::size_t threads = parse_thread_count(value); threads != 0) {
    return threads;
  }
  std::fprintf(stderr, "%s=%s ignored: not a thread count in [1, %zu]; using %zu\n",
               name, value, kMaxThreadCount, fallback);
  return fallback;
}

ThreadPool::ThreadPool(std::size_t threads) {
  threads = std::max<std::size_t>(threads, 1);
  workers_.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::drain_shards(ShardTask& task, std::size_t count) {
  for (;;) {
    const std::size_t i = shard_next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) return;
    task.run_shard(i);
    shard_done_.fetch_add(1, std::memory_order_acq_rel);
  }
}

void ThreadPool::run_shards(ShardTask& task, std::size_t count) {
  if (count == 0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shard_task_ = &task;
    shard_count_ = count;
    shard_next_.store(0, std::memory_order_relaxed);
    shard_done_.store(0, std::memory_order_relaxed);
    ++shard_epoch_;
  }
  work_cv_.notify_all();
  // The caller is a full participant: with k workers this gives k+1 compute
  // threads and the calling thread never just blocks on the barrier.
  drain_shards(task, count);
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Wait for the last shard AND for every adopted worker to leave the
    // claim loop: a worker that adopted the batch but lost every claim race
    // must not still be touching the claim counter when the next batch
    // resets it.
    idle_cv_.wait(lock, [this, count] {
      return shard_done_.load(std::memory_order_acquire) == count &&
             shard_workers_ == 0;
    });
    shard_task_ = nullptr;
    shard_count_ = 0;
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    std::function<void()> job;
    ShardTask* shards = nullptr;
    std::size_t shard_count = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this, seen_epoch] {
        return stop_ || !queue_.empty() ||
               (shard_task_ != nullptr && shard_epoch_ != seen_epoch);
      });
      if (shard_task_ != nullptr && shard_epoch_ != seen_epoch) {
        seen_epoch = shard_epoch_;
        shards = shard_task_;
        shard_count = shard_count_;
        ++shard_workers_;
      } else if (!queue_.empty()) {
        job = std::move(queue_.front());
        queue_.pop_front();
        ++in_flight_;
      } else {
        return;  // stop_ set and nothing left to do
      }
    }
    if (shards != nullptr) {
      drain_shards(*shards, shard_count);
      {
        std::lock_guard<std::mutex> lock(mu_);
        --shard_workers_;
        idle_cv_.notify_all();  // run_shards() re-checks its predicate
      }
      continue;
    }
    job();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace congos
