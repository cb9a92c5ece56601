#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>

namespace congos {
namespace {

// Thread counts are parsed from strings only: no test here builds a pool
// from a refused value.
TEST(ThreadCount, AcceptsOnlyPlainCountsUpToTheCap) {
  EXPECT_EQ(parse_thread_count("4"), 4u);
  EXPECT_EQ(parse_thread_count("1"), 1u);
  EXPECT_EQ(parse_thread_count(std::to_string(kMaxThreadCount)), kMaxThreadCount);
  EXPECT_EQ(parse_thread_count(std::to_string(kMaxThreadCount + 1)), 0u);
  EXPECT_EQ(parse_thread_count("100000"), 0u);
  EXPECT_EQ(parse_thread_count("0"), 0u);
  EXPECT_EQ(parse_thread_count("-3"), 0u);
  EXPECT_EQ(parse_thread_count("abc"), 0u);
  EXPECT_EQ(parse_thread_count("4abc"), 0u);
  EXPECT_EQ(parse_thread_count(" 4"), 0u);
  EXPECT_EQ(parse_thread_count(""), 0u);
}

TEST(ThreadCount, RefusedEnvValueIsReportedAndFallsBack) {
  constexpr const char* kVar = "CONGOS_TEST_THREAD_COUNT";
  ::unsetenv(kVar);
  EXPECT_EQ(thread_count_from_env(kVar, 3), 3u);
  ::setenv(kVar, "", 1);
  EXPECT_EQ(thread_count_from_env(kVar, 3), 3u);
  ::setenv(kVar, "6", 1);
  EXPECT_EQ(thread_count_from_env(kVar, 3), 6u);
  for (const char* bad : {"0", "-3", "abc", "4abc", "100000"}) {
    ::setenv(kVar, bad, 1);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(thread_count_from_env(kVar, 3), 3u) << bad;
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find(std::string(kVar) + "=" + bad), std::string::npos) << err;
  }
  ::unsetenv(kVar);
}

TEST(ThreadPool, RunsEverySubmittedJob) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, UsableAcrossMultipleWaves) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 10; ++i) {
      pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), (wave + 1) * 10);
  }
}

TEST(ThreadPool, DestructorDrainsPendingJobs) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      pool.submit([&counter] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        counter.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; });
  pool.wait_idle();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(3);
  pool.wait_idle();  // nothing submitted: must not hang
}

TEST(ThreadPool, SubmitFromWorkerThread) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&pool, &counter] {
    counter.fetch_add(1, std::memory_order_relaxed);
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2);
}

}  // namespace
}  // namespace congos
