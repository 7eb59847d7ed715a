#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "dsslice/util/check.hpp"
#include "dsslice/util/thread_pool.hpp"

namespace dsslice {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

// The cap is checked before any worker starts, so this starts no thread.
TEST(ThreadPool, RejectsMoreThanMaxThreads) {
  EXPECT_THROW(ThreadPool(ThreadPool::kMaxThreads + 1), ConfigError);
}

TEST(ThreadPool, SubmittedTaskExceptionSurfacesOnWaitIdle) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.submit([] { throw ConfigError("boom"); });
  for (int i = 0; i < 32; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  // The queue drains fully (no deadlock), then the first exception is
  // rethrown to the waiter.
  EXPECT_THROW(pool.wait_idle(), ConfigError);
  EXPECT_EQ(counter.load(), 32);

  // The error is consumed: the pool stays usable and a clean wait passes.
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 33);
}

TEST(ThreadPool, FirstOfSeveralExceptionsWins) {
  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.submit([] { throw ConfigError("repeated boom"); });
  }
  EXPECT_THROW(pool.wait_idle(), ConfigError);
  // Later exceptions were discarded along with the first rethrow.
  pool.submit([] {});
  EXPECT_NO_THROW(pool.wait_idle());
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, hits.size(),
               [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyAndSingleItem) {
  ThreadPool pool(3);
  int calls = 0;
  parallel_for(pool, 0, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(pool, 1, [&calls](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(pool, 64,
                            [](std::size_t i) {
                              if (i == 17) {
                                throw ConfigError("boom");
                              }
                            }),
               ConfigError);
  // The pool must remain usable after an exception.
  std::atomic<int> counter{0};
  parallel_for(pool, 8, [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 8);
}

TEST(ParallelFor, ResultsMatchSerialComputation) {
  ThreadPool pool(8);
  std::vector<double> out(500);
  parallel_for(pool, out.size(), [&out](std::size_t i) {
    out[i] = static_cast<double>(i) * 1.5;
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], static_cast<double>(i) * 1.5);
  }
}

TEST(GlobalPool, IsSingleton) {
  ThreadPool& a = global_pool();
  ThreadPool& b = global_pool();
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace dsslice
