#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace sgp::util {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTask) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&] { counter.fetch_add(1); }).get();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, RunsManyTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(1);
  auto future = pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, SizeIsAtLeastOne) {
  ThreadPool pool(0);  // 0 -> hardware concurrency, clamped to >= 1
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&] { counter.fetch_add(1); });
    }
  }  // destructor joins after draining
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelForTest, CoversWholeRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(10000);
  parallel_for(
      0, hits.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      },
      64);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, SmallRangeRunsInline) {
  std::vector<int> hits(10, 0);
  parallel_for(
      0, hits.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) hits[i] += 1;
      },
      1024);
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10);
}

TEST(ParallelForTest, ExceptionRethrownOnCaller) {
  EXPECT_THROW(parallel_for(
                   0, 100000,
                   [](std::size_t lo, std::size_t) {
                     if (lo == 0) throw std::runtime_error("chunk failed");
                   },
                   16),
               std::runtime_error);
}

TEST(ParallelForTest, FailedChunkStillWaitsForTheOthers) {
  // 16 chunks of 4: chunk 0 throws at once, the other 15 are still asleep.
  // parallel_for must not return (and free the caller's body) before they
  // finish.
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  EXPECT_THROW(parallel_for(
                   pool, 0, 64,
                   [&](std::size_t lo, std::size_t) {
                     if (lo == 0) throw std::runtime_error("chunk failed");
                     std::this_thread::sleep_for(std::chrono::milliseconds(20));
                     finished.fetch_add(1);
                   },
                   4),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 15);
}

TEST(ParallelForTest, ExplicitPoolCoversWholeRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(5000);
  parallel_for(
      pool, 0, hits.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      },
      64);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, InPoolWorkerFlagSetOnlyOnWorkers) {
  EXPECT_FALSE(in_pool_worker());
  ThreadPool pool(1);
  bool on_worker = false;
  pool.submit([&] { on_worker = in_pool_worker(); }).get();
  EXPECT_TRUE(on_worker);
  EXPECT_FALSE(in_pool_worker());  // flag never leaks to the caller
}

// Regression: a parallel_for body that itself calls parallel_for used to
// block the worker on futures that only the already-occupied workers could
// run — a deterministic deadlock once every worker nests. The fix detects
// worker context (in_pool_worker) and executes nested bodies inline. Here
// both nested parallel_for calls run on the 1-thread pool's only worker via
// submit(); without the fix this test would hang.
TEST(ParallelForTest, NestedCallsOnOneThreadPoolComplete) {
  ThreadPool pool(1);
  std::vector<std::atomic<int>> hits(4096);
  pool.submit([&] {
        ASSERT_TRUE(in_pool_worker());
        parallel_for(
            pool, 0, 2,
            [&](std::size_t outer_lo, std::size_t outer_hi) {
              for (std::size_t half = outer_lo; half < outer_hi; ++half) {
                const std::size_t base = half * 2048;
                parallel_for(
                    pool, 0, 2048,
                    [&](std::size_t lo, std::size_t hi) {
                      for (std::size_t i = lo; i < hi; ++i) {
                        hits[base + i].fetch_add(1);
                      }
                    },
                    16);
              }
            },
            1);
      })
      .get();
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// The saturated multi-thread variant of the same bug: every worker of the
// pool runs a task that fans out on that same pool. Before the fix, both
// workers block in future::get() while their chunks sit queued behind them.
TEST(ParallelForTest, SaturatedPoolNestedFanOutCompletes) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(2 * 4096);
  std::vector<std::future<void>> tasks;
  for (std::size_t t = 0; t < 2; ++t) {
    tasks.push_back(pool.submit([&, t] {
      const std::size_t base = t * 4096;
      parallel_for(
          pool, 0, 4096,
          [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) hits[base + i].fetch_add(1);
          },
          16);
    }));
  }
  for (auto& f : tasks) f.get();
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// Same shape against the global pool: whatever its thread count, nesting
// must complete (and each index be visited exactly once).
TEST(ParallelForTest, NestedCallOnGlobalPoolCompletes) {
  std::vector<std::atomic<int>> hits(8192);
  parallel_for(
      0, 4,
      [&](std::size_t outer_lo, std::size_t outer_hi) {
        for (std::size_t q = outer_lo; q < outer_hi; ++q) {
          const std::size_t base = q * 2048;
          parallel_for(
              0, 2048,
              [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i) {
                  hits[base + i].fetch_add(1);
                }
              },
              16);
        }
      },
      1);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

}  // namespace
}  // namespace sgp::util
