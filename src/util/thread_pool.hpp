// Fixed-size worker pool with a blocking task queue, plus a parallel_for
// helper used by the linear-algebra kernels (SpMM, projection) so that
// publishing large graphs scales with available cores.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace sgp::util {

/// The most threads a --threads flag may ask one pool for. A larger count
/// is a usage error where the flag is read, before any thread starts.
inline constexpr std::size_t kMaxThreads = 1024;

/// A simple RAII thread pool. Tasks are `std::function<void()>`; submit()
/// returns a future for completion/exception propagation. Destruction joins
/// all workers after draining the queue.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (at least 1). Defaults to hardware
  /// concurrency.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn`; the returned future resolves when it has run (or rethrows
  /// the exception it raised).
  std::future<void> submit(std::function<void()> fn);

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Process-wide pool, lazily constructed; used by parallel_for below.
ThreadPool& global_pool();

/// True when called from inside a ThreadPool worker thread (any pool).
/// parallel_for uses this to run nested bodies inline instead of blocking a
/// worker on futures only the already-occupied workers could execute.
[[nodiscard]] bool in_pool_worker() noexcept;

/// Splits [begin, end) into contiguous chunks and runs `body(lo, hi)` on
/// `pool`, blocking until all chunks finish. Falls back to a direct call when
/// the range is small (< grain), the pool has one thread, or the caller is
/// itself a pool worker (nested parallelism would deadlock — see
/// in_pool_worker). Exceptions from any chunk are rethrown on the calling
/// thread.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t grain = 1024);

/// Same, on the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t grain = 1024);

}  // namespace sgp::util
