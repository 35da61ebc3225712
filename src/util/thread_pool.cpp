#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"

namespace sgp::util {
namespace {

// Set (permanently) by worker_loop on each pool thread. parallel_for checks
// it to run nested bodies inline: a body submitted to the pool that itself
// calls parallel_for would otherwise block on futures that only the already-
// occupied workers could run — with every worker nested, a deadlock.
thread_local bool tls_in_pool_worker = false;

}  // namespace

bool in_pool_worker() noexcept { return tls_in_pool_worker; }

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> fn) {
  static obs::Counter& tasks = obs::counter(obs::names::kThreadpoolTasks);
  tasks.add();
  std::packaged_task<void()> task(std::move(fn));
  auto future = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(std::move(task));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  tls_in_pool_worker = true;
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();  // exceptions land in the associated future
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  // The gauge is a configuration value that never changes after the pool
  // exists, so record it exactly once — not on every call, which would put
  // an avoidable store on the hot path of each parallel_for.
  static const bool gauge_recorded = [] {
    obs::gauge(obs::names::kThreadpoolThreads).set(static_cast<double>(pool.size()));
    return true;
  }();
  (void)gauge_recorded;
  return pool;
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  // Run inline when the range is small, the pool cannot parallelize, or we
  // are already on a pool worker (nested call — see tls_in_pool_worker).
  if (n < grain || pool.size() <= 1 || in_pool_worker()) {
    body(begin, end);
    return;
  }
  const std::size_t chunks = std::min(pool.size() * 4, (n + grain - 1) / grain);
  const std::size_t chunk = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t lo = begin; lo < end; lo += chunk) {
    const std::size_t hi = std::min(end, lo + chunk);
    futures.push_back(pool.submit([&body, lo, hi] { body(lo, hi); }));
  }
  // Wait for every chunk before rethrowing the first failure: the tasks
  // hold `body` by reference, so returning early would let queued chunks
  // call it after the caller has destroyed it.
  std::exception_ptr error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& body,
                  std::size_t grain) {
  if (begin >= end) return;
  parallel_for(global_pool(), begin, end, body, grain);
}

}  // namespace sgp::util
