// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// latency histograms.
//
// Design goals (mirroring util/fault_injection's gate pattern):
//
//   * Near-free when disabled. Every instrumentation site costs exactly one
//     relaxed atomic load while metrics are off, so the calls can stay
//     compiled into production builds and hot solver loops.
//   * Contention-free when enabled. Counter and histogram cells are sharded
//     across cache-line-aligned std::atomic slots indexed by a per-thread
//     shard id, so thread_pool workers hammering the same counter never
//     bounce a single cache line.
//   * Stable handles. registry().counter("x") returns a reference that stays
//     valid for the life of the process; hot paths capture it once in a
//     function-local static and never touch the registry lock again:
//
//       static obs::Counter& iters = obs::counter("lanczos.iterations");
//       iters.add();
//
// Naming convention (docs/observability.md): lowercase dotted paths,
// "subsystem.noun[.verb]"; histograms that record durations end in
// ".seconds". Exporters: write_metrics_prometheus() below and the JSON
// report (obs/report.hpp).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace sgp::obs {

/// Global enable gate. Sites check it with one relaxed load; when off, no
/// cell is touched and no time is read.
[[nodiscard]] bool metrics_enabled() noexcept;
void set_metrics_enabled(bool on) noexcept;

/// Number of independent cells each counter/histogram spreads its updates
/// over. Threads map onto shards by a cheap thread-local id, so two pool
/// workers virtually never share a cell.
inline constexpr std::size_t kMetricShards = 8;

/// Shard index of the calling thread (stable for the thread's lifetime).
[[nodiscard]] std::size_t this_thread_shard() noexcept;

namespace detail {
struct alignas(64) ShardedCell {
  std::atomic<std::uint64_t> value{0};
};
extern std::atomic<bool> g_metrics_enabled;
}  // namespace detail

inline bool metrics_enabled() noexcept {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!metrics_enabled()) return;
    shards_[this_thread_shard()].value.fetch_add(n,
                                                 std::memory_order_relaxed);
  }

  /// Sum over all shards. A racing add() may or may not be included —
  /// exact once writers are quiescent.
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void reset() noexcept {
    for (auto& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<detail::ShardedCell, kMetricShards> shards_{};
};

/// Last-write-wins instantaneous value. Gauges are set from configuration
/// paths (pool size, graph dimensions), not hot loops, so a single atomic
/// cell suffices. Unlike Counter/Histogram, set() ignores the enable gate:
/// gauges record set-once configuration (e.g. threadpool.threads at pool
/// construction) that must survive metrics being enabled later.
class Gauge {
 public:
  void set(double v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }

  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket latency histogram. Bucket i counts samples in
/// [upper_bound(i-1), upper_bound(i)) seconds with power-of-two upper
/// bounds from 1 µs up to ~16.8 s; the final bucket is the +Inf overflow.
/// Counts and the running sum are sharded like Counter.
class Histogram {
 public:
  /// 1 µs · 2^i for i in [0, kBuckets-2]; last bucket is +Inf.
  static constexpr std::size_t kBuckets = 26;
  [[nodiscard]] static double upper_bound(std::size_t bucket) noexcept;
  [[nodiscard]] static std::size_t bucket_for(double seconds) noexcept;

  void record(double seconds) noexcept {
    if (!metrics_enabled()) return;
    Shard& s = shards_[this_thread_shard()];
    s.buckets[bucket_for(seconds)].fetch_add(1, std::memory_order_relaxed);
    // fetch_add on atomic<double> compiles to a CAS loop; contention is
    // already defused by the sharding.
    s.sum.fetch_add(seconds, std::memory_order_relaxed);
  }

  struct Snapshot {
    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t count = 0;
    double sum = 0.0;
  };

  [[nodiscard]] Snapshot snapshot() const noexcept;
  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<double> sum{0.0};
  };
  std::array<Shard, kMetricShards> shards_{};
};

/// Registry lookups: find-or-create by name; the returned reference is
/// stable forever. Looking the same name up as two different metric kinds
/// throws util::InternalError. Thread-safe.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

/// Zeroes every registered metric (names stay registered, references stay
/// valid). For tests and bench harness isolation.
void reset_all_metrics();

/// Point-in-time snapshot of the whole registry, sorted by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
};
[[nodiscard]] MetricsSnapshot snapshot_metrics();

/// Prometheus text exporter: one "sgp_"-prefixed family per metric, dots
/// mapped to underscores, histograms as cumulative _bucket{le=...}/_sum/
/// _count. The JSON view of the registry is the report's "metrics" block
/// (obs/report.hpp).
void write_metrics_prometheus(std::ostream& out);

}  // namespace sgp::obs
