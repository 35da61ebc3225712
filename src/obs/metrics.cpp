#include "obs/metrics.hpp"

#include <map>
#include <mutex>
#include <ostream>

#include "util/errors.hpp"
#include "util/json.hpp"

namespace sgp::obs {

namespace detail {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace detail

namespace {

std::atomic<std::size_t> g_next_shard{0};

// One registry per metric kind. std::map nodes never move, so references
// handed out stay valid for the life of the process; std::less<> enables
// string_view lookups without a temporary allocation on the hit path.
struct Registries {
  std::mutex mutex;
  std::map<std::string, Counter, std::less<>> counters;
  std::map<std::string, Gauge, std::less<>> gauges;
  std::map<std::string, Histogram, std::less<>> histograms;
};

Registries& registries() {
  static Registries instance;
  return instance;
}

template <typename Map>
void check_unique_kind(const Map& map, std::string_view name,
                       const char* other_kind) {
  if (map.find(name) != map.end()) {
    throw util::InternalError("metrics: '" + std::string(name) +
                              "' is already registered as a " + other_kind);
  }
}

std::string prometheus_name(std::string_view name) {
  std::string out = "sgp_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

void set_metrics_enabled(bool on) noexcept {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

std::size_t this_thread_shard() noexcept {
  thread_local const std::size_t shard =
      g_next_shard.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return shard;
}

double Histogram::upper_bound(std::size_t bucket) noexcept {
  if (bucket >= kBuckets - 1) return 0.0;  // +Inf sentinel, see exporters
  return 1e-6 * static_cast<double>(1ULL << bucket);
}

std::size_t Histogram::bucket_for(double seconds) noexcept {
  for (std::size_t b = 0; b + 1 < kBuckets; ++b) {
    if (seconds < upper_bound(b)) return b;
  }
  return kBuckets - 1;
}

Histogram::Snapshot Histogram::snapshot() const noexcept {
  Snapshot snap;
  for (const Shard& s : shards_) {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      snap.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
    snap.sum += s.sum.load(std::memory_order_relaxed);
  }
  for (const std::uint64_t c : snap.buckets) snap.count += c;
  return snap;
}

void Histogram::reset() noexcept {
  for (Shard& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.sum.store(0.0, std::memory_order_relaxed);
  }
}

Counter& counter(std::string_view name) {
  Registries& r = registries();
  const std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = r.counters.find(name);
  if (it != r.counters.end()) return it->second;
  check_unique_kind(r.gauges, name, "gauge");
  check_unique_kind(r.histograms, name, "histogram");
  return r.counters.try_emplace(std::string(name)).first->second;
}

Gauge& gauge(std::string_view name) {
  Registries& r = registries();
  const std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = r.gauges.find(name);
  if (it != r.gauges.end()) return it->second;
  check_unique_kind(r.counters, name, "counter");
  check_unique_kind(r.histograms, name, "histogram");
  return r.gauges.try_emplace(std::string(name)).first->second;
}

Histogram& histogram(std::string_view name) {
  Registries& r = registries();
  const std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = r.histograms.find(name);
  if (it != r.histograms.end()) return it->second;
  check_unique_kind(r.counters, name, "counter");
  check_unique_kind(r.gauges, name, "gauge");
  return r.histograms.try_emplace(std::string(name)).first->second;
}

void reset_all_metrics() {
  Registries& r = registries();
  const std::lock_guard<std::mutex> lock(r.mutex);
  for (auto& [name, c] : r.counters) c.reset();
  for (auto& [name, g] : r.gauges) g.reset();
  for (auto& [name, h] : r.histograms) h.reset();
}

MetricsSnapshot snapshot_metrics() {
  Registries& r = registries();
  const std::lock_guard<std::mutex> lock(r.mutex);
  MetricsSnapshot snap;
  snap.counters.reserve(r.counters.size());
  for (const auto& [name, c] : r.counters) {
    snap.counters.emplace_back(name, c.value());
  }
  snap.gauges.reserve(r.gauges.size());
  for (const auto& [name, g] : r.gauges) {
    snap.gauges.emplace_back(name, g.value());
  }
  snap.histograms.reserve(r.histograms.size());
  for (const auto& [name, h] : r.histograms) {
    snap.histograms.emplace_back(name, h.snapshot());
  }
  return snap;
}

void write_metrics_prometheus(std::ostream& out) {
  const MetricsSnapshot snap = snapshot_metrics();
  std::string buf;
  for (const auto& [name, value] : snap.counters) {
    const std::string prom = prometheus_name(name);
    buf += "# TYPE " + prom + " counter\n";
    buf += prom + " " + util::json_number(value) + "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string prom = prometheus_name(name);
    buf += "# TYPE " + prom + " gauge\n";
    buf += prom + " " + util::json_number(value) + "\n";
  }
  for (const auto& [name, hist] : snap.histograms) {
    const std::string prom = prometheus_name(name);
    buf += "# TYPE " + prom + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      cumulative += hist.buckets[b];
      const std::string le =
          b + 1 == Histogram::kBuckets
              ? std::string("+Inf")
              : util::json_number(Histogram::upper_bound(b));
      buf += prom + "_bucket{le=\"" + le + "\"} " +
             util::json_number(cumulative) + "\n";
    }
    buf += prom + "_sum " + util::json_number(hist.sum) + "\n";
    buf += prom + "_count " + util::json_number(hist.count) + "\n";
  }
  out << buf;
}

}  // namespace sgp::obs
