// Shared plumbing for the experiment harnesses (bench_e1 … bench_e8).
//
// Each bench binary regenerates one table/figure of the evaluation: it
// prints a header naming the experiment, then an aligned table whose rows
// are the series the paper reports. Progress/status goes to stderr so stdout
// stays machine-readable.
//
// In addition every bench emits BENCH_<id>.json, the repo's one report
// schema "sgp-obs-report v2" with a single process (obs/report.hpp): declare
// a BenchReport at the top of main and the destructor writes phase timings,
// the metrics snapshot, the span tree, and metadata to the working
// directory — or $SGP_BENCH_JSON_DIR when set. Validate with
// tools/sgp_bench_check; render with tools/sgp_trace.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/metrics.hpp"
#include "cluster/spectral.hpp"
#include "graph/datasets.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/resource_sampler.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace sgp::bench {

/// Prints the experiment banner.
inline void banner(const std::string& id, const std::string& claim) {
  std::printf("=== %s ===\n%s\n\n", id.c_str(), claim.c_str());
}

/// RAII harness state for one experiment: enables metrics + tracing on
/// construction and writes BENCH_<id>.json on destruction (or on an explicit
/// emit()), so the report lands even if the bench exits through an early
/// return. Metadata added via meta() ends up in the report's "meta" object.
class BenchReport {
 public:
  explicit BenchReport(std::string id) : id_(std::move(id)), report_(id_) {
    obs::set_metrics_enabled(true);
    obs::set_trace_enabled(true);
    // Resource sampling (proc.* gauges) so every BENCH_*.json carries RSS
    // and CPU readings alongside the phase timings.
    sampler_.start();
  }

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  ~BenchReport() { emit(); }

  template <typename T>
  BenchReport& meta(std::string_view key, const T& value) {
    report_.meta(key, value);
    return *this;
  }

  /// Destination: $SGP_BENCH_JSON_DIR/BENCH_<id>.json, or ./BENCH_<id>.json.
  std::string path() const {
    std::string dir;
    if (const char* env = std::getenv("SGP_BENCH_JSON_DIR")) dir = env;
    if (!dir.empty() && dir.back() != '/') dir += '/';
    return dir + "BENCH_" + id_ + ".json";
  }

  /// Writes the report now (idempotent; later calls are no-ops). A write
  /// failure warns on stderr instead of throwing — the bench's tables are
  /// the primary output and must not be lost to a read-only directory.
  void emit() {
    if (emitted_) return;
    emitted_ = true;
    sampler_.stop();  // final proc.* reading before the snapshot is written
    const std::string out = path();
    try {
      report_.write_file(out);
      std::fprintf(stderr, "[bench] wrote %s\n", out.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[bench] warning: %s\n", e.what());
    }
  }

 private:
  std::string id_;
  obs::Report report_;
  bool emitted_ = false;
  obs::ResourceSampler sampler_;
};

/// Spectral clustering of the original (non-private) graph — the reference
/// that published-graph clustering is scored against, plus its NMI vs the
/// planted labels (the ceiling any private method can reach).
struct Reference {
  std::vector<std::uint32_t> assignments;
  double nmi_vs_truth = 0.0;
};

inline Reference non_private_reference(const graph::Dataset& dataset,
                                       std::uint64_t seed = 7) {
  cluster::SpectralOptions opt;
  opt.num_clusters = dataset.num_communities;
  opt.seed = seed;
  obs::ScopedTimer timer("bench.reference");
  timer.attr("dataset", dataset.name);
  const auto result =
      cluster::spectral_cluster_graph(dataset.planted.graph, opt);
  util::LogStream(util::LogLevel::kInfo)
      .with("dataset", dataset.name)
      .with("seconds", timer.stop())
      << "non-private spectral reference";
  Reference ref;
  ref.assignments = result.assignments;
  ref.nmi_vs_truth = cluster::normalized_mutual_information(
      result.assignments, dataset.planted.labels);
  return ref;
}

}  // namespace sgp::bench
