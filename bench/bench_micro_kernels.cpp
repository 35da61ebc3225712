// Micro-benchmarks of the kernels the publish/analyze pipelines spend their
// time in — regression guardrails for performance work (google-benchmark
// with proper auto-iteration, unlike the one-shot macro timings of E7).
//
// The BM_Obs* group measures the observability primitives themselves: the
// disabled paths are the cost every instrumented call site pays when no one
// asked for metrics (one relaxed atomic load — the docs/observability.md
// overhead numbers come from here), the enabled paths bound the cost of
// running with --metrics-out / --trace.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/kmeans.hpp"
#include "common.hpp"
#include "core/projection.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/svd.hpp"
#include "random/counter_rng_simd.hpp"
#include "random/distributions.hpp"
#include "random/kernel_variant.hpp"
#include "ranking/metrics.hpp"

namespace {

sgp::linalg::DenseMatrix random_dense(std::size_t r, std::size_t c,
                                      std::uint64_t seed) {
  sgp::random::Rng rng(seed);
  sgp::linalg::DenseMatrix m(r, c);
  for (auto& v : m.data()) v = sgp::random::normal(rng);
  return m;
}

const sgp::graph::Graph& bench_graph() {
  static const sgp::graph::Graph g = [] {
    sgp::random::Rng rng(3);
    return sgp::graph::erdos_renyi(5000, 0.01, rng);
  }();
  return g;
}

void BM_SpMM(benchmark::State& state) {
  const auto a = bench_graph().adjacency_matrix();
  const auto p = random_dense(5000, static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto y = a.multiply_dense(p);
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_SpMM)->Arg(32)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_GaussianProjection(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto p = sgp::core::make_projection_counter(
        n, 100, sgp::core::ProjectionKind::kGaussian, 2);
    benchmark::DoNotOptimize(p.data().data());
  }
}
BENCHMARK(BM_GaussianProjection)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_AchlioptasProjection(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto p = sgp::core::make_projection_counter(
        n, 100, sgp::core::ProjectionKind::kAchlioptas, 2);
    benchmark::DoNotOptimize(p.data().data());
  }
}
BENCHMARK(BM_AchlioptasProjection)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

// --- ingest ----------------------------------------------------------------
// Parse and CSR-build throughput of the in-memory reader, on bench_graph()
// in write_edge_list's text form. Report only: no gate reads these rows.

void BM_ScanEdgeList(benchmark::State& state) {
  std::ostringstream text;
  sgp::graph::write_edge_list(bench_graph(), text);
  const std::string edges = text.str();
  std::size_t lines = 0;
  for (auto _ : state) {
    std::istringstream in(edges);
    const auto stats = sgp::graph::scan_edge_list(
        in, sgp::graph::IdPolicy::kPreserve,
        sgp::graph::kDefaultMaxPreservedNodeId,
        [](std::uint64_t u, std::uint64_t v) {
          benchmark::DoNotOptimize(u + v);
        });
    lines = stats.lines;
  }
  state.counters["lines/s"] =
      benchmark::Counter(static_cast<double>(lines),
                         benchmark::Counter::kIsIterationInvariantRate);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_ScanEdgeList)->Unit(benchmark::kMillisecond);

void BM_GraphFromEdges(benchmark::State& state) {
  const sgp::graph::Graph& g = bench_graph();
  const std::vector<sgp::graph::Edge> edges = g.edges();
  for (auto _ : state) {
    auto built = sgp::graph::Graph::from_edges(g.num_nodes(), edges);
    benchmark::DoNotOptimize(built.neighbors(0).data());
  }
  state.counters["edges/s"] = benchmark::Counter(
      static_cast<double>(edges.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GraphFromEdges)->Unit(benchmark::kMillisecond);

// --- counter-RNG / fused-publish kernels ----------------------------------

void BM_CounterBits(benchmark::State& state) {
  const sgp::random::CounterRng rng(2, 0);
  std::uint64_t c = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.bits(c++));
  }
}
BENCHMARK(BM_CounterBits);

void BM_CounterNormal(benchmark::State& state) {
  const sgp::random::CounterRng rng(2, 0);
  std::uint64_t c = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.normal(c++));
  }
}
BENCHMARK(BM_CounterNormal);

void BM_ProjectionTileFill(benchmark::State& state) {
  const sgp::random::CounterRng rng = sgp::core::projection_counter_rng(2);
  const auto kind = static_cast<sgp::core::ProjectionKind>(state.range(0));
  constexpr std::size_t kM = 100;
  std::vector<double> tile(512 * 64);
  for (auto _ : state) {
    sgp::core::fill_projection_tile(rng, kM, kind, 0, 512, 0, 64, tile.data());
    benchmark::DoNotOptimize(tile.data());
  }
  state.SetItemsProcessed(state.iterations() * 512 * 64);
}
BENCHMARK(BM_ProjectionTileFill)
    ->Arg(static_cast<int>(sgp::core::ProjectionKind::kGaussian))
    ->Arg(static_cast<int>(sgp::core::ProjectionKind::kAchlioptas));

void BM_FusedSpMM(benchmark::State& state) {
  const auto a = bench_graph().adjacency_matrix();
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const sgp::random::CounterRng rng = sgp::core::projection_counter_rng(2);
  for (auto _ : state) {
    auto y = a.multiply_generated(
        m, [&](std::size_t r0, std::size_t r1, std::size_t c0, std::size_t c1,
               double* out) {
          sgp::core::fill_projection_tile(
              rng, m, sgp::core::ProjectionKind::kGaussian, r0, r1, c0, c1,
              out);
        });
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_FusedSpMM)->Arg(32)->Arg(128)->Unit(benchmark::kMillisecond);

// --- kernel-variant axis ---------------------------------------------------
// The same tile-fill / batch-normal / fused-SpMM workloads, once per
// dispatchable kernel variant (random/kernel_variant.hpp). Variants the
// machine can't run are skipped, not failed — the BENCH_MICRO.json speedup
// meta below is what sgp_bench_check gates on.

void BM_NormalBatchKernel(benchmark::State& state) {
  const auto variant =
      static_cast<sgp::random::KernelVariant>(state.range(0));
  if (!sgp::random::kernel_supported(variant)) {
    state.SkipWithError("kernel variant not supported on this machine");
    return;
  }
  const sgp::random::CounterRng rng(2, 1);
  std::vector<double> out(4096);
  std::uint64_t base = 0;
  for (auto _ : state) {
    sgp::random::normal_batch(rng, base, out.size(), out.data(), variant);
    benchmark::DoNotOptimize(out.data());
    base += out.size();  // fresh counters each iteration, like a real publish
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_NormalBatchKernel)
    ->Arg(static_cast<int>(sgp::random::KernelVariant::kScalar))
    ->Arg(static_cast<int>(sgp::random::KernelVariant::kGeneric))
    ->Arg(static_cast<int>(sgp::random::KernelVariant::kAvx2))
    ->Arg(static_cast<int>(sgp::random::KernelVariant::kAvx512));

void BM_ProjectionTileFillKernel(benchmark::State& state) {
  const auto variant =
      static_cast<sgp::random::KernelVariant>(state.range(0));
  if (!sgp::random::kernel_supported(variant)) {
    state.SkipWithError("kernel variant not supported on this machine");
    return;
  }
  const sgp::random::CounterRng rng = sgp::core::projection_counter_rng(2);
  constexpr std::size_t kM = 100;
  std::vector<double> tile(512 * kM);
  for (auto _ : state) {
    sgp::core::fill_projection_tile(rng, kM,
                                    sgp::core::ProjectionKind::kGaussian, 0,
                                    512, 0, kM, tile.data(), variant);
    benchmark::DoNotOptimize(tile.data());
  }
  state.SetItemsProcessed(state.iterations() * 512 * kM);
}
BENCHMARK(BM_ProjectionTileFillKernel)
    ->Arg(static_cast<int>(sgp::random::KernelVariant::kScalar))
    ->Arg(static_cast<int>(sgp::random::KernelVariant::kGeneric))
    ->Arg(static_cast<int>(sgp::random::KernelVariant::kAvx2))
    ->Arg(static_cast<int>(sgp::random::KernelVariant::kAvx512));

void BM_FusedSpMMKernel(benchmark::State& state) {
  const auto variant =
      static_cast<sgp::random::KernelVariant>(state.range(0));
  if (!sgp::random::kernel_supported(variant)) {
    state.SkipWithError("kernel variant not supported on this machine");
    return;
  }
  const auto a = bench_graph().adjacency_matrix();
  constexpr std::size_t kM = 128;
  const sgp::random::CounterRng rng = sgp::core::projection_counter_rng(2);
  for (auto _ : state) {
    auto y = a.multiply_generated(
        kM, [&](std::size_t r0, std::size_t r1, std::size_t c0,
                std::size_t c1, double* out) {
          sgp::core::fill_projection_tile(
              rng, kM, sgp::core::ProjectionKind::kGaussian, r0, r1, c0, c1,
              out, variant);
        });
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_FusedSpMMKernel)
    ->Arg(static_cast<int>(sgp::random::KernelVariant::kScalar))
    ->Arg(static_cast<int>(sgp::random::KernelVariant::kGeneric))
    ->Arg(static_cast<int>(sgp::random::KernelVariant::kAvx2))
    ->Arg(static_cast<int>(sgp::random::KernelVariant::kAvx512))
    ->Unit(benchmark::kMillisecond);

void BM_SvdGram(benchmark::State& state) {
  const auto a = random_dense(4000, static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) {
    auto svd = sgp::linalg::svd_gram(a, 8);
    benchmark::DoNotOptimize(svd.singular_values.data());
  }
}
BENCHMARK(BM_SvdGram)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

// 128 is the analyst's Gram (perfbench `analyst`, m = 128); 240 the size of
// the scenario grid's noisy adjacency in the community mechanisms.
void BM_SymmetricEigen(benchmark::State& state) {
  const auto base = random_dense(static_cast<std::size_t>(state.range(0)),
                                 static_cast<std::size_t>(state.range(0)), 6);
  const auto sym = base.gram();
  for (auto _ : state) {
    auto eig = sgp::linalg::symmetric_eigen(sym);
    benchmark::DoNotOptimize(eig.values.data());
  }
}
BENCHMARK(BM_SymmetricEigen)->Arg(128)->Arg(240)->Unit(benchmark::kMillisecond);

// The analyst's release shape: n = 20000 rows, m = 128 columns.
void BM_Gram(benchmark::State& state) {
  const auto a = random_dense(20000, 128, 9);
  for (auto _ : state) {
    auto g = a.gram();
    benchmark::DoNotOptimize(g.data().data());
  }
}
BENCHMARK(BM_Gram)->Unit(benchmark::kMillisecond);

void BM_KMeans(benchmark::State& state) {
  const auto pts = random_dense(static_cast<std::size_t>(state.range(0)), 8, 7);
  sgp::cluster::KMeansOptions opt;
  opt.k = 8;
  opt.restarts = 1;
  for (auto _ : state) {
    auto res = sgp::cluster::kmeans(pts, opt);
    benchmark::DoNotOptimize(res.assignments.data());
  }
}
BENCHMARK(BM_KMeans)->Arg(2000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_KendallTau(benchmark::State& state) {
  sgp::random::Rng rng(8);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = sgp::random::normal(rng);
    b[i] = sgp::random::normal(rng);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sgp::ranking::kendall_tau(a, b));
  }
}
BENCHMARK(BM_KendallTau)->Arg(10000)->Arg(100000)->Unit(benchmark::kMillisecond);

// --- observability primitives ---------------------------------------------
// Each benchmark saves and restores the global gates so it composes with
// the harness state (main enables both for the BENCH_MICRO.json report).

class GateGuard {
 public:
  GateGuard(bool metrics, bool trace)
      : metrics_was_(sgp::obs::metrics_enabled()),
        trace_was_(sgp::obs::trace_enabled()) {
    sgp::obs::set_metrics_enabled(metrics);
    sgp::obs::set_trace_enabled(trace);
  }
  ~GateGuard() {
    sgp::obs::set_metrics_enabled(metrics_was_);
    sgp::obs::set_trace_enabled(trace_was_);
  }

 private:
  bool metrics_was_;
  bool trace_was_;
};

void BM_ObsCounterDisabled(benchmark::State& state) {
  const GateGuard guard(false, false);
  auto& c = sgp::obs::counter("bench.obs.counter");
  for (auto _ : state) {
    c.add();
  }
}
BENCHMARK(BM_ObsCounterDisabled);

void BM_ObsCounterEnabled(benchmark::State& state) {
  const GateGuard guard(true, false);
  auto& c = sgp::obs::counter("bench.obs.counter");
  for (auto _ : state) {
    c.add();
  }
}
BENCHMARK(BM_ObsCounterEnabled);

void BM_ObsHistogramEnabled(benchmark::State& state) {
  const GateGuard guard(true, false);
  auto& h = sgp::obs::histogram("bench.obs.histogram");
  double v = 1e-6;
  for (auto _ : state) {
    h.record(v);
    v *= 1.0000001;  // vary the bucket a little
  }
}
BENCHMARK(BM_ObsHistogramEnabled);

void BM_ObsSpanDisabled(benchmark::State& state) {
  const GateGuard guard(false, false);
  for (auto _ : state) {
    sgp::obs::Span span("bench.obs.span");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_ObsSpanEnabled(benchmark::State& state) {
  const GateGuard guard(true, true);
  for (auto _ : state) {
    sgp::obs::Span span("bench.obs.span");
    benchmark::DoNotOptimize(&span);
  }
  // Spans are collected globally; drop the pile this loop produced so the
  // emitted BENCH_MICRO.json stays small.
  sgp::obs::clear_spans();
}
// Fixed iteration count: every enabled span is materialized in memory until
// the clear above, so don't let the auto-tuner pick millions.
BENCHMARK(BM_ObsSpanEnabled)->Iterations(100000);

// Hand-timed speedup measurement for the BENCH_MICRO.json meta (gated by
// sgp_bench_check): best-of-N wall time of the tile-fill and fused-SpMM
// workloads under the scalar kernel vs the best vector variant. Kept apart
// from the google-benchmark loops so the meta is a single number per axis
// regardless of which --benchmark_filter the run used.
template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best;
}

double tile_fill_seconds(sgp::random::KernelVariant variant) {
  const sgp::random::CounterRng rng = sgp::core::projection_counter_rng(2);
  constexpr std::size_t kM = 100;
  std::vector<double> tile(512 * kM);
  return best_seconds(5, [&] {
    for (int i = 0; i < 20; ++i) {
      sgp::core::fill_projection_tile(rng, kM,
                                      sgp::core::ProjectionKind::kGaussian, 0,
                                      512, 0, kM, tile.data(), variant);
      benchmark::DoNotOptimize(tile.data());
    }
  });
}

double fused_spmm_seconds(sgp::random::KernelVariant variant) {
  const auto a = bench_graph().adjacency_matrix();
  constexpr std::size_t kM = 128;
  const sgp::random::CounterRng rng = sgp::core::projection_counter_rng(2);
  return best_seconds(3, [&] {
    auto y = a.multiply_generated(
        kM, [&](std::size_t r0, std::size_t r1, std::size_t c0,
                std::size_t c1, double* out) {
          sgp::core::fill_projection_tile(
              rng, kM, sgp::core::ProjectionKind::kGaussian, r0, r1, c0, c1,
              out, variant);
        });
    benchmark::DoNotOptimize(y.data().data());
  });
}

// The host a run measured, "<cpu model>, <n> cpus". The fused-SpMM speedup
// is memory-bound, so its committed baseline (bench/baselines/) holds only
// on the host named here.
std::string host_fingerprint() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string model = "unknown cpu";
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      const std::size_t begin = line.find_first_not_of(" \t", colon + 1);
      if (begin != std::string::npos) model = line.substr(begin);
      break;
    }
  }
  return model + ", " + std::to_string(std::thread::hardware_concurrency()) +
         " cpus";
}

}  // namespace

int main(int argc, char** argv) {
  sgp::bench::BenchReport report("MICRO");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  {
    sgp::obs::ScopedTimer timer("bench.google_benchmark");
    benchmark::RunSpecifiedBenchmarks();
  }

  // Kernel-variant meta axis: which vector kernel this machine dispatches
  // to, and its measured tile-fill / fused-SpMM speedups over the scalar
  // reference. sgp_bench_check requires >= 1.5x on tile fill whenever a
  // vector variant is available, and the slow layer compares the
  // memory-bound fused SpMM with the baseline of the host named in "host";
  // "scalar" means no vector hardware and the speedups are reported as 1.
  using sgp::random::KernelVariant;
  KernelVariant best = KernelVariant::kScalar;
  if (sgp::random::kernel_supported(KernelVariant::kAvx512)) {
    best = KernelVariant::kAvx512;
  } else if (sgp::random::kernel_supported(KernelVariant::kAvx2)) {
    best = KernelVariant::kAvx2;
  }
  double tile_speedup = 1.0;
  double fused_speedup = 1.0;
  if (best != KernelVariant::kScalar) {
    tile_speedup =
        tile_fill_seconds(KernelVariant::kScalar) / tile_fill_seconds(best);
    fused_speedup =
        fused_spmm_seconds(KernelVariant::kScalar) / fused_spmm_seconds(best);
  }
  report.meta("kernel_variant", std::string(sgp::random::to_string(best)))
      .meta("host", host_fingerprint())
      .meta("tile_fill_speedup", tile_speedup)
      .meta("fused_spmm_speedup", fused_speedup);
  std::fprintf(stderr,
               "kernel_variant=%s tile_fill_speedup=%.2f "
               "fused_spmm_speedup=%.2f\n",
               std::string(sgp::random::to_string(best)).c_str(), tile_speedup,
               fused_speedup);

  benchmark::Shutdown();
  return 0;
}
