// E7 (paper Fig. "storage and computational efficiency"): publish time and
// release size vs graph size, for the random-projection mechanism vs the
// dense-matrix baselines.
//
// Expected shape: RP time grows ~linearly in |E| and its release is n·m
// doubles; the dense Gaussian release grows as n² in both time and bytes and
// falls off the chart past a few thousand nodes (the abstract's
// "computationally impractical" claim); LNPP pays an eigensolve per release.
//
// Timing uses the google-benchmark harness (one fixed iteration per size —
// these are multi-second macro benchmarks); the storage table is printed
// after the timings.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <map>

#include "common.hpp"
#include "core/baselines.hpp"
#include "core/projection.hpp"
#include "core/publisher.hpp"
#include "core/theory.hpp"
#include "dp/defaults.hpp"
#include "dp/mechanisms.hpp"
#include "random/kernel_variant.hpp"
#include "util/thread_pool.hpp"

namespace {

constexpr std::size_t kProjectionDim = 100;
constexpr std::size_t kCommunitySize = 500;

const sgp::graph::Graph& cached_graph(std::size_t n) {
  static std::map<std::size_t, sgp::graph::Graph> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    sgp::random::Rng rng(41);
    auto planted = sgp::graph::stochastic_block_model(
        std::vector<std::size_t>(n / kCommunitySize, kCommunitySize), 0.2,
        2000.0 / (static_cast<double>(n) * static_cast<double>(n)), rng);
    it = cache.emplace(n, std::move(planted.graph)).first;
  }
  return it->second;
}

void BM_RandomProjectionPublish(benchmark::State& state) {
  const auto& g = cached_graph(static_cast<std::size_t>(state.range(0)));
  sgp::core::RandomProjectionPublisher::Options opt;
  opt.projection_dim = kProjectionDim;
  opt.params = {1.0, 1e-6};
  opt.seed = 43;
  const sgp::core::RandomProjectionPublisher publisher(opt);
  for (auto _ : state) {
    auto pub = publisher.publish(g);
    benchmark::DoNotOptimize(pub.data.data().data());
  }
  state.counters["edges"] = static_cast<double>(g.num_edges());
}

// The materialized pipeline, the baseline the fused kernel
// (BM_RandomProjectionPublish above) is measured against: materialize the
// full n×m P, SpMM, then perturb serially.
void BM_MaterializedPublish(benchmark::State& state) {
  const auto& g = cached_graph(static_cast<std::size_t>(state.range(0)));
  const std::size_t m = kProjectionDim;
  for (auto _ : state) {
    const sgp::linalg::DenseMatrix p = sgp::core::make_projection_counter(
        g.num_nodes(), m, sgp::core::ProjectionKind::kGaussian, 43);
    sgp::linalg::DenseMatrix y = g.adjacency_matrix().multiply_dense(p);
    const auto calibration = sgp::core::calibrate_noise(m, {1.0, 1e-6});
    sgp::random::Rng noise_rng(43);
    sgp::dp::add_gaussian_noise(y.data(), calibration.sigma, noise_rng);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.counters["edges"] = static_cast<double>(g.num_edges());
}

// Thread-scaling of the fused Y = A·P kernel alone: same graph, explicit
// pools of 1/2/4/8 workers (the host core count does not gate correctness —
// results are bit-identical per thread count; only wall-clock moves).
void BM_FusedProjectThreads(benchmark::State& state) {
  const auto& g = cached_graph(10000);
  const sgp::linalg::CsrMatrix a = g.adjacency_matrix();
  const std::size_t m = kProjectionDim;
  sgp::util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  const sgp::random::CounterRng p_rng = sgp::core::projection_counter_rng(43);
  sgp::linalg::GeneratedTileOptions opts;
  opts.pool = &pool;
  for (auto _ : state) {
    sgp::linalg::DenseMatrix y = a.multiply_generated(
        m,
        [&](std::size_t r0, std::size_t r1, std::size_t c0, std::size_t c1,
            double* out) {
          sgp::core::fill_projection_tile(
              p_rng, m, sgp::core::ProjectionKind::kGaussian, r0, r1, c0, c1,
              out);
        },
        opts);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.counters["threads"] = static_cast<double>(pool.size());
}

void BM_DenseGaussianPublish(benchmark::State& state) {
  const auto& g = cached_graph(static_cast<std::size_t>(state.range(0)));
  const sgp::core::DenseGaussianPublisher publisher({1.0, 1e-6}, 43);
  for (auto _ : state) {
    auto pub = publisher.publish(g);
    benchmark::DoNotOptimize(pub.data.data().data());
  }
}

void BM_LnppPublish(benchmark::State& state) {
  const auto& g = cached_graph(static_cast<std::size_t>(state.range(0)));
  sgp::core::LnppPublisher::Options opt;
  opt.k = 8;
  opt.epsilon = sgp::dp::kDefaultEpsilon;
  opt.seed = 43;
  const sgp::core::LnppPublisher publisher(opt);
  for (auto _ : state) {
    auto rel = publisher.publish(g);
    benchmark::DoNotOptimize(rel.eigenvalues.data());
  }
}

void BM_EdgeFlipPublish(benchmark::State& state) {
  const auto& g = cached_graph(static_cast<std::size_t>(state.range(0)));
  const sgp::core::EdgeFlipPublisher publisher(1.0, 43);
  for (auto _ : state) {
    auto flipped = publisher.publish(g);
    benchmark::DoNotOptimize(flipped.num_edges());
  }
}

BENCHMARK(BM_RandomProjectionPublish)
    ->Arg(1000)->Arg(2000)->Arg(5000)->Arg(10000)->Arg(20000)->Arg(50000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_MaterializedPublish)
    ->Arg(1000)->Arg(2000)->Arg(5000)->Arg(10000)->Arg(20000)->Arg(50000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_FusedProjectThreads)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_DenseGaussianPublish)
    ->Arg(1000)->Arg(2000)->Arg(5000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_LnppPublish)
    ->Arg(1000)->Arg(2000)->Arg(5000)->Arg(10000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);
BENCHMARK(BM_EdgeFlipPublish)
    ->Arg(1000)->Arg(2000)->Arg(5000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void print_storage_table() {
  std::printf("\nRelease size (MiB) by method and graph size:\n");
  sgp::util::TextTable table(
      {"n", "rp_m100", "dense_gaussian", "lnpp_k8", "edge_flip_eps1"});
  for (std::size_t n : {1000, 5000, 10000, 50000, 1000000}) {
    const double nd = static_cast<double>(n);
    const double mib = 8.0 / (1 << 20);
    // Edge-flip at eps=1 keeps ~n²/2·(1-keep) spurious pairs; stored as two
    // 32-bit endpoints each.
    const double flip = 1.0 - std::exp(1.0) / (1.0 + std::exp(1.0));
    table.new_row()
        .add(n)
        .add(nd * 100.0 * mib, 1)
        .add(nd * nd * mib, 1)
        .add((8.0 + nd * 8.0) * mib, 2)
        .add(nd * nd / 2.0 * flip * 8.0 / (1 << 20), 1);
  }
  std::printf("%s", table.to_string().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  sgp::bench::BenchReport report("E7");
  report.meta("m", static_cast<std::uint64_t>(kProjectionDim))
      .meta("epsilon", 1.0)
      .meta("delta", 1e-6)
      .meta("max_nodes", static_cast<std::uint64_t>(50000))
      .meta("projection_rng",
            sgp::core::to_string(sgp::core::ProjectionRngKind::kCounterV1))
      // Which normal-mapping kernel the timings below were generated with
      // (the resolved default: scalar unless SGP_FORCE_KERNEL overrides).
      .meta("kernel_variant",
            std::string(sgp::random::to_string(
                sgp::random::resolve_normal_kernel(
                    sgp::random::KernelVariant::kAuto))))
      .meta("threads",
            static_cast<std::uint64_t>(sgp::util::global_pool().size()));
  sgp::bench::banner(
      "E7: publishing cost vs graph size",
      "Wall-clock publish time (google-benchmark, 1 iteration per size) and "
      "release bytes. RP scales with |E|*m; dense baselines scale with n^2.");
  benchmark::Initialize(&argc, argv);
  {
    sgp::obs::ScopedTimer timer("bench.google_benchmark");
    benchmark::RunSpecifiedBenchmarks();
  }
  {
    sgp::obs::ScopedTimer timer("bench.storage_table");
    print_storage_table();
  }
  return 0;
}
