#include "core/publisher.hpp"

#include <new>

#include "cluster/spectral.hpp"
#include "dp/mechanisms.hpp"
#include "linalg/svd.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "random/counter_rng.hpp"
#include "random/counter_rng_simd.hpp"
#include "random/rng.hpp"
#include "ranking/centrality.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"
#include "util/fault_point_names.hpp"
#include "util/thread_pool.hpp"

namespace sgp::core {

std::string to_string(ProjectionRngKind kind) {
  switch (kind) {
    case ProjectionRngKind::kSequentialLegacy:
      return "sequential-v0";
    case ProjectionRngKind::kCounterV1:
      return "counter-v1";
    case ProjectionRngKind::kCounterV1Simd:
      return "counter-v1-simd";
  }
  return "unknown";
}

ProjectionRngKind parse_projection_rng(const std::string& s) {
  if (s == "sequential-v0") return ProjectionRngKind::kSequentialLegacy;
  if (s == "counter-v1") return ProjectionRngKind::kCounterV1;
  if (s == "counter-v1-simd") return ProjectionRngKind::kCounterV1Simd;
  throw util::ParseError("unknown projection_rng: " + s);
}

ProjectionRngKind projection_rng_for(ProjectionKind projection,
                                     random::KernelVariant resolved_kernel) {
  // Only gaussian releases depend on the normal mapping; achlioptas draws
  // are uniform-exact under every variant and keep the scalar tag.
  if (projection == ProjectionKind::kGaussian &&
      random::uses_polynomial_normals(resolved_kernel)) {
    return ProjectionRngKind::kCounterV1Simd;
  }
  return ProjectionRngKind::kCounterV1;
}

RandomProjectionPublisher::RandomProjectionPublisher(Options options)
    : options_(std::move(options)) {
  util::require(options_.projection_dim >= 1,
                "publisher: projection_dim must be >= 1");
  options_.params.validate();
}

PublishedGraph RandomProjectionPublisher::publish(const graph::Graph& g) const {
  util::require(g.num_nodes() >= 1, "publish: graph must have nodes");
  return publish_matrix(g.adjacency_matrix(), 1.0);
}

PublishedGraph RandomProjectionPublisher::publish_matrix(
    const linalg::CsrMatrix& matrix, double max_entry_change) const {
  const std::size_t n = matrix.rows();
  const std::size_t m = options_.projection_dim;
  util::require(n >= 1, "publish: matrix must be non-empty");
  util::require(matrix.cols() == n, "publish: matrix must be square");
  util::require(max_entry_change > 0.0,
                "publish: max_entry_change must be > 0");
  util::require(m <= n, "publish: projection_dim must be <= num_nodes");

  obs::Span publish_span(obs::names::kPublish);
  publish_span.attr("n", n);
  publish_span.attr("m", m);

  // Resolve the kernel once per publish: the resolved variant decides the
  // release tag, the observability gauge, and the noise path, and passing it
  // explicitly below keeps every tile of this release on one code path even
  // if the environment changes mid-run.
  const random::KernelVariant kernel =
      random::resolve_normal_kernel(options_.kernel);
  publish_span.attr("kernel", std::string(random::to_string(kernel)));

  // Step 1: project, fused. P is never materialized: the kernel generates
  // counter-based tiles of it on demand (P[i][j] = f(seed, i·m+j), see
  // core/projection.hpp) and accumulates Y = A·P directly, so peak memory is
  // Y plus one tile per pool thread and the generation parallelizes over
  // column blocks of Y. The fault point stands in for the Y allocation — the
  // largest of a publish now that P is virtual — and both it and a genuine
  // failure surface as the typed ResourceError.
  obs::ScopedTimer project_timer(obs::names::kPublishProject);
  project_timer.attr("nnz", matrix.nnz());
  linalg::DenseMatrix y;
  try {
    util::fault_point(util::fault_points::kAlloc);
    const random::CounterRng p_rng = projection_counter_rng(options_.seed);
    const ProjectionKind kind = options_.projection;
    y = matrix.multiply_generated(
        m,
        [&p_rng, m, kind, kernel](std::size_t r0, std::size_t r1,
                                  std::size_t c0, std::size_t c1,
                                  double* out_tile) {
          fill_projection_tile(p_rng, m, kind, r0, r1, c0, c1, out_tile,
                               kernel);
        });
  } catch (const std::bad_alloc&) {
    throw util::ResourceError("publish: out of memory allocating " +
                              std::to_string(n) + "x" + std::to_string(m) +
                              " release");
  }
  project_timer.stop();

  // Step 2: perturb with σ calibrated to the projected-pair sensitivity
  // (scaled by the per-entry change bound — a symmetric pair (i, j) moves
  // row i by ±max_entry_change·P_j and row j by ±max_entry_change·P_i).
  obs::ScopedTimer perturb_timer(obs::names::kPublishPerturb);
  PublishedGraph out;
  out.calibration =
      calibrate_noise(m, options_.params, options_.analytic_calibration,
                      options_.delta_split);
  out.calibration.sensitivity *= max_entry_change;
  out.calibration.sigma *= max_entry_change;
  // Independent noise stream: a separate counter stream id, so the noise is
  // uncorrelated with P for the same seed and — being counter-based — the
  // perturbation parallelizes with bit-identical results per thread count.
  {
    const random::CounterRng noise = noise_counter_rng(options_.seed);
    const double sigma = out.calibration.sigma;
    util::parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
      // One reusable batch buffer per work chunk: the kernel fills a row of
      // draws at a time, then the (exactly-ordered) axpy keeps the update
      // bit-identical to the per-entry formulation.
      std::vector<double> draws(m);
      for (std::size_t r = lo; r < hi; ++r) {
        auto row = y.row(r);
        const std::uint64_t base = static_cast<std::uint64_t>(r) * m;
        random::normal_batch(noise, base, m, draws.data(), kernel);
        for (std::size_t c = 0; c < m; ++c) {
          row[c] += sigma * draws[c];
        }
      }
    });
  }
  perturb_timer.attr("sigma", out.calibration.sigma);
  perturb_timer.stop();

  static obs::Counter& releases = obs::counter(obs::names::kPublishReleases);
  static obs::Counter& cells = obs::counter(obs::names::kPublishCells);
  releases.add();
  cells.add(static_cast<std::uint64_t>(n) * m);
  // Headline config gauges (docs/observability.md): the σ actually used
  // and the input size, so a report is interpretable on its own.
  obs::gauge(obs::names::kPublishSigma).set(out.calibration.sigma);
  obs::gauge(obs::names::kGraphNodes).set(static_cast<double>(n));
  // Resolved kernel as an enum ordinal (1 scalar, 2 generic, 3 avx2,
  // 4 avx512 — kAuto never survives resolution); the mapping is documented
  // in docs/observability.md.
  obs::gauge(obs::names::kPublishKernelVariant)
      .set(static_cast<double>(kernel));

  // Step 3: assemble the release.
  out.data = std::move(y);
  out.num_nodes = n;
  out.projection_dim = m;
  out.params = options_.params;
  out.projection = options_.projection;
  out.projection_rng = projection_rng_for(options_.projection, kernel);
  return out;
}

linalg::DenseMatrix spectral_embedding(const PublishedGraph& published,
                                       std::size_t k) {
  util::require(k >= 1 && k <= published.projection_dim,
                "spectral_embedding: k must be in [1, m]");
  obs::ScopedTimer embed_timer(obs::names::kPublishEmbed);
  embed_timer.attr("k", k);
  static obs::Counter& embeds = obs::counter(obs::names::kPublishEmbeds);
  embeds.add();
  const linalg::SvdResult svd = linalg::svd_gram(published.data, k);
  return svd.u;
}

std::vector<double> centrality_scores(const PublishedGraph& published) {
  const linalg::DenseMatrix u = spectral_embedding(published, 1);
  return ranking::centrality_from_embedding(u);
}

std::vector<double> degree_scores(const PublishedGraph& published) {
  const double bias = static_cast<double>(published.projection_dim) *
                      published.calibration.sigma * published.calibration.sigma;
  std::vector<double> scores(published.data.rows());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    scores[i] = linalg::norm2_squared(published.data.row(i)) - bias;
  }
  return scores;
}

cluster::KMeansResult cluster_published(const PublishedGraph& published,
                                        std::size_t k, std::uint64_t seed) {
  const linalg::DenseMatrix embedding = spectral_embedding(published, k);
  cluster::SpectralOptions opt;
  opt.num_clusters = k;
  opt.seed = seed;
  return cluster::cluster_embedding(embedding, opt);
}

}  // namespace sgp::core
