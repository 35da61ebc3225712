#include "core/publisher.hpp"

#include <new>
#include <numeric>

#include "cluster/spectral.hpp"
#include "dp/mechanisms.hpp"
#include "linalg/svd.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "random/counter_rng.hpp"
#include "random/counter_rng_simd.hpp"
#include "ranking/centrality.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"
#include "util/fault_point_names.hpp"
#include "util/thread_pool.hpp"

namespace sgp::core {

std::string to_string(ProjectionRngKind kind) {
  switch (kind) {
    case ProjectionRngKind::kCounterV1:
      return "counter-v1";
    case ProjectionRngKind::kCounterV1Simd:
      return "counter-v1-simd";
  }
  return "unknown";
}

ProjectionRngKind parse_projection_rng(const std::string& s) {
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

NoiseCalibration RandomProjectionPublisher::Options::calibration() const {
  return calibrate_noise(projection_dim, params, analytic_calibration,
                         delta_split);
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

  // σ is calibrated to the projected-pair sensitivity, scaled by the
  // per-entry change bound: a symmetric pair (i, j) moves row i by
  // ±max_entry_change·P_j and row j by ±max_entry_change·P_i.
  PublishedGraph out;
  out.calibration = options_.calibration();
  out.calibration.sensitivity *= max_entry_change;
  out.calibration.sigma *= max_entry_change;

  // Steps 1 and 2, project and perturb, over every row. The matrix is
  // symmetric, so its own CSR is the source-major index publish_rows
  // pushes P through; P is never materialized, and peak memory is Y plus
  // one tile per pool thread. The fault point stands in for the Y
  // allocation — the largest of a publish — and both it and a genuine
  // failure surface as the typed ResourceError.
  linalg::DenseMatrix y;
  try {
    util::fault_point(util::fault_points::kAlloc);
    y = linalg::DenseMatrix(n, m);
    RandomProjectionPublisher::Options resolved = options_;
    resolved.kernel = kernel;
    publish_rows(matrix.scatter_view(), 0, n, resolved, out.calibration,
                 util::global_pool(), y.data());
  } catch (const std::bad_alloc&) {
    throw util::ResourceError("publish: out of memory allocating " +
                              std::to_string(n) + "x" + std::to_string(m) +
                              " release");
  }

  static obs::Counter& releases = obs::counter(obs::names::kPublishReleases);
  releases.add();
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

RowsBySource transpose_rows(
    std::size_t row_begin, std::size_t row_end,
    const std::function<std::span<const std::uint32_t>(std::size_t)>&
        neighbors) {
  util::require(row_begin <= row_end, "transpose_rows: bad row range");
  RowsBySource out;
  out.num_rows = row_end - row_begin;
  // Counts per source, growing to one past the largest id seen; the prefix
  // sum then turns offsets[j] into the end of source j's rows.
  out.offsets.assign(1, 0);
  for (std::size_t i = row_begin; i < row_end; ++i) {
    for (const std::uint32_t j : neighbors(i)) {
      if (j + std::size_t{1} >= out.offsets.size()) {
        out.offsets.resize(j + std::size_t{2}, 0);
      }
      ++out.offsets[j];
    }
  }
  std::partial_sum(out.offsets.begin(), out.offsets.end(),
                   out.offsets.begin());

  // Filling each source from its end, rows descending, leaves offsets[j] at
  // the start of source j's rows and the rows ascending.
  out.rows.resize(out.offsets.back());
  for (std::size_t i = row_end; i-- > row_begin;) {
    const auto local = static_cast<std::uint32_t>(i - row_begin);
    for (const std::uint32_t j : neighbors(i)) out.rows[--out.offsets[j]] = local;
  }
  return out;
}

void publish_rows(const linalg::SourceMajorView& index, std::size_t row_begin,
                  std::size_t row_end,
                  const RandomProjectionPublisher::Options& options,
                  const NoiseCalibration& calibration, util::ThreadPool& pool,
                  std::span<double> out) {
  const std::size_t m = options.projection_dim;
  util::require(row_begin <= row_end && index.num_destinations ==
                                            row_end - row_begin,
                "publish_rows: index must cover the row range");
  const random::KernelVariant kernel =
      random::resolve_normal_kernel(options.kernel);

  // Step 1: project, fused. The kernel pushes each row of P the index
  // touches, generated on demand (P[j][c] = f(seed, j·m+c), see
  // core/projection.hpp), into every row that lists it.
  {
    obs::ScopedTimer project_timer(obs::names::kPublishProject);
    project_timer.attr("rows", row_end - row_begin)
        .attr("nnz", index.destinations.size());
    const random::CounterRng p_rng = projection_counter_rng(options.seed);
    const ProjectionKind kind = options.projection;
    linalg::GeneratedTileOptions tiles;
    tiles.pool = &pool;
    linalg::multiply_generated_into(
        index, m,
        [&p_rng, m, kind, kernel](std::size_t r0, std::size_t r1,
                                  std::size_t c0, std::size_t c1,
                                  double* out_tile) {
          fill_projection_tile(p_rng, m, kind, r0, r1, c0, c1, out_tile,
                               kernel);
        },
        tiles, out);
  }

  // Step 2: perturb. The noise has its own counter stream, so it is
  // uncorrelated with P for the same seed, and row i draws counters
  // i·m .. i·m + m − 1 wherever the row range starts.
  obs::ScopedTimer perturb_timer(obs::names::kPublishPerturb);
  perturb_timer.attr("sigma", calibration.sigma);
  const random::CounterRng noise = noise_counter_rng(options.seed);
  const double sigma = calibration.sigma;
  util::parallel_for(
      pool, row_begin, row_end,
      [&](std::size_t lo, std::size_t hi) {
        // One reusable batch buffer per work chunk: the kernel fills a row
        // of draws at a time, then the (exactly-ordered) axpy keeps the
        // update bit-identical to the per-entry formulation.
        std::vector<double> draws(m);
        for (std::size_t i = lo; i < hi; ++i) {
          double* row = out.data() + (i - row_begin) * m;
          random::normal_batch(noise, static_cast<std::uint64_t>(i) * m, m,
                               draws.data(), kernel);
          for (std::size_t c = 0; c < m; ++c) row[c] += sigma * draws[c];
        }
      },
      /*grain=*/16);
  static obs::Counter& cells = obs::counter(obs::names::kPublishCells);
  cells.add(static_cast<std::uint64_t>(row_end - row_begin) * m);
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
