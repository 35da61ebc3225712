#include "cluster/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "graph/laplacian.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/sparse_matrix.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"
#include "util/logging.hpp"

namespace sgp::cluster {

namespace {

/// Graceful-degradation ladder for the embedding eigensolve:
///   1. Lanczos with the default iteration budget (the fast path);
///   2. if it throws ConvergenceError or returns unconverged at its budget,
///      Lanczos again with the full Krylov budget (max_iterations = n) and a
///      reseeded start vector;
///   3. if that fails too, the dense symmetric eigensolver — O(n³) but
///      unconditionally convergent.
/// Anything other than a convergence failure propagates unchanged.
linalg::DenseMatrix embedding_from_matrix(const linalg::CsrMatrix& a,
                                          std::size_t n, std::size_t dim,
                                          std::uint64_t seed) {
  obs::ScopedTimer embed_timer(obs::names::kSpectralEmbed);
  embed_timer.attr("n", n).attr("dim", dim);
  linalg::SymmetricOperator op{
      n, [&a](std::span<const double> x, std::span<double> y) {
        const auto r = a.multiply_vector(x);
        std::copy(r.begin(), r.end(), y.begin());
      }};
  linalg::LanczosOptions opt;
  opt.k = dim;
  opt.seed = seed;
  opt.order = linalg::EigenOrder::kDescending;
  // The vectors of a converged run; otherwise nothing, with `why` set.
  std::string why;
  const auto attempt = [&]() -> std::optional<linalg::DenseMatrix> {
    try {
      linalg::LanczosResult result = linalg::lanczos_topk(op, opt);
      if (result.converged) return std::move(result.vectors);
      why = "not converged after " + std::to_string(result.iterations) +
            " iterations";
    } catch (const util::ConvergenceError& e) {
      why = e.what();
    }
    return std::nullopt;
  };
  if (auto vectors = attempt()) return std::move(*vectors);
  obs::counter(obs::names::kSpectralLanczosRetries).add();
  util::LogStream(util::LogLevel::kWarn).with("n", n)
      << "spectral: lanczos failed (" << why
      << "); retrying with max_iterations=" << n;
  opt.max_iterations = n;
  opt.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  if (auto vectors = attempt()) return std::move(*vectors);
  obs::counter(obs::names::kSpectralDenseFallbacks).add();
  util::LogStream(util::LogLevel::kWarn).with("n", n)
      << "spectral: lanczos retry failed (" << why
      << "); falling back to the dense eigensolver (O(n^3))";
  const linalg::EigenResult full =
      linalg::symmetric_eigen(a.to_dense(), linalg::EigenOrder::kDescending);
  return full.vectors.first_columns(dim);
}

}  // namespace

linalg::DenseMatrix normalized_spectral_embedding(const graph::Graph& g,
                                                  std::size_t dim,
                                                  std::uint64_t seed) {
  util::require(dim >= 1 && dim <= g.num_nodes(),
                "spectral embedding: dim must be in [1, n]");
  const linalg::CsrMatrix norm = graph::normalized_adjacency_matrix(g);
  return embedding_from_matrix(norm, g.num_nodes(), dim, seed);
}

linalg::DenseMatrix adjacency_spectral_embedding(const graph::Graph& g,
                                                 std::size_t dim,
                                                 std::uint64_t seed) {
  util::require(dim >= 1 && dim <= g.num_nodes(),
                "spectral embedding: dim must be in [1, n]");
  // Spectral clustering wants the algebraically largest eigenvectors of A
  // (community indicators); magnitude order would drag in the bipartite-like
  // negative extreme.
  const linalg::CsrMatrix a = g.adjacency_matrix();
  return embedding_from_matrix(a, g.num_nodes(), dim, seed);
}

KMeansResult cluster_embedding(const linalg::DenseMatrix& embedding,
                               const SpectralOptions& options) {
  util::require(options.num_clusters >= 1,
                "spectral: num_clusters must be >= 1");
  linalg::DenseMatrix points = embedding;
  if (options.embedding_dim != 0 && options.embedding_dim < embedding.cols()) {
    points = embedding.first_columns(options.embedding_dim);
  }
  if (options.normalize_rows) {
    for (std::size_t i = 0; i < points.rows(); ++i) {
      auto row = points.row(i);
      const double nrm = linalg::norm2(row);
      if (nrm > 1e-12) linalg::scale(row, 1.0 / nrm);
    }
  }
  KMeansOptions km;
  km.k = options.num_clusters;
  km.seed = options.seed;
  return kmeans(points, km);
}

KMeansResult spectral_cluster_graph(const graph::Graph& g,
                                    const SpectralOptions& options) {
  const std::size_t dim =
      options.embedding_dim == 0 ? options.num_clusters : options.embedding_dim;
  const auto embedding =
      options.matrix == SpectralMatrix::kNormalizedAdjacency
          ? normalized_spectral_embedding(g, dim, options.seed)
          : adjacency_spectral_embedding(g, dim, options.seed);
  return cluster_embedding(embedding, options);
}

}  // namespace sgp::cluster
