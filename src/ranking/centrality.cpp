#include "ranking/centrality.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/sparse_matrix.hpp"
#include "linalg/vector_ops.hpp"
#include "util/check.hpp"

namespace sgp::ranking {

std::vector<double> degree_centrality(const graph::Graph& g) {
  std::vector<double> scores(g.num_nodes());
  for (std::size_t u = 0; u < g.num_nodes(); ++u) {
    scores[u] = static_cast<double>(g.degree(u));
  }
  return scores;
}

std::vector<double> eigenvector_centrality(const graph::Graph& g,
                                           std::size_t max_iterations,
                                           double tolerance) {
  const std::size_t n = g.num_nodes();
  util::require(n > 0, "eigenvector centrality: empty graph");
  const linalg::CsrMatrix a = g.adjacency_matrix();

  std::vector<double> x(n, 1.0 / std::sqrt(static_cast<double>(n)));
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    // Iterate on (A + I): same eigenvectors, but the shift makes the Perron
    // eigenvalue strictly dominant even on bipartite graphs (star, cycle of
    // even length), where plain power iteration oscillates with period 2.
    std::vector<double> next = a.multiply_vector(x);
    for (std::size_t i = 0; i < n; ++i) next[i] += x[i];
    const double nrm = linalg::norm2(next);
    if (nrm == 0.0) return x;  // no edges: uniform scores
    linalg::scale(next, 1.0 / nrm);
    double diff = 0.0;
    for (std::size_t i = 0; i < n; ++i) diff += std::fabs(next[i] - x[i]);
    x = std::move(next);
    if (diff < tolerance) break;
  }
  // Perron vector is non-negative; flip sign if the iteration landed on -v.
  double sum = 0.0;
  for (double v : x) sum += v;
  if (sum < 0.0) linalg::scale(x, -1.0);
  for (double& v : x) v = std::max(v, 0.0);
  return x;
}

std::vector<double> pagerank(const graph::Graph& g, double alpha,
                             std::size_t max_iterations, double tolerance) {
  const std::size_t n = g.num_nodes();
  util::require(n > 0, "pagerank: empty graph");
  util::require(alpha >= 0.0 && alpha < 1.0, "pagerank: alpha must be in [0,1)");

  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n, 0.0);
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    double dangling = 0.0;
    for (std::size_t u = 0; u < n; ++u) {
      const std::size_t deg = g.degree(u);
      if (deg == 0) {
        dangling += rank[u];
        continue;
      }
      const double share = alpha * rank[u] / static_cast<double>(deg);
      for (std::uint32_t v : g.neighbors(u)) next[v] += share;
    }
    const double base =
        (1.0 - alpha) / static_cast<double>(n) +
        alpha * dangling / static_cast<double>(n);
    double diff = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      next[i] += base;
      diff += std::fabs(next[i] - rank[i]);
    }
    std::swap(rank, next);
    if (diff < tolerance) break;
  }
  return rank;
}

std::vector<double> centrality_from_embedding(
    const linalg::DenseMatrix& top_left_singular) {
  util::require(top_left_singular.cols() >= 1,
                "centrality_from_embedding: need at least one column");
  std::vector<double> scores(top_left_singular.rows());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    scores[i] = std::fabs(top_left_singular(i, 0));
  }
  return scores;
}

}  // namespace sgp::ranking
