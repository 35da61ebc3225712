#include "graph/laplacian.hpp"

#include <cmath>

namespace sgp::graph {

linalg::CsrMatrix normalized_adjacency_matrix(const Graph& g) {
  const std::size_t n = g.num_nodes();
  std::vector<double> inv_sqrt_degree(n, 0.0);
  for (std::size_t u = 0; u < n; ++u) {
    const auto d = static_cast<double>(g.degree(u));
    if (d > 0.0) inv_sqrt_degree[u] = 1.0 / std::sqrt(d);
  }
  std::vector<linalg::Triplet> trips;
  trips.reserve(2 * g.num_edges());
  for (std::size_t u = 0; u < n; ++u) {
    for (std::uint32_t v : g.neighbors(u)) {
      trips.push_back({static_cast<std::uint32_t>(u), v,
                       inv_sqrt_degree[u] * inv_sqrt_degree[v]});
    }
  }
  return linalg::CsrMatrix::from_triplets(n, n, std::move(trips));
}

}  // namespace sgp::graph
