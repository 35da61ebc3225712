#include "core/stats_publisher.hpp"

#include <algorithm>

#include "dp/mechanisms.hpp"
#include "graph/metrics.hpp"
#include "random/distributions.hpp"
#include "util/check.hpp"

namespace sgp::core {

NoisyScalar dp_edge_count(const graph::Graph& g, double epsilon,
                          random::Rng& rng) {
  const double scale = dp::laplace_scale(1.0, epsilon);
  NoisyScalar out;
  out.laplace_scale = scale;
  out.value =
      static_cast<double>(g.num_edges()) + random::laplace(rng, 0.0, scale);
  return out;
}

NoisyScalar dp_average_degree(const graph::Graph& g, double epsilon,
                              random::Rng& rng) {
  util::require(g.num_nodes() > 0, "dp_average_degree: empty graph");
  const NoisyScalar edges = dp_edge_count(g, epsilon, rng);
  NoisyScalar out;
  out.laplace_scale = edges.laplace_scale;
  out.value = 2.0 * edges.value / static_cast<double>(g.num_nodes());
  return out;
}

std::vector<double> dp_degree_histogram(const graph::Graph& g, double epsilon,
                                        std::size_t max_degree,
                                        random::Rng& rng) {
  util::require(epsilon > 0.0, "dp_degree_histogram: epsilon must be > 0");
  // The length stays public only while the caller fixes it, and its
  // max_degree + 1 bins must fit a vector without wrapping.
  std::vector<double> hist;
  util::require(max_degree >= 1 && max_degree < hist.max_size(),
                "dp_degree_histogram: max_degree must be >= 1 and below the "
                "vector size limit");
  hist.assign(max_degree + 1, 0.0);
  const auto exact = graph::degree_histogram(g);
  for (std::size_t d = 0; d < exact.size(); ++d) {
    const std::size_t bin = std::min(d, max_degree);  // truncate into last bin
    hist[bin] += static_cast<double>(exact[d]);
  }
  const double scale = dp::laplace_scale(4.0, epsilon);
  for (double& v : hist) v += random::laplace(rng, 0.0, scale);
  return hist;
}

NoisyScalar dp_triangle_count(const graph::Graph& g, double epsilon,
                              std::size_t degree_bound, random::Rng& rng) {
  util::require(degree_bound >= 2, "dp_triangle_count: degree bound must be >= 2");
  for (std::size_t u = 0; u < g.num_nodes(); ++u) {
    util::require(g.degree(u) <= degree_bound,
                  "dp_triangle_count: graph violates the promised degree "
                  "bound; the DP guarantee would not hold");
  }
  const double sensitivity = static_cast<double>(degree_bound - 1);
  const double scale = dp::laplace_scale(sensitivity, epsilon);
  NoisyScalar out;
  out.laplace_scale = scale;
  out.value = static_cast<double>(graph::triangle_count(g)) +
              random::laplace(rng, 0.0, scale);
  return out;
}

}  // namespace sgp::core
