// Differentially private release of scalar/histogram graph statistics.
//
// The projected-matrix release preserves *spectral* structure; deployments
// usually also want headline statistics (edge count, degree distribution)
// published alongside it. These are classic pure ε-DP Laplace releases under
// the same edge-level neighboring relation, so their budgets compose with
// the matrix release through the accountants in sgp::dp.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "random/rng.hpp"

namespace sgp::core {

/// A scalar release: noisy value plus the Laplace scale used (the scale is
/// public — it depends only on ε and the sensitivity).
struct NoisyScalar {
  double value = 0.0;
  double laplace_scale = 0.0;
};

/// Edge count with Laplace(1/ε) noise (one edge changes the count by 1).
/// ε-DP. The result may be non-integral or negative; clamp if you need a
/// count, but unbiasedness is lost by clamping.
NoisyScalar dp_edge_count(const graph::Graph& g, double epsilon,
                          random::Rng& rng);

/// Average degree derived from dp_edge_count by post-processing (n is
/// public metadata, so no extra budget is consumed beyond the edge count).
NoisyScalar dp_average_degree(const graph::Graph& g, double epsilon,
                              random::Rng& rng);

/// Degree histogram (index d = #nodes with degree d) with Laplace noise.
/// One edge changes the degrees of its two endpoints, moving each between
/// adjacent bins: ℓ1 sensitivity 4, so each bin gets Laplace(4/ε). ε-DP.
/// `max_degree` (≥ 1) fixes the public histogram length max_degree + 1:
/// degrees beyond it are truncated into the last bin. Throws
/// std::invalid_argument for 0, which would leave the length to the graph.
std::vector<double> dp_degree_histogram(const graph::Graph& g, double epsilon,
                                        std::size_t max_degree,
                                        random::Rng& rng);

/// Triangle count under a *promised* degree bound D (public policy, e.g.
/// enforced by the platform): one edge change creates/destroys at most D−1
/// triangles, so the count gets Laplace((D−1)/ε). ε-DP **only for graphs
/// that actually satisfy the bound**; throws std::invalid_argument if the
/// graph violates it (publishing would silently break the guarantee).
NoisyScalar dp_triangle_count(const graph::Graph& g, double epsilon,
                              std::size_t degree_bound, random::Rng& rng);

}  // namespace sgp::core
