#include "core/reconstruction.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/vector_ops.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"

namespace sgp::core {

linalg::DenseMatrix regenerate_projection(const PublishedGraph& published,
                                          std::uint64_t publisher_seed) {
  // Must mirror the publisher that produced the release: P[i][j] is a pure
  // function of (seed, i·m+j), and projection_rng records which normal
  // mapping drew it.
  switch (published.projection_rng) {
    case ProjectionRngKind::kCounterV1:
      // Scalar libm mapping, regardless of environment overrides: the tag
      // pins the bytes.
      return make_projection_counter(
          published.num_nodes, published.projection_dim, published.projection,
          publisher_seed, random::KernelVariant::kScalar);
    case ProjectionRngKind::kCounterV1Simd:
      // Polynomial mapping. ISA-independent, so pick the fastest variant
      // supported here — the always-compiled generic kernel guarantees this
      // regenerates on machines without AVX.
      return make_projection_counter(
          published.num_nodes, published.projection_dim, published.projection,
          publisher_seed, random::best_polynomial_kernel());
  }
  throw util::InternalError("regenerate_projection: unknown projection_rng");
}

double edge_score(const PublishedGraph& published,
                  const linalg::DenseMatrix& projection, std::size_t u,
                  std::size_t v) {
  util::require(u < published.num_nodes && v < published.num_nodes,
                "edge_score: node out of range");
  util::require(projection.rows() == published.num_nodes &&
                    projection.cols() == published.projection_dim,
                "edge_score: projection shape mismatch");
  return linalg::dot(published.data.row(u), projection.row(v));
}

std::vector<double> edge_scores(
    const PublishedGraph& published, const linalg::DenseMatrix& projection,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs) {
  std::vector<double> scores;
  scores.reserve(pairs.size());
  for (const auto& [u, v] : pairs) {
    scores.push_back(edge_score(published, projection, u, v));
  }
  return scores;
}

double estimate_edge_count(const PublishedGraph& published) {
  const double sigma = published.calibration.sigma;
  const double bias = static_cast<double>(published.projection_dim) * sigma *
                      sigma * static_cast<double>(published.num_nodes);
  double total = 0.0;
  for (std::size_t i = 0; i < published.data.rows(); ++i) {
    total += linalg::norm2_squared(published.data.row(i));
  }
  return (total - bias) / 2.0;
}

std::vector<std::size_t> estimate_degree_histogram(
    const PublishedGraph& published, double bin_width, std::size_t num_bins) {
  util::require(bin_width > 0.0, "degree histogram: bin width must be > 0");
  util::require(num_bins >= 1, "degree histogram: need at least one bin");
  const double noise_bias = static_cast<double>(published.projection_dim) *
                            published.calibration.sigma *
                            published.calibration.sigma;
  std::vector<std::size_t> hist(num_bins, 0);
  for (std::size_t i = 0; i < published.data.rows(); ++i) {
    const double estimate =
        linalg::norm2_squared(published.data.row(i)) - noise_bias;
    const double clamped = std::max(estimate, 0.0);
    const auto bin = std::min<std::size_t>(
        num_bins - 1, static_cast<std::size_t>(clamped / bin_width));
    ++hist[bin];
  }
  return hist;
}

}  // namespace sgp::core
