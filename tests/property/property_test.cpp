// Property-based sweeps over parameter grids (TEST_P /
// INSTANTIATE_TEST_SUITE_P): invariants that must hold at *every* grid
// point, not just the hand-picked cases of the unit suites.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <tuple>
#include <vector>

#include "cluster/metrics.hpp"
#include "core/serialization.hpp"
#include "core/projection.hpp"
#include "core/publisher.hpp"
#include "core/theory.hpp"
#include "dp/mechanisms.hpp"
#include "graph/generators.hpp"
#include "linalg/vector_ops.hpp"
#include "ranking/metrics.hpp"

namespace sgp {
namespace {

// ---------------------------------------------------------------------------
// Gaussian-mechanism calibration: for every (ε, δ, m) the analytic σ must be
// positive, no looser than the classic bound for ε <= 1, and the sensitivity
// (the bound on the two rows one edge moves) must stay in (√2, √2·s₁], s₁ =
// sqrt(1 + 2√(t/m) + 2t/m) being the one-row bound at the same δ_p.
class CalibrationProperty
    : public testing::TestWithParam<std::tuple<double, double, std::size_t>> {};

TEST_P(CalibrationProperty, SigmaWellFormed) {
  const auto [epsilon, delta, m] = GetParam();
  const dp::PrivacyParams params{epsilon, delta};
  const auto cal = core::calibrate_noise(m, params);
  EXPECT_GT(cal.sigma, 0.0);
  EXPECT_GT(cal.sensitivity, std::sqrt(2.0));
  const double t = std::log(1.0 / cal.delta_projection);
  const double md = static_cast<double>(m);
  const double s1 = std::sqrt(1.0 + 2.0 * std::sqrt(t / md) + 2.0 * t / md);
  EXPECT_LE(cal.sensitivity, std::sqrt(2.0) * s1);
  if (epsilon <= 1.0) {
    const auto classic = core::calibrate_noise(m, params, false);
    EXPECT_LE(cal.sigma, classic.sigma * (1.0 + 1e-9));
  }
}

TEST_P(CalibrationProperty, SigmaMonotoneInEpsilon) {
  const auto [epsilon, delta, m] = GetParam();
  const auto tighter = core::calibrate_noise(m, {epsilon, delta});
  const auto looser = core::calibrate_noise(m, {epsilon * 2.0, delta});
  EXPECT_GT(tighter.sigma, looser.sigma);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CalibrationProperty,
    testing::Combine(testing::Values(0.1, 0.5, 1.0, 2.0, 8.0),
                     testing::Values(1e-7, 1e-5, 1e-3),
                     testing::Values(std::size_t{16}, std::size_t{64},
                                     std::size_t{256})));

// ---------------------------------------------------------------------------
// Projection JL property: for every (m, kind), projecting a fixed sparse
// vector preserves its norm within the JL tolerance (checked at 3 stddevs of
// the chi-square concentration).
class ProjectionProperty
    : public testing::TestWithParam<std::tuple<std::size_t,
                                               core::ProjectionKind>> {};

TEST_P(ProjectionProperty, NormPreservedWithinConcentrationBound) {
  const auto [m, kind] = GetParam();
  const std::size_t n = 600;
  const auto p = core::make_projection_counter(n, m, kind, 42 + m);
  std::vector<double> x(n, 0.0);
  for (std::size_t i = 0; i < 30; ++i) x[i * 20] = 1.0;
  const double true_norm2 = 30.0;
  const auto y = p.transpose_multiply_vector(x);
  const double ratio = linalg::norm2_squared(y) / true_norm2;
  // ‖xP‖²/‖x‖² concentrates around 1 with relative std ≈ sqrt(2/m)
  // (exact for Gaussian; Achlioptas matches the first two moments).
  const double tolerance = 4.5 * std::sqrt(2.0 / static_cast<double>(m));
  EXPECT_NEAR(ratio, 1.0, tolerance);
}

TEST_P(ProjectionProperty, EntriesHaveUnitColumnVariance) {
  const auto [m, kind] = GetParam();
  const auto p = core::make_projection_counter(500, m, kind, 7 + m);
  double sum2 = 0.0;
  for (double v : p.data()) sum2 += v * v;
  const double per_entry = sum2 / static_cast<double>(500 * m);
  EXPECT_NEAR(per_entry * static_cast<double>(m), 1.0, 0.12);
}

// Edge scores and the analyst's Gram are inner products of projected rows,
// so P must preserve ⟨x, y⟩ and not only ‖x‖. For i.i.d. entries with
// E[P²] = 1/m and E[P⁴] = 3/m² (both kinds), ⟨xP, yP⟩ has mean ⟨x, y⟩ and
// variance (‖x‖²‖y‖² + ⟨x, y⟩²)/m; checked at 4.5 standard deviations.
TEST_P(ProjectionProperty, InnerProductsPreservedWithinConcentrationBound) {
  const auto [m, kind] = GetParam();
  const std::size_t n = 600;
  const auto p = core::make_projection_counter(n, m, kind, 42 + m);
  std::vector<double> x(n, 0.0), y(n, 0.0);
  for (std::size_t i = 0; i < 30; ++i) x[i * 20] = 1.0;
  for (std::size_t i = 20; i < 50; ++i) y[i * 10] = 1.0;  // 15 shared nodes
  const double true_dot = linalg::dot(x, y);
  ASSERT_EQ(true_dot, 15.0);
  const double projected_dot = linalg::dot(p.transpose_multiply_vector(x),
                                           p.transpose_multiply_vector(y));
  const double sd =
      std::sqrt((30.0 * 30.0 + true_dot * true_dot) / static_cast<double>(m));
  EXPECT_NEAR(projected_dot, true_dot, 4.5 * sd);
}

// Every tile the publish kernel fills, at any row and column offset (SIMD
// lane tails included), holds exactly the entries of the materialized P.
TEST_P(ProjectionProperty, TileAtRaggedOffsetsMatchesMaterialized) {
  const auto [m, kind] = GetParam();
  const std::size_t n = 97;
  const auto p = core::make_projection_counter(n, m, kind, 5 + m);
  const std::size_t r0 = 13, r1 = 90, c0 = m / 3 + 1, c1 = m - 1;
  std::vector<double> tile((r1 - r0) * (c1 - c0));
  core::fill_projection_tile(core::projection_counter_rng(5 + m), m, kind, r0,
                             r1, c0, c1, tile.data());
  for (std::size_t i = r0; i < r1; ++i) {
    for (std::size_t j = c0; j < c1; ++j) {
      ASSERT_EQ(tile[(i - r0) * (c1 - c0) + (j - c0)], p(i, j))
          << "(" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProjectionProperty,
    testing::Combine(testing::Values(std::size_t{16}, std::size_t{64},
                                     std::size_t{128}, std::size_t{384}),
                     testing::Values(core::ProjectionKind::kGaussian,
                                     core::ProjectionKind::kAchlioptas)));

// ---------------------------------------------------------------------------
// Kendall tau vs brute force across sizes and tie densities.
class KendallProperty
    : public testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(KendallProperty, MatchesBruteForce) {
  const auto [n, tie_levels] = GetParam();
  random::Rng rng(1000 + n * 10 + tie_levels);
  std::vector<double> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    // tie_levels limits distinct values → forces ties when small.
    a[i] = static_cast<double>(rng.next_below(tie_levels));
    b[i] = static_cast<double>(rng.next_below(tie_levels));
  }
  double concordant = 0, discordant = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double prod = (a[i] - a[j]) * (b[i] - b[j]);
      if (prod > 0) ++concordant;
      if (prod < 0) ++discordant;
    }
  }
  const double total =
      static_cast<double>(n) * static_cast<double>(n - 1) / 2.0;
  EXPECT_NEAR(ranking::kendall_tau(a, b), (concordant - discordant) / total,
              1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KendallProperty,
    testing::Combine(testing::Values(std::size_t{2}, std::size_t{5},
                                     std::size_t{23}, std::size_t{64}),
                     testing::Values(2, 5, 1000)));

// ---------------------------------------------------------------------------
// Clustering-metric axioms across partition shapes: identity scores 1,
// metrics are symmetric, and values stay in range.
class ClusterMetricProperty
    : public testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(ClusterMetricProperty, AxiomsHold) {
  const auto [n, k] = GetParam();
  random::Rng rng(99 + n + k);
  std::vector<std::uint32_t> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<std::uint32_t>(rng.next_below(k));
    b[i] = static_cast<std::uint32_t>(rng.next_below(k));
  }
  // Identity.
  EXPECT_NEAR(cluster::normalized_mutual_information(a, a), 1.0, 1e-9);
  EXPECT_NEAR(cluster::adjusted_rand_index(a, a), 1.0, 1e-9);
  // Symmetry.
  EXPECT_NEAR(cluster::normalized_mutual_information(a, b),
              cluster::normalized_mutual_information(b, a), 1e-12);
  EXPECT_NEAR(cluster::adjusted_rand_index(a, b),
              cluster::adjusted_rand_index(b, a), 1e-12);
  // Ranges.
  const double nmi = cluster::normalized_mutual_information(a, b);
  EXPECT_GE(nmi, 0.0);
  EXPECT_LE(nmi, 1.0);
  const double pur = cluster::purity(a, b);
  EXPECT_GT(pur, 0.0);
  EXPECT_LE(pur, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ClusterMetricProperty,
    testing::Combine(testing::Values(std::size_t{1}, std::size_t{17},
                                     std::size_t{200}),
                     testing::Values(std::size_t{1}, std::size_t{3},
                                     std::size_t{12})));

// ---------------------------------------------------------------------------
// Publisher invariants at every (kind, calibration, ε): deterministic,
// correctly shaped, positively calibrated. (Empirical σ verification lives
// in PublisherTest.NoiseMagnitudeMatchesCalibration.)
class PublisherProperty
    : public testing::TestWithParam<
          std::tuple<core::ProjectionKind, bool, double>> {};

TEST_P(PublisherProperty, ReleaseInvariantsHold) {
  const auto [kind, analytic, epsilon] = GetParam();
  random::Rng rng(5);
  const auto g = graph::erdos_renyi(250, 0.05, rng);

  core::RandomProjectionPublisher::Options opt;
  opt.projection_dim = 40;
  opt.params = {epsilon, 1e-6};
  opt.projection = kind;
  opt.analytic_calibration = analytic;
  opt.seed = 77;
  const core::RandomProjectionPublisher publisher(opt);
  const auto pub1 = publisher.publish(g);
  const auto pub2 = publisher.publish(g);
  EXPECT_EQ(pub1.data, pub2.data);
  EXPECT_EQ(pub1.data.rows(), 250u);
  EXPECT_EQ(pub1.data.cols(), 40u);
  EXPECT_GT(pub1.calibration.sigma, 0.0);
  EXPECT_EQ(pub1.projection, kind);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PublisherProperty,
    testing::Combine(testing::Values(core::ProjectionKind::kGaussian,
                                     core::ProjectionKind::kAchlioptas),
                     testing::Bool(), testing::Values(0.5, 2.0, 10.0)));

// ---------------------------------------------------------------------------
// Serialization round trip across every (kind, m, ε) configuration.
class SerializationProperty
    : public testing::TestWithParam<
          std::tuple<core::ProjectionKind, std::size_t, double>> {};

TEST_P(SerializationProperty, RoundTripIsExact) {
  const auto [kind, m, epsilon] = GetParam();
  random::Rng rng(3);
  const auto g = graph::erdos_renyi(80, 0.1, rng);
  core::RandomProjectionPublisher::Options opt;
  opt.projection_dim = m;
  opt.params = {epsilon, 1e-6};
  opt.projection = kind;
  opt.seed = 5;
  const auto original = core::RandomProjectionPublisher(opt).publish(g);

  std::stringstream buffer;
  core::save_published(original, buffer);
  const auto loaded = core::load_published(buffer);
  EXPECT_EQ(loaded.data, original.data);
  EXPECT_DOUBLE_EQ(loaded.calibration.sigma, original.calibration.sigma);
  EXPECT_EQ(loaded.projection, original.projection);

  // Streaming path must be byte-identical too.
  std::stringstream streamed;
  core::publish_to_stream(g, opt, streamed);
  std::stringstream reference;
  core::save_published(original, reference);
  EXPECT_EQ(streamed.str(), reference.str());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SerializationProperty,
    testing::Combine(testing::Values(core::ProjectionKind::kGaussian,
                                     core::ProjectionKind::kAchlioptas),
                     testing::Values(std::size_t{1}, std::size_t{16},
                                     std::size_t{64}),
                     testing::Values(0.5, 4.0)));

// ---------------------------------------------------------------------------
// Generator sanity across the (p_in, p_out) grid: planted labels align with
// density structure whenever p_in > p_out.
class SbmProperty
    : public testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(SbmProperty, WithinDensityDominatesWhenAssortative) {
  const auto [p_in, p_out] = GetParam();
  random::Rng rng(123);
  const auto pg = graph::stochastic_block_model({80, 80}, p_in, p_out, rng);
  double within = 0, cross = 0;
  for (const auto& e : pg.graph.edges()) {
    (pg.labels[e.u] == pg.labels[e.v] ? within : cross) += 1;
  }
  // Normalize by pair counts: 2*C(80,2) within pairs vs 6400 cross pairs.
  const double within_density = within / (2.0 * 80 * 79 / 2.0);
  const double cross_density = cross / 6400.0;
  if (p_in > 2.0 * p_out + 0.02) {
    EXPECT_GT(within_density, cross_density);
  }
  EXPECT_NEAR(within_density, p_in, 5.0 * std::sqrt(p_in / 6320.0) + 0.01);
  EXPECT_NEAR(cross_density, p_out, 5.0 * std::sqrt(p_out / 6400.0) + 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SbmProperty,
    testing::Combine(testing::Values(0.05, 0.2, 0.5),
                     testing::Values(0.0, 0.01, 0.05)));

}  // namespace
}  // namespace sgp
