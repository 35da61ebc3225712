#include "core/theory.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/projection.hpp"
#include "linalg/vector_ops.hpp"

namespace sgp::core {
namespace {

TEST(SensitivityTest, TighterDeltaMeansLargerBound) {
  EXPECT_GT(projected_pair_sensitivity(100, 1e-9),
            projected_pair_sensitivity(100, 1e-3));
}

TEST(SensitivityTest, BoundActuallyHoldsEmpirically) {
  // One edge moves two rows of Y = A·P, by P_u and P_v. Draw many pairs of
  // projection rows; sqrt(‖P_u‖² + ‖P_v‖²) should exceed the pair bound at
  // δ_p at rate ≤ δ_p — with δ_p = 0.01 and 2000 trials we allow a small
  // margin. The one-row bound sqrt(1 + 2√(t/m) + 2t/m), which calibration
  // used to take, is exceeded by most pairs. Each trial draws its pair from
  // the release generator under its own seed.
  const std::size_t m = 64;
  const double bound = projected_pair_sensitivity(m, 0.01);
  const double tail = std::log(1.0 / 0.01) / static_cast<double>(m);
  const double row_bound = std::sqrt(1.0 + 2.0 * std::sqrt(tail) + 2.0 * tail);
  int violations = 0;
  int row_bound_violations = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    const auto p = make_projection_counter(2, m, ProjectionKind::kGaussian,
                                           static_cast<std::uint64_t>(t));
    const double nu = linalg::norm2(p.row(0));
    const double nv = linalg::norm2(p.row(1));
    const double change = std::sqrt(nu * nu + nv * nv);
    if (change > bound) ++violations;
    if (change > row_bound) ++row_bound_violations;
  }
  EXPECT_LE(violations, 40);  // 0.01 * 2000 = 20 expected at most; 2x slack
  EXPECT_GT(row_bound_violations, trials / 2);
}

TEST(SensitivityTest, PairBoundDecreasesTowardSqrtTwo) {
  const double delta_p = 5e-7;
  const double s16 = projected_pair_sensitivity(16, delta_p);
  const double s128 = projected_pair_sensitivity(128, delta_p);
  const double s4096 = projected_pair_sensitivity(4096, delta_p);
  EXPECT_GT(s16, s128);
  EXPECT_GT(s128, s4096);
  EXPECT_GT(s4096, std::sqrt(2.0));
  EXPECT_NEAR(s128, 1.783, 5e-4);  // m = 128, δ = 1e-6 split half/half
}

TEST(CalibrationTest, CalibratesToThePairBound) {
  const auto cal = calibrate_noise(128, {1.0, 1e-6});
  EXPECT_DOUBLE_EQ(cal.sensitivity,
                   projected_pair_sensitivity(128, cal.delta_projection));
}

TEST(SensitivityTest, DenseIsSqrtTwo) {
  EXPECT_DOUBLE_EQ(dense_row_sensitivity(), std::sqrt(2.0));
}

TEST(SensitivityTest, InvalidArgsThrow) {
  EXPECT_THROW(projected_pair_sensitivity(0, 0.1), std::invalid_argument);
  EXPECT_THROW(projected_pair_sensitivity(10, 0.0), std::invalid_argument);
  EXPECT_THROW(projected_pair_sensitivity(10, 1.0), std::invalid_argument);
}

TEST(CalibrationTest, SplitsDelta) {
  const dp::PrivacyParams params{1.0, 1e-5};
  const auto cal = calibrate_noise(100, params);
  EXPECT_NEAR(cal.delta_projection, 5e-6, 1e-12);
  EXPECT_NEAR(cal.delta_gaussian, 5e-6, 1e-12);
  EXPECT_GT(cal.sigma, 0.0);
  EXPECT_GT(cal.sensitivity, 1.0);
}

TEST(CalibrationTest, SigmaShrinksWithEpsilon) {
  const auto lo = calibrate_noise(100, {0.5, 1e-6});
  const auto hi = calibrate_noise(100, {2.0, 1e-6});
  EXPECT_GT(lo.sigma, hi.sigma);
}

TEST(CalibrationTest, NoiseIsSmallClaimHolds) {
  // The headline claim: at ε = 1, δ = 1e-6 the per-entry noise σ is a small
  // constant (≈ sqrt(2 ln 1e6)) regardless of graph size n — it depends only
  // on m through the vanishing sensitivity correction.
  const auto cal = calibrate_noise(200, {1.0, 1e-6});
  EXPECT_LT(cal.sigma, 8.0);
  // And the dense mechanism at the same budget needs comparable σ per cell
  // but over n²/m times more cells.
}

TEST(CalibrationTest, AnalyticNoLooserThanClassic) {
  const dp::PrivacyParams params{0.5, 1e-6};
  const auto analytic = calibrate_noise(100, params, true);
  const auto classic = calibrate_noise(100, params, false);
  EXPECT_LE(analytic.sigma, classic.sigma + 1e-12);
}

TEST(CalibrationTest, CustomDeltaSplit) {
  const dp::PrivacyParams params{1.0, 1e-5};
  const auto cal = calibrate_noise(100, params, true, 0.1);
  EXPECT_NEAR(cal.delta_projection, 1e-6, 1e-15);
  EXPECT_NEAR(cal.delta_gaussian, 9e-6, 1e-15);
}

TEST(CalibrationTest, InvalidSplitThrows) {
  EXPECT_THROW(calibrate_noise(100, {1.0, 1e-5}, true, 0.0),
               std::invalid_argument);
  EXPECT_THROW(calibrate_noise(100, {1.0, 1e-5}, true, 1.0),
               std::invalid_argument);
}

TEST(JlDimTest, Formula) {
  const std::size_t m = johnson_lindenstrauss_dim(10000, 0.5);
  const double denom = 0.25 / 2.0 - 0.125 / 3.0;
  EXPECT_EQ(m, static_cast<std::size_t>(
                   std::ceil(4.0 * std::log(10000.0) / denom)));
}

TEST(JlDimTest, MonotoneInPointsAndDistortion) {
  EXPECT_GT(johnson_lindenstrauss_dim(100000, 0.3),
            johnson_lindenstrauss_dim(1000, 0.3));
  EXPECT_GT(johnson_lindenstrauss_dim(1000, 0.1),
            johnson_lindenstrauss_dim(1000, 0.5));
}

TEST(JlDimTest, InvalidArgsThrow) {
  EXPECT_THROW(johnson_lindenstrauss_dim(1, 0.5), std::invalid_argument);
  EXPECT_THROW(johnson_lindenstrauss_dim(100, 0.0), std::invalid_argument);
  EXPECT_THROW(johnson_lindenstrauss_dim(100, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace sgp::core
