#include "core/projection.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "linalg/vector_ops.hpp"
#include "util/errors.hpp"
#include "util/thread_pool.hpp"

namespace sgp::core {
namespace {

TEST(ProjectionTest, GaussianRowNormsConcentrateAroundOne) {
  const auto p =
      make_projection_counter(200, 128, ProjectionKind::kGaussian, 2);
  for (std::size_t i = 0; i < p.rows(); ++i) {
    const double nrm = linalg::norm2(p.row(i));
    ASSERT_GT(nrm, 0.6) << "row " << i;
    ASSERT_LT(nrm, 1.5) << "row " << i;
  }
}

TEST(ProjectionTest, PreservesNormsApproximately) {
  // JL property: ‖xP‖ ≈ ‖x‖ for a fixed sparse row x.
  const std::size_t n = 1000, m = 256;
  for (ProjectionKind kind :
       {ProjectionKind::kGaussian, ProjectionKind::kAchlioptas}) {
    const auto p = make_projection_counter(n, m, kind, 5);
    std::vector<double> x(n, 0.0);
    for (std::size_t i = 0; i < 40; ++i) x[i * 25] = 1.0;  // ‖x‖ = √40
    const auto y = p.transpose_multiply_vector(x);
    EXPECT_NEAR(linalg::norm2(y), std::sqrt(40.0), 1.2)
        << to_string(kind);
  }
}

TEST(ProjectionTest, ToStringNames) {
  EXPECT_EQ(to_string(ProjectionKind::kGaussian), "gaussian");
  EXPECT_EQ(to_string(ProjectionKind::kAchlioptas), "achlioptas");
}

// parse_projection_kind is the one parse of these names, shared by the
// CLI, its workers and the release loader: a typo is an error, never the
// gaussian default.
TEST(ProjectionTest, ParseIsTheInverseOfToString) {
  for (ProjectionKind kind :
       {ProjectionKind::kGaussian, ProjectionKind::kAchlioptas}) {
    EXPECT_EQ(parse_projection_kind(to_string(kind)), kind);
  }
  for (const char* bad : {"foo", "achliptas", "Gaussian", ""}) {
    EXPECT_THROW((void)parse_projection_kind(bad), util::PreconditionError)
        << bad;
  }
}

TEST(ProjectionTest, UnknownKindIsInternalError) {
  EXPECT_THROW(
      make_projection_counter(4, 2, static_cast<ProjectionKind>(99), 1),
      util::InternalError);
}

// The publish kernel reuses one tile buffer per thread, so a tile fill
// must write every entry, the achlioptas zeros included: stale values in
// the buffer must never survive into P.
TEST(ProjectionTest, AchlioptasTileWritesItsZeros) {
  const std::size_t n = 17, m = 13;
  const auto p = make_projection_counter(n, m, ProjectionKind::kAchlioptas, 3);
  std::vector<double> tile(n * m, std::nan(""));
  fill_projection_tile(projection_counter_rng(3), m,
                       ProjectionKind::kAchlioptas, 0, n, 0, m, tile.data());
  for (std::size_t i = 0; i < n * m; ++i) {
    ASSERT_EQ(tile[i], p.data()[i]) << i;
  }
}

TEST(ProjectionTest, AchlioptasFrequenciesMatchOneSixthSplit) {
  const std::size_t n = 600, m = 100;
  const auto p =
      make_projection_counter(n, m, ProjectionKind::kAchlioptas, 11);
  const double mag = std::sqrt(3.0 / m);
  std::size_t plus = 0, minus = 0, zero = 0;
  for (double v : p.data()) {
    if (v == 0.0) {
      ++zero;
    } else if (std::fabs(v - mag) < 1e-12) {
      ++plus;
    } else {
      ASSERT_NEAR(v, -mag, 1e-12);
      ++minus;
    }
  }
  const double total = static_cast<double>(n * m);
  EXPECT_NEAR(static_cast<double>(plus) / total, 1.0 / 6.0, 0.01);
  EXPECT_NEAR(static_cast<double>(minus) / total, 1.0 / 6.0, 0.01);
  EXPECT_NEAR(static_cast<double>(zero) / total, 2.0 / 3.0, 0.01);
}

// --- counter-based projection ---------------------------------------------

TEST(CounterProjectionTest, MatchesTileFillOnFullRange) {
  const std::size_t n = 60, m = 33;
  for (ProjectionKind kind :
       {ProjectionKind::kGaussian, ProjectionKind::kAchlioptas}) {
    const auto p = make_projection_counter(n, m, kind, 42);
    const random::CounterRng rng = projection_counter_rng(42);
    // Any sub-tile must reproduce the same entries bit-for-bit.
    std::vector<double> tile(20 * 7);
    fill_projection_tile(rng, m, kind, 30, 50, 5, 12, tile.data());
    for (std::size_t i = 0; i < 20; ++i) {
      for (std::size_t j = 0; j < 7; ++j) {
        ASSERT_EQ(tile[i * 7 + j], p(30 + i, 5 + j))
            << to_string(kind) << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(CounterProjectionTest, BitIdenticalAcrossThreadCounts) {
  // Generate the same projection through pools of 1, 2, and 8 workers by
  // tiling it with parallel_for; every tiling must agree bit-for-bit
  // because each entry is a pure function of (seed, i·m + j).
  const std::size_t n = 128, m = 48;
  const random::CounterRng rng = projection_counter_rng(7);
  const auto reference = make_projection_counter(n, m,
                                                 ProjectionKind::kGaussian, 7);
  for (std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    linalg::DenseMatrix p(n, m);
    util::parallel_for(
        pool, 0, n,
        [&](std::size_t lo, std::size_t hi) {
          fill_projection_tile(rng, m, ProjectionKind::kGaussian, lo, hi, 0, m,
                               p.row(lo).data());
        },
        8);
    ASSERT_EQ(p, reference) << threads << " threads";
  }
}

TEST(CounterProjectionTest, GaussianStatisticsHold) {
  const std::size_t n = 400, m = 100;
  const auto p = make_projection_counter(n, m, ProjectionKind::kGaussian, 3);
  double sum2 = 0;
  for (double v : p.data()) sum2 += v * v;
  EXPECT_NEAR(sum2 / static_cast<double>(n * m), 1.0 / m, 0.1 / m);
}

TEST(CounterProjectionTest, AchlioptasStatisticsHold) {
  const std::size_t n = 400, m = 100;
  const auto p = make_projection_counter(n, m, ProjectionKind::kAchlioptas, 3);
  const double mag = std::sqrt(3.0 / m);
  std::size_t zeros = 0;
  for (double v : p.data()) {
    ASSERT_TRUE(v == 0.0 || std::fabs(std::fabs(v) - mag) < 1e-12);
    if (v == 0.0) ++zeros;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / static_cast<double>(n * m),
              2.0 / 3.0, 0.02);
}

TEST(CounterProjectionTest, SeedAndStreamSeparateGenerators) {
  EXPECT_EQ(projection_counter_rng(5), projection_counter_rng(5));
  EXPECT_NE(projection_counter_rng(5), projection_counter_rng(6));
  EXPECT_NE(projection_counter_rng(5), noise_counter_rng(5));
}

TEST(CounterProjectionTest, TileBoundsValidated) {
  const random::CounterRng rng = projection_counter_rng(1);
  std::vector<double> tile(16);
  EXPECT_THROW(
      fill_projection_tile(rng, 4, ProjectionKind::kGaussian, 0, 2, 3, 5,
                           tile.data()),
      std::invalid_argument);
  EXPECT_THROW(make_projection_counter(0, 4, ProjectionKind::kGaussian, 1),
               std::invalid_argument);
  EXPECT_THROW(make_projection_counter(5, 0, ProjectionKind::kAchlioptas, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace sgp::core
