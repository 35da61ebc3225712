#include "linalg/svd.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "linalg/eigen_sym.hpp"
#include "random/distributions.hpp"
#include "random/rng.hpp"

namespace sgp::linalg {
namespace {

DenseMatrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  random::Rng rng(seed);
  DenseMatrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = random::normal(rng);
  }
  return m;
}

/// `cols` orthonormal columns of length `rows`: the top eigenvectors of a
/// random Gram matrix.
DenseMatrix orthonormal_columns(std::size_t rows, std::size_t cols,
                                std::uint64_t seed) {
  return symmetric_eigen(random_matrix(rows, rows, seed).gram())
      .vectors.first_columns(cols);
}

/// Builds a rows×cols matrix with prescribed singular values.
DenseMatrix with_spectrum(std::size_t rows, std::size_t cols,
                          const std::vector<double>& sigma,
                          std::uint64_t seed) {
  const auto u = orthonormal_columns(rows, sigma.size(), seed);
  const auto v = orthonormal_columns(cols, sigma.size(), seed + 1);
  DenseMatrix scaled = u;
  for (std::size_t j = 0; j < sigma.size(); ++j) {
    for (std::size_t i = 0; i < rows; ++i) scaled(i, j) *= sigma[j];
  }
  return scaled.multiply(v.transposed());
}

TEST(SvdGramTest, RecoversKnownSpectrum) {
  const std::vector<double> sigma{9.0, 4.0, 1.0};
  const auto a = with_spectrum(40, 10, sigma, 1);
  const auto svd = svd_gram(a, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(svd.singular_values[i], sigma[i], 1e-8) << i;
  }
}

// with_spectrum(rows, cols, σ, seed) plants U = orthonormal_columns(rows,
// k, seed) and V = orthonormal_columns(cols, k, seed + 1); with distinct σ
// the singular vectors are those columns up to sign.
TEST(SvdGramTest, LeftVectorsAlignWithPlantedBasis) {
  const auto a = with_spectrum(80, 30, {8.0, 4.0, 2.0}, 9);
  const auto planted = orthonormal_columns(80, 3, 9);
  const auto svd = svd_gram(a, 3);
  for (std::size_t j = 0; j < 3; ++j) {
    double d = 0.0;
    for (std::size_t i = 0; i < 80; ++i) d += planted(i, j) * svd.u(i, j);
    EXPECT_NEAR(std::fabs(d), 1.0, 1e-10) << "column " << j;
  }
}

TEST(SvdGramTest, RightVectorsAlignWithPlantedBasis) {
  const auto a = with_spectrum(80, 30, {8.0, 4.0, 2.0}, 9);
  const auto planted = orthonormal_columns(30, 3, 10);
  const auto svd = svd_gram(a, 3);
  for (std::size_t j = 0; j < 3; ++j) {
    double d = 0.0;
    for (std::size_t i = 0; i < 30; ++i) d += planted(i, j) * svd.v(i, j);
    EXPECT_NEAR(std::fabs(d), 1.0, 1e-10) << "column " << j;
  }
}

TEST(SvdGramTest, FullRankReconstruction) {
  const auto a = random_matrix(20, 6, 2);
  const auto svd = svd_gram(a, 6);
  // A = U Σ Vᵀ.
  DenseMatrix us = svd.u;
  for (std::size_t j = 0; j < 6; ++j) {
    for (std::size_t i = 0; i < 20; ++i) us(i, j) *= svd.singular_values[j];
  }
  const auto recon = us.multiply(svd.v.transposed());
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      ASSERT_NEAR(recon(i, j), a(i, j), 1e-8);
    }
  }
}

TEST(SvdGramTest, SingularVectorsOrthonormal) {
  const auto a = random_matrix(30, 8, 3);
  const auto svd = svd_gram(a, 5);
  const auto gu = svd.u.gram();
  const auto gv = svd.v.gram();
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(gu(i, j), i == j ? 1.0 : 0.0, 1e-8);
      EXPECT_NEAR(gv(i, j), i == j ? 1.0 : 0.0, 1e-8);
    }
  }
}

TEST(SvdGramTest, SingularValuesDescendingNonNegative) {
  const auto a = random_matrix(25, 7, 4);
  const auto svd = svd_gram(a, 7);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_GE(svd.singular_values[i], 0.0);
    if (i > 0) {
      EXPECT_LE(svd.singular_values[i], svd.singular_values[i - 1]);
    }
  }
}

TEST(SvdGramTest, RankDeficientYieldsZeroSigma) {
  // Rank-2 matrix asked for 4 factors.
  const auto a = with_spectrum(20, 8, {5.0, 2.0}, 5);
  const auto svd = svd_gram(a, 4);
  EXPECT_NEAR(svd.singular_values[0], 5.0, 1e-8);
  EXPECT_NEAR(svd.singular_values[1], 2.0, 1e-8);
  EXPECT_NEAR(svd.singular_values[2], 0.0, 1e-6);
  EXPECT_NEAR(svd.singular_values[3], 0.0, 1e-6);
}

/// U's column j is A·v_j scaled by 1/σ_j, bit for bit as multiply_vector
/// computes it, or exactly zero where σ_j ≤ 1e-12·σ_0.
void expect_u_from_v(const DenseMatrix& a, const SvdResult& svd) {
  const double s0 = svd.singular_values[0];
  for (std::size_t j = 0; j < svd.u.cols(); ++j) {
    const double s = svd.singular_values[j];
    const bool zeroed = !(s > 1e-12 * (s0 + 1e-300));
    const auto av = a.multiply_vector(svd.v.column(j));
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const double want = zeroed ? 0.0 : av[i] * (1.0 / s);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(svd.u(i, j)),
                std::bit_cast<std::uint64_t>(want))
          << "U(" << i << ", " << j << ")";
    }
  }
}

TEST(SvdGramTest, LeftVectorsAreOnePassOfMultiplyVector) {
  const auto a = random_matrix(3000, 24, 13);
  expect_u_from_v(a, svd_gram(a, 8));
}

TEST(SvdGramTest, RankDeficientLeavesExactZeroColumns) {
  // The last two of five columns are exactly zero, so the Gram is block
  // diagonal with an exact zero block, and σ_3 = σ_4 = 0.
  DenseMatrix a = random_matrix(200, 5, 14);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    a(i, 3) = 0.0;
    a(i, 4) = 0.0;
  }
  const auto svd = svd_gram(a, 5);
  EXPECT_EQ(svd.singular_values[3], 0.0);
  EXPECT_EQ(svd.singular_values[4], 0.0);
  expect_u_from_v(a, svd);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(svd.u(i, 3)), 0U);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(svd.u(i, 4)), 0U);
  }
}

TEST(SvdGramTest, InvalidKThrows) {
  const auto a = random_matrix(5, 3, 6);
  EXPECT_THROW(svd_gram(a, 0), std::invalid_argument);
  EXPECT_THROW(svd_gram(a, 4), std::invalid_argument);
}

TEST(SvdGramTest, FrobeniusIdentity) {
  // ‖A‖F² = Σ σᵢ².
  const auto a = random_matrix(15, 5, 7);
  const auto svd = svd_gram(a, 5);
  double sum = 0;
  for (double s : svd.singular_values) sum += s * s;
  EXPECT_NEAR(sum, a.frobenius_norm() * a.frobenius_norm(), 1e-8);
}

}  // namespace
}  // namespace sgp::linalg
