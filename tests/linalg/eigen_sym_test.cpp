#include "linalg/eigen_sym.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "random/distributions.hpp"
#include "random/rng.hpp"
#include "reference_linalg.hpp"

namespace sgp::linalg {
namespace {

DenseMatrix random_symmetric(std::size_t n, std::uint64_t seed) {
  random::Rng rng(seed);
  DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = random::normal(rng);
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

void expect_eigen_valid(const DenseMatrix& a, const EigenResult& res,
                        double tol = 1e-8) {
  const std::size_t n = a.rows();
  ASSERT_EQ(res.values.size(), n);
  for (std::size_t j = 0; j < n; ++j) {
    const auto v = res.vectors.column(j);
    const auto av = a.multiply_vector(v);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(av[i], res.values[j] * v[i], tol)
          << "eigenpair " << j << " row " << i;
    }
  }
  // Orthonormality of eigenvectors.
  const auto gram = res.vectors.gram();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_NEAR(gram(i, j), i == j ? 1.0 : 0.0, tol);
    }
  }
}

TEST(SymmetricEigenTest, DiagonalMatrix) {
  DenseMatrix a(3, 3);
  a(0, 0) = 3;
  a(1, 1) = -1;
  a(2, 2) = 2;
  const auto res = symmetric_eigen(a);
  EXPECT_DOUBLE_EQ(res.values[0], 3);
  EXPECT_DOUBLE_EQ(res.values[1], 2);
  EXPECT_DOUBLE_EQ(res.values[2], -1);
}

TEST(SymmetricEigenTest, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  DenseMatrix a(2, 2, {2, 1, 1, 2});
  const auto res = symmetric_eigen(a);
  EXPECT_NEAR(res.values[0], 3.0, 1e-12);
  EXPECT_NEAR(res.values[1], 1.0, 1e-12);
  expect_eigen_valid(a, res, 1e-12);
}

TEST(SymmetricEigenTest, RandomSymmetricSatisfiesDefinition) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const auto a = random_symmetric(12, seed);
    const auto res = symmetric_eigen(a);
    expect_eigen_valid(a, res);
    EXPECT_TRUE(std::is_sorted(res.values.begin(), res.values.end(),
                               std::greater<double>()));
  }
}

TEST(SymmetricEigenTest, TraceEqualsEigenvalueSum) {
  const auto a = random_symmetric(15, 9);
  const auto res = symmetric_eigen(a);
  double trace = 0, sum = 0;
  for (std::size_t i = 0; i < 15; ++i) {
    trace += a(i, i);
    sum += res.values[i];
  }
  EXPECT_NEAR(trace, sum, 1e-9);
}

TEST(SymmetricEigenTest, MagnitudeOrdering) {
  DenseMatrix a(2, 2);
  a(0, 0) = -5;
  a(1, 1) = 3;
  const auto res = symmetric_eigen(a, EigenOrder::kDescendingMagnitude);
  EXPECT_DOUBLE_EQ(res.values[0], -5);
  EXPECT_DOUBLE_EQ(res.values[1], 3);
}

TEST(SymmetricEigenTest, AsymmetricInputThrows) {
  DenseMatrix a(2, 2, {1, 2, 3, 4});
  EXPECT_THROW(symmetric_eigen(a), std::invalid_argument);
}

TEST(SymmetricEigenTest, NonSquareThrows) {
  DenseMatrix a(2, 3);
  EXPECT_THROW(symmetric_eigen(a), std::invalid_argument);
}

TEST(SymmetricEigenTest, OneByOne) {
  DenseMatrix a(1, 1, {7.0});
  const auto res = symmetric_eigen(a);
  EXPECT_DOUBLE_EQ(res.values[0], 7.0);
  EXPECT_DOUBLE_EQ(res.vectors(0, 0), 1.0);
}

TEST(SymmetricEigenTest, AlreadyTridiagonalMatchesTridiagonalSolver) {
  // The Householder reduction leaves a tridiagonal input's spectrum alone,
  // so both entry points into the QL loop agree.
  random::Rng rng(17);
  const std::size_t n = 9;
  std::vector<double> diag(n), off(n - 1);
  for (auto& v : diag) v = random::normal(rng);
  for (auto& v : off) v = random::normal(rng);
  DenseMatrix dense(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    dense(i, i) = diag[i];
    if (i + 1 < n) {
      dense(i, i + 1) = off[i];
      dense(i + 1, i) = off[i];
    }
  }
  const auto full = symmetric_eigen(dense);
  const auto tri = tridiagonal_eigen(diag, off);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(full.values[i], tri.values[i], 1e-12) << i;
  }
  expect_eigen_valid(dense, full, 1e-12);
}

TEST(SymmetricEigenTest, LeavesInputUntouchedAndIsDeterministic) {
  const auto a = random_symmetric(30, 21);
  const DenseMatrix copy = a;
  const auto first = symmetric_eigen(a);
  const auto second = symmetric_eigen(a);
  EXPECT_EQ(a, copy);
  EXPECT_EQ(first.values, second.values);
  EXPECT_EQ(first.vectors, second.vectors);
}

TEST(TridiagonalTest, DiagonalOnly) {
  const auto res = tridiagonal_eigen({5, 1, 3}, {0, 0});
  EXPECT_NEAR(res.values[0], 5, 1e-12);
  EXPECT_NEAR(res.values[1], 3, 1e-12);
  EXPECT_NEAR(res.values[2], 1, 1e-12);
}

TEST(TridiagonalTest, Known2x2) {
  // [[0,1],[1,0]] → ±1.
  const auto res = tridiagonal_eigen({0, 0}, {1});
  EXPECT_NEAR(res.values[0], 1.0, 1e-12);
  EXPECT_NEAR(res.values[1], -1.0, 1e-12);
}

TEST(TridiagonalTest, PathGraphLaplacianSpectrum) {
  // Laplacian of the path P4: known eigenvalues 2 - 2cos(kπ/4), k=0..3.
  const auto res =
      tridiagonal_eigen({1, 2, 2, 1}, {-1, -1, -1}, EigenOrder::kDescending);
  std::vector<double> expect;
  for (int k_i = 3; k_i >= 0; --k_i) {
    expect.push_back(2.0 - 2.0 * std::cos(k_i * M_PI / 4.0));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(res.values[i], expect[i], 1e-10) << i;
  }
}

TEST(TridiagonalTest, MatchesJacobiOnRandomTridiagonal) {
  random::Rng rng(11);
  const std::size_t n = 20;
  std::vector<double> diag(n), off(n - 1);
  for (auto& v : diag) v = random::normal(rng);
  for (auto& v : off) v = random::normal(rng);

  DenseMatrix dense(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    dense(i, i) = diag[i];
    if (i + 1 < n) {
      dense(i, i + 1) = off[i];
      dense(i + 1, i) = off[i];
    }
  }
  const auto tri = tridiagonal_eigen(diag, off);
  const auto jac = reference::jacobi_eigen(dense);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(tri.values[i], jac.values[i], 1e-9) << i;
  }
  // Eigenvectors satisfy the definition.
  for (std::size_t j = 0; j < n; ++j) {
    const auto v = tri.vectors.column(j);
    const auto av = dense.multiply_vector(v);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(av[i], tri.values[j] * v[i], 1e-8);
    }
  }
}

TEST(TridiagonalTest, SingleElement) {
  const auto res = tridiagonal_eigen({4.0}, {});
  EXPECT_DOUBLE_EQ(res.values[0], 4.0);
}

TEST(TridiagonalTest, SizeMismatchThrows) {
  EXPECT_THROW(tridiagonal_eigen({1, 2}, {1, 2}), std::invalid_argument);
  EXPECT_THROW(tridiagonal_eigen({}, {}), std::invalid_argument);
}

TEST(TridiagonalTest, EigenvectorsOrthonormal) {
  random::Rng rng(13);
  const std::size_t n = 15;
  std::vector<double> diag(n), off(n - 1);
  for (auto& v : diag) v = random::normal(rng);
  for (auto& v : off) v = random::normal(rng);
  const auto res = tridiagonal_eigen(diag, off);
  const auto gram = res.vectors.gram();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_NEAR(gram(i, j), i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

}  // namespace
}  // namespace sgp::linalg
