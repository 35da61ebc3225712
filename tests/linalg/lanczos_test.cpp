#include "linalg/lanczos.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "linalg/eigen_sym.hpp"
#include "linalg/sparse_matrix.hpp"
#include "linalg/vector_ops.hpp"
#include "random/distributions.hpp"
#include "random/rng.hpp"

namespace sgp::linalg {
namespace {

SymmetricOperator dense_op(const DenseMatrix& a) {
  return {a.rows(), [&a](std::span<const double> x, std::span<double> y) {
            const auto r = a.multiply_vector(x);
            std::copy(r.begin(), r.end(), y.begin());
          }};
}

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

TEST(LanczosTest, MatchesDenseSolverTopEigenvalues) {
  const auto a = random_symmetric(60, 3);
  const auto exact = symmetric_eigen(a);
  LanczosOptions opt;
  opt.k = 5;
  opt.max_iterations = 60;
  const auto approx = lanczos_topk(dense_op(a), opt);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(approx.values[i], exact.values[i], 1e-6) << i;
  }
}

TEST(LanczosTest, EigenvectorsSatisfyDefinition) {
  const auto a = random_symmetric(40, 4);
  LanczosOptions opt;
  opt.k = 3;
  opt.max_iterations = 40;
  const auto res = lanczos_topk(dense_op(a), opt);
  for (std::size_t j = 0; j < 3; ++j) {
    const auto v = res.vectors.column(j);
    const auto av = a.multiply_vector(v);
    for (std::size_t i = 0; i < 40; ++i) {
      ASSERT_NEAR(av[i], res.values[j] * v[i], 1e-5);
    }
  }
}

TEST(LanczosTest, RitzVectorsOrthonormal) {
  const auto a = random_symmetric(50, 5);
  LanczosOptions opt;
  opt.k = 4;
  opt.max_iterations = 50;
  const auto res = lanczos_topk(dense_op(a), opt);
  const auto gram = res.vectors.gram();
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(gram(i, j), i == j ? 1.0 : 0.0, 1e-7);
    }
  }
}

TEST(LanczosTest, DiagonalOperatorConverges) {
  const std::size_t n = 100;
  SymmetricOperator op{n, [](std::span<const double> x, std::span<double> y) {
                         for (std::size_t i = 0; i < x.size(); ++i) {
                           y[i] = static_cast<double>(i) * x[i];
                         }
                       }};
  LanczosOptions opt;
  opt.k = 3;
  const auto res = lanczos_topk(op, opt);
  EXPECT_NEAR(res.values[0], 99.0, 1e-6);
  EXPECT_NEAR(res.values[1], 98.0, 1e-6);
  EXPECT_NEAR(res.values[2], 97.0, 1e-6);
  EXPECT_TRUE(res.converged);
}

TEST(LanczosTest, BudgetExhaustionReportsNotConverged) {
  // A 2000-cycle's top eigenvalues 2, 2cos(2π/n), ... are too close for
  // ten steps. Running out of budget is a result, not an error: the solver
  // returns its Ritz values with converged = false, and by Cauchy
  // interlacing each lies below the eigenvalue it approximates.
  const std::size_t n = 2000;
  SymmetricOperator op{n, [n](std::span<const double> x, std::span<double> y) {
                         for (std::size_t i = 0; i < n; ++i) {
                           y[i] = x[(i + 1) % n] + x[(i + n - 1) % n];
                         }
                       }};
  LanczosOptions opt;
  opt.k = 2;
  opt.max_iterations = 10;
  const auto res = lanczos_topk(op, opt);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 10u);
  ASSERT_EQ(res.values.size(), 2u);
  EXPECT_LE(res.values[0], 2.0 + 1e-12);
  EXPECT_LE(res.values[1], 2.0 * std::cos(2.0 * M_PI / n) + 1e-12);
}

TEST(LanczosTest, IdentityOperatorDegenerateSpectrum) {
  // All eigenvalues equal: Krylov space collapses after one step; the
  // restart logic must still deliver k orthonormal vectors.
  const std::size_t n = 30;
  SymmetricOperator op{n, [](std::span<const double> x, std::span<double> y) {
                         std::copy(x.begin(), x.end(), y.begin());
                       }};
  LanczosOptions opt;
  opt.k = 3;
  opt.max_iterations = 30;
  const auto res = lanczos_topk(op, opt);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(res.values[i], 1.0, 1e-9);
  const auto gram = res.vectors.gram();
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(gram(i, j), i == j ? 1.0 : 0.0, 1e-8);
    }
  }
}

TEST(LanczosTest, ZeroOperator) {
  // The Krylov space collapses at every step and |λ_max| is 0: the solver
  // must still return k zero Ritz values with orthonormal vectors, not a
  // ConvergenceError or a division by the zero scale.
  SymmetricOperator op{10, [](std::span<const double>, std::span<double> y) {
                         std::fill(y.begin(), y.end(), 0.0);
                       }};
  LanczosOptions opt;
  opt.k = 2;
  const auto res = lanczos_topk(op, opt);
  ASSERT_EQ(res.values.size(), 2u);
  EXPECT_EQ(res.values[0], 0.0);
  EXPECT_EQ(res.values[1], 0.0);
  const auto gram = res.vectors.gram();
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_NEAR(gram(i, j), i == j ? 1.0 : 0.0, 1e-12);
    }
  }
}

TEST(LanczosTest, SparseAdjacencyCompleteGraph) {
  // K5 adjacency: eigenvalues 4 (once) and -1 (×4).
  std::vector<Triplet> trips;
  for (std::uint32_t i = 0; i < 5; ++i) {
    for (std::uint32_t j = 0; j < 5; ++j) {
      if (i != j) trips.push_back({i, j, 1.0});
    }
  }
  const auto a = CsrMatrix::from_triplets(5, 5, trips);
  SymmetricOperator op{5, [&a](std::span<const double> x, std::span<double> y) {
                         const auto r = a.multiply_vector(x);
                         std::copy(r.begin(), r.end(), y.begin());
                       }};
  LanczosOptions opt;
  opt.k = 2;
  opt.max_iterations = 5;
  const auto res = lanczos_topk(op, opt);
  EXPECT_NEAR(res.values[0], 4.0, 1e-8);
  EXPECT_NEAR(res.values[1], -1.0, 1e-8);
}

TEST(LanczosTest, MagnitudeOrderSelectsNegativeExtreme) {
  DenseMatrix a(3, 3);
  a(0, 0) = -10;
  a(1, 1) = 5;
  a(2, 2) = 1;
  LanczosOptions opt;
  opt.k = 1;
  opt.max_iterations = 3;
  opt.order = EigenOrder::kDescendingMagnitude;
  const auto res = lanczos_topk(dense_op(a), opt);
  EXPECT_NEAR(res.values[0], -10.0, 1e-8);
}

TEST(LanczosTest, InvalidArgumentsThrow) {
  const auto a = random_symmetric(10, 6);
  const auto op = dense_op(a);
  LanczosOptions opt;
  opt.k = 0;
  EXPECT_THROW(lanczos_topk(op, opt), std::invalid_argument);
  opt.k = 11;
  EXPECT_THROW(lanczos_topk(op, opt), std::invalid_argument);
  SymmetricOperator empty{0, nullptr};
  opt.k = 1;
  EXPECT_THROW(lanczos_topk(empty, opt), std::invalid_argument);
}

TEST(LanczosTest, DeterministicForFixedSeed) {
  const auto a = random_symmetric(30, 8);
  LanczosOptions opt;
  opt.k = 2;
  opt.max_iterations = 30;
  opt.seed = 123;
  const auto r1 = lanczos_topk(dense_op(a), opt);
  const auto r2 = lanczos_topk(dense_op(a), opt);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(r1.values[i], r2.values[i]);
  }
  EXPECT_EQ(r1.vectors, r2.vectors);
}

}  // namespace
}  // namespace sgp::linalg
