#include "linalg/power_iteration.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "linalg/eigen_sym.hpp"
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

TEST(PowerIterationTest, DominantEigenpairOfDiagonal) {
  DenseMatrix a(4, 4);
  a(0, 0) = 1;
  a(1, 1) = -7;
  a(2, 2) = 3;
  a(3, 3) = 5;
  PowerIterationOptions opt;
  opt.k = 2;
  const auto res = power_iteration_topk(dense_op(a), opt);
  EXPECT_NEAR(res.values[0], -7.0, 1e-7);
  EXPECT_NEAR(res.values[1], 5.0, 1e-6);
  EXPECT_TRUE(res.converged);
}

TEST(PowerIterationTest, AgreesWithDenseSolverOnMagnitudeOrder) {
  const auto a = random_symmetric(30, 3);
  const auto exact = symmetric_eigen(a, EigenOrder::kDescendingMagnitude);
  PowerIterationOptions opt;
  opt.k = 3;
  opt.max_iterations = 20000;
  opt.tolerance = 1e-12;
  const auto res = power_iteration_topk(dense_op(a), opt);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(res.values[i], exact.values[i], 1e-4) << i;
  }
}

TEST(PowerIterationTest, EigenvectorsSatisfyDefinition) {
  const auto a = random_symmetric(25, 4);
  PowerIterationOptions opt;
  opt.k = 2;
  opt.max_iterations = 20000;
  opt.tolerance = 1e-12;
  const auto res = power_iteration_topk(dense_op(a), opt);
  for (std::size_t j = 0; j < 2; ++j) {
    const auto v = res.vectors.column(j);
    const auto av = a.multiply_vector(v);
    for (std::size_t i = 0; i < 25; ++i) {
      ASSERT_NEAR(av[i], res.values[j] * v[i], 1e-4);
    }
  }
}

TEST(PowerIterationTest, VectorsOrthonormal) {
  const auto a = random_symmetric(20, 5);
  PowerIterationOptions opt;
  opt.k = 4;
  opt.max_iterations = 20000;
  const auto res = power_iteration_topk(dense_op(a), opt);
  const auto gram = res.vectors.gram();
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(gram(i, j), i == j ? 1.0 : 0.0, 1e-6);
    }
  }
}

TEST(PowerIterationTest, ZeroOperator) {
  SymmetricOperator op{10, [](std::span<const double>, std::span<double> y) {
                         std::fill(y.begin(), y.end(), 0.0);
                       }};
  PowerIterationOptions opt;
  opt.k = 2;
  const auto res = power_iteration_topk(op, opt);
  EXPECT_NEAR(res.values[0], 0.0, 1e-12);
  EXPECT_NEAR(res.values[1], 0.0, 1e-12);
}

TEST(PowerIterationTest, DeterministicForSeed) {
  const auto a = random_symmetric(15, 6);
  PowerIterationOptions opt;
  opt.k = 2;
  opt.seed = 42;
  const auto r1 = power_iteration_topk(dense_op(a), opt);
  const auto r2 = power_iteration_topk(dense_op(a), opt);
  EXPECT_EQ(r1.vectors, r2.vectors);
}

TEST(PowerIterationTest, InvalidArgsThrow) {
  const auto a = random_symmetric(5, 7);
  const auto op = dense_op(a);
  PowerIterationOptions opt;
  opt.k = 0;
  EXPECT_THROW(power_iteration_topk(op, opt), std::invalid_argument);
  opt.k = 6;
  EXPECT_THROW(power_iteration_topk(op, opt), std::invalid_argument);
}

TEST(PowerIterationCrossCheck, MatchesLanczosOnSparseSpectrum) {
  // Independent solvers agreeing is strong evidence both are right.
  const auto a = random_symmetric(40, 8);
  LanczosOptions lopt;
  lopt.k = 3;
  lopt.order = EigenOrder::kDescendingMagnitude;
  lopt.max_iterations = 40;
  const auto lanczos = lanczos_topk(dense_op(a), lopt);
  PowerIterationOptions popt;
  popt.k = 3;
  popt.max_iterations = 50000;
  popt.tolerance = 1e-13;
  const auto power = power_iteration_topk(dense_op(a), popt);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(power.values[i], lanczos.values[i], 1e-4) << i;
  }
}

}  // namespace
}  // namespace sgp::linalg
