// Test oracles for the dense kernels that linalg replaced:
//  - reference::gram, the single-threaded rank-1-update loop that
//    DenseMatrix::gram() replaced. The blocked, parallel gram() must equal
//    it bit for bit.
//  - reference::jacobi_eigen, the cyclic Jacobi eigensolver that
//    symmetric_eigen (Householder tridiagonalization + implicit QL)
//    replaced. It is slow but independent of the QL code, so it checks
//    eigenvalues and residuals of the new solver.
// Kept verbatim apart from the obs counters, which they do not update.
#pragma once

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "linalg/dense_matrix.hpp"
#include "linalg/eigen_sym.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"

namespace sgp::linalg::reference {

inline DenseMatrix gram(const DenseMatrix& a) {
  const std::size_t cols = a.cols();
  DenseMatrix g(cols, cols);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto arow = a.row(r);
    for (std::size_t i = 0; i < cols; ++i) {
      const double x = arow[i];
      if (x == 0.0) continue;
      auto grow = g.row(i);
      for (std::size_t j = i; j < cols; ++j) grow[j] += x * arow[j];
    }
  }
  for (std::size_t i = 0; i < cols; ++i) {
    for (std::size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
  }
  return g;
}

namespace detail {

inline void sort_pairs(EigenResult& res, EigenOrder order) {
  const std::size_t n = res.values.size();
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  if (order == EigenOrder::kDescending) {
    std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
      return res.values[a] > res.values[b];
    });
  } else {
    std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
      return std::fabs(res.values[a]) > std::fabs(res.values[b]);
    });
  }
  std::vector<double> sorted_values(n);
  DenseMatrix sorted_vectors(res.vectors.rows(), n);
  for (std::size_t j = 0; j < n; ++j) {
    sorted_values[j] = res.values[perm[j]];
    for (std::size_t i = 0; i < res.vectors.rows(); ++i) {
      sorted_vectors(i, j) = res.vectors(i, perm[j]);
    }
  }
  res.values = std::move(sorted_values);
  res.vectors = std::move(sorted_vectors);
}

inline double offdiagonal_norm(const DenseMatrix& a) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = i + 1; j < a.cols(); ++j) acc += a(i, j) * a(i, j);
  }
  return std::sqrt(2.0 * acc);
}

}  // namespace detail

/// Cyclic Jacobi eigendecomposition of a symmetric matrix, converged until
/// the off-diagonal norm is below 1e-14·‖A‖_F.
inline EigenResult jacobi_eigen(const DenseMatrix& a,
                                EigenOrder order = EigenOrder::kDescending,
                                int max_sweeps = 64, double sym_tol = 1e-9) {
  const std::size_t n = a.rows();
  util::require(n == a.cols(), "jacobi_eigen: matrix must be square");
  util::require(n > 0, "jacobi_eigen: matrix must be non-empty");
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      util::require(std::fabs(a(i, j) - a(j, i)) <=
                        sym_tol * (1.0 + std::fabs(a(i, j))),
                    "jacobi_eigen: matrix is not symmetric");
    }
  }

  DenseMatrix work = a;
  DenseMatrix v = DenseMatrix::identity(n);
  const double frob = std::max(work.frobenius_norm(), 1e-300);
  const double tol = 1e-14 * frob;

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (detail::offdiagonal_norm(work) <= tol) {
      EigenResult res;
      res.values.resize(n);
      for (std::size_t i = 0; i < n; ++i) res.values[i] = work(i, i);
      res.vectors = std::move(v);
      detail::sort_pairs(res, order);
      return res;
    }
    for (std::size_t p = 0; p < n - 1; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = work(p, q);
        if (std::fabs(apq) <= tol / static_cast<double>(n)) continue;
        const double app = work(p, p);
        const double aqq = work(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        // tan of the rotation angle, the smaller root for stability.
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        // Apply the rotation J(p, q, θ)ᵀ A J(p, q, θ).
        for (std::size_t i = 0; i < n; ++i) {
          const double aip = work(i, p);
          const double aiq = work(i, q);
          work(i, p) = c * aip - s * aiq;
          work(i, q) = s * aip + c * aiq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double api = work(p, i);
          const double aqi = work(q, i);
          work(p, i) = c * api - s * aqi;
          work(q, i) = s * api + c * aqi;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double vip = v(i, p);
          const double viq = v(i, q);
          v(i, p) = c * vip - s * viq;
          v(i, q) = s * vip + c * viq;
        }
      }
    }
  }
  throw util::ConvergenceError("jacobi_eigen: did not converge within " +
                               std::to_string(max_sweeps) + " sweeps");
}

}  // namespace sgp::linalg::reference
