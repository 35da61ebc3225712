#include "linalg/eigen_sym.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"

namespace sgp::linalg {
namespace {

/// Orders the eigenpairs. Row i of `basis_t` is the eigenvector of
/// values[i]; the result stores eigenvectors as columns.
EigenResult sorted_pairs(const std::vector<double>& values,
                         const DenseMatrix& basis_t, EigenOrder order) {
  const std::size_t n = values.size();
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  if (order == EigenOrder::kDescending) {
    std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
      return values[a] > values[b];
    });
  } else {
    std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
      return std::fabs(values[a]) > std::fabs(values[b]);
    });
  }
  EigenResult res;
  res.values.resize(n);
  res.vectors = DenseMatrix(basis_t.cols(), n);
  for (std::size_t j = 0; j < n; ++j) {
    res.values[j] = values[perm[j]];
    const auto vec = basis_t.row(perm[j]);
    for (std::size_t i = 0; i < vec.size(); ++i) res.vectors(i, j) = vec[i];
  }
  return res;
}

/// Implicit-shift QL with Wilkinson shifts on the symmetric tridiagonal
/// matrix with diagonal `d` and off-diagonal `e` (e[i] couples d[i] and
/// d[i+1]; e[n-1] is a zero sentinel). On return `d` holds the eigenvalues
/// and row i of `basis_t` has been rotated into the eigenvector of d[i]:
/// starting from I that is T's eigenvector, starting from Qᵀ the one of
/// A = Q·T·Qᵀ. The basis is kept transposed so that every rotation streams
/// two contiguous rows.
void ql_implicit(std::vector<double>& d, std::vector<double>& e,
                 DenseMatrix& basis_t) {
  static obs::Counter& solves = obs::counter(obs::names::kEigenSolves);
  static obs::Counter& ql_iterations =
      obs::counter(obs::names::kEigenQlIterations);
  solves.add();
  const std::size_t n = d.size();
  std::uint64_t total_iterations = 0;

  for (std::size_t l = 0; l < n; ++l) {
    int iterations = 0;
    std::size_t m;
    do {
      // Find the first negligible coupling at or after l (splits the block).
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= 1e-15 * dd) break;
      }
      if (m != l) {
        if (++iterations > 50) {
          ql_iterations.add(total_iterations);
          throw util::ConvergenceError("eigen: QL failed to converge");
        }
        ++total_iterations;
        // Wilkinson shift from the 2x2 block at l.
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::hypot(g, 1.0);
        const double denom = g + (g >= 0.0 ? std::fabs(r) : -std::fabs(r));
        g = d[m] - d[l] + e[l] / denom;
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        bool underflow = false;
        for (std::size_t i = m; i-- > l;) {
          const double f = s * e[i];
          const double b = c * e[i];
          r = std::hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            // Rotation annihilated prematurely; deflate and retry the block.
            d[i + 1] -= p;
            e[m] = 0.0;
            underflow = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          // Accumulate the rotation into the eigenvector basis.
          const auto lo = basis_t.row(i);
          const auto hi = basis_t.row(i + 1);
          for (std::size_t k = 0; k < n; ++k) {
            const double z_hi = hi[k];
            hi[k] = s * lo[k] + c * z_hi;
            lo[k] = c * lo[k] - s * z_hi;
          }
        }
        if (underflow) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  ql_iterations.add(total_iterations);
}

/// Householder reduction of the symmetric matrix `a` to tridiagonal form
/// T = Qᵀ·A·Q, in the tred2 scheme: row i, from the last up, is reflected
/// onto its subdiagonal entry, and the reflectors are then multiplied out
/// into Q from the first row down. Reads the lower triangle. On return `d`
/// and `e` hold T in ql_implicit's convention and `a` holds Q.
void householder_tridiagonalize(DenseMatrix& a, std::vector<double>& d,
                                std::vector<double>& e) {
  const std::size_t n = a.rows();
  // During the reduction e[i] is the coupling of rows i-1 and i, and d[i]
  // the reflector's normalization h (0 when row i needed no reflection).
  for (std::size_t i = n - 1; i >= 1; --i) {
    const std::size_t l = i - 1;
    double h = 0.0;
    if (l > 0) {
      double scale = 0.0;
      for (std::size_t k = 0; k <= l; ++k) scale += std::fabs(a(i, k));
      if (scale == 0.0) {
        e[i] = a(i, l);
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          a(i, k) /= scale;
          h += a(i, k) * a(i, k);
        }
        double f = a(i, l);
        double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        a(i, l) = f - g;
        // p = A·u / h into e[0..l], and K = uᵀp / 2h.
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) {
          a(j, i) = a(i, j) / h;  // keep u / h for the accumulation below
          g = 0.0;
          for (std::size_t k = 0; k <= j; ++k) g += a(j, k) * a(i, k);
          for (std::size_t k = j + 1; k <= l; ++k) g += a(k, j) * a(i, k);
          e[j] = g / h;
          f += e[j] * a(i, j);
        }
        const double hh = f / (h + h);
        // A ← A − u·qᵀ − q·uᵀ with q = p − K·u, on the lower triangle.
        for (std::size_t j = 0; j <= l; ++j) {
          f = a(i, j);
          g = e[j] - hh * f;
          e[j] = g;
          for (std::size_t k = 0; k <= j; ++k) {
            a(j, k) -= f * e[k] + g * a(i, k);
          }
        }
      }
    } else {
      e[i] = a(i, l);
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  // Q = H_{n-1} ⋯ H_1, built in place from the stored reflectors.
  for (std::size_t i = 0; i < n; ++i) {
    if (d[i] != 0.0) {
      for (std::size_t j = 0; j < i; ++j) {
        double g = 0.0;
        for (std::size_t k = 0; k < i; ++k) g += a(i, k) * a(k, j);
        for (std::size_t k = 0; k < i; ++k) a(k, j) -= g * a(k, i);
      }
    }
    d[i] = a(i, i);
    a(i, i) = 1.0;
    for (std::size_t j = 0; j < i; ++j) {
      a(j, i) = 0.0;
      a(i, j) = 0.0;
    }
  }
  // Shift to ql_implicit's convention: e[i] couples d[i] and d[i+1].
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
}

}  // namespace

EigenResult symmetric_eigen(const DenseMatrix& a, EigenOrder order,
                            double sym_tol) {
  const std::size_t n = a.rows();
  util::require(n == a.cols(), "symmetric_eigen: matrix must be square");
  util::require(n > 0, "symmetric_eigen: matrix must be non-empty");
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      util::require(std::fabs(a(i, j) - a(j, i)) <=
                        sym_tol * (1.0 + std::fabs(a(i, j))),
                    "symmetric_eigen: matrix is not symmetric");
    }
  }
  DenseMatrix q = a;
  std::vector<double> d(n);
  std::vector<double> e(n);
  householder_tridiagonalize(q, d, e);
  DenseMatrix basis_t = q.transposed();
  ql_implicit(d, e, basis_t);
  return sorted_pairs(d, basis_t, order);
}

EigenResult tridiagonal_eigen(std::vector<double> diag,
                              std::vector<double> offdiag, EigenOrder order) {
  const std::size_t n = diag.size();
  util::require(n > 0, "tridiagonal_eigen: empty matrix");
  util::require(offdiag.size() == n - 1 || (n == 1 && offdiag.empty()),
                "tridiagonal_eigen: offdiag must have size n-1");
  std::vector<double> e(n, 0.0);
  std::copy(offdiag.begin(), offdiag.end(), e.begin());
  DenseMatrix basis_t = DenseMatrix::identity(n);
  ql_implicit(diag, e, basis_t);
  return sorted_pairs(diag, basis_t, order);
}

}  // namespace sgp::linalg
