#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/eigen_sym.hpp"
#include "linalg/qr.hpp"
#include "random/distributions.hpp"
#include "random/rng.hpp"
#include "util/check.hpp"

namespace sgp::linalg {

SvdResult svd_gram(const DenseMatrix& a, std::size_t k) {
  const std::size_t n = a.rows();
  const std::size_t m = a.cols();
  util::require(k >= 1 && k <= m, "svd_gram: k must be in [1, cols]");
  util::require(n >= 1, "svd_gram: matrix must be non-empty");

  const DenseMatrix g = a.gram();  // m×m
  const EigenResult eig = symmetric_eigen(g, EigenOrder::kDescending);

  SvdResult out;
  out.singular_values.resize(k);
  out.v = eig.vectors.first_columns(k);
  for (std::size_t j = 0; j < k; ++j) {
    out.singular_values[j] = std::sqrt(std::max(eig.values[j], 0.0));
  }
  // U = A·V·Σ⁻¹ in one row-parallel pass over A. Each entry is the same
  // ascending dot product that a per-column multiply_vector(v_j) computes.
  out.u = a.multiply(out.v);
  for (std::size_t j = 0; j < k; ++j) {
    const double singular_value = out.singular_values[j];
    if (singular_value > 1e-12 * (out.singular_values[0] + 1e-300)) {
      const double inv = 1.0 / singular_value;
      for (std::size_t i = 0; i < n; ++i) out.u(i, j) *= inv;
    } else {
      // Numerically zero: a null-space direction, left as a zero column.
      for (std::size_t i = 0; i < n; ++i) out.u(i, j) = 0.0;
    }
  }
  return out;
}

SvdResult randomized_svd(const DenseMatrix& a, std::size_t k,
                         std::size_t oversample, std::size_t power_iters,
                         std::uint64_t seed) {
  const std::size_t n = a.rows();
  const std::size_t m = a.cols();
  util::require(k >= 1 && k <= std::min(n, m),
                "randomized_svd: k must be in [1, min(rows, cols)]");
  const std::size_t sketch = std::min(m, k + oversample);

  random::Rng rng(seed);
  DenseMatrix omega(m, sketch);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < sketch; ++j) {
      omega(i, j) = random::normal(rng);
    }
  }

  // Range finder: Q spans the dominant column space of A.
  DenseMatrix y = a.multiply(omega);  // n×sketch
  DenseMatrix q = orthonormalize_columns(y);
  for (std::size_t it = 0; it < power_iters; ++it) {
    // Subspace iteration with re-orthonormalization each half-step.
    DenseMatrix z = a.transpose_multiply(q);  // m×sketch = Aᵀ Q
    z = orthonormalize_columns(z);
    y = a.multiply(z);  // n×sketch
    q = orthonormalize_columns(y);
  }

  // Project: B = Qᵀ A (sketch×m), then exact small SVD of B.
  const DenseMatrix b = q.transpose_multiply(a);
  const SvdResult small = svd_gram(b, k);

  SvdResult out;
  out.singular_values = small.singular_values;
  out.v = small.v;
  out.u = q.multiply(small.u);  // n×k
  return out;
}

}  // namespace sgp::linalg
