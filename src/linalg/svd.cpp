#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/eigen_sym.hpp"
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

}  // namespace sgp::linalg
