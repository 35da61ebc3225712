// Singular value decomposition of tall dense matrices.
//
// The published matrix Ỹ is n×m with m ≪ n (m is the projection dimension,
// typically 100–500). Analysts recover spectral structure from its top-k
// left singular vectors, which svd_gram computes exactly through the m×m
// Gram matrix (cheap when m is small).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/dense_matrix.hpp"

namespace sgp::linalg {

/// Thin truncated SVD A ≈ U diag(σ) Vᵀ with k factors.
/// `u` is rows×k, `v` is cols×k, σ descending.
struct SvdResult {
  DenseMatrix u;
  std::vector<double> singular_values;
  DenseMatrix v;
};

/// Exact top-k SVD of `a` computed from the Gram matrix AᵀA (cost
/// O(rows·cols² + cols³)). Requires 1 <= k <= cols. Singular vectors for
/// numerically zero singular values are returned as zero columns of U.
SvdResult svd_gram(const DenseMatrix& a, std::size_t k);

}  // namespace sgp::linalg
