// Dense symmetric eigensolvers, both built on one implicit-shift QL loop:
//  - symmetric_eigen for general small symmetric matrices (Gram matrices,
//    noisy adjacency matrices): Householder tridiagonalization, then QL;
//  - tridiagonal_eigen for symmetric tridiagonal matrices (the Rayleigh
//    quotient matrices produced by Lanczos): QL alone.
//
// Both return the full spectrum; callers truncate to top-k.
#pragma once

#include <vector>

#include "linalg/dense_matrix.hpp"

namespace sgp::linalg {

/// Full eigendecomposition A = V diag(values) Vᵀ.
/// `vectors` stores eigenvectors as COLUMNS, aligned with `values`.
struct EigenResult {
  std::vector<double> values;
  DenseMatrix vectors;
};

/// How to order the returned eigenpairs.
enum class EigenOrder {
  kDescending,          // algebraically largest first (spectral clustering)
  kDescendingMagnitude  // |λ| largest first (spectra distortion metrics)
};

/// Eigendecomposition of a dense symmetric matrix: Householder reduction to
/// tridiagonal form (the tred2 scheme), then the implicit QL loop of
/// tridiagonal_eigen, accumulating the reduction's orthogonal basis. O(n³)
/// with a small constant; sized for the m×m Gram matrices of svd_gram and
/// the few-hundred-node noisy adjacency of the community mechanisms. Input
/// must be square and symmetric (validated up to `sym_tol`, else
/// std::invalid_argument). Throws util::ConvergenceError if QL stalls.
EigenResult symmetric_eigen(const DenseMatrix& a,
                            EigenOrder order = EigenOrder::kDescending,
                            double sym_tol = 1e-9);

/// Eigendecomposition of a symmetric tridiagonal matrix given its diagonal
/// `diag` (size n) and off-diagonal `offdiag` (size n-1), via the implicit
/// QL algorithm with Wilkinson shifts. Returns eigenpairs in the requested
/// order; eigenvectors are the columns of `vectors`.
EigenResult tridiagonal_eigen(std::vector<double> diag,
                              std::vector<double> offdiag,
                              EigenOrder order = EigenOrder::kDescending);

}  // namespace sgp::linalg
