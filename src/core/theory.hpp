// The paper's theoretical results as executable functions.
//
// Theorem (privacy): publishing Ỹ = A·P + N, with P a Gaussian projection
// (entries N(0, 1/m)) and N i.i.d. N(0, σ²), is (ε, δ)-DP for edge-level
// neighbors when σ is calibrated to the ℓ2-sensitivity of the release.
//
// A is symmetric, so changing edge (i, j) changes row i of A by ±e_j and
// row j by ±e_i: row i of Y = A·P moves by ±P_{j,·} and row j by ±P_{i,·}.
// The ℓ2 change of Y is sqrt(‖P_{i,·}‖² + ‖P_{j,·}‖²), and
// m·(‖P_{i,·}‖² + ‖P_{j,·}‖²) is χ²_{2m} distributed. The Laurent–Massart
// tail bound gives, with probability ≥ 1 − δ_p for the pair,
//   ‖P_{i,·}‖² + ‖P_{j,·}‖² ≤ 2 + 2·sqrt(2t/m) + 2·t/m,   t = ln(1/δ_p).
// The sensitivity is therefore √2 + o(1) — *independent of n* — which is
// the paper's "small noise" claim: direct publication of A needs noise in
// every one of n² cells, while the projection needs σ ≈
// sqrt(2)·sqrt(2 ln(1/δ))/ε regardless of graph size. A union bound over
// pairs is not needed: the neighbor pair is fixed before P is drawn, so
// δ = δ_p + δ_g holds.
#pragma once

#include <cstddef>

#include "dp/defaults.hpp"
#include "dp/privacy.hpp"

namespace sgp::core {

/// High-probability bound on sqrt(‖P_{i,·}‖² + ‖P_{j,·}‖²), the ℓ2 change
/// of Y when edge (i, j) flips (failure probability delta_p). Decreases
/// toward √2 as m grows: 1.783 at m = 128 and δ_p = 5e-7.
double projected_pair_sensitivity(std::size_t m, double delta_p);

/// Sensitivity of the same one-edge change if A itself were published with
/// the Gaussian mechanism: the change is ±1 in two symmetric cells → √2.
/// (Reference point for the E2 noise-comparison figure.)
double dense_row_sensitivity();

/// Full calibration for the mechanism: splits δ into δ_p (sensitivity-bound
/// failure) and δ_g (Gaussian mechanism), default half/half, and returns the
/// noise σ. Set `analytic` false to use the classic calibration instead
/// (ablation E2). Throws for invalid params.
struct NoiseCalibration {
  double sensitivity = 0.0;  ///< high-probability pair bound used
  double sigma = 0.0;        ///< per-entry Gaussian noise stddev
  double delta_projection = 0.0;
  double delta_gaussian = 0.0;
};
NoiseCalibration calibrate_noise(std::size_t m, const dp::PrivacyParams& params,
                                 bool analytic = true,
                                 double delta_split = dp::kDefaultDeltaSplit);

/// Johnson–Lindenstrauss dimension: smallest m guaranteeing all pairwise
/// distances among `n_points` distorted by at most `distortion` (∈ (0, 1)):
///   m ≥ 4 ln(n) / (distortion²/2 − distortion³/3).
std::size_t johnson_lindenstrauss_dim(std::size_t n_points, double distortion);

}  // namespace sgp::core
