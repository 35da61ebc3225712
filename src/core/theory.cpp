#include "core/theory.hpp"

#include <cmath>

#include "dp/budget.hpp"
#include "dp/mechanisms.hpp"
#include "util/check.hpp"

namespace sgp::core {

double projected_pair_sensitivity(std::size_t m, double delta_p) {
  util::require(m >= 1, "sensitivity: m must be >= 1");
  util::require(delta_p > 0.0 && delta_p < 1.0,
                "sensitivity: delta_p must be in (0,1)");
  // Laurent–Massart: P[χ²_k ≥ k + 2√(kt) + 2t] ≤ e^{−t}. With k = 2m,
  // t = ln(1/δ_p) and ‖P_i‖² + ‖P_j‖² = χ²_{2m} / m:
  const double t = std::log(1.0 / delta_p);
  const double md = static_cast<double>(m);
  return std::sqrt(2.0 + 2.0 * std::sqrt(2.0 * t / md) + 2.0 * t / md);
}

double dense_row_sensitivity() { return std::sqrt(2.0); }

NoiseCalibration calibrate_noise(std::size_t m, const dp::PrivacyParams& params,
                                 bool analytic, double delta_split) {
  params.validate();
  util::require(delta_split > 0.0 && delta_split < 1.0,
                "calibrate_noise: delta_split must be in (0,1)");
  NoiseCalibration cal;
  const dp::DeltaSplit deltas = dp::split_delta(params.delta, delta_split);
  cal.delta_projection = deltas.first;
  cal.delta_gaussian = deltas.second;
  cal.sensitivity = projected_pair_sensitivity(m, cal.delta_projection);
  const dp::PrivacyParams gaussian_budget{params.epsilon, cal.delta_gaussian};
  cal.sigma = analytic
                  ? dp::analytic_gaussian_sigma(cal.sensitivity, gaussian_budget)
                  : dp::gaussian_sigma(cal.sensitivity, gaussian_budget);
  return cal;
}

std::size_t johnson_lindenstrauss_dim(std::size_t n_points, double distortion) {
  util::require(n_points >= 2, "jl_dim: need at least two points");
  util::require(distortion > 0.0 && distortion < 1.0,
                "jl_dim: distortion must be in (0,1)");
  const double eps2 = distortion * distortion;
  const double eps3 = eps2 * distortion;
  const double denom = eps2 / 2.0 - eps3 / 3.0;
  return static_cast<std::size_t>(
      std::ceil(4.0 * std::log(static_cast<double>(n_points)) / denom));
}

}  // namespace sgp::core
