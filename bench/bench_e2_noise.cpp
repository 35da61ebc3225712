// E2 (paper Fig. "noise is small"): the Gaussian noise σ required for
// (ε, δ)-DP under random projection, across ε, δ and projection dimension m.
//
// Validates the abstract's second theoretical claim: the sensitivity, the
// bound on the two projected rows one edge moves, is ≈ √2 (independent of
// graph size n), so σ is a small constant. The last column shows the total noise energy a *dense* release
// would need at the same budget — larger by the factor n/m in cells alone.
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "core/theory.hpp"
#include "dp/mechanisms.hpp"

int main() {
  sgp::bench::BenchReport report("E2");
  report.meta("m_max", static_cast<std::uint64_t>(200))
      .meta("epsilon_max", 10.0)
      .meta("delta_min", 1e-6);
  sgp::bench::banner(
      "E2: calibrated noise vs privacy budget",
      "sigma per entry of the published n x m matrix; sensitivity -> sqrt(2) "
      "as m grows (independent of n).");

  {
    sgp::obs::ScopedTimer timer("bench.sigma_table");
    sgp::util::TextTable table({"epsilon", "delta", "m", "sensitivity",
                                "sigma_analytic", "sigma_classic"});
    for (double delta : {1e-4, 1e-5, 1e-6}) {
      for (double epsilon : {0.1, 0.5, 1.0, 2.0, 5.0, 10.0}) {
        for (std::size_t m : {50, 100, 200}) {
          const sgp::dp::PrivacyParams params{epsilon, delta};
          const auto analytic = sgp::core::calibrate_noise(m, params, true);
          const auto classic = sgp::core::calibrate_noise(m, params, false);
          table.new_row()
              .add(epsilon, 2)
              .add(delta, 6)
              .add(m)
              .add(analytic.sensitivity, 4)
              .add(analytic.sigma, 3)
              .add(classic.sigma, 3);
        }
      }
    }
    std::printf("%s\n", table.to_string().c_str());
  }

  {
    sgp::obs::ScopedTimer timer("bench.noise_energy");
    std::printf(
        "Noise energy comparison at eps=1, delta=1e-6 (Frobenius norm of the "
        "added noise):\n");
    sgp::util::TextTable table(
        {"n", "rp_cells(m=100)", "rp_noise_frob", "dense_cells",
         "dense_noise_frob", "dense/rp"});
    const sgp::dp::PrivacyParams params{1.0, 1e-6};
    const std::size_t m = 100;
    const auto cal = sgp::core::calibrate_noise(m, params);
    const double dense_sigma = sgp::dp::analytic_gaussian_sigma(
        sgp::core::dense_row_sensitivity(), params);
    for (std::size_t n : {4000, 40000, 400000, 4000000}) {
      const double nd = static_cast<double>(n);
      const double md = static_cast<double>(m);
      const double rp_frob = cal.sigma * std::sqrt(nd * md);
      const double dense_frob = dense_sigma * nd;
      table.new_row()
          .add(n)
          .add(static_cast<std::size_t>(nd * md))
          .add(rp_frob, 1)
          .add(static_cast<std::size_t>(nd * nd))
          .add(dense_frob, 1)
          .add(dense_frob / rp_frob, 1);
    }
    std::printf("%s", table.to_string().c_str());
  }
  return 0;
}
