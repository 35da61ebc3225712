// Test oracle for the row computation that publish_rows replaced: the
// per-row pull loop that compute_shard_tile and publish_to_stream each ran,
//   Ỹ_i = Σ_{j∈N(i), ascending} P_j + σ·N_i,
// regenerating row P_j once per incident edge. It is slow — 2|E|·m P draws
// where publish_rows makes at most n·m — but it is the definition every
// publish mode must match bit for bit. Kept verbatim apart from the obs
// counter, which it does not update, and the thread pool, which it does
// not use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/projection.hpp"
#include "core/publisher.hpp"
#include "core/serialization.hpp"
#include "core/theory.hpp"
#include "graph/graph.hpp"
#include "random/counter_rng.hpp"
#include "random/counter_rng_simd.hpp"
#include "random/kernel_variant.hpp"

namespace sgp::core::reference {

/// Rows [row_begin, row_end) of the release, row-major, computed one row
/// at a time from `neighbors(i)`, the neighbor list of global row i.
inline std::vector<double> pull_rows(
    const std::function<std::span<const std::uint32_t>(std::size_t)>&
        neighbors,
    std::size_t row_begin, std::size_t row_end,
    const RandomProjectionPublisher::Options& publish,
    const NoiseCalibration& calibration) {
  const std::size_t m = publish.projection_dim;
  const random::CounterRng p_rng = projection_counter_rng(publish.seed);
  const random::CounterRng noise = noise_counter_rng(publish.seed);
  const random::KernelVariant kernel =
      random::resolve_normal_kernel(publish.kernel);
  std::vector<double> tile((row_end - row_begin) * m, 0.0);
  std::vector<double> prow(m);
  std::vector<double> draws(m);
  for (std::size_t i = row_begin; i < row_end; ++i) {
    double* row = tile.data() + (i - row_begin) * m;
    for (std::uint32_t j : neighbors(i)) {
      fill_projection_tile(p_rng, m, publish.projection, j, j + 1, 0, m,
                           prow.data(), kernel);
      for (std::size_t c = 0; c < m; ++c) row[c] += prow[c];
    }
    const std::uint64_t base = static_cast<std::uint64_t>(i) * m;
    random::normal_batch(noise, base, m, draws.data(), kernel);
    for (std::size_t c = 0; c < m; ++c) {
      row[c] += calibration.sigma * draws[c];
    }
  }
  return tile;
}

/// The release bytes of `g` under `publish`: the shared header, then every
/// row from pull_rows.
inline std::string release_bytes(const graph::Graph& g,
                                 const RandomProjectionPublisher::Options&
                                     publish) {
  const std::size_t n = g.num_nodes();
  const std::size_t m = publish.projection_dim;
  const NoiseCalibration calibration =
      calibrate_noise(m, publish.params, publish.analytic_calibration,
                      publish.delta_split);
  std::ostringstream out(std::ios::binary);
  write_published_header(
      out, n, m, publish.params, calibration, publish.projection,
      projection_rng_for(publish.projection,
                         random::resolve_normal_kernel(publish.kernel)));
  write_published_doubles(
      out, pull_rows([&g](std::size_t i) { return g.neighbors(i); }, 0, n,
                     publish, calibration));
  return out.str();
}

}  // namespace sgp::core::reference
