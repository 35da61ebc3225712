#include "core/projection.hpp"

#include <cmath>
#include <new>

#include "random/counter_rng_simd.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"
#include "util/fault_point_names.hpp"

namespace sgp::core {

std::string to_string(ProjectionKind kind) {
  switch (kind) {
    case ProjectionKind::kGaussian:
      return "gaussian";
    case ProjectionKind::kAchlioptas:
      return "achlioptas";
  }
  return "unknown";
}

ProjectionKind parse_projection_kind(const std::string& name) {
  if (name == "gaussian") return ProjectionKind::kGaussian;
  if (name == "achlioptas") return ProjectionKind::kAchlioptas;
  throw util::PreconditionError("unknown projection '" + name +
                                "' (expected gaussian|achlioptas)");
}

random::CounterRng projection_counter_rng(std::uint64_t seed) {
  return random::CounterRng(seed, kProjectionStreamId);
}

random::CounterRng noise_counter_rng(std::uint64_t seed) {
  return random::CounterRng(seed, kNoiseStreamId);
}

void fill_projection_tile(const random::CounterRng& rng, std::size_t m,
                          ProjectionKind kind, std::size_t row_begin,
                          std::size_t row_end, std::size_t col_begin,
                          std::size_t col_end, double* out,
                          random::KernelVariant kernel) {
  util::require(m >= 1, "fill_projection_tile: m must be >= 1");
  util::require(row_begin <= row_end && col_begin <= col_end && col_end <= m,
                "fill_projection_tile: tile out of bounds");
  const std::size_t width = col_end - col_begin;
  switch (kind) {
    case ProjectionKind::kGaussian: {
      // Resolve once per tile, not per row: a tile is the batch unit.
      const random::KernelVariant resolved =
          random::resolve_normal_kernel(kernel);
      const double stddev = 1.0 / std::sqrt(static_cast<double>(m));
      for (std::size_t i = row_begin; i < row_end; ++i) {
        double* row = out + (i - row_begin) * width;
        const std::uint64_t base = i * m;
        random::normal_batch(rng, base + col_begin, width, row, resolved);
        for (std::size_t j = 0; j < width; ++j) {
          row[j] *= stddev;
        }
      }
      return;
    }
    case ProjectionKind::kAchlioptas: {
      const random::KernelVariant resolved =
          random::resolve_exact_kernel(kernel);
      const double magnitude = std::sqrt(3.0 / static_cast<double>(m));
      for (std::size_t i = row_begin; i < row_end; ++i) {
        double* row = out + (i - row_begin) * width;
        const std::uint64_t base = i * m;
        random::uniform_batch(rng, base + col_begin, width, row, resolved);
        for (std::size_t j = 0; j < width; ++j) {
          const double u = row[j];
          double v = 0.0;
          if (u < 1.0 / 6.0) {
            v = magnitude;
          } else if (u < 2.0 / 6.0) {
            v = -magnitude;
          }
          row[j] = v;
        }
      }
      return;
    }
  }
  throw util::InternalError("fill_projection_tile: unknown kind");
}

linalg::DenseMatrix make_projection_counter(std::size_t n, std::size_t m,
                                            ProjectionKind kind,
                                            std::uint64_t seed,
                                            random::KernelVariant kernel) {
  util::require(n >= 1 && m >= 1, "projection: dimensions must be >= 1");
  try {
    util::fault_point(util::fault_points::kAlloc);
    linalg::DenseMatrix p(n, m);
    const random::CounterRng rng = projection_counter_rng(seed);
    fill_projection_tile(rng, m, kind, 0, n, 0, m, p.data().data(), kernel);
    return p;
  } catch (const std::bad_alloc&) {
    throw util::ResourceError(
        "make_projection_counter: out of memory allocating " +
        std::to_string(n) + "x" + std::to_string(m) + " projection");
  }
}

}  // namespace sgp::core
