// Random projection matrices P ∈ R^{n×m}, the dimensionality-reduction stage
// of the mechanism. Entries are scaled so that E[‖x P‖²] = ‖x‖² for any row
// x (Johnson–Lindenstrauss normalization): projecting preserves geometry in
// expectation while shrinking n columns to m.
#pragma once

#include <cstdint>
#include <string>

#include "linalg/dense_matrix.hpp"
#include "random/counter_rng.hpp"
#include "random/kernel_variant.hpp"

namespace sgp::core {

enum class ProjectionKind {
  kGaussian,    ///< entries i.i.d. N(0, 1/m) — the paper's choice
  kAchlioptas,  ///< sparse ±sqrt(3/m) w.p. 1/6 each, 0 w.p. 2/3 — ablation
};

[[nodiscard]] std::string to_string(ProjectionKind kind);
/// Inverse of to_string ("gaussian" / "achlioptas"); throws
/// util::PreconditionError naming both for anything else.
[[nodiscard]] ProjectionKind parse_projection_kind(const std::string& name);

// ---------------------------------------------------------------------------
// Counter-based projection, the generator of every release.
//
// P[i][j] is a pure function of (seed, i, j): entry (i, j) of an n×m
// projection draws from counter i·m + j of a CounterRng keyed on the release
// seed and a fixed stream id. Any tile can therefore be generated on demand,
// bit-identically, from any thread — the fused publish kernel never holds
// more of P than one thread-local tile.

/// Domain-separation stream ids (recorded implicitly by the release format's
/// `projection_rng counter-v1` tag — changing them breaks old releases).
inline constexpr std::uint64_t kProjectionStreamId = 0;
inline constexpr std::uint64_t kNoiseStreamId = 1;

/// The generator whose counters t = i·m + j define P[i][j] for a release seed.
[[nodiscard]] random::CounterRng projection_counter_rng(std::uint64_t seed);

/// The independent generator for the Gaussian noise N[i][j] (counter i·m + j).
[[nodiscard]] random::CounterRng noise_counter_rng(std::uint64_t seed);

/// Fills `out` (row-major, stride col_end - col_begin) with the tile
/// P[row_begin..row_end) × [col_begin..col_end) of the counter-based n×m
/// projection. `m` is the full column count (it fixes the counter layout).
/// Pure and thread-safe; matches the linalg::TileFiller shape once bound.
///
/// `kernel` selects the batch kernel: gaussian tiles resolve it through
/// resolve_normal_kernel (the mapping decides the release tag), achlioptas
/// tiles through resolve_exact_kernel (every variant is bit-identical, so
/// the default auto-dispatches to the fastest ISA without affecting bytes).
void fill_projection_tile(
    const random::CounterRng& rng, std::size_t m, ProjectionKind kind,
    std::size_t row_begin, std::size_t row_end, std::size_t col_begin,
    std::size_t col_end, double* out,
    random::KernelVariant kernel = random::KernelVariant::kAuto);

/// Materializes the full counter-based n×m projection for `seed` — the
/// reference the fused kernel is bit-identical to. Used by reconstruction
/// (regenerate_projection) and tests; publishing itself never calls this.
/// `kernel` as in fill_projection_tile: reconstruction passes the variant
/// matching the release tag it is regenerating.
linalg::DenseMatrix make_projection_counter(
    std::size_t n, std::size_t m, ProjectionKind kind, std::uint64_t seed,
    random::KernelVariant kernel = random::KernelVariant::kAuto);

}  // namespace sgp::core
