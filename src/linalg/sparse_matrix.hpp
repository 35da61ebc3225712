// Compressed-sparse-row matrix.
//
// This is the in-memory form of an OSN adjacency matrix: n up to millions,
// average degree tens. All heavy kernels of the mechanism (A·P projection,
// Lanczos ground-truth spectra) run over this structure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "linalg/dense_matrix.hpp"

namespace sgp::util {
class ThreadPool;
}  // namespace sgp::util

namespace sgp::linalg {

/// Fills `out` (row-major, stride col_end - col_begin) with the tile
/// B[row_begin..row_end) × [col_begin..col_end) of a virtual dense operand.
/// Must be a pure function of its arguments (no mutable state): the fused
/// kernel calls it from multiple threads, in tile order it chooses.
using TileFiller = std::function<void(std::size_t row_begin,
                                      std::size_t row_end,
                                      std::size_t col_begin,
                                      std::size_t col_end, double* out)>;

/// Tuning knobs for multiply_generated_into and CsrMatrix::multiply_generated.
struct GeneratedTileOptions {
  /// Rows of B generated per tile.
  std::size_t tile_rows = 512;
  /// Columns per tile; 0 = auto (narrow blocks sized so every pool thread
  /// gets work even for small m — generation cost dominates the FMAs, so
  /// narrow blocks cost little).
  std::size_t tile_cols = 0;
  /// Pool to run on; nullptr = util::global_pool().
  util::ThreadPool* pool = nullptr;
};

/// A sparse operator read source-major: source j adds weights[k]·B[j] into
/// output row destinations[k] for every k in [offsets[j], offsets[j + 1]).
/// An empty `weights` span means every weight is 1. The view only borrows;
/// the caller owns the arrays.
struct SourceMajorView {
  std::span<const std::size_t> offsets;         ///< num_sources + 1 entries
  std::span<const std::uint32_t> destinations;  ///< each < num_destinations
  std::span<const double> weights;              ///< empty, or one per entry
  std::size_t num_destinations = 0;
};

/// Fused product out (num_destinations × b_cols, row-major) += A·B, where A
/// is `a` and B (num_sources × b_cols) is never materialized: `fill_tile`
/// generates it on demand into a per-thread scratch buffer. The filler is
/// asked only for runs of at most tile_rows consecutive sources that have
/// at least one destination, each once per column block, so total
/// generation work is (sources with a destination)·b_cols.
///
/// Work is partitioned over column blocks of `out`, so each task owns its
/// slab and no write races exist. Every task walks the sources in
/// ascending order, so each output cell receives its contributions in
/// ascending source order, whatever the tiling and thread count: the result
/// is bit-identical to the pull loop out[r] += Σ_{j ascending} w·B[j].
/// `out` is accumulated into, not cleared.
void multiply_generated_into(const SourceMajorView& a, std::size_t b_cols,
                             const TileFiller& fill_tile,
                             const GeneratedTileOptions& opts,
                             std::span<double> out);

/// One (row, col, value) entry used to assemble a CSR matrix.
struct Triplet {
  std::uint32_t row;
  std::uint32_t col;
  double value;
};

class CsrMatrix {
 public:
  /// Empty 0x0 matrix.
  CsrMatrix() = default;

  /// Assembles from unordered triplets. Duplicate (row, col) entries are
  /// summed. Entries must lie inside rows × cols.
  static CsrMatrix from_triplets(std::size_t rows, std::size_t cols,
                                 std::vector<Triplet> triplets);

  /// Adopts CSR arrays that are already in canonical form: `row_ptr` has
  /// rows + 1 entries, runs from 0 to nnz and never decreases; each row's
  /// columns are strictly ascending and < cols; `values` aligns with
  /// `col_idx`. All of it is checked in O(rows + nnz) — a violation throws
  /// util::PreconditionError — and nothing is sorted or merged.
  static CsrMatrix from_sorted_rows(std::size_t rows, std::size_t cols,
                                    std::vector<std::size_t> row_ptr,
                                    std::vector<std::uint32_t> col_idx,
                                    std::vector<double> values);

  [[nodiscard]] std::size_t rows() const { return row_ptr_.empty() ? 0 : row_ptr_.size() - 1; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return values_.size(); }

  /// Column indices of row r (sorted ascending).
  [[nodiscard]] std::span<const std::uint32_t> row_indices(std::size_t r) const;
  /// Values of row r, aligned with row_indices(r).
  [[nodiscard]] std::span<const double> row_values(std::size_t r) const;

  /// y = A x.
  [[nodiscard]] std::vector<double> multiply_vector(
      std::span<const double> x) const;

  /// y = Aᵀ x.
  [[nodiscard]] std::vector<double> transpose_multiply_vector(
      std::span<const double> x) const;

  /// Dense product A (rows×cols) * B (cols×k) → rows×k. Parallelized over
  /// rows; this is the O(nnz · k) projection kernel of the mechanism.
  [[nodiscard]] DenseMatrix multiply_dense(const DenseMatrix& b) const;

  /// The matrix read source-major: source j scatters into the columns of
  /// row j, so multiply_generated_into over it computes Aᵀ·B, which is A·B
  /// for a symmetric A. Borrows this matrix's arrays.
  [[nodiscard]] SourceMajorView scatter_view() const;

  /// Fused product A (n×n, must be symmetric) * B (n×b_cols) → n×b_cols:
  /// multiply_generated_into over scatter_view(). For a symmetric A each
  /// output cell accumulates in ascending source order, the order of
  /// multiply_dense, so the result is bit-identical to
  /// multiply_dense(materialized B) for every tiling and thread count.
  ///
  /// Symmetry is required because the kernel scatters through row j of A to
  /// reach column j of A (Y[r] += A[j][r]·B[j]). Squareness is checked;
  /// symmetry is the caller's contract (checking it would cost a full
  /// O(nnz·log d) pass per multiply — publish_matrix already documents it).
  [[nodiscard]] DenseMatrix multiply_generated(
      std::size_t b_cols, const TileFiller& fill_tile,
      const GeneratedTileOptions& opts = {}) const;

  /// Materializes the dense equivalent (small matrices / tests only).
  [[nodiscard]] DenseMatrix to_dense() const;

  /// Value at (r, c); zero if not stored. O(log degree(r)).
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

  /// True if the matrix equals its transpose (pattern and values).
  [[nodiscard]] bool is_symmetric(double tol = 0.0) const;

  /// Sum of all stored values.
  [[nodiscard]] double sum() const;

 private:
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::uint32_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace sgp::linalg
