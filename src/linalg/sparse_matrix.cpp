#include "linalg/sparse_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace sgp::linalg {

CsrMatrix CsrMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                   std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    util::require(t.row < rows && t.col < cols,
                  "from_triplets: entry outside matrix bounds");
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  CsrMatrix m;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());

  std::size_t i = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    while (i < triplets.size() && triplets[i].row == r) {
      const std::uint32_t c = triplets[i].col;
      double v = 0.0;
      while (i < triplets.size() && triplets[i].row == r &&
             triplets[i].col == c) {
        v += triplets[i].value;  // merge duplicates
        ++i;
      }
      m.col_idx_.push_back(c);
      m.values_.push_back(v);
    }
    m.row_ptr_[r + 1] = m.col_idx_.size();
  }
  return m;
}

CsrMatrix CsrMatrix::from_sorted_rows(std::size_t rows, std::size_t cols,
                                      std::vector<std::size_t> row_ptr,
                                      std::vector<std::uint32_t> col_idx,
                                      std::vector<double> values) {
  util::require(!row_ptr.empty() && row_ptr.size() - 1 == rows,
                "from_sorted_rows: row_ptr must have rows + 1 entries");
  util::require(row_ptr.front() == 0 && row_ptr.back() == col_idx.size(),
                "from_sorted_rows: row_ptr must run from 0 to nnz");
  util::require(std::is_sorted(row_ptr.begin(), row_ptr.end()),
                "from_sorted_rows: row_ptr must be non-decreasing");
  util::require(values.size() == col_idx.size(),
                "from_sorted_rows: values must align with col_idx");
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      util::require(col_idx[k] < cols,
                    "from_sorted_rows: column outside matrix bounds");
      util::require(k == row_ptr[r] || col_idx[k - 1] < col_idx[k],
                    "from_sorted_rows: row columns must be strictly "
                    "ascending");
    }
  }
  CsrMatrix m;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  return m;
}

std::span<const std::uint32_t> CsrMatrix::row_indices(std::size_t r) const {
  util::require(r < rows(), "row_indices: row out of range");
  return {col_idx_.data() + row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]};
}

std::span<const double> CsrMatrix::row_values(std::size_t r) const {
  util::require(r < rows(), "row_values: row out of range");
  return {values_.data() + row_ptr_[r], row_ptr_[r + 1] - row_ptr_[r]};
}

std::vector<double> CsrMatrix::multiply_vector(
    std::span<const double> x) const {
  util::require(x.size() == cols_, "multiply_vector: size mismatch");
  std::vector<double> y(rows(), 0.0);
  util::parallel_for(
      0, rows(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          double acc = 0.0;
          for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
            acc += values_[k] * x[col_idx_[k]];
          }
          y[r] = acc;
        }
      },
      4096);
  return y;
}

std::vector<double> CsrMatrix::transpose_multiply_vector(
    std::span<const double> x) const {
  util::require(x.size() == rows(), "transpose_multiply_vector: size mismatch");
  std::vector<double> y(cols_, 0.0);
  for (std::size_t r = 0; r < rows(); ++r) {
    const double xv = x[r];
    if (xv == 0.0) continue;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      y[col_idx_[k]] += values_[k] * xv;
    }
  }
  return y;
}

DenseMatrix CsrMatrix::multiply_dense(const DenseMatrix& b) const {
  util::require(cols_ == b.rows(), "multiply_dense: inner dimension mismatch");
  DenseMatrix out(rows(), b.cols());
  util::parallel_for(
      0, rows(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          auto orow = out.row(r);
          for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
            const double v = values_[k];
            const auto brow = b.row(col_idx_[k]);
            for (std::size_t c = 0; c < brow.size(); ++c) orow[c] += v * brow[c];
          }
        }
      },
      512);
  return out;
}

SourceMajorView CsrMatrix::scatter_view() const {
  return {row_ptr_, col_idx_, values_, cols_};
}

DenseMatrix CsrMatrix::multiply_generated(
    std::size_t b_cols, const TileFiller& fill_tile,
    const GeneratedTileOptions& opts) const {
  util::require(rows() == cols_, "multiply_generated: matrix must be square");
  DenseMatrix out(rows(), b_cols);
  multiply_generated_into(scatter_view(), b_cols, fill_tile, opts, out.data());
  return out;
}

void multiply_generated_into(const SourceMajorView& a, std::size_t b_cols,
                             const TileFiller& fill_tile,
                             const GeneratedTileOptions& opts,
                             std::span<double> out) {
  util::require(static_cast<bool>(fill_tile),
                "multiply_generated: fill_tile must be callable");
  util::require(!a.offsets.empty() && a.offsets.front() == 0 &&
                    a.offsets.back() == a.destinations.size() &&
                    std::is_sorted(a.offsets.begin(), a.offsets.end()),
                "multiply_generated: offsets must run from 0 to the entry "
                "count without decreasing");
  util::require(a.weights.empty() || a.weights.size() == a.destinations.size(),
                "multiply_generated: weights must be empty or one per entry");
  util::require(b_cols == 0 ? out.empty()
                            : out.size() % b_cols == 0 &&
                                  out.size() / b_cols == a.num_destinations,
                "multiply_generated: out must hold num_destinations x b_cols");
  util::require(std::all_of(a.destinations.begin(), a.destinations.end(),
                            [&](std::uint32_t d) {
                              return d < a.num_destinations;
                            }),
                "multiply_generated: destination outside the output");
  const std::size_t sources = a.offsets.size() - 1;
  if (a.destinations.empty() || b_cols == 0) return;

  util::ThreadPool& pool = opts.pool ? *opts.pool : util::global_pool();
  std::size_t tile_cols = opts.tile_cols;
  if (tile_cols == 0) {
    // Narrow auto blocks: at least two blocks per thread so the pool stays
    // busy even for the paper's small m (~100), floor 8 to keep the inner
    // FMA loop vectorizable, cap 64 so a tile row stays within one page.
    tile_cols = std::clamp<std::size_t>(
        (b_cols + 2 * pool.size() - 1) / (2 * pool.size()), 8, 64);
  }
  tile_cols = std::min(tile_cols, b_cols);
  // Clamp before sizing scratch: an adversarial tile_rows (say SIZE_MAX)
  // would otherwise overflow the tile_rows·tile_cols product and allocate a
  // scratch buffer smaller than one tile. No run is longer than the source
  // count, and the product is checked outright.
  const std::size_t tile_rows =
      std::min(std::max<std::size_t>(1, opts.tile_rows), sources);
  util::require(tile_rows <= std::numeric_limits<std::size_t>::max() /
                                 tile_cols,
                "multiply_generated: tile_rows x tile_cols overflows");

  static obs::Counter& tiles = obs::counter(obs::names::kLinalgFusedTiles);
  const std::size_t* const offsets = a.offsets.data();
  const std::uint32_t* const dest = a.destinations.data();
  const double* const weights = a.weights.empty() ? nullptr : a.weights.data();
  const auto has_destination = [offsets](std::size_t j) {
    return offsets[j] != offsets[j + 1];
  };

  // Each chunk of columns is owned by exactly one task, so the scatter
  // out[d, c0..c1) += w · tile[j, c0..c1) never races: tasks write disjoint
  // column slabs of `out`. Per output cell (d, c) the contributions arrive
  // in ascending j (runs in ascending order, then sources within the run),
  // so the bits do not depend on the tiling or the thread count.
  util::parallel_for(
      pool, 0, b_cols,
      [&](std::size_t col_lo, std::size_t col_hi) {
        std::vector<double> scratch(tile_rows * tile_cols);
        double* const out_data = out.data();
        for (std::size_t c0 = col_lo; c0 < col_hi; c0 += tile_cols) {
          const std::size_t c1 = std::min(col_hi, c0 + tile_cols);
          const std::size_t width = c1 - c0;
          std::size_t j0 = 0;
          while (true) {
            // The next run: consecutive sources that each have a
            // destination, so no row of B is generated for nothing.
            while (j0 < sources && !has_destination(j0)) ++j0;
            if (j0 == sources) break;
            std::size_t j1 = j0 + 1;
            while (j1 < sources && j1 - j0 < tile_rows && has_destination(j1)) {
              ++j1;
            }
            fill_tile(j0, j1, c0, c1, scratch.data());
            tiles.add();
            for (std::size_t j = j0; j < j1; ++j) {
              const double* tile_row = scratch.data() + (j - j0) * width;
              const std::size_t k_end = offsets[j + 1];
              for (std::size_t k = offsets[j]; k < k_end; ++k) {
                // The scatter destination row is data-dependent, so the
                // hardware prefetcher can't see it coming; hint the next
                // entry's line while this one's FMAs run.
                if (k + 1 < k_end) {
                  __builtin_prefetch(
                      out_data + static_cast<std::size_t>(dest[k + 1]) * b_cols +
                          c0,
                      /*rw=*/1, /*locality=*/1);
                }
                // A unit weight keeps the bits: 1.0·x == x.
                const double v = weights != nullptr ? weights[k] : 1.0;
                double* orow =
                    out_data + static_cast<std::size_t>(dest[k]) * b_cols + c0;
                for (std::size_t c = 0; c < width; ++c) {
                  orow[c] += v * tile_row[c];
                }
              }
            }
            j0 = j1;
          }
        }
      },
      tile_cols);
}

DenseMatrix CsrMatrix::to_dense() const {
  DenseMatrix out(rows(), cols_);
  for (std::size_t r = 0; r < rows(); ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      out(r, col_idx_[k]) = values_[k];
    }
  }
  return out;
}

double CsrMatrix::at(std::size_t r, std::size_t c) const {
  util::require(r < rows() && c < cols_, "at: index out of range");
  const auto idx = row_indices(r);
  const auto it = std::lower_bound(idx.begin(), idx.end(),
                                   static_cast<std::uint32_t>(c));
  if (it == idx.end() || *it != c) return 0.0;
  return row_values(r)[static_cast<std::size_t>(it - idx.begin())];
}

bool CsrMatrix::is_symmetric(double tol) const {
  if (rows() != cols_) return false;
  for (std::size_t r = 0; r < rows(); ++r) {
    const auto idx = row_indices(r);
    const auto val = row_values(r);
    for (std::size_t k = 0; k < idx.size(); ++k) {
      if (std::fabs(at(idx[k], r) - val[k]) > tol) return false;
    }
  }
  return true;
}

double CsrMatrix::sum() const {
  double acc = 0.0;
  for (double v : values_) acc += v;
  return acc;
}

}  // namespace sgp::linalg
