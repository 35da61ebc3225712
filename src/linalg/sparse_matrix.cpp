#include "linalg/sparse_matrix.hpp"

#include <algorithm>
#include <cmath>
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

DenseMatrix CsrMatrix::multiply_generated(
    std::size_t b_cols, const TileFiller& fill_tile,
    const GeneratedTileOptions& opts) const {
  util::require(rows() == cols_, "multiply_generated: matrix must be square");
  util::require(static_cast<bool>(fill_tile),
                "multiply_generated: fill_tile must be callable");
  const std::size_t n = rows();
  DenseMatrix out(n, b_cols);
  if (n == 0 || b_cols == 0) return out;

  util::ThreadPool& pool = opts.pool ? *opts.pool : util::global_pool();
  // Clamp to n before sizing scratch: an adversarial tile_rows (say
  // SIZE_MAX) would otherwise overflow the tile_rows·tile_cols product and
  // allocate a scratch buffer smaller than one tile. After the clamp the
  // product is bounded by n·b_cols, which the `out` allocation above has
  // already proven representable.
  const std::size_t tile_rows =
      std::min(std::max<std::size_t>(1, opts.tile_rows), n);
  std::size_t tile_cols = opts.tile_cols;
  if (tile_cols == 0) {
    // Narrow auto blocks: at least two blocks per thread so the pool stays
    // busy even for the paper's small m (~100), floor 8 to keep the inner
    // FMA loop vectorizable, cap 64 so a tile row stays within one page.
    tile_cols = std::clamp<std::size_t>(
        (b_cols + 2 * pool.size() - 1) / (2 * pool.size()), 8, 64);
  }
  tile_cols = std::min(tile_cols, b_cols);

  static obs::Counter& tiles = obs::counter(obs::names::kLinalgFusedTiles);

  // Each chunk of columns is owned by exactly one task, so the scatter
  // Y[r, c0..c1) += v · tile[j, c0..c1) never races: tasks write disjoint
  // column slabs of `out`. Per output cell (r, c) the contributions arrive
  // in ascending j (outer row-block loop, then rows within the tile), which
  // matches the ascending-column accumulation of multiply_dense on a
  // symmetric matrix — hence bit-identical results for any tiling/threads.
  util::parallel_for(
      pool, 0, b_cols,
      [&](std::size_t col_lo, std::size_t col_hi) {
        std::vector<double> scratch(tile_rows * tile_cols);
        double* const out_data = out.row(0).data();
        for (std::size_t c0 = col_lo; c0 < col_hi; c0 += tile_cols) {
          const std::size_t c1 = std::min(col_hi, c0 + tile_cols);
          const std::size_t width = c1 - c0;
          for (std::size_t j0 = 0; j0 < n; j0 += tile_rows) {
            const std::size_t j1 = std::min(n, j0 + tile_rows);
            fill_tile(j0, j1, c0, c1, scratch.data());
            tiles.add();
            for (std::size_t j = j0; j < j1; ++j) {
              const double* tile_row = scratch.data() + (j - j0) * width;
              const std::size_t k_end = row_ptr_[j + 1];
              for (std::size_t k = row_ptr_[j]; k < k_end; ++k) {
                // The scatter destination row is data-dependent through
                // col_idx_, so the hardware prefetcher can't see it coming;
                // hint the next entry's line while this one's FMAs run.
                if (k + 1 < k_end) {
                  __builtin_prefetch(
                      out_data +
                          static_cast<std::size_t>(col_idx_[k + 1]) * b_cols +
                          c0,
                      /*rw=*/1, /*locality=*/1);
                }
                const double v = values_[k];
                double* orow =
                    out_data + static_cast<std::size_t>(col_idx_[k]) * b_cols +
                    c0;
                for (std::size_t c = 0; c < width; ++c) {
                  orow[c] += v * tile_row[c];
                }
              }
            }
          }
        }
      },
      tile_cols);
  return out;
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
