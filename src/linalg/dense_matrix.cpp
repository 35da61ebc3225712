#include "linalg/dense_matrix.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <new>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace sgp::linalg {

namespace detail {

// Mappings are populated up front: a matrix fills all of its storage on
// construction, and one populating call is cheaper than a fault per page.
void* allocate_matrix_block(std::size_t bytes) {
  if (bytes < kMappedBlockBytes) return ::operator new(bytes);
  void* block = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
  if (block == MAP_FAILED) throw std::bad_alloc();
  return block;
}

void free_matrix_block(void* block, std::size_t bytes) noexcept {
  if (bytes < kMappedBlockBytes) {
    ::operator delete(block);
  } else {
    munmap(block, bytes);
  }
}

}  // namespace detail

namespace {

// gram() splits G's upper triangle into tiles of kGramTileRows rows, sweeps
// each in strips of kGramTileCols columns with one accumulator per entry,
// and reads the matrix in blocks of kGramBlockRows rows, so that a block
// stays in cache while all of a task's strips pass over it.
constexpr std::size_t kGramTileRows = 4;
constexpr std::size_t kGramTileCols = 8;
constexpr std::size_t kGramBlockRows = 256;
// Below this many multiply-adds a Gram runs on the calling thread.
constexpr std::size_t kGramParallelWork = std::size_t{1} << 20;

/// G[i0, i0+h) × [j0, j0+w) += rows [r0, r1) of the row-major matrix `a`
/// (m columns), one row at a time in ascending order. A full tile sums into
/// a local block that the compiler can keep in registers.
void add_gram_block(const double* a, std::size_t m, std::size_t r0,
                    std::size_t r1, std::size_t i0, std::size_t h,
                    std::size_t j0, std::size_t w, double* g) {
  if (h == kGramTileRows && w == kGramTileCols) {
    double acc[kGramTileRows][kGramTileCols];
    for (std::size_t x = 0; x < kGramTileRows; ++x) {
      for (std::size_t y = 0; y < kGramTileCols; ++y) {
        acc[x][y] = g[(i0 + x) * m + j0 + y];
      }
    }
    for (std::size_t r = r0; r < r1; ++r) {
      const double* row = a + r * m;
      for (std::size_t x = 0; x < kGramTileRows; ++x) {
        const double v = row[i0 + x];
        for (std::size_t y = 0; y < kGramTileCols; ++y) {
          acc[x][y] += v * row[j0 + y];
        }
      }
    }
    for (std::size_t x = 0; x < kGramTileRows; ++x) {
      for (std::size_t y = 0; y < kGramTileCols; ++y) {
        g[(i0 + x) * m + j0 + y] = acc[x][y];
      }
    }
    return;
  }
  for (std::size_t r = r0; r < r1; ++r) {
    const double* row = a + r * m;
    for (std::size_t x = 0; x < h; ++x) {
      const double v = row[i0 + x];
      double* grow = g + (i0 + x) * m;
      for (std::size_t y = 0; y < w; ++y) grow[j0 + y] += v * row[j0 + y];
    }
  }
}

}  // namespace

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols,
                         std::vector<double> data)
    : rows_(rows), cols_(cols), data_(data.begin(), data.end()) {
  util::require(data_.size() == rows * cols,
                "dense matrix: data size must equal rows*cols");
}

DenseMatrix DenseMatrix::identity(std::size_t k) {
  DenseMatrix eye(k, k);
  for (std::size_t i = 0; i < k; ++i) eye(i, i) = 1.0;
  return eye;
}

DenseMatrix DenseMatrix::multiply(const DenseMatrix& other) const {
  util::require(cols_ == other.rows_, "multiply: inner dimensions mismatch");
  DenseMatrix out(rows_, other.cols_);
  util::parallel_for(
      0, rows_,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          for (std::size_t k = 0; k < cols_; ++k) {
            const double a = (*this)(r, k);
            if (a == 0.0) continue;
            const auto brow = other.row(k);
            auto orow = out.row(r);
            for (std::size_t c = 0; c < other.cols_; ++c) orow[c] += a * brow[c];
          }
        }
      },
      64);
  return out;
}

DenseMatrix DenseMatrix::transpose_multiply(const DenseMatrix& other) const {
  util::require(rows_ == other.rows_,
                "transpose_multiply: row counts must match");
  DenseMatrix out(cols_, other.cols_);
  // Accumulate rank-1 updates row by row: out += a_rᵀ b_r.
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto arow = row(r);
    const auto brow = other.row(r);
    for (std::size_t i = 0; i < cols_; ++i) {
      const double a = arow[i];
      if (a == 0.0) continue;
      auto orow = out.row(i);
      for (std::size_t j = 0; j < other.cols_; ++j) orow[j] += a * brow[j];
    }
  }
  return out;
}

DenseMatrix DenseMatrix::gram() const {
  const std::size_t m = cols_;
  DenseMatrix g(m, m);
  // Every G(i, j), j >= i, is the sum over rows r of a(r, i)·a(r, j), added
  // in ascending r by exactly one task, so the bits do not depend on the
  // pool size and equal those of the plain rank-1-update loop. Zero entries
  // are multiplied through: for finite input a ±0 product never changes a
  // sum that starts at +0, so skipping them would give the same bits. Tasks
  // own whole row tiles of G's upper triangle, a long tile t paired with the
  // short tile T-1-t, and each task passes over the rows once, block by
  // block.
  const std::size_t tiles = (m + kGramTileRows - 1) / kGramTileRows;
  const std::size_t pairs = (tiles + 1) / 2;
  const double* a = data_.data();
  const auto sweep = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r0 = 0; r0 < rows_; r0 += kGramBlockRows) {
      const std::size_t r1 = std::min(rows_, r0 + kGramBlockRows);
      const auto add_tile = [&](std::size_t t) {
        const std::size_t i0 = t * kGramTileRows;
        const std::size_t h = std::min(kGramTileRows, m - i0);
        for (std::size_t j0 = i0; j0 < m; j0 += kGramTileCols) {
          add_gram_block(a, m, r0, r1, i0, h, j0,
                         std::min(kGramTileCols, m - j0), g.data_.data());
        }
      };
      for (std::size_t p = lo; p < hi; ++p) {
        add_tile(p);
        if (tiles - 1 - p != p) add_tile(tiles - 1 - p);
      }
    }
  };
  if (rows_ * m * m < kGramParallelWork) {
    sweep(0, pairs);
  } else {
    // One chunk per pool thread, so Ỹ is read once per thread.
    const std::size_t threads = util::global_pool().size();
    util::parallel_for(0, pairs, sweep, (pairs + threads - 1) / threads);
  }
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
  }
  return g;
}

std::vector<double> DenseMatrix::multiply_vector(
    std::span<const double> x) const {
  util::require(x.size() == cols_, "multiply_vector: size mismatch");
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto arow = row(r);
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += arow[c] * x[c];
    y[r] = acc;
  }
  return y;
}

std::vector<double> DenseMatrix::transpose_multiply_vector(
    std::span<const double> x) const {
  util::require(x.size() == rows_, "transpose_multiply_vector: size mismatch");
  std::vector<double> y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xv = x[r];
    if (xv == 0.0) continue;
    const auto arow = row(r);
    for (std::size_t c = 0; c < cols_; ++c) y[c] += arow[c] * xv;
  }
  return y;
}

DenseMatrix DenseMatrix::transposed() const {
  DenseMatrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

double DenseMatrix::frobenius_norm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

void DenseMatrix::add_scaled(const DenseMatrix& other, double alpha) {
  util::require(rows_ == other.rows_ && cols_ == other.cols_,
                "add_scaled: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * other.data_[i];
  }
}

DenseMatrix DenseMatrix::first_columns(std::size_t k) const {
  util::require(k <= cols_, "first_columns: k must be <= cols");
  DenseMatrix out(rows_, k);
  for (std::size_t r = 0; r < rows_; ++r) {
    const auto src = row(r);
    auto dst = out.row(r);
    for (std::size_t c = 0; c < k; ++c) dst[c] = src[c];
  }
  return out;
}

std::vector<double> DenseMatrix::column(std::size_t c) const {
  util::require(c < cols_, "column: index out of range");
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

}  // namespace sgp::linalg
