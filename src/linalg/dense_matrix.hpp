// Row-major dense matrix of doubles.
//
// Sized for the *published* artifacts of the mechanism: an n×m projected
// matrix with m ≪ n (hundreds), and small m×m Gram/rotation matrices. It is
// deliberately a plain value type (Core Guidelines C.10): copyable, movable,
// no hidden sharing.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sgp::linalg {

/// DenseMatrix storage blocks of at least this many bytes (a release, a
/// publish's Y) get an anonymous mapping of their own, returned to the OS
/// when the matrix is freed; smaller blocks come from the heap. On the
/// heap, a freed release leaves a hole that later small allocations can
/// split, and the next release of the same size then extends the heap by a
/// whole payload, doubling peak memory.
inline constexpr std::size_t kMappedBlockBytes = std::size_t{4} << 20;

namespace detail {
void* allocate_matrix_block(std::size_t bytes);
void free_matrix_block(void* block, std::size_t bytes) noexcept;
}  // namespace detail

/// Allocator of DenseMatrix storage; see kMappedBlockBytes.
template <class T>
struct MatrixAllocator {
  using value_type = T;

  T* allocate(std::size_t n) {
    return static_cast<T*>(detail::allocate_matrix_block(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    detail::free_matrix_block(p, n * sizeof(T));
  }
  friend bool operator==(const MatrixAllocator&, const MatrixAllocator&) {
    return true;
  }
};

class DenseMatrix {
 public:
  /// Empty 0x0 matrix.
  DenseMatrix() = default;

  /// rows × cols matrix, zero-initialized.
  DenseMatrix(std::size_t rows, std::size_t cols);

  /// Builds from row-major data; data.size() must equal rows*cols.
  DenseMatrix(std::size_t rows, std::size_t cols, std::vector<double> data);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Contiguous view of row r.
  [[nodiscard]] std::span<double> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] std::span<double> data() { return data_; }
  [[nodiscard]] std::span<const double> data() const { return data_; }

  /// k × k identity.
  static DenseMatrix identity(std::size_t k);

  /// Matrix product this(r×k) * other(k×c). Parallelized over rows.
  [[nodiscard]] DenseMatrix multiply(const DenseMatrix& other) const;

  /// thisᵀ * other, where this is r×k and other is r×c — i.e. a (k×c) product
  /// of two tall matrices without materializing the transpose.
  [[nodiscard]] DenseMatrix transpose_multiply(const DenseMatrix& other) const;

  /// Gram matrix thisᵀ * this (cols × cols), exploiting symmetry.
  [[nodiscard]] DenseMatrix gram() const;

  /// Matrix-vector product (rows-sized output).
  [[nodiscard]] std::vector<double> multiply_vector(
      std::span<const double> x) const;

  /// Transposed matrix-vector product thisᵀ x (cols-sized output).
  [[nodiscard]] std::vector<double> transpose_multiply_vector(
      std::span<const double> x) const;

  /// Explicit transpose (cols × rows).
  [[nodiscard]] DenseMatrix transposed() const;

  /// Frobenius norm.
  [[nodiscard]] double frobenius_norm() const;

  /// this += alpha * other (same shape).
  void add_scaled(const DenseMatrix& other, double alpha);

  /// Extracts the leading `k` columns as a rows×k matrix. k <= cols().
  [[nodiscard]] DenseMatrix first_columns(std::size_t k) const;

  /// Extracts column c as a vector.
  [[nodiscard]] std::vector<double> column(std::size_t c) const;

  bool operator==(const DenseMatrix& other) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double, MatrixAllocator<double>> data_;
};

}  // namespace sgp::linalg
