#include "linalg/dense_matrix.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "random/distributions.hpp"
#include "random/rng.hpp"
#include "reference_linalg.hpp"
#include "util/thread_pool.hpp"

namespace sgp::linalg {
namespace {

DenseMatrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  random::Rng rng(seed);
  DenseMatrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = random::normal(rng);
  }
  return m;
}

TEST(DenseMatrixTest, ZeroInitialized) {
  DenseMatrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(m(i, j), 0.0);
  }
}

TEST(DenseMatrixTest, FromDataValidatesSize) {
  EXPECT_THROW(DenseMatrix(2, 2, {1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(DenseMatrixTest, RowMajorLayout) {
  DenseMatrix m(2, 2, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(m(0, 0), 1);
  EXPECT_DOUBLE_EQ(m(0, 1), 2);
  EXPECT_DOUBLE_EQ(m(1, 0), 3);
  EXPECT_DOUBLE_EQ(m(1, 1), 4);
}

TEST(DenseMatrixTest, RowSpanIsWritable) {
  DenseMatrix m(2, 2);
  auto r = m.row(1);
  r[0] = 9;
  EXPECT_DOUBLE_EQ(m(1, 0), 9);
}

TEST(DenseMatrixTest, Identity) {
  const auto eye = DenseMatrix::identity(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(eye(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(DenseMatrixTest, Multiply) {
  DenseMatrix a(2, 3, {1, 2, 3, 4, 5, 6});
  DenseMatrix b(3, 2, {7, 8, 9, 10, 11, 12});
  const auto c = a.multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58);
  EXPECT_DOUBLE_EQ(c(0, 1), 64);
  EXPECT_DOUBLE_EQ(c(1, 0), 139);
  EXPECT_DOUBLE_EQ(c(1, 1), 154);
}

TEST(DenseMatrixTest, MultiplyDimensionMismatchThrows) {
  DenseMatrix a(2, 3);
  DenseMatrix b(2, 2);
  EXPECT_THROW((void)a.multiply(b), std::invalid_argument);
}

TEST(DenseMatrixTest, MultiplyByIdentity) {
  const auto a = random_matrix(5, 5, 1);
  const auto c = a.multiply(DenseMatrix::identity(5));
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) EXPECT_DOUBLE_EQ(c(i, j), a(i, j));
  }
}

TEST(DenseMatrixTest, TransposeMultiplyMatchesExplicit) {
  const auto a = random_matrix(7, 3, 2);
  const auto b = random_matrix(7, 4, 3);
  const auto fast = a.transpose_multiply(b);
  const auto ref = a.transposed().multiply(b);
  ASSERT_EQ(fast.rows(), 3u);
  ASSERT_EQ(fast.cols(), 4u);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(fast(i, j), ref(i, j), 1e-12);
    }
  }
}

TEST(DenseMatrixTest, GramMatchesExplicit) {
  const auto a = random_matrix(6, 4, 4);
  const auto g = a.gram();
  const auto ref = a.transposed().multiply(a);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) EXPECT_NEAR(g(i, j), ref(i, j), 1e-12);
  }
}

TEST(DenseMatrixTest, GramIsSymmetric) {
  const auto g = random_matrix(8, 5, 5).gram();
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) EXPECT_DOUBLE_EQ(g(i, j), g(j, i));
  }
}

/// Normal entries with about a quarter of them exactly zero, which the
/// reference loop skips and gram() multiplies through.
DenseMatrix sparse_random_matrix(std::size_t r, std::size_t c,
                                 std::uint64_t seed) {
  random::Rng rng(seed);
  DenseMatrix m(r, c);
  for (auto& v : m.data()) {
    const double x = random::normal(rng);
    v = rng.next_below(4) == 0 ? 0.0 : x;
  }
  return m;
}

void expect_same_bits(const DenseMatrix& got, const DenseMatrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got(i, j)),
                std::bit_cast<std::uint64_t>(want(i, j)))
          << "G(" << i << ", " << j << ") = " << got(i, j) << " vs "
          << want(i, j);
    }
  }
}

TEST(DenseMatrixTest, GramBitIdenticalToReferenceLoop) {
  // The blocked gram() must keep every entry's summation order: the same
  // bits as the plain loop on the global pool (tiles split across tasks)
  // and from inside a one-thread pool, where parallel_for runs inline.
  util::ThreadPool single(1);
  std::uint64_t seed = 100;
  for (const std::size_t n : {1, 255, 256, 257, 5000}) {
    for (const std::size_t m : {1, 3, 4, 5, 8, 9, 128, 130}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " m=" << m);
      const auto a = sparse_random_matrix(n, m, ++seed);
      const auto want = reference::gram(a);
      expect_same_bits(a.gram(), want);
      DenseMatrix inline_gram;
      single.submit([&] { inline_gram = a.gram(); }).get();
      expect_same_bits(inline_gram, want);
    }
  }
}

TEST(DenseMatrixTest, GramOfEmptyShapes) {
  EXPECT_EQ(DenseMatrix(0, 3).gram(), DenseMatrix(3, 3));
  EXPECT_EQ(DenseMatrix(5, 0).gram(), DenseMatrix(0, 0));
}

TEST(DenseMatrixTest, MappedStorageCopiesMovesAndCompares) {
  // 1024 × 640 doubles = 5 MiB, above kMappedBlockBytes: the storage is an
  // anonymous mapping of its own, and must behave like any other.
  const std::size_t rows = 1024;
  const std::size_t cols = 640;
  ASSERT_GE(rows * cols * sizeof(double), kMappedBlockBytes);
  DenseMatrix a(rows, cols);
  EXPECT_EQ(a(rows - 1, cols - 1), 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    a(i, (i * 7) % cols) = static_cast<double>(i);
  }
  DenseMatrix copy = a;
  EXPECT_EQ(copy, a);
  copy(3, 4) = -1.0;
  EXPECT_NE(copy, a);
  DenseMatrix moved = std::move(copy);
  EXPECT_EQ(moved(3, 4), -1.0);
  EXPECT_EQ(moved(rows - 1, ((rows - 1) * 7) % cols),
            static_cast<double>(rows - 1));
  moved = DenseMatrix(2, 2);  // the mapped block is released here
  EXPECT_EQ(moved, DenseMatrix(2, 2));
}

TEST(DenseMatrixTest, MultiplyVector) {
  DenseMatrix a(2, 3, {1, 2, 3, 4, 5, 6});
  const std::vector<double> x{1, 0, -1};
  const auto y = a.multiply_vector(x);
  EXPECT_DOUBLE_EQ(y[0], -2);
  EXPECT_DOUBLE_EQ(y[1], -2);
}

TEST(DenseMatrixTest, TransposeMultiplyVector) {
  DenseMatrix a(2, 3, {1, 2, 3, 4, 5, 6});
  const std::vector<double> x{1, 1};
  const auto y = a.transpose_multiply_vector(x);
  EXPECT_DOUBLE_EQ(y[0], 5);
  EXPECT_DOUBLE_EQ(y[1], 7);
  EXPECT_DOUBLE_EQ(y[2], 9);
}

TEST(DenseMatrixTest, Transposed) {
  DenseMatrix a(2, 3, {1, 2, 3, 4, 5, 6});
  const auto t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(t(j, i), a(i, j));
  }
}

TEST(DenseMatrixTest, FrobeniusNorm) {
  DenseMatrix a(2, 2, {1, 2, 2, 4});
  EXPECT_DOUBLE_EQ(a.frobenius_norm(), 5.0);
}

TEST(DenseMatrixTest, AddScaled) {
  DenseMatrix a(1, 2, {1, 2});
  DenseMatrix b(1, 2, {10, 20});
  a.add_scaled(b, 0.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 6);
  EXPECT_DOUBLE_EQ(a(0, 1), 12);
}

TEST(DenseMatrixTest, AddScaledShapeMismatchThrows) {
  DenseMatrix a(1, 2);
  DenseMatrix b(2, 1);
  EXPECT_THROW(a.add_scaled(b, 1.0), std::invalid_argument);
}

TEST(DenseMatrixTest, FirstColumns) {
  DenseMatrix a(2, 3, {1, 2, 3, 4, 5, 6});
  const auto sub = a.first_columns(2);
  EXPECT_EQ(sub.cols(), 2u);
  EXPECT_DOUBLE_EQ(sub(0, 1), 2);
  EXPECT_DOUBLE_EQ(sub(1, 1), 5);
  EXPECT_THROW((void)a.first_columns(4), std::invalid_argument);
}

TEST(DenseMatrixTest, Column) {
  DenseMatrix a(2, 3, {1, 2, 3, 4, 5, 6});
  const auto col = a.column(2);
  EXPECT_EQ(col, (std::vector<double>{3, 6}));
  EXPECT_THROW((void)a.column(3), std::invalid_argument);
}

TEST(DenseMatrixTest, LargeMultiplyParallelConsistency) {
  // multiply() runs chunks on the thread pool; verify against a serial
  // reference computed via multiply_vector columns.
  const auto a = random_matrix(300, 40, 6);
  const auto b = random_matrix(40, 7, 7);
  const auto c = a.multiply(b);
  for (std::size_t j = 0; j < 7; ++j) {
    const auto ref = a.multiply_vector(b.column(j));
    for (std::size_t i = 0; i < 300; ++i) {
      ASSERT_NEAR(c(i, j), ref[i], 1e-10);
    }
  }
}

}  // namespace
}  // namespace sgp::linalg
