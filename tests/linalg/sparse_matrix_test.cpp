#include "linalg/sparse_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "random/rng.hpp"
#include "util/thread_pool.hpp"

namespace sgp::linalg {
namespace {

CsrMatrix small() {
  // [1 0 2]
  // [0 0 0]
  // [3 4 0]
  return CsrMatrix::from_triplets(
      3, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {2, 0, 3.0}, {2, 1, 4.0}});
}

TEST(CsrTest, Dimensions) {
  const auto m = small();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.nnz(), 4u);
}

TEST(CsrTest, EmptyMatrix) {
  const auto m = CsrMatrix::from_triplets(2, 2, {});
  EXPECT_EQ(m.nnz(), 0u);
  const auto y = m.multiply_vector(std::vector<double>{1, 1});
  EXPECT_EQ(y, (std::vector<double>{0, 0}));
}

TEST(CsrTest, OutOfBoundsTripletThrows) {
  EXPECT_THROW(CsrMatrix::from_triplets(2, 2, {{2, 0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(CsrMatrix::from_triplets(2, 2, {{0, 2, 1.0}}),
               std::invalid_argument);
}

TEST(CsrTest, FromSortedRowsAdoptsCanonicalArrays) {
  const auto m = CsrMatrix::from_sorted_rows(3, 3, {0, 2, 2, 4}, {0, 2, 0, 1},
                                             {1.0, 2.0, 3.0, 4.0});
  const auto want = small();
  ASSERT_EQ(m.rows(), want.rows());
  ASSERT_EQ(m.nnz(), want.nnz());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    EXPECT_TRUE(std::ranges::equal(m.row_indices(r), want.row_indices(r)));
    EXPECT_TRUE(std::ranges::equal(m.row_values(r), want.row_values(r)));
  }
  EXPECT_EQ(CsrMatrix::from_sorted_rows(0, 0, {0}, {}, {}).rows(), 0u);
}

TEST(CsrTest, FromSortedRowsRejectsNonCanonicalArrays) {
  // row_ptr that decreases, or that does not run from 0 to nnz.
  EXPECT_THROW(CsrMatrix::from_sorted_rows(2, 3, {0, 2, 1}, {0}, {1.0}),
               std::invalid_argument);
  EXPECT_THROW(
      CsrMatrix::from_sorted_rows(3, 3, {0, 2, 1, 2}, {0, 1}, {1.0, 1.0}),
      std::invalid_argument);
  EXPECT_THROW(CsrMatrix::from_sorted_rows(1, 3, {1, 2}, {0, 1}, {1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(CsrMatrix::from_sorted_rows(2, 3, {0, 1}, {0}, {1.0}),
               std::invalid_argument);
  // Unsorted, repeated, and out-of-range columns.
  EXPECT_THROW(CsrMatrix::from_sorted_rows(1, 3, {0, 2}, {2, 0}, {1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(CsrMatrix::from_sorted_rows(1, 3, {0, 2}, {1, 1}, {1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(CsrMatrix::from_sorted_rows(1, 3, {0, 1}, {3}, {1.0}),
               std::invalid_argument);
  // Values that do not align with the columns.
  EXPECT_THROW(CsrMatrix::from_sorted_rows(1, 3, {0, 1}, {0}, {1.0, 2.0}),
               std::invalid_argument);
}

TEST(CsrTest, DuplicatesAreSummed) {
  const auto m =
      CsrMatrix::from_triplets(1, 1, {{0, 0, 1.5}, {0, 0, 2.5}});
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 4.0);
}

TEST(CsrTest, RowAccessSorted) {
  const auto m = small();
  const auto idx = m.row_indices(2);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 0u);
  EXPECT_EQ(idx[1], 1u);
  const auto val = m.row_values(2);
  EXPECT_DOUBLE_EQ(val[0], 3.0);
  EXPECT_DOUBLE_EQ(val[1], 4.0);
}

TEST(CsrTest, EmptyRow) {
  const auto m = small();
  EXPECT_EQ(m.row_indices(1).size(), 0u);
}

TEST(CsrTest, At) {
  const auto m = small();
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.at(2, 1), 4.0);
  EXPECT_THROW((void)m.at(3, 0), std::invalid_argument);
}

TEST(CsrTest, MultiplyVector) {
  const auto m = small();
  const auto y = m.multiply_vector(std::vector<double>{1, 2, 3});
  EXPECT_EQ(y, (std::vector<double>{7, 0, 11}));
}

TEST(CsrTest, TransposeMultiplyVector) {
  const auto m = small();
  const auto y = m.transpose_multiply_vector(std::vector<double>{1, 2, 3});
  EXPECT_EQ(y, (std::vector<double>{10, 12, 2}));
}

TEST(CsrTest, MultiplyVectorSizeMismatchThrows) {
  const auto m = small();
  EXPECT_THROW((void)m.multiply_vector(std::vector<double>{1, 2}),
               std::invalid_argument);
}

TEST(CsrTest, MultiplyDenseMatchesDenseReference) {
  const auto m = small();
  DenseMatrix b(3, 2, {1, 2, 3, 4, 5, 6});
  const auto fast = m.multiply_dense(b);
  const auto ref = m.to_dense().multiply(b);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_NEAR(fast(i, j), ref(i, j), 1e-12);
    }
  }
}

TEST(CsrTest, ToDense) {
  const auto d = small().to_dense();
  EXPECT_DOUBLE_EQ(d(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(d(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(d(2, 0), 3.0);
}

TEST(CsrTest, IsSymmetric) {
  const auto sym = CsrMatrix::from_triplets(
      2, 2, {{0, 1, 5.0}, {1, 0, 5.0}, {0, 0, 1.0}});
  EXPECT_TRUE(sym.is_symmetric());
  EXPECT_FALSE(small().is_symmetric());
  const auto rect = CsrMatrix::from_triplets(2, 3, {});
  EXPECT_FALSE(rect.is_symmetric());
}

TEST(CsrTest, Sum) {
  EXPECT_DOUBLE_EQ(small().sum(), 10.0);
}

// --- fused generated-operand product --------------------------------------

// A random symmetric matrix (the kernel's contract) plus a deterministic
// "virtual" dense operand whose entry (i, j) = f(i, j), so any tile can be
// produced on demand.
CsrMatrix random_symmetric(std::size_t n, std::uint64_t seed) {
  random::Rng rng(seed);
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  std::vector<Triplet> trips;
  for (int e = 0; e < 1500; ++e) {
    const auto r = static_cast<std::uint32_t>(rng.next_below(n));
    const auto c = static_cast<std::uint32_t>(rng.next_below(n));
    // Skip duplicates: repeated (r, c) entries would be summed, and the
    // bitwise-symmetry the fused kernel's bit-identity tests rely on must
    // not depend on duplicate-merge order.
    if (!seen.insert({std::min(r, c), std::max(r, c)}).second) continue;
    const double v = rng.next_double() - 0.5;
    trips.push_back({r, c, v});
    if (r != c) trips.push_back({c, r, v});
  }
  return CsrMatrix::from_triplets(n, n, trips);
}

double virtual_entry(std::size_t i, std::size_t j) {
  return static_cast<double>(i * 1000 + j) * 0.001 - 3.0;
}

TileFiller virtual_filler() {
  return [](std::size_t r0, std::size_t r1, std::size_t c0, std::size_t c1,
            double* out) {
    const std::size_t width = c1 - c0;
    for (std::size_t i = r0; i < r1; ++i) {
      for (std::size_t j = c0; j < c1; ++j) {
        out[(i - r0) * width + (j - c0)] = virtual_entry(i, j);
      }
    }
  };
}

TEST(CsrTest, MultiplyGeneratedMatchesMultiplyDense) {
  const std::size_t n = 120, k = 37;
  const auto a = random_symmetric(n, 9);
  DenseMatrix b(n, k);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) b(i, j) = virtual_entry(i, j);
  }
  const auto reference = a.multiply_dense(b);
  const auto fused = a.multiply_generated(k, virtual_filler());
  // Bit-identical, not just close: same per-cell accumulation order.
  EXPECT_EQ(fused, reference);
}

TEST(CsrTest, MultiplyGeneratedIdenticalAcrossTilingsAndPools) {
  const std::size_t n = 90, k = 25;
  const auto a = random_symmetric(n, 10);
  const auto reference = a.multiply_generated(k, virtual_filler());
  for (std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    for (std::size_t tile_rows : {1u, 7u, 512u}) {
      for (std::size_t tile_cols : {3u, 25u, 64u}) {
        GeneratedTileOptions opts;
        opts.pool = &pool;
        opts.tile_rows = tile_rows;
        opts.tile_cols = tile_cols;
        const auto y = a.multiply_generated(k, virtual_filler(), opts);
        ASSERT_EQ(y, reference)
            << threads << " threads, tile " << tile_rows << "x" << tile_cols;
      }
    }
  }
}

TEST(CsrTest, MultiplyGeneratedValidatesArguments) {
  const auto rect = CsrMatrix::from_triplets(2, 3, {});
  EXPECT_THROW((void)rect.multiply_generated(4, virtual_filler()),
               std::invalid_argument);
  const auto square = CsrMatrix::from_triplets(2, 2, {});
  EXPECT_THROW((void)square.multiply_generated(4, TileFiller{}),
               std::invalid_argument);
}

TEST(CsrTest, MultiplyGeneratedZeroColumns) {
  const auto a = random_symmetric(10, 11);
  const auto y = a.multiply_generated(0, virtual_filler());
  EXPECT_EQ(y.rows(), 10u);
  EXPECT_EQ(y.cols(), 0u);
}

// --- the source-major kernel ----------------------------------------------

DenseMatrix virtual_operand(std::size_t rows, std::size_t k) {
  DenseMatrix b(rows, k);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < k; ++j) b(i, j) = virtual_entry(i, j);
  }
  return b;
}

TEST(SourceMajorKernelTest, WeightedAndUnitWeightsMatchMultiplyDense) {
  const std::size_t n = 70, k = 19;
  const DenseMatrix b = virtual_operand(n, k);

  const CsrMatrix weighted = random_symmetric(n, 12);
  DenseMatrix got(n, k);
  multiply_generated_into(weighted.scatter_view(), k, virtual_filler(), {},
                          got.data());
  EXPECT_EQ(got, weighted.multiply_dense(b));

  // The same pattern with every value 1: an explicit weight span and the
  // empty (unit) span must both give multiply_dense's bits.
  std::vector<Triplet> ones;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::uint32_t c : weighted.row_indices(r)) {
      ones.push_back({static_cast<std::uint32_t>(r), c, 1.0});
    }
  }
  const CsrMatrix unit = CsrMatrix::from_triplets(n, n, ones);
  const DenseMatrix expected = unit.multiply_dense(b);
  DenseMatrix explicit_ones(n, k);
  multiply_generated_into(unit.scatter_view(), k, virtual_filler(), {},
                          explicit_ones.data());
  EXPECT_EQ(explicit_ones, expected);
  SourceMajorView pattern = unit.scatter_view();
  pattern.weights = {};
  DenseMatrix implicit_ones(n, k);
  multiply_generated_into(pattern, k, virtual_filler(), {},
                          implicit_ones.data());
  EXPECT_EQ(implicit_ones, expected);
}

TEST(SourceMajorKernelTest, RectangularIndexMatchesTransposedProduct) {
  // 40 sources scattering into 9 destinations: out = Tᵀ·B, where T holds
  // source j's destinations in row j. Tᵀ's multiply_dense sums each cell in
  // ascending source order too, so the bits match.
  const std::size_t sources = 40, dests = 9, k = 11;
  random::Rng rng(5);
  std::vector<Triplet> by_source;
  std::vector<Triplet> by_dest;
  for (std::uint32_t j = 0; j < sources; ++j) {
    for (std::uint32_t d = 0; d < dests; ++d) {
      if (rng.next_double() < 0.3) {
        const double v = rng.next_double() - 0.5;
        by_source.push_back({j, d, v});
        by_dest.push_back({d, j, v});
      }
    }
  }
  const CsrMatrix t = CsrMatrix::from_triplets(sources, dests, by_source);
  const CsrMatrix t_transposed =
      CsrMatrix::from_triplets(dests, sources, by_dest);
  DenseMatrix got(dests, k);
  multiply_generated_into(t.scatter_view(), k, virtual_filler(), {},
                          got.data());
  EXPECT_EQ(got, t_transposed.multiply_dense(virtual_operand(sources, k)));
}

TEST(SourceMajorKernelTest, AsksOnlyForSourcesWithDestinations) {
  // Sources 0, 4..6 and 12 have no destination; the others have some.
  const std::vector<std::size_t> offsets = {0, 0, 2, 3, 5, 5, 5,
                                            5, 6, 8, 9, 10, 11, 11, 13};
  const std::vector<std::uint32_t> dest = {0, 2, 1, 0, 3, 2,
                                           0, 1, 3, 2, 1, 0, 3};
  const SourceMajorView view{offsets, dest, {}, 4};
  const std::size_t sources = offsets.size() - 1;
  const std::size_t k = 6;
  for (std::size_t threads : {1u, 4u}) {
    util::ThreadPool pool(threads);
    for (std::size_t tile_rows : {1u, 3u, 512u}) {
      std::mutex mu;
      // Column-block start → how often each source was requested.
      std::map<std::size_t, std::vector<int>> requests;
      const TileFiller counting = [&](std::size_t r0, std::size_t r1,
                                      std::size_t c0, std::size_t c1,
                                      double* out) {
        virtual_filler()(r0, r1, c0, c1, out);
        std::lock_guard<std::mutex> lock(mu);
        EXPECT_LE(r1 - r0, tile_rows);
        auto& counts = requests[c0];
        counts.resize(sources, 0);
        for (std::size_t j = r0; j < r1; ++j) ++counts[j];
      };
      GeneratedTileOptions opts;
      opts.pool = &pool;
      opts.tile_rows = tile_rows;
      opts.tile_cols = 2;
      DenseMatrix got(4, k);
      multiply_generated_into(view, k, counting, opts, got.data());
      ASSERT_EQ(requests.size(), 3u);  // column blocks 0, 2, 4
      for (const auto& [c0, counts] : requests) {
        for (std::size_t j = 0; j < sources; ++j) {
          const int wanted = offsets[j] != offsets[j + 1] ? 1 : 0;
          EXPECT_EQ(counts[j], wanted)
              << "source " << j << ", columns from " << c0 << ", tile_rows "
              << tile_rows << ", " << threads << " threads";
        }
      }
    }
  }
}

TEST(SourceMajorKernelTest, ValidatesTheIndexAndTheOutput) {
  const std::vector<std::size_t> offsets = {0, 1, 2};
  const std::vector<std::uint32_t> dest = {0, 1};
  const std::vector<double> one_weight = {1.0};
  const std::vector<std::uint32_t> outside = {0, 2};
  std::vector<double> out(2 * 3);
  const auto run = [&](const SourceMajorView& view, std::size_t out_size) {
    multiply_generated_into(view, 3, virtual_filler(), {},
                            std::span<double>(out.data(), out_size));
  };
  EXPECT_NO_THROW(run({offsets, dest, {}, 2}, 6));
  EXPECT_THROW(run({offsets, dest, {}, 2}, 5), std::invalid_argument);
  EXPECT_THROW(run({offsets, dest, one_weight, 2}, 6), std::invalid_argument);
  EXPECT_THROW(run({offsets, outside, {}, 2}, 6), std::invalid_argument);
  const std::vector<std::size_t> short_offsets = {0, 1};
  EXPECT_THROW(run({short_offsets, dest, {}, 2}, 6), std::invalid_argument);
  const std::vector<std::size_t> decreasing = {0, 2, 1, 2};
  EXPECT_THROW(run({decreasing, dest, {}, 2}, 6), std::invalid_argument);
}

TEST(CsrTest, LargeRandomMatvecMatchesDense) {
  random::Rng rng(42);
  std::vector<Triplet> trips;
  const std::size_t n = 200;
  for (int e = 0; e < 2000; ++e) {
    trips.push_back({static_cast<std::uint32_t>(rng.next_below(n)),
                     static_cast<std::uint32_t>(rng.next_below(n)),
                     rng.next_double()});
  }
  const auto sp = CsrMatrix::from_triplets(n, n, trips);
  const auto dn = sp.to_dense();
  std::vector<double> x(n);
  for (auto& v : x) v = rng.next_double() - 0.5;
  const auto ys = sp.multiply_vector(x);
  const auto yd = dn.multiply_vector(x);
  for (std::size_t i = 0; i < n; ++i) ASSERT_NEAR(ys[i], yd[i], 1e-10);
  const auto ts = sp.transpose_multiply_vector(x);
  const auto td = dn.transpose_multiply_vector(x);
  for (std::size_t i = 0; i < n; ++i) ASSERT_NEAR(ts[i], td[i], 1e-10);
}

}  // namespace
}  // namespace sgp::linalg
