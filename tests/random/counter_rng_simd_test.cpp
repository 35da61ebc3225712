// Contracts of the batched counter-RNG kernels (random/counter_rng_simd.hpp):
//   - bits/uniform batches are bit-identical to the scalar methods under
//     every variant this machine supports;
//   - normal batches under kScalar reproduce CounterRng::normal byte-for-byte;
//   - the polynomial variants (generic/avx2/avx512) are bit-identical to each
//     other, elementwise within 1e-12 of the libm scalar mapping, and pass
//     the same KS / chi-square / moments suite the dp noise layer enforces;
//   - the 2^63 word-doubling guard rejects wrapping counter ranges.
// Everything is fixed-seed and deterministic, so no assertion here can flake.
#include "random/counter_rng_simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "../dp/stat_utils.hpp"
#include "random/counter_rng.hpp"
#include "random/kernel_variant.hpp"
#include "util/errors.hpp"

namespace sgp::random {
namespace {

constexpr std::uint64_t kWordLimit = std::uint64_t{1} << 63;

/// Variants that can actually run in this process (always includes scalar
/// and generic; avx2/avx512 when compiled in and reported by cpuid).
std::vector<KernelVariant> supported_variants() {
  std::vector<KernelVariant> v{KernelVariant::kScalar, KernelVariant::kGeneric};
  if (kernel_supported(KernelVariant::kAvx2)) v.push_back(KernelVariant::kAvx2);
  if (kernel_supported(KernelVariant::kAvx512)) {
    v.push_back(KernelVariant::kAvx512);
  }
  return v;
}

std::vector<KernelVariant> supported_polynomial_variants() {
  auto v = supported_variants();
  v.erase(std::remove(v.begin(), v.end(), KernelVariant::kScalar), v.end());
  return v;
}

/// min(absolute, relative) difference — the elementwise metric the
/// polynomial-vs-libm contract is stated in.
double elementwise_err(double a, double b) {
  const double abs_err = std::abs(a - b);
  const double scale = std::max(std::abs(a), std::abs(b));
  return scale > 0.0 ? std::min(abs_err, abs_err / scale) : abs_err;
}

TEST(CounterRngSimdTest, BitsBatchBitIdenticalUnderEveryVariant) {
  const CounterRng rng(42, 0);
  // An odd count exercises every vector tail; an unaligned begin exercises
  // lane offsets.
  const std::uint64_t begin = 12'345;
  const std::size_t count = 1'027;
  for (const KernelVariant v : supported_variants()) {
    std::vector<std::uint64_t> out(count);
    bits_batch(rng, begin, count, out.data(), v);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(out[i], rng.bits(begin + i))
          << "variant " << to_string(v) << " index " << i;
    }
  }
}

TEST(CounterRngSimdTest, UniformBatchBitIdenticalUnderEveryVariant) {
  const CounterRng rng(7, 1);
  const std::uint64_t begin = 999;
  const std::size_t count = 513;
  for (const KernelVariant v : supported_variants()) {
    std::vector<double> out(count);
    uniform_batch(rng, begin, count, out.data(), v);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(out[i], rng.uniform(begin + i))
          << "variant " << to_string(v) << " index " << i;
    }
  }
}

TEST(CounterRngSimdTest, NormalBatchScalarIsByteIdenticalToCounterRng) {
  const CounterRng rng(97, 1);
  const std::size_t count = 1'000;
  std::vector<double> out(count);
  normal_batch(rng, 0, count, out.data(), KernelVariant::kScalar);
  for (std::size_t i = 0; i < count; ++i) {
    // Bit-level equality, not EXPECT_DOUBLE_EQ: the scalar batch IS the
    // golden path.
    ASSERT_EQ(out[i], rng.normal(i)) << "index " << i;
  }
}

TEST(CounterRngSimdTest, PolynomialVariantsAreBitIdenticalToEachOther) {
  const CounterRng rng(42, 1);
  const std::size_t count = 4'096 + 7;  // ragged tail past every lane width
  std::vector<double> reference(count);
  normal_batch(rng, 31, count, reference.data(), KernelVariant::kGeneric);
  for (const KernelVariant v : supported_polynomial_variants()) {
    std::vector<double> out(count);
    normal_batch(rng, 31, count, out.data(), v);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(out[i], reference[i])
          << "variant " << to_string(v) << " index " << i;
    }
  }
}

TEST(CounterRngSimdTest, PolynomialNormalsTrackScalarElementwise) {
  const CounterRng rng(1234, 1);
  const std::size_t count = 20'000;
  std::vector<double> scalar(count);
  std::vector<double> poly(count);
  normal_batch(rng, 0, count, scalar.data(), KernelVariant::kScalar);
  normal_batch(rng, 0, count, poly.data(), KernelVariant::kGeneric);
  double worst = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    worst = std::max(worst, elementwise_err(poly[i], scalar[i]));
  }
  // Prototype measurement is ~8e-16 (sub-ulp polynomials); 1e-12 leaves
  // three orders of margin while still catching any real coefficient or
  // range-reduction regression.
  EXPECT_LT(worst, 1e-12);
}

TEST(CounterRngSimdTest, EveryVariantPassesTheDpStatisticalSuite) {
  // Same critical values as tests/dp/noise_statistics_test.cpp:
  // P[sqrt(n)·D > 1.95] ≈ 0.001, chi-square(31 dof) P[X > 61.1] ≈ 0.001.
  constexpr double kKsCritical = 1.95;
  constexpr std::size_t kChiBins = 32;
  constexpr double kChiCritical = 61.1;
  const CounterRng rng(97, 1);
  const std::size_t n = 20'000;
  for (const KernelVariant v : supported_variants()) {
    std::vector<double> samples(n);
    normal_batch(rng, 0, n, samples.data(), v);
    const double ks = test_stats::ks_statistic_normal(samples);
    EXPECT_LT(std::sqrt(static_cast<double>(n)) * ks, kKsCritical)
        << "variant " << to_string(v);
    EXPECT_LT(test_stats::chi_square_normal(samples, kChiBins), kChiCritical)
        << "variant " << to_string(v);
    const auto m = test_stats::moments(samples);
    EXPECT_NEAR(m.mean, 0.0, 0.02) << "variant " << to_string(v);
    EXPECT_NEAR(m.variance, 1.0, 0.05) << "variant " << to_string(v);
    EXPECT_NEAR(m.kurtosis, 3.0, 0.15) << "variant " << to_string(v);
  }
}

TEST(CounterRngSimdTest, RaggedCountsMatchScalarForEveryVariant) {
  // Counts 0..33 cover every remainder class of the 4- and 8-lane loops.
  const CounterRng rng(5, 0);
  for (const KernelVariant v : supported_polynomial_variants()) {
    for (std::size_t count = 0; count <= 33; ++count) {
      std::vector<double> out(count + 1, -1.0);
      normal_batch(rng, 100, count, out.data(), v);
      // One-past-the-end must be untouched.
      EXPECT_EQ(out[count], -1.0) << "variant " << to_string(v);
      std::vector<double> generic(count);
      normal_batch(rng, 100, count, generic.data(), KernelVariant::kGeneric);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(out[i], generic[i])
            << "variant " << to_string(v) << " count " << count;
      }
    }
  }
}

TEST(CounterRngSimdTest, ScalarNormalRejectsWordDoublingOverflow) {
  const CounterRng rng(42, 1);
  // 2^63 − 1 is the last legal counter; 2^63 would alias counter 0's words.
  EXPECT_NO_THROW((void)rng.normal(kWordLimit - 1));
  EXPECT_THROW((void)rng.normal(kWordLimit), util::PreconditionError);
  EXPECT_THROW((void)rng.normal(~std::uint64_t{0}), util::PreconditionError);
}

TEST(CounterRngSimdTest, ScalarNormalBoundaryIsNotAnAliasOfCounterZero) {
  // Regression shape for the wrap: before the guard, counter 2^63 consumed
  // words (0, 1) — exactly counter 0's draw. The last legal counter must
  // produce a value unrelated to counter 0.
  const CounterRng rng(42, 1);
  EXPECT_NE(rng.normal(kWordLimit - 1), rng.normal(0));
}

TEST(CounterRngSimdTest, NormalBatchRejectsRangesReachingTheLimit) {
  const CounterRng rng(42, 1);
  double out[4];
  // Last legal window of 4: [2^63 − 4, 2^63 − 1].
  EXPECT_NO_THROW(
      normal_batch(rng, kWordLimit - 4, 4, out, KernelVariant::kScalar));
  for (const KernelVariant v : supported_variants()) {
    EXPECT_THROW(normal_batch(rng, kWordLimit - 3, 4, out, v),
                 util::PreconditionError)
        << "variant " << to_string(v);
    EXPECT_THROW(normal_batch(rng, kWordLimit, 1, out, v),
                 util::PreconditionError)
        << "variant " << to_string(v);
  }
  // An empty batch is a no-op wherever it starts, matching bits/uniform.
  EXPECT_NO_THROW(
      normal_batch(rng, ~std::uint64_t{0}, 0, out, KernelVariant::kScalar));
}

TEST(CounterRngSimdTest, PolynomialVariantsAgreeAtTheCounterBoundary) {
  // The highest legal counters stress the lane-index arithmetic (adding the
  // lane offset to a counter near 2^63 − 1 must not wrap internally).
  const CounterRng rng(42, 1);
  const std::size_t count = 37;
  const std::uint64_t begin = kWordLimit - count;
  std::vector<double> reference(count);
  normal_batch(rng, begin, count, reference.data(), KernelVariant::kGeneric);
  for (const KernelVariant v : supported_polynomial_variants()) {
    std::vector<double> out(count);
    normal_batch(rng, begin, count, out.data(), v);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(out[i], reference[i]) << "variant " << to_string(v);
    }
    for (const double x : out) {
      ASSERT_TRUE(std::isfinite(x)) << "variant " << to_string(v);
    }
  }
}

TEST(KernelVariantTest, NamesRoundTrip) {
  for (const KernelVariant v :
       {KernelVariant::kAuto, KernelVariant::kScalar, KernelVariant::kGeneric,
        KernelVariant::kAvx2, KernelVariant::kAvx512}) {
    EXPECT_EQ(parse_kernel_variant(to_string(v)), v);
  }
  EXPECT_THROW((void)parse_kernel_variant("sse9"), util::PreconditionError);
  EXPECT_THROW((void)parse_kernel_variant(""), util::PreconditionError);
}

TEST(KernelVariantTest, ScalarAndGenericAreAlwaysSupported) {
  EXPECT_TRUE(kernel_supported(KernelVariant::kScalar));
  EXPECT_TRUE(kernel_supported(KernelVariant::kGeneric));
}

TEST(KernelVariantTest, ResolutionPolicy) {
  // Env-free resolution: normals pin to scalar (byte stability), exact ops
  // pick the fastest supported variant, and explicit requests resolve to
  // themselves. The env override path is exercised by the CLI integration
  // tests; mutating the environment here would race other test threads.
  if (forced_kernel_from_env() == KernelVariant::kAuto) {
    EXPECT_EQ(resolve_normal_kernel(KernelVariant::kAuto),
              KernelVariant::kScalar);
    EXPECT_NE(resolve_exact_kernel(KernelVariant::kAuto),
              KernelVariant::kAuto);
  }
  EXPECT_EQ(resolve_normal_kernel(KernelVariant::kGeneric),
            KernelVariant::kGeneric);
  EXPECT_EQ(resolve_exact_kernel(KernelVariant::kScalar),
            KernelVariant::kScalar);
}

TEST(KernelVariantTest, PolynomialMappingClassifier) {
  EXPECT_FALSE(uses_polynomial_normals(KernelVariant::kScalar));
  EXPECT_TRUE(uses_polynomial_normals(KernelVariant::kGeneric));
  EXPECT_TRUE(uses_polynomial_normals(KernelVariant::kAvx2));
  EXPECT_TRUE(uses_polynomial_normals(KernelVariant::kAvx512));
  EXPECT_THROW((void)uses_polynomial_normals(KernelVariant::kAuto),
               util::PreconditionError);
  // best_polynomial_kernel never lands on a non-polynomial variant and is
  // always runnable.
  const KernelVariant best = best_polynomial_kernel();
  EXPECT_TRUE(uses_polynomial_normals(best));
  EXPECT_TRUE(kernel_supported(best));
}

}  // namespace
}  // namespace sgp::random
