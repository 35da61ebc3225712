#include "random/kernel_variant.hpp"

#include <cstdlib>
#include <string>

#include "random/counter_rng_simd.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"

namespace sgp::random {
namespace {

/// Runtime CPU feature probe, evaluated once per process. GCC/Clang fold
/// __builtin_cpu_supports into a cached cpuid lookup; the static keeps the
/// policy obvious and the call sites branch-free.
struct CpuFeatures {
  bool avx2 = false;
  bool avx512 = false;
  CpuFeatures() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    avx2 = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    // The AVX-512 TU is compiled with F+DQ+VL; the vectorizer is free to use
    // any of the three, so all must be present at runtime.
    avx512 = __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq") &&
             __builtin_cpu_supports("avx512vl");
#endif
  }
};

const CpuFeatures& cpu() {
  static const CpuFeatures features;
  return features;
}

KernelVariant best_supported() {
  if (kernel_supported(KernelVariant::kAvx512)) return KernelVariant::kAvx512;
  if (kernel_supported(KernelVariant::kAvx2)) return KernelVariant::kAvx2;
  // Without vector hardware the scalar path beats the generic polynomial
  // kernel (software fma), so exact-op auto-dispatch lands on scalar.
  return KernelVariant::kScalar;
}

KernelVariant require_supported(KernelVariant variant) {
  SGP_REQUIRE(kernel_supported(variant),
              "kernel variant '" + std::string(to_string(variant)) +
                  "' is not available on this machine (missing ISA support "
                  "at build or run time)");
  return variant;
}

}  // namespace

std::string_view to_string(KernelVariant variant) {
  switch (variant) {
    case KernelVariant::kAuto:
      return "auto";
    case KernelVariant::kScalar:
      return "scalar";
    case KernelVariant::kGeneric:
      return "generic";
    case KernelVariant::kAvx2:
      return "avx2";
    case KernelVariant::kAvx512:
      return "avx512";
  }
  throw util::InternalError("to_string: invalid KernelVariant");
}

KernelVariant parse_kernel_variant(std::string_view name) {
  if (name == "auto") return KernelVariant::kAuto;
  if (name == "scalar") return KernelVariant::kScalar;
  if (name == "generic") return KernelVariant::kGeneric;
  if (name == "avx2") return KernelVariant::kAvx2;
  if (name == "avx512") return KernelVariant::kAvx512;
  throw util::PreconditionError("unknown kernel variant '" +
                                std::string(name) +
                                "' (expected auto|scalar|generic|avx2|avx512)");
}

bool kernel_supported(KernelVariant variant) {
  switch (variant) {
    case KernelVariant::kAuto:
    case KernelVariant::kScalar:
    case KernelVariant::kGeneric:
      return true;
    case KernelVariant::kAvx2:
      return detail::kernel_avx2_compiled() && cpu().avx2;
    case KernelVariant::kAvx512:
      return detail::kernel_avx512_compiled() && cpu().avx512;
  }
  throw util::InternalError("kernel_supported: invalid KernelVariant");
}

KernelVariant forced_kernel_from_env() {
  const char* value = std::getenv("SGP_FORCE_KERNEL");
  if (value == nullptr || *value == '\0') return KernelVariant::kAuto;
  const KernelVariant variant = parse_kernel_variant(value);
  if (variant == KernelVariant::kAuto) return KernelVariant::kAuto;
  return require_supported(variant);
}

KernelVariant resolve_normal_kernel(KernelVariant requested) {
  if (requested != KernelVariant::kAuto) return require_supported(requested);
  const KernelVariant forced = forced_kernel_from_env();
  if (forced != KernelVariant::kAuto) return forced;
  // Byte-stable default: golden releases and cross-run reproducibility pin
  // gaussian normals to the scalar libm mapping unless explicitly overridden.
  return KernelVariant::kScalar;
}

KernelVariant resolve_exact_kernel(KernelVariant requested) {
  if (requested != KernelVariant::kAuto) return require_supported(requested);
  const KernelVariant forced = forced_kernel_from_env();
  if (forced != KernelVariant::kAuto) return forced;
  return best_supported();
}

KernelVariant best_polynomial_kernel() {
  if (kernel_supported(KernelVariant::kAvx512)) return KernelVariant::kAvx512;
  if (kernel_supported(KernelVariant::kAvx2)) return KernelVariant::kAvx2;
  return KernelVariant::kGeneric;
}

bool uses_polynomial_normals(KernelVariant variant) {
  SGP_REQUIRE(variant != KernelVariant::kAuto,
              "uses_polynomial_normals: resolve kAuto first");
  return variant != KernelVariant::kScalar;
}

}  // namespace sgp::random
