// Runtime selection of the counter-RNG batch kernel.
//
// The fused publish path can generate projection / noise values through one
// of several implementations of the same counter-indexed mapping:
//
//   kScalar   — the original per-value path (CounterRng::normal with libm
//               log/cos). This is the byte-pinned reference: every golden
//               release in the tree was produced by it.
//   kGeneric  — the batch polynomial kernel compiled with baseline x86-64
//               flags. Slow (software fma), but runs anywhere and produces
//               bit-identical output to the AVX variants.
//   kAvx2     — the same polynomial kernel auto-vectorized for AVX2+FMA.
//   kAvx512   — the same kernel auto-vectorized for AVX-512 (F+DQ+VL).
//
// Two *mappings* exist, not four: integer word generation and the 53-bit
// uniform transform are bit-identical across every variant, while Box–Muller
// normals come in a libm flavour (scalar) and a polynomial flavour
// (generic/avx2/avx512, bit-identical to each other by construction — every
// operation in the polynomial kernel is a correctly-rounded IEEE op, so lane
// width and ISA cannot change the value). Published gaussian releases record
// which normal mapping produced them (core/publisher.hpp, ProjectionRngKind)
// so reconstruction can regenerate P on any machine.
//
// Resolution policy:
//   - Exact ops (bits/uniform) auto-dispatch to the fastest supported
//     variant; output cannot depend on the choice.
//   - Normals default to kScalar so artifact bytes stay stable unless the
//     caller opts in, either programmatically, via the SGP_FORCE_KERNEL
//     environment variable, or the --kernel CLI flag.
//   - Requesting a specific unsupported variant is a PreconditionError;
//     requesting kAuto never fails.
#pragma once

#include <string_view>

namespace sgp::random {

/// Which batch-kernel implementation to use. kAuto defers to the resolution
/// policy (see resolve_normal_kernel / resolve_exact_kernel).
enum class KernelVariant {
  kAuto,
  kScalar,
  kGeneric,
  kAvx2,
  kAvx512,
};

/// Stable lowercase name ("auto", "scalar", "generic", "avx2", "avx512");
/// used by the CLI flag, SGP_FORCE_KERNEL, shard config lines, and bench
/// metadata.
[[nodiscard]] std::string_view to_string(KernelVariant variant);

/// Inverse of to_string. Throws util::PreconditionError on an unknown name.
[[nodiscard]] KernelVariant parse_kernel_variant(std::string_view name);

/// True when `variant` can run in this process: the translation unit for it
/// was compiled with the matching ISA flags AND the CPU reports the feature
/// set at runtime. kScalar and kGeneric are always supported; kAuto is
/// "supported" in the sense that resolution always yields something runnable.
[[nodiscard]] bool kernel_supported(KernelVariant variant);

/// The variant requested through SGP_FORCE_KERNEL, or kAuto when the
/// variable is unset or empty. Throws util::PreconditionError on an unknown
/// value or when the named variant is unsupported here.
[[nodiscard]] KernelVariant forced_kernel_from_env();

/// Resolution for the Box–Muller normal path: kAuto yields the environment
/// override if present, else kScalar (byte-stable default). An explicit
/// variant resolves to itself; unsupported explicit variants throw
/// util::PreconditionError.
[[nodiscard]] KernelVariant resolve_normal_kernel(KernelVariant requested);

/// Resolution for exact ops (bits / uniform), where every variant produces
/// identical bytes: kAuto yields the environment override if present, else
/// the fastest supported variant. Explicit variants behave as above.
[[nodiscard]] KernelVariant resolve_exact_kernel(KernelVariant requested);

/// True when `variant` uses the polynomial normal mapping (anything except
/// kScalar; kAuto is resolved first by callers). Decides the projection-rng
/// tag a gaussian release is published under.
[[nodiscard]] bool uses_polynomial_normals(KernelVariant variant);

/// The fastest supported variant of the polynomial mapping (avx512 > avx2 >
/// generic). Never fails: the generic kernel is always compiled. Used when
/// regenerating "counter-v1-simd" releases, where any polynomial variant
/// yields the same bytes.
[[nodiscard]] KernelVariant best_polynomial_kernel();

}  // namespace sgp::random
