#!/usr/bin/env bash
# Full static-analysis and sanitizer matrix (docs/static_analysis.md):
#
#   1. sgp-lint        repo-invariant rules R1-R10 against the tree,
#                      modulo the checked-in .lint-baseline.json; emits
#                      the machine-readable build/lint.sarif artifact and
#                      gates on a warm-vs-cold cache byte-diff
#   2. strict warnings -Wall -Wextra -Wconversion -Werror (SGP_WERROR)
#   3. clang-tidy      AST-level checks (.clang-tidy) — skipped with a
#                      notice when the toolchain does not ship clang-tidy
#   4. ASan + UBSan    full ctest suite under address+undefined sanitizers
#                      (suppressions in tools/suppressions/)
#   5. TSan            thread-labeled suites via tools/run_tsan.sh
#   6. chaos suites    `ctest -L chaos`: process-level fault injection —
#                      worker kills, lease reclaim, ledger exactly-once
#                      (docs/robustness.md); also part of the default run,
#                      repeated here as its own gate
#   7. slow suites     `ctest -C slow -L slow`: the full shard×thread×
#                      process differential matrix and deep statistical
#                      tests (docs/scaling.md) that the default ctest run
#                      skips
#   8. obs plane       a distributed and an in-memory publish with
#                      --metrics-out, then both v2 reports through
#                      sgp_bench_check and sgp_trace (--chrome /
#                      --validate-chrome / --summary) end to end
#                      (docs/observability.md)
#   9. kernel diff     scalar-vs-vectorized differential: the simd-labeled
#                      suites (per-variant byte equality across publish
#                      paths) plus an end-to-end SGP_FORCE_KERNEL sweep of
#                      sgp_publish, asserting each vector variant's bytes
#                      match its forced re-run and the scalar bytes stay
#                      distinct under the counter-v1 tag (DESIGN.md)
#  10. scenario grid   `ctest -L scenario`: the PARAMETERIZE/PICK engine,
#                      the full mechanism × generator × (ε, δ) × task
#                      structural grid, the migration coverage pins, and
#                      the BENCH_E14.json emit/validate fixture pair
#                      (docs/mechanisms.md)
#
#   tools/run_static_analysis.sh [--fast]
#
# --fast runs layers 1-2 only (the ones a pre-commit hook wants). Exits
# non-zero if any layer fails; skipped layers are reported but don't fail
# the run.
set -euo pipefail

cd "$(dirname "$0")/.."
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

fail=0
note() { printf '\n=== %s ===\n' "$*"; }

# --- 1. sgp-lint ------------------------------------------------------------
note "sgp-lint (rules R1-R10)"
cmake -B build -S . >/dev/null
cmake --build build -j --target sgp_lint >/dev/null
if ./build/tools/sgp_lint --root .; then
  echo "sgp-lint: clean"
else
  echo "sgp-lint: FINDINGS (see above)"
  fail=1
fi
# Machine-readable artifact for CI ingestion, emitted findings or not
# (the exit code above is the gate).
./build/tools/sgp_lint --root . --format sarif --out build/lint.sarif || true
echo "sgp-lint: SARIF artifact at build/lint.sarif"

# Warm-vs-cold cache diff: an incremental run must report byte-identically
# to a from-scratch one, and a warm run on an unchanged tree must re-lint
# nothing (docs/static_analysis.md, "Parallel walk and the incremental
# cache").
lint_cache_dir="$(mktemp -d)"
./build/tools/sgp_lint --root . --no-baseline --format json \
  --cache --cache-path "${lint_cache_dir}/cache.json" \
  --out "${lint_cache_dir}/cold.json" 2>/dev/null || true
./build/tools/sgp_lint --root . --no-baseline --format json \
  --cache --cache-path "${lint_cache_dir}/cache.json" \
  --out "${lint_cache_dir}/warm.json" 2> "${lint_cache_dir}/warm.stats" || true
if cmp -s "${lint_cache_dir}/cold.json" "${lint_cache_dir}/warm.json" &&
   grep -q ", 0 re-linted," "${lint_cache_dir}/warm.stats"; then
  echo "sgp-lint cache: warm run byte-identical, 0 files re-linted"
else
  echo "sgp-lint cache: warm/cold DIVERGED"
  fail=1
fi
rm -rf "${lint_cache_dir}"

# --- 2. strict warnings -----------------------------------------------------
note "strict warnings (-Wall -Wextra -Wconversion -Werror)"
cmake -B build-werror -S . -DSGP_WERROR=ON >/dev/null
if cmake --build build-werror -j >/dev/null; then
  echo "warnings: clean"
else
  echo "warnings: FAILED"
  fail=1
fi

# --- 3. clang-tidy ----------------------------------------------------------
note "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
  # compile_commands.json comes from the werror build above.
  mapfile -t tidy_sources < <(git ls-files 'src/*.cpp' 'tools/*.cpp')
  if clang-tidy -p build-werror --quiet "${tidy_sources[@]}"; then
    echo "clang-tidy: clean"
  else
    echo "clang-tidy: FINDINGS"
    fail=1
  fi
else
  echo "clang-tidy: not installed in this toolchain — skipped"
fi

if [[ "${FAST}" == "1" ]]; then
  [[ "${fail}" == "0" ]] && echo && echo "fast matrix: PASS"
  exit "${fail}"
fi

# --- 4. ASan + UBSan --------------------------------------------------------
note "AddressSanitizer + UndefinedBehaviorSanitizer"
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSGP_SANITIZE="address;undefined" >/dev/null
cmake --build build-asan -j >/dev/null
export ASAN_OPTIONS="detect_leaks=1:suppressions=$(pwd)/tools/suppressions/asan.supp"
export LSAN_OPTIONS="suppressions=$(pwd)/tools/suppressions/lsan.supp"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1:suppressions=$(pwd)/tools/suppressions/ubsan.supp"
if ctest --test-dir build-asan --output-on-failure -j "$(nproc)"; then
  echo "asan+ubsan: clean"
else
  echo "asan+ubsan: FAILED"
  fail=1
fi

# --- 5. TSan ----------------------------------------------------------------
note "ThreadSanitizer (tsan-labeled suites)"
export TSAN_OPTIONS="suppressions=$(pwd)/tools/suppressions/tsan.supp"
if tools/run_tsan.sh; then
  echo "tsan: clean"
else
  echo "tsan: FAILED"
  fail=1
fi

# --- 6. chaos suites --------------------------------------------------------
note "chaos suites (ctest -L chaos)"
cmake --build build -j >/dev/null
if ctest --test-dir build -L chaos --output-on-failure; then
  echo "chaos suites: clean"
else
  echo "chaos suites: FAILED"
  fail=1
fi

# --- 7. slow suites ---------------------------------------------------------
note "slow suites (ctest -C slow -L slow)"
if ctest --test-dir build -C slow -L slow --output-on-failure -j "$(nproc)"; then
  echo "slow suites: clean"
else
  echo "slow suites: FAILED"
  fail=1
fi

# --- 8. obs plane -----------------------------------------------------------
note "observability plane (v2 reports + sgp_trace)"
cmake --build build -j --target sgp_publish sgp_trace sgp_bench_check \
  sgp_generate >/dev/null
obs_dir="$(mktemp -d)"
trap 'rm -rf "${obs_dir}"' EXIT
obs_ok=1
./build/tools/sgp_generate --model ba --nodes 200 --out "${obs_dir}/g.edges" \
  >/dev/null 2>&1 || obs_ok=0
./build/tools/sgp_publish --edges "${obs_dir}/g.edges" --out "${obs_dir}/r.bin" \
  --dim 16 --seed 7 --shard-rows 32 --workers 2 \
  --metrics-out "${obs_dir}/merged.json" >/dev/null 2>&1 || obs_ok=0
# The worker release must equal the in-memory one, and a finished publish
# leaves no shard log, side file or worker progress file behind.
./build/tools/sgp_publish --edges "${obs_dir}/g.edges" \
  --out "${obs_dir}/inmem.bin" --dim 16 --seed 7 \
  --metrics-out "${obs_dir}/inmem.json" >/dev/null 2>&1 || obs_ok=0
cmp -s "${obs_dir}/r.bin" "${obs_dir}/inmem.bin" || {
  echo "obs plane: worker release differs from the in-memory release"
  obs_ok=0
}
leftovers="$(find "${obs_dir}" -name 'r.bin.ckpt' -o -name 'r.bin.shard.*' \
  -o -name 'r.bin.w*')"
if [[ -n "${leftovers}" ]]; then
  echo "obs plane: left behind: ${leftovers}"
  obs_ok=0
fi
# One schema: the single-process report renders exactly like the merged one.
for report in merged inmem; do
  ./build/tools/sgp_bench_check "${obs_dir}/${report}.json" || obs_ok=0
  ./build/tools/sgp_trace --report "${obs_dir}/${report}.json" \
    --chrome "${obs_dir}/${report}.chrome.json" --summary >/dev/null || obs_ok=0
  ./build/tools/sgp_trace --validate-chrome "${obs_dir}/${report}.chrome.json" \
    || obs_ok=0
done
if [[ "${obs_ok}" == "1" ]]; then
  echo "obs plane: clean"
else
  echo "obs plane: FAILED"
  fail=1
fi

# --- 9. kernel differential -------------------------------------------------
note "kernel differential (scalar vs vectorized)"
kd_ok=1
# The simd-labeled ctest suites: per-variant byte equality across in-memory /
# streaming / sharded paths, and the MICRO speedup gate.
ctest --test-dir build -L simd --output-on-failure || kd_ok=0
# End-to-end via the CLI env override: publishing twice under the same forced
# kernel must be byte-stable, and the vectorized release must differ from
# scalar (it carries the counter-v1-simd tag).
kd_dir="$(mktemp -d)"
./build/tools/sgp_generate --model ba --nodes 150 --out "${kd_dir}/g.edges" \
  >/dev/null 2>&1 || kd_ok=0
for variant in scalar generic avx2 avx512; do
  if ! SGP_FORCE_KERNEL="${variant}" ./build/tools/sgp_publish \
      --edges "${kd_dir}/g.edges" --out "${kd_dir}/${variant}.bin" \
      --dim 16 --seed 7 >/dev/null 2>&1; then
    if [[ "${variant}" == "scalar" || "${variant}" == "generic" ]]; then
      echo "kernel diff: forced ${variant} publish failed"; kd_ok=0
    else
      echo "kernel diff: ${variant} unsupported on this machine — skipped"
    fi
    continue
  fi
  SGP_FORCE_KERNEL="${variant}" ./build/tools/sgp_publish \
    --edges "${kd_dir}/g.edges" --out "${kd_dir}/${variant}.rerun.bin" \
    --dim 16 --seed 7 >/dev/null 2>&1 || kd_ok=0
  cmp -s "${kd_dir}/${variant}.bin" "${kd_dir}/${variant}.rerun.bin" || {
    echo "kernel diff: ${variant} re-run bytes differ"; kd_ok=0; }
  if [[ "${variant}" != "scalar" && -f "${kd_dir}/scalar.bin" ]]; then
    cmp -s "${kd_dir}/${variant}.bin" "${kd_dir}/generic.bin" || {
      echo "kernel diff: ${variant} disagrees with generic"; kd_ok=0; }
    cmp -s "${kd_dir}/${variant}.bin" "${kd_dir}/scalar.bin" && {
      echo "kernel diff: ${variant} aliases the scalar mapping"; kd_ok=0; }
  fi
done
rm -rf "${kd_dir}"
if [[ "${kd_ok}" == "1" ]]; then
  echo "kernel differential: clean"
else
  echo "kernel differential: FAILED"
  fail=1
fi

# --- 10. scenario grid --------------------------------------------------------
note "scenario grid (ctest -L scenario)"
cmake --build build -j --target scenario_test bench_e14_mechanisms \
  sgp_bench_check >/dev/null
if ctest --test-dir build -L scenario --output-on-failure -j "$(nproc)"; then
  echo "scenario grid: clean"
else
  echo "scenario grid: FAILED"
  fail=1
fi

echo
if [[ "${fail}" == "0" ]]; then
  echo "static-analysis matrix: PASS"
else
  echo "static-analysis matrix: FAIL"
fi
exit "${fail}"
