#!/usr/bin/env bash
# Thread-sanitizer job: build with -DSGP_SANITIZE=thread and run the suites
# labeled `tsan` — the ones exercising the thread pool (nested parallel_for),
# the fused publish kernel, the counter-RNG determinism-across-threads
# tests, and the edge-list readers' range scans. Intended for CI and for
# local use after touching threading code:
#
#   tools/run_tsan.sh [build-dir]           # default build dir: build-tsan
#
# Exits non-zero on any data race or test failure.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSGP_SANITIZE=thread
cmake --build "${BUILD_DIR}" -j --target util_test linalg_test core_test \
  kernel_differential_test graph_ingest_test
ctest --test-dir "${BUILD_DIR}" -L tsan --output-on-failure -j "$(nproc)"
