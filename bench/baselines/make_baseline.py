#!/usr/bin/env python3
"""Writes the committed baseline of MICRO's fused-SpMM speedup for this host.

    python3 bench/baselines/make_baseline.py build/bench/bench_micro_kernels \
        [--out bench/baselines/BENCH_MICRO.json]

Runs `bench_micro_kernels --benchmark_filter=__none__` RUNS times (each run
hand-times the scalar and the best vector kernel and writes BENCH_MICRO.json)
and records the host and kernel variant the runs report, with the median,
quartiles and values of `fused_spmm_speedup`. On the same host and kernel
variant, the slow test slow.bench_micro_baseline
(tests/slow/micro_baseline_test.cpp) requires the median of its own runs to
reach median - (p75 - p25). Run it on an otherwise idle host.
"""

import argparse
import json
import os
import statistics
import subprocess
import tempfile

RUNS = 20


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("bench", help="path to the bench_micro_kernels binary")
    ap.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "BENCH_MICRO.json"))
    args = ap.parse_args()

    values = []
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, SGP_BENCH_JSON_DIR=tmp)
        for _ in range(RUNS):
            subprocess.run([args.bench, "--benchmark_filter=__none__"],
                           env=env, check=True, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
            with open(os.path.join(tmp, "BENCH_MICRO.json"),
                      encoding="utf-8") as f:
                meta = json.load(f)["meta"]
            values.append(meta["fused_spmm_speedup"])

    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    baseline = {
        "id": "MICRO",
        "host": meta["host"],
        "kernel_variant": meta["kernel_variant"],
        "runs": RUNS,
        "fused_spmm_speedup": {
            "median": round(median, 4),
            "p25": round(q1, 4),
            "p75": round(q3, 4),
            "values": [round(v, 4) for v in values],
        },
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")
    print(json.dumps(baseline["fused_spmm_speedup"]))


if __name__ == "__main__":
    main()
