#!/usr/bin/env python3
"""Repository benchmark of the sgp library.

Builds perfbench/ (a CMake package that compiles the library from src/ with
its default flags and links the driver against it), then runs one workload:

    python3 perfbench/run.py --workload inmem_dense --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. Everything above it is the human-readable
report: host fingerprint, timings with sample counts, and (traced) the
layer table.

    python3 perfbench/run.py --all [--seed N] [--seconds S]

runs every workload untraced and traced and prints one summary table.

Run it from the root of a checkout. Build files go to $CARGO_TARGET_DIR
(default .bench_build) and generated inputs and releases to .bench_work/,
which is removed when the run ends.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# The workload table: every size and privacy parameter reaches the driver
# from here, as data.
BA_DENSE = {"nodes": 20000, "attach": 20, "dim": 100,
            "epsilon": 1, "delta": 1e-6}
WORKLOADS = {
    "inmem_dense": {"op": "inmem", **BA_DENSE},
    "inmem_wide": {"op": "inmem", "nodes": 50000,
                   "attach": 4, "dim": 256, "epsilon": 1, "delta": 1e-6},
    "sharded_dense": {"op": "sharded", "shard-rows": 4000, **BA_DENSE},
    "analyst": {"op": "analyst", "communities": 8,
                "community-size": 2500, "p-in": 0.1, "p-out": 5e-4,
                "hub-attach": 3, "dim": 128, "epsilon": 8, "delta": 1e-6,
                "clusters": 8, "top": 100},
}

# Time the driver may take beyond --seconds: set-ups, the self-test and the
# op that overruns the deadline.
DRIVER_SLACK_S = 150


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no library sources at {ROOT / 'src'}")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir)]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "sgp_perfbench", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return build_dir / "sgp_perfbench"


def result_line(driver_line, trace):
    """Turns the driver's last line into the result line: BENCHMARK.json
    gives the metric names, their order and units, and a metric the
    workload does not measure reads 0."""
    result = json.loads(driver_line)
    values = result.pop("values")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if trace else "end_to_end"]
    unknown = set(values) - {m["name"] for m in metrics}
    if unknown:
        raise RuntimeError("driver values not in BENCHMARK.json: "
                           + ", ".join(sorted(unknown)))
    result["metrics"] = {m["name"]: {"value": values.get(m["name"], 0),
                                     "unit": m["unit"]} for m in metrics}
    return result


def metric_lines(result, skip_zero=False):
    return [f"  {name:30s} {m['value']:14.6g} {m['unit']}"
            for name, m in result["metrics"].items()
            if not (skip_zero and m["value"] == 0)]


def run_workload(binary, name, seed, seconds, trace):
    """Runs one workload; returns (report lines, result dict)."""
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    args = [str(binary), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--workdir", str(workdir)]
    for key, value in WORKLOADS[name].items():
        args += [f"--{key}", str(value)]
    try:
        proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=seconds + DRIVER_SLACK_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"driver exited with {proc.returncode}:\n"
                           + proc.stdout)
    return lines[:-1], result_line(lines[-1], trace)


def run_all(binary, seed, seconds):
    rows = []
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            report, result = run_workload(binary, name, seed, seconds, trace)
            print("\n".join(report), flush=True)
            ok = ok and result["correct"]
            rows.append((name, trace, result))
    print("\nsummary (seed %d, %s s per run)" % (seed, seconds))
    for name, trace, result in rows:
        print(f"{name} ({'traced' if trace else 'untraced'}): "
              f"{result['failed']} failed of {result['attempted']}, "
              f"correct {str(result['correct']).lower()}")
        print("\n".join(metric_lines(result, skip_zero=trace == 1)))
    return 0 if ok else 1


def main():
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the
    # driver and the finally blocks remove the generated files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if not opts.all and not opts.workload:
        parser.error("give --workload NAME or --all")
    try:
        binary = build()
        if opts.all:
            return run_all(binary, opts.seed, opts.seconds)
        report, result = run_workload(binary, opts.workload, opts.seed,
                                      opts.seconds, opts.trace)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1
    print("\n".join(report + metric_lines(result)))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
