#!/usr/bin/env python3
"""Build and run the out-of-core end-to-end benchmark.

    python3 e2ebench/run.py --workload pagerank-rmat --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --smoke

The benchmark binary is built from the repository's sources into
.bench_build/e2ebench (CMake, Release). Stores, traces and the result log
live under .bench_work/ in the repository root. The last line of stdout is
the result JSON; build output and diagnostics go to stderr.

--smoke runs every workload (bfs-grid too, which BENCHMARK.json leaves out)
at a tiny size, traced and untraced, and checks that every metric
BENCHMARK.json names is present, finite and verified.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
WORK_DIR = ROOT / ".bench_work"
BINARY = BUILD_DIR / "mlvc_e2e"
WORKLOADS = ("pagerank-rmat", "bfs-grid", "serve-mix")
RUN_TIMEOUT_S = 170
# Compilers and the benchmark put temporary files here, inside the checkout.
ENV = dict(os.environ, TMPDIR=str(WORK_DIR / "tmp"))


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log = sys.stderr
    (WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log, env=ENV)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=log, stderr=log, env=ENV)


def run_binary(workload, seed, seconds, trace, tiny=False):
    """Run one measurement; returns (exit code, stdout text)."""
    work = WORK_DIR / workload
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work)]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=ENV)
        return proc.returncode, proc.stdout
    finally:
        shutil.rmtree(work / "store", ignore_errors=True)


def smoke():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: [m["name"] for m in spec["end_to_end"]],
              1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_binary(workload, 1, 1, trace, tiny=True)
            label = f"{workload} trace={trace}"
            if code != 0:
                problems.append(f"{label}: exit code {code}")
                continue
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: results not verified")
            metrics = result["metrics"]
            for name in wanted[trace]:
                value = metrics.get(name, {}).get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{label}: metric {name} missing or not finite")
            print(f"smoke {label}: {len(metrics)} metrics, "
                  f"attempted={result['attempted']} failed={result['failed']}")
    for p in problems:
        print("smoke FAIL " + p)
    print("smoke " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1
    if args.smoke:
        return smoke()
    code, out = run_binary(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
