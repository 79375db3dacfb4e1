#!/usr/bin/env python3
"""Build and run nyqmon's benchmark (workloads and metrics: METRICS.md).

Run from the repository root:

  python3 perfbench/run.py --workload router_fanout --seed 1 --seconds 20 --trace 0

Configures perfbench/ with CMake into .bench_build (Release; the library is
compiled from the repository's own sources one directory up), runs one
workload, and passes the driver's report through. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: the gated end-to-end metrics of BENCHMARK.json with
--trace 0, every per-layer metric with --trace 1. The exit code is the
driver's; it is 1 when an output check failed.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
BUILD_DIR = pathlib.Path(".bench_build")
WORKLOADS = ("fleet_ingest", "router_fanout")
# A run must finish inside three minutes, set-up and checks included.
RUN_TIMEOUT_S = 170


def build():
    """Configure and build the driver; returns its path."""
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return BUILD_DIR / "perfbench"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} did not finish within "
                 f"{RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
