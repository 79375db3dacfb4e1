#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

Run from the repository root:

  python3 perfbench/selftest.py

Builds the driver as run.py does, then runs every workload of
BENCHMARK.json with --tiny three times: seed 1 untraced twice, seed 2
traced once. It checks that

- every run passes its output checks and exits 0;
- the final JSON line carries exactly the end-to-end metrics of
  BENCHMARK.json (untraced) or its per-layer metrics (traced), each with
  its unit;
- the same seed reproduces the generated inputs and the deterministic
  metrics;
- a different seed changes the generated inputs but no metric name.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import pathlib
import subprocess
import sys

import run

BENCHMARK = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
WORK_DIR = pathlib.Path(".bench_work/selftest")
SECONDS = 1
# Metrics a seed fixes exactly, by workload (record section, name).
DETERMINISTIC = {
    "fleet_ingest": [("workload_metrics", "savings_ratio"),
                     ("workload_metrics", "nrmse_p95"),
                     ("workload_metrics", "write_bytes_per_value")],
    "router_fanout": [],
}


def drive(binary, workload, seed, trace):
    out = WORK_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    proc = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace), "--tiny",
         "--work-dir", str(WORK_DIR), "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=run.RUN_TIMEOUT_S)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.returncode, last, json.loads(out.read_text())


def main():
    binary = run.build()
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    want = {
        0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    for workload in [w["name"] for w in BENCHMARK["workloads"]]:
        first = drive(binary, workload, 1, 0)
        again = drive(binary, workload, 1, 0)
        other = drive(binary, workload, 2, 1)
        for label, (code, last, _) in (("seed 1", first),
                                       ("seed 1 again", again),
                                       ("seed 2 traced", other)):
            check(code == 0 and last["correct"] and last["failed"] == 0,
                  f"{workload} {label}: exits 0 with its checks passed")
        for label, (_, last, _), trace in (("untraced", first, 0),
                                           ("traced", other, 1)):
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            check(got == want[trace],
                  f"{workload} {label}: emits every "
                  f"{'per-layer' if trace else 'end-to-end'} metric with "
                  f"its unit")
        a, b, c = first[2], again[2], other[2]
        check(a["input_digest"] == b["input_digest"],
              f"{workload}: seed 1 regenerates the same inputs")
        for section, name in DETERMINISTIC[workload]:
            check(a[section][name]["value"] == b[section][name]["value"],
                  f"{workload}: seed 1 repeats {name} exactly")
        check(a["input_digest"] != c["input_digest"],
              f"{workload}: seed 2 generates other inputs")
        for section in ("end_to_end", "workload_metrics", "per_layer"):
            check(sorted(a[section]) == sorted(c[section]),
                  f"{workload}: seed 2 keeps the {section} names")
    print(f"selftest: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
