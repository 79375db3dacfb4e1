#!/usr/bin/env python3
"""Compare two sets of perfbench records, refusing to mix hosts.

  python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the JSON records the driver writes (by default
.bench_work/results/<workload>-seed<N>-trace<T>.json; copy them aside
between commits). For every workload and every gated end-to-end metric of
BENCHMARK.json it prints both sides' median and quartiles over their
untraced runs, and whether the new median is worse than the base median by
more than the metric's bound.

Every record carries a host fingerprint: online cores, SIMD level, build
type and compiler. Runs from different fingerprints measured different
machines, so the comparison refuses them rather than pass or fail them.

Exit codes: 0 no regression, 1 a regression beyond a bound, 2 refused.
"""

import json
import pathlib
import statistics
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory):
    records = []
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0 and not record.get("tiny"):
            records.append(record)
    if not records:
        sys.exit(f"compare: no untraced records in {directory}")
    return records


def fingerprint(records, side):
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in records}
    if len(prints) != 1:
        print(f"compare: refused: the {side} set mixes host fingerprints:")
        for p in sorted(prints):
            print(f"  {p}")
        sys.exit(2)
    return prints.pop()


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    spec = json.loads(BENCHMARK.read_text())
    base, new = load(argv[1]), load(argv[2])
    base_print, new_print = fingerprint(base, "base"), fingerprint(new, "new")
    if base_print != new_print:
        print("compare: refused: the two sets come from different hosts")
        print(f"  base {base_print}\n  new  {new_print}")
        return 2
    print(f"host {base_print}")
    regressions = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        b = [r for r in base if r["workload"] == workload]
        n = [r for r in new if r["workload"] == workload]
        if not b or not n:
            print(f"{workload}: missing from one set, not compared")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            bq = summary([r["end_to_end"][name]["value"] for r in b])
            nq = summary([r["end_to_end"][name]["value"] for r in n])
            change = (nq[1] - bq[1]) / bq[1]
            worse = change if metric["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > metric["bound"] else "ok"
            regressions += verdict != "ok"
            print(f"{workload:14s} {name:15s} "
                  f"base {bq[1]:10.4g} [{bq[0]:.4g}, {bq[2]:.4g}] n={len(b):<3d}"
                  f"new {nq[1]:10.4g} [{nq[0]:.4g}, {nq[2]:.4g}] n={len(n):<3d}"
                  f"{change:+7.1%} (bound {metric['bound']:.0%}) {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
