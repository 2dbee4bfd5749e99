#!/usr/bin/env python3
"""Runs the benchmark over a seed set and reports each metric's median,
quartiles and spread against the bound BENCHMARK.json fixes.

    python3 perfbench/sweep.py [--workload W ...] [--seeds primary|holdout|1,2,3]
                               [--trace 0|1] [--seconds S]

Run from the repo root. Spread is (Q3 - Q1) / median over the runs, the
quartiles as statistics.quantiles(n=4) gives them. A claimed gain must hold
on the holdout seed set as well as on the seeds it was developed on.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SEED_SETS = {
    "primary": list(range(1, 11)),
    "holdout": list(range(1001, 1011)),
}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    help="workload name (repeatable; default: all)")
    ap.add_argument("--seeds", default="primary",
                    help="a seed set name (%s) or a comma list" % ", ".join(SEED_SETS))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    seeds = SEED_SETS.get(args.seeds) or [int(s) for s in args.seeds.split(",")]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for w in workloads:
        runs = []
        for seed in seeds:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            if proc.returncode != 0:
                print("%s seed %d: exit %d" % (w, seed, proc.returncode))
                continue
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        if len(runs) < 2:
            print("%s: fewer than two good runs" % w)
            continue
        print("\n%s  (%d runs, seeds %s)" % (w, len(runs), args.seeds))
        print("  %-30s %12s %12s %12s %8s %8s" % ("metric", "median", "q1", "q3", "spread",
                                                 "bound"))
        for name in runs[0]["metrics"]:
            xs = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(xs, n=4)
            bound = bounds.get(name)
            spread = stats.quartile_spread(xs)
            flag = "  OVER" if bound is not None and spread > bound else ""
            print("  %-30s %12.6g %12.6g %12.6g %8.4f %8s%s" % (
                name, statistics.median(xs), q1, q3, spread,
                "-" if bound is None else bound, flag))
        print("  correct: %s  failed: %d of %d" % (
            all(r["correct"] for r in runs), sum(r["failed"] for r in runs),
            sum(r["attempted"] for r in runs)))


if __name__ == "__main__":
    main()
