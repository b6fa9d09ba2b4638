"""Steadiness check: run the benchmark twice on the same commit and compare.

    python3 perfbench/steady.py --seeds 1-10

For every workload in BENCHMARK.json and every seed it runs the
benchmark's command once in each of two sets, untraced, with the run
length from BENCHMARK.json.  For each end-to-end metric it reports, per
set, the median and the spread (distance between the first and third
quartile over the seeds, as a share of the median), and the shift of the
second set's median against the first.  Every spread must stay within
the metric's bound, and so must a shift in the worse direction.  Both
sets must fail the same share of operations, and every run must be
correct.  Exits 1 if any of these does not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,2,5")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = parse_seeds(args.seeds)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for set_index in range(SETS):
            runs = []
            for seed in seeds:
                res = run_once(spec["command"], workload, seed, spec["run_seconds"])
                runs.append(res)
                figures = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                print(f"{workload} set {set_index + 1} seed {seed}: correct={res['correct']} "
                      f"{res['attempted']}/{res['failed']} {figures}", file=sys.stderr, flush=True)
            sets.append(runs)
        fail_share = {
            Fraction(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
            for runs in sets
        }
        if len(fail_share) > 1 or not all(r["correct"] for runs in sets for r in runs):
            ok = False
            print(f"{workload}: failed shares {sorted(fail_share)} or a wrong output", flush=True)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            worse = 1 if metric["better"] == "lower" else -1
            medians, spreads = [], []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                medians.append(statistics.median(values))
                spreads.append(spread(values) if len(values) > 1 else 0.0)
            shift = worse * (medians[1] - medians[0]) / medians[0]
            bad = shift > bound or max(spreads) > bound
            ok = ok and not bad
            print(f"{workload:16s} {name:12s} bound {bound:.2f}  medians "
                  + " ".join(f"{m:.4g}" for m in medians)
                  + "  spreads " + " ".join(f"{s:.4f}" for s in spreads)
                  + f" (max/bound {max(spreads) / bound:.2f})  worse-shift {shift:+.4f}"
                  + ("  OVER BOUND" if bad else ""), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
