"""Steadiness check: repeat workloads over seeds and print each metric's spread.

    python3 perfbench/steady.py --workload sweep --runs 5
    python3 perfbench/steady.py --workload all --runs 10 --first-seed 101

Runs `run.py` once per seed, one run at a time, each for the `run_seconds`
of BENCHMARK.json (the run length the bounds hold for), and prints for every
end-to-end metric the median, the quartiles (`statistics.quantiles(n=4)`)
and the spread (q3 - q1) / median next to the metric's bound in
BENCHMARK.json.  The bounds there are set from this output.  It also
prints the failed share of each run, which must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def one_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - started
    return result


def summarise(workload: str, runs: list, bound: dict) -> bool:
    steady = True
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"== {workload}: {len(runs)} runs, correct in "
          f"{sum(r['correct'] for r in runs)}, failed share "
          f"{sorted(shares)}, each run took "
          f"{min(r['elapsed_s'] for r in runs):.1f}-"
          f"{max(r['elapsed_s'] for r in runs):.1f} s")
    if len(shares) != 1 or not all(r["correct"] for r in runs):
        steady = False
    print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        b = bound.get(name)
        verdict = ""
        if b is not None:
            verdict = "ok" if spread < b / 3 else (
                "within bound" if spread < b else "TOO WIDE")
            steady = steady and spread < b
        print(f"  {name:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {b if b is not None else '-':>6} {verdict}")
        print(f"    values: {' '.join(f'{v:.6g}' for v in values)}")
    return steady


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"),
                    required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    bench = spec()
    bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        runs = [one_run(name, args.first_seed + i, bench["run_seconds"])
                for i in range(args.runs)]
        ok = summarise(name, runs, bound) and ok
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
