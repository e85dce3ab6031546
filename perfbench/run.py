"""scherk benchmark: one workload (or all three), checked, with its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all            # sweep, pairs, odd

Each workload runs in its own single-threaded worker process (see
`worker.py`), one caller in a closed loop, for `--seconds` of whole
rounds.  Set-up time is measured on several fresh processes and reported
as their median.  The outputs are then checked (`checks.py`) outside the
timing.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when `--trace 0` and the per-layer metrics
when `--trace 1`.  Run from the root of a checkout that holds `src/scherk`
and `tests/oracles.py`; anywhere else it exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import MEMORY_GRID, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
# Set-up probes run before and after the measuring worker, so that their
# median (with the worker's own set-up) samples the host at two moments.
SETUP_PROBES = 4
# Beyond --seconds: one round that overruns the deadline, plus start-up.
WORKER_GRACE_S = 60
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "latency_p50_us": "us",
                    "latency_p99_us": "us", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def spawn_worker(workload: str, seed: int, seconds: float, trace: int,
                 out_dir: str, setup_only: bool = False) -> dict:
    """Run one worker process to completion; its result with `setup_s`."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env={**os.environ, **SINGLE_THREAD},
                          capture_output=True, text=True,
                          timeout=seconds + WORKER_GRACE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {workload} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    if setup_only:
        result = json.loads(proc.stdout.splitlines()[-1])
    else:
        with open(os.path.join(out_dir, "result.json")) as fh:
            result = json.load(fh)
    # time.monotonic is CLOCK_MONOTONIC on Linux, shared by all processes.
    result["setup_s"] = result["ready_monotonic"] - spawned
    return result


def check(workload: str, seed: int, payload: dict) -> list:
    import checks
    if workload == "sweep":
        problems = checks.check_sweep_csv(payload["csv"], seed)
        if payload["rc"] != 0:
            problems.append(f"sweep: exit code {payload['rc']}")
        if payload["memory_rc"] is not None:
            problems += checks.check_sweep_csv(payload["memory_csv"], seed,
                                               grid=MEMORY_GRID)
            if payload["memory_rc"] != 0:
                problems.append(f"sweep: grid-{MEMORY_GRID} exit code "
                                f"{payload['memory_rc']}")
        return problems
    if workload == "pairs":
        return checks.check_pairs(payload["results"], seed)
    return checks.check_odd(payload["stdout"], payload["rc"], seed)


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    out_dir = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}-"
                                f"{os.getpid()}")
    os.makedirs(out_dir)
    try:
        def probes():
            return [spawn_worker(workload, seed, seconds, trace, out_dir,
                                 setup_only=True)["setup_s"]
                    for _ in range(SETUP_PROBES)]

        setups = probes()
        res = spawn_worker(workload, seed, seconds, trace, out_dir)
        setups += [res["setup_s"]] + probes()
        problems = check(workload, seed, res["payload"])
        if res["failures_vary"]:
            problems.append(f"{workload}: the failed operations differ "
                            f"between rounds of the same inputs")
        if trace:
            shutil.copy(os.path.join(out_dir, "spans.npz"),
                        os.path.join(OUT, f"spans-{workload}-seed{seed}.npz"))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    if trace:
        metrics = {k: {"value": v, "unit": _unit(k)}
                   for k, v in res["layers"].items()}
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": res["wall_s"],
                  "latency_p50_us": res["latency_p50_us"],
                  "latency_p99_us": res["latency_p99_us"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    by_status: dict = {}
    for A, B, status in res["last_round_failures"]:
        by_status.setdefault(status, []).append((A, B))
    return {"workload": workload, "correct": not problems,
            "problems": problems, "attempted": res["attempted"],
            "failed": res["failed"], "rounds": res["rounds"],
            "latency_samples": res["latency_samples"],
            "failures_per_round": by_status, "metrics": metrics}


def report(r: dict) -> None:
    print(f"== {r['workload']}: {r['rounds']} rounds, "
          f"{r['latency_samples']} timed requests, attempted "
          f"{r['attempted']}, failed {r['failed']}, "
          f"correct {r['correct']}")
    for status, pairs in sorted(r["failures_per_round"].items()):
        print(f"  {status}: {len(pairs)} per round")
        for A, B in pairs:
            print(f"    A={A!r} B={B!r}")
    for problem in r["problems"][:50]:
        print(f"  PROBLEM {problem}")
    for name, m in r["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"),
                    required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for needed in ("src/scherk/__init__.py", "tests/oracles.py"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found under {ROOT}; run from a "
                  f"scherk checkout", file=sys.stderr)
            return 2
    os.makedirs(OUT, exist_ok=True)

    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        r = run_workload(name, args.seed, args.seconds, args.trace)
        report(r)
        results.append(r)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
