"""Run one workload in a fresh single-threaded process.

    python3 perfbench/worker.py --workload sweep --seed 1 --seconds 20 \
        --trace 0 --out perfbench/out/<dir>

`run.py` starts this process; it is not meant to be called by hand.  The
process imports scherk from the checkout's `src`, builds the workload's
inputs, makes one warm-up call and records the moment it is ready.  It then
repeats whole rounds until `--seconds` have passed, makes the workload's
untimed memory round if it has one (`sweep`, untraced runs only), and
writes `result.json` into `--out`.  With `--setup-only` it stops once it is ready.

The end-to-end timings are built from the run's untraced rounds.  Every
round makes the same calls on the same inputs (pairs on `pairs`,
`evaluate_pair` on `sweep`, `oddmap` calls on `odd`), so each call keeps
its fastest time over the run, and so does the rest of the round.  `wall_s`
is the round with every call and the rest at their fastest; on `pairs` a
call is a request, and the latency percentiles are over its calls.  This
host switches, for seconds to minutes at a time, between a fast state and
states 1.4-2.2x slower, so a median depends on how long a run spent in
each; a call's fastest time measures the program, and short calls find
the fast moments that a whole round may miss (see README.md).

With `--trace 1` the rounds alternate untraced and traced, so the tracing
overhead is measured under the same conditions as the traced figures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_scherk():
    sys.path.insert(0, SRC)
    import scherk
    if not os.path.abspath(scherk.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"scherk imported from {scherk.__file__}, not {SRC}")


def _peak_rss_mb() -> float:
    """High-water resident set of this process's own memory (Linux).

    Read from /proc rather than `ru_maxrss`, which also counts the parent's
    resident set at the moment this process was spawned.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _percentile(values: list, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values), q))


def _layer_metrics(tracer, traced_s: list, untraced_s: list) -> dict:
    """Per-layer figures per traced round (totals over rounds / rounds)."""
    from tracing import LAYERS

    totals = tracer.layer_totals()
    per = 1.0 / len(traced_s)
    out = {}
    for name, t in totals.items():
        out[f"{name}.calls"] = t["calls"] * per
        out[f"{name}.busy_s"] = t["busy_s"] * per
        if name in LAYERS and LAYERS[name][1]:
            out[f"{name}.failed"] = t["failed"] * per
            if name == "harmonic.solve_zero_point":
                out[f"{name}.failed_busy_s"] = t["failed_busy_s"] * per
    for name, value in tracer.counters.items():
        out[name] = value * per
    traced_wall = sum(traced_s) / len(traced_s)
    untraced_wall = sum(untraced_s) / len(untraced_s)
    self_sum = sum(t["busy_s"] for t in totals.values()) * per
    out.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.self_sum_s": self_sum,
        "trace.unattributed_s": traced_wall - self_sum,
        "trace.spans": len(tracer) * per,
    })
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    _import_scherk()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.out)
    workload.warm_up()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_monotonic": ready}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer, install
        tracer = Tracer()

    untraced_s, traced_s, best_calls = [], [], None
    best_rest = float("inf")
    attempted = failed = 0
    failures: list = []
    failures_vary = False
    start = time.perf_counter()
    rounds = 0
    # Whole rounds only, so the failed share is the same in every run; a
    # traced run needs at least one untraced and one traced round.
    while (time.perf_counter() - start < args.seconds
           or rounds < (2 if args.trace else 1)):
        traced = args.trace and rounds % 2 == 1
        if traced:
            with install(tracer):
                t0 = time.perf_counter()
                workload.round(tracer, rounds)
                traced_s.append(time.perf_counter() - t0)
        else:
            t0 = time.perf_counter()
            calls = workload.round(None, rounds)
            untraced_s.append(time.perf_counter() - t0)
            if best_calls is not None and len(calls) != len(best_calls):
                raise RuntimeError(f"{args.workload}: {len(calls)} calls in "
                                   f"a round, {len(best_calls)} before")
            best_calls = calls if best_calls is None else list(
                map(min, best_calls, calls))
            best_rest = min(best_rest, untraced_s[-1] - sum(calls))
        n, round_failures = workload.outcome()
        if traced:
            for name, value in getattr(workload, "trace_counts", {}).items():
                tracer.counters[name] += value
        failures_vary = failures_vary or (rounds > 0
                                          and round_failures != failures)
        failures = round_failures
        attempted += n
        failed += len(failures)
        rounds += 1

    if not args.trace and hasattr(workload, "memory_round"):
        workload.memory_round()
    wall_s = sum(best_calls) + best_rest
    per_op = best_calls if workload.calls_are_requests else [wall_s]
    result = {
        "ready_monotonic": ready,
        "rounds": rounds,
        "round_s": untraced_s,
        "wall_s": wall_s,
        "latency_samples": len(per_op),
        "latency_p50_us": _percentile(per_op, 50) * 1e6,
        # A percentile describes a tail only with ten samples beyond it, so
        # with fewer than forty requests the median stands in for p99.
        "latency_p99_us": _percentile(per_op, 99 if len(per_op) >= 40
                                      else 50) * 1e6,
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": attempted,
        "failed": failed,
        "last_round_failures": failures,
        "failures_vary": failures_vary,
        "payload": workload.payload(),
    }
    if tracer is not None:
        result["layers"] = _layer_metrics(tracer, traced_s, untraced_s)
        tracer.write(os.path.join(args.out, "spans.npz"))
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
