"""The three workloads: their inputs, one round of work, and the warm-up.

A round is the workload's fixed unit of work, repeated by one caller in a
closed loop.  An untraced round returns the time of each of its calls, in
the order made; every round makes the same calls on the same inputs:

- sweep: one `scherk sweep --grid 50` (A, B) run through `cli.main`,
  writing its CSV; its calls are the 2500 `cli.evaluate_pair` calls.
  Inputs do not depend on the seed.  After the timed rounds, one untimed
  `--grid 200` run sets the peak resident memory.
- pairs: 1000 seeded admissible pairs, each evaluated alone through the
  library path that `scherk check` takes; each pair is one call, and one
  request.
- odd:   one `scherk odd --trials 1000 --extremal --seed <seed>` run
  through `cli.main`; its calls are the 2020 calls `cli` makes into
  `oddmap`.

The workloads call scherk's functions through their modules at call time,
so the traced run sees every call through the patched bindings.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import time
import types

SWEEP_GRID = 50
MEMORY_GRID = 200   # the untimed sweep whose rows set peak_rss_mb
PAIRS_PER_ROUND = 1000
PAIR_A_RANGE = (0.05, 0.95)
PAIR_B_MAX = 0.98
PAIR_MARGIN = 0.02   # every pair has B >= B0(A) + PAIR_MARGIN
ODD_TRIALS = 1000
TOL = 1e-12
SLACK = 1e-9
FAILED_STATUSES = ("no_sign_change", "non_convergence")
FAILED_ENDINGS = tuple("," + status + "\n" for status in FAILED_STATUSES)


def _timed(fn, times: list):
    """`fn`, appending the duration of each call to `times`."""
    clock = time.perf_counter

    def timed(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            times.append(clock() - t0)
    return timed


def threshold_b0(A: float) -> float:
    """Positive root of (1+k) B^2 + A (1-k) B - 2k, k = sqrt(1 - A^2).

    Written from the quadratic in the rationalised form 2c/(-b - sqrt(d)),
    which is not the form the package uses, so that the admissibility check
    does not reuse the code it checks.
    """
    k = math.sqrt(1.0 - A * A)
    b = A * (1.0 - k)
    return 4.0 * k / (b + math.sqrt(b * b + 8.0 * k * (1.0 + k)))


def pair_inputs(seed: int) -> list[tuple[float, float]]:
    """Seeded (A, B) pairs well inside the admissible domain."""
    rng = random.Random(seed)
    out = []
    while len(out) < PAIRS_PER_ROUND:
        A = rng.uniform(*PAIR_A_RANGE)
        B = rng.uniform(0.05, PAIR_B_MAX)
        if B >= threshold_b0(A) + PAIR_MARGIN:
            out.append((A, B))
    return out


class Sweep:
    name = "sweep"
    calls_are_requests = False

    def __init__(self, seed: int, out_dir: str):
        self.csv_path = os.path.join(out_dir, "sweep.csv")
        self.argv = ["sweep", "--grid", str(SWEEP_GRID), "--out",
                     self.csv_path]
        self.warm_argv = ["sweep", "--grid", "2", "--out",
                          os.path.join(out_dir, "warm.csv")]
        self.memory_csv = os.path.join(out_dir, "memory.csv")
        self.rc = self.memory_rc = None
        self.trace_counts: dict = {}
        from scherk import cli
        self.cli = cli

    def warm_up(self) -> None:
        with contextlib.redirect_stderr(io.StringIO()):
            self.cli.main(self.warm_argv)

    def round(self, tracer, index: int):
        """One sweep; untraced, the time of each `evaluate_pair` call."""
        evaluate_pair = self.cli.evaluate_pair
        with contextlib.redirect_stderr(io.StringIO()):
            if tracer is not None:
                tracer.op_id = index
                with tracer.span("cli.main"):
                    self.rc = self.cli.main(self.argv)
                return None
            times: list = []
            self.cli.evaluate_pair = _timed(evaluate_pair, times)
            try:
                self.rc = self.cli.main(self.argv)
            finally:
                self.cli.evaluate_pair = evaluate_pair
        return times

    def memory_round(self) -> None:
        """One untimed sweep at MEMORY_GRID, run after the timed rounds.

        At grid 50 the peak resident set is the interpreter and numpy; the
        40 000 rows of a grid-200 sweep add about a third to it, so a
        pipeline that buys time with memory shows in peak_rss_mb.  Its
        pairs are not counted as operations; its CSV is checked.
        """
        argv = ["sweep", "--grid", str(MEMORY_GRID), "--out", self.memory_csv]
        with contextlib.redirect_stderr(io.StringIO()):
            self.memory_rc = self.cli.main(argv)

    def outcome(self) -> tuple[int, list]:
        """(operations attempted, failed (A, B, status)) of the last round.

        Every grid pair is one operation; a pair fails when its status is a
        solver failure.  Read from the CSV's last column, outside the timing,
        together with the rows and bytes the traced run counts.
        """
        failures = []
        rows = 0
        with open(self.csv_path) as fh:
            next(fh)
            for line in fh:
                rows += 1
                if line.endswith(FAILED_ENDINGS):
                    fields = line.rstrip("\n").split(",")
                    failures.append((float(fields[2]), float(fields[3]),
                                     fields[-1]))
        self.trace_counts = {"cli.csv.rows": rows,
                             "cli.csv.bytes": os.path.getsize(self.csv_path)}
        return SWEEP_GRID * SWEEP_GRID, failures

    def payload(self) -> dict:
        return {"csv": self.csv_path, "rc": self.rc,
                "memory_csv": self.memory_csv, "memory_rc": self.memory_rc}


class Pairs:
    name = "pairs"
    calls_are_requests = True

    def __init__(self, seed: int, out_dir: str):
        from scherk import errors, harmonic, params, scalar, weierstrass
        self.inputs = pair_inputs(seed)
        self.params, self.scalar = params, scalar
        self.harmonic, self.weierstrass = harmonic, weierstrass
        self.errors = (errors.NotAdmissible, errors.NoSignChange,
                       errors.NonConvergence)
        self.results: list = []

    def evaluate(self, A: float, B: float) -> tuple:
        """The `scherk check` library path for one pair."""
        p = self.params.from_ab(A, B)
        if not self.params.admissible_interval(p).nonempty:
            raise self.errors[0](f"A={A}, B={B}")
        zero = self.scalar.solve_zero(p, TOL)
        wks = self.weierstrass.wk_scalar(p, zero.S).value
        sol = self.harmonic.solve_zero_point(p, zero, TOL)
        lhs, rhs, master_ok = self.harmonic.master_inequality_check(
            sol, p, SLACK)
        mod = self.harmonic.modulus_consistency_residual(p, sol.measures)
        return (A, B, "ok", zero.U, zero.V, zero.T, zero.S, wks, sol.WK,
                lhs, rhs, master_ok, mod, sol.z.r, sol.z.t, sol.residual)

    def warm_up(self) -> None:
        self.evaluate(0.6, 0.95)

    def round(self, tracer, index: int) -> list[float]:
        """Evaluate every pair; returns the per-pair times in seconds."""
        lat = []
        results = []
        clock = time.perf_counter
        for i, (A, B) in enumerate(self.inputs):
            if tracer is not None:
                tracer.op_id = index * len(self.inputs) + i
                idx = tracer.open("bench.pair")
            t0 = clock()
            try:
                res = self.evaluate(A, B)
            except self.errors as exc:
                res = (A, B, type(exc).__name__)
            lat.append(clock() - t0)
            if tracer is not None:
                tracer.close(idx)
            results.append(res)
        self.results = results
        return lat

    def outcome(self) -> tuple[int, list]:
        return len(self.inputs), [r[:3] for r in self.results if r[2] != "ok"]

    def payload(self) -> dict:
        return {"results": self.results}


class _TimedCalls:
    """Stands in for `scherk.oddmap` inside `scherk.cli` and times each call.

    Only the calls `cli` makes are timed; calls inside `oddmap` go to the
    module's own names.  Each call's time is appended to `times`.
    """

    def __init__(self, module):
        self._module = module
        self.times: list = []

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if isinstance(value, types.FunctionType):
            return _timed(value, self.times)
        return value


class Odd:
    name = "odd"
    calls_are_requests = False

    def __init__(self, seed: int, out_dir: str):
        from scherk import cli, oddmap
        self.cli, self.oddmap = cli, oddmap
        self.argv = ["odd", "--trials", str(ODD_TRIALS), "--extremal",
                     "--seed", str(seed)]
        self.seed = seed
        self.rc = None
        self.stdout = ""

    def warm_up(self) -> None:
        self.oddmap.fourier_S1(self.oddmap.random_odd_lift(0, 1, 0.3))

    def round(self, tracer, index: int):
        """One `scherk odd`; untraced, the time of each `oddmap` call."""
        out = io.StringIO()
        times = None
        with contextlib.redirect_stdout(out):
            if tracer is not None:
                tracer.op_id = index
                with tracer.span("cli.main"):
                    self.rc = self.cli.main(self.argv)
            else:
                calls = _TimedCalls(self.oddmap)
                self.cli.oddmap = calls
                try:
                    self.rc = self.cli.main(self.argv)
                finally:
                    self.cli.oddmap = self.oddmap
                times = calls.times
        self.stdout = out.getvalue()
        return times

    def outcome(self) -> tuple[int, list]:
        return 1, [] if self.rc == 0 else [(None, None, f"exit {self.rc}")]

    def payload(self) -> dict:
        return {"rc": self.rc, "stdout": self.stdout, "seed": self.seed}


WORKLOADS = {cls.name: cls for cls in (Sweep, Pairs, Odd)}
