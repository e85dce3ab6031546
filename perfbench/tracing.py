"""Span recorder for the traced run, and the wrappers that feed it.

Spans are recorded from the benchmark's side only: `install` swaps the
public functions of each scherk layer, at the bindings the callers look
them up through, for wrappers that time every call.  Nothing inside the
package is edited.

Each span holds (name, start, end, parent, operation id) and lives in
compact arrays until the run ends, when `write` saves them.  Self time is
derived from the spans afterwards: a span's duration minus the durations
of its direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array

import numpy as np

# Public functions timed per layer: span name -> (other modules that bind
# the function under the same name, exceptions that count as the layer's
# failures).  The name is "<module>.<function>".  Each function is patched
# in its own module and at every listed binding, so the CLI and the library
# path produce the same spans; calls made inside the package (for example
# scalar -> admissible_interval) stay in their caller's self time.
LAYERS = {
    "params.from_ab": (("cli",), ()),
    "params.admissible_interval": (("cli",), ()),
    "scalar.solve_zero": (("cli",), ("NoSignChange", "NotAdmissible")),
    "weierstrass.wk_scalar": ((), ()),
    "harmonic.solve_zero_point": ((), ("NonConvergence",)),
    "harmonic.master_inequality_check": ((), ()),
    "harmonic.modulus_consistency_residual": ((), ()),
    "oddmap.random_odd_lift": ((), ()),
    "oddmap.fourier_S1": ((), ()),
    "oddmap.extremal_sequence": ((), ()),
    "oddmap.hall_inequality_check": ((), ()),
    "oddmap.autocorrelation": ((), ()),
    "oddmap.fourier_spectrum": ((), ()),
}

# Spans opened by the benchmark itself rather than by a patched function.
ROOT_SPANS = ("cli.main", "bench.pair")
CSV_SPAN = "cli.csv"
SPAN_NAMES = ROOT_SPANS + (CSV_SPAN,) + tuple(LAYERS)
COUNTERS = ("params.admissible_interval.nonempty", "cli.csv.rows",
            "cli.csv.bytes")


class Tracer:
    """In-memory span store with a stack for parent links."""

    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.failed = array("b")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.op_id = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.failed.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.failed[idx] = failed
        # A span left open by an exception is closed with its parent.
        while self._stack and self._stack.pop() != idx:
            pass

    def close_open(self) -> None:
        while self._stack:
            self.close(self._stack[-1])

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, errors: tuple = ()):
        def traced(*args, **kwargs):
            idx = self.open(name)
            failed = False
            try:
                return fn(*args, **kwargs)
            except errors:
                failed = True
                raise
            finally:
                self.close(idx, failed)
        return traced

    def __len__(self) -> int:
        return len(self.name)

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
                "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "op": np.frombuffer(self.op, dtype=np.int32).copy(),
                "failed": np.frombuffer(self.failed, dtype=np.int8).copy()}

    def write(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(SPAN_NAMES), **self.arrays())

    def layer_totals(self) -> dict:
        """Per span name: calls, self time (s), failed calls, their self time."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(float) * 1e-9
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent],
                            weights=dur[has_parent], minlength=dur.size)
        self_s = dur - child
        n = len(SPAN_NAMES)
        failed = a["failed"].astype(bool)
        calls = np.bincount(a["name"], minlength=n)
        busy = np.bincount(a["name"], weights=self_s, minlength=n)
        nfail = np.bincount(a["name"][failed], minlength=n)
        fbusy = np.bincount(a["name"][failed], weights=self_s[failed],
                            minlength=n)
        return {name: {"calls": int(calls[i]), "busy_s": float(busy[i]),
                       "failed": int(nfail[i]),
                       "failed_busy_s": float(fbusy[i])}
                for i, name in enumerate(SPAN_NAMES)}


class _ModuleProxy:
    """Stands in for a module inside `scherk.cli`, overriding a few names."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _csv_proxies(tracer: Tracer, cli_os, cli_tempfile):
    """A `cli.csv` span from the temporary file's creation to its rename.

    This covers row formatting and the atomic write as `cmd_sweep` does
    them: it formats each row inside the block that writes the file.  The
    rows and bytes written are counted from the finished CSV, after the
    round (see `Sweep.outcome`).
    """
    state = {}

    def mkstemp(*args, **kwargs):
        state["idx"] = tracer.open(CSV_SPAN)
        return cli_tempfile.mkstemp(*args, **kwargs)

    def replace(*args, **kwargs):
        try:
            return cli_os.replace(*args, **kwargs)
        finally:
            if "idx" in state:
                tracer.close(state.pop("idx"))

    return (_ModuleProxy(cli_os, replace=replace),
            _ModuleProxy(cli_tempfile, mkstemp=mkstemp))


def _count_nonempty(tracer: Tracer, traced):
    def counted(*args, **kwargs):
        result = traced(*args, **kwargs)
        tracer.counters["params.admissible_interval.nonempty"] += bool(
            result.nonempty)
        return result
    return counted


@contextlib.contextmanager
def install(tracer: Tracer):
    """Patch every layer binding for the duration of the block."""
    from scherk import cli, errors

    saved = []

    def patch(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    try:
        for name, (also_in, error_names) in LAYERS.items():
            home, attr = name.split(".")
            original = getattr(importlib.import_module("scherk." + home), attr)
            traced = tracer.wrap(name, original,
                                 tuple(getattr(errors, e) for e in error_names))
            if name == "params.admissible_interval":
                traced = _count_nonempty(tracer, traced)
            for module_name in (home,) + also_in:
                module = importlib.import_module("scherk." + module_name)
                if getattr(module, attr, None) is original:
                    patch(module, attr, traced)
        cli_os, cli_tempfile = _csv_proxies(tracer, cli.os, cli.tempfile)
        patch(cli, "os", cli_os)
        patch(cli, "tempfile", cli_tempfile)
        yield
    finally:
        tracer.close_open()
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)
