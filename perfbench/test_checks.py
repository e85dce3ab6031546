"""The benchmark's checks pass a clean sweep and catch corrupted ones.

    python3 -m pytest perfbench/test_checks.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from scherk import cli  # noqa: E402

GRID = 24


def _sweep_lines(tmp_path):
    path = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--grid", str(GRID), "--out", str(path)]) == 0
    return path, path.read_text().splitlines(keepends=True)


def _edit_row(path, lines, i, column, value):
    """Replace one field of row i (1 is the first row after the header)."""
    header = lines[0].rstrip("\n").split(",")
    fields = lines[i].rstrip("\n").split(",")
    fields[header.index(column)] = value(fields[header.index(column)])
    lines[i] = ",".join(fields) + "\n"
    path.write_text("".join(lines))
    return fields


def test_clean_sweep_passes(tmp_path):
    path, _ = _sweep_lines(tmp_path)
    assert checks.check_sweep_csv(str(path), seed=1, grid=GRID) == []


def test_perturbed_wk_scalar_is_caught(tmp_path):
    path, lines = _sweep_lines(tmp_path)
    first_ok = next(i for i, line in enumerate(lines)
                    if line.endswith(",ok\n"))
    fields = _edit_row(path, lines, first_ok, "wk_scalar",
                       lambda v: repr(float(v) * (1.0 + 1e-9)))
    problems = checks.check_sweep_csv(str(path), seed=1, grid=GRID)
    tag = f"sweep A={float(fields[2])!r} B={float(fields[3])!r}"
    assert any(p.startswith(tag) and "wk_scalar" in p for p in problems)


def test_failure_away_from_threshold_is_caught(tmp_path):
    path, lines = _sweep_lines(tmp_path)
    # The last row is (A, B) = (1, 1), far above the threshold B0(1) = 0.
    _edit_row(path, lines, len(lines) - 1, "status",
              lambda v: "non_convergence")
    problems = checks.check_sweep_csv(str(path), seed=1, grid=GRID)
    assert any("outside the near-threshold band" in p for p in problems)
