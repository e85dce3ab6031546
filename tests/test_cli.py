import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from scherk import cli, params
from scherk.cli import CSV_HEADER, ROUTE_GAP_BOUND, evaluate_pair, main
from oracles import (direct_random_odd_lift, full_grid_fourier_mode,
                     mp_scalar_root)
from scherk.oddmap import DEFAULT_GRID, fourier_S1, random_odd_lift
from scherk.params import ScherkParams, from_ab, from_angles, threshold_b0
from test_docs import readme_library_code


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def load(out: str):
    """json.loads that rejects NaN and the infinities, as strict parsers do."""
    return json.loads(out, parse_constant=_no_constant)


def test_check_equality_corner(capsys):
    code, out, _ = run(capsys, "check", "--A", "1", "--B", "1")
    assert code == 0
    rec = load(out)
    assert rec["wk_scalar"] == pytest.approx(math.pi ** 2 / 2, abs=1e-12)
    assert rec["margin"] == 0.0
    assert rec["status"] == "ok"
    assert rec["steps"] == 0   # U = 1/2 exactly, without iterating


def test_check_not_admissible(capsys):
    code, out, _ = run(capsys, "check", "--A", "0.5", "--B", "0.5")
    assert code == 2
    assert load(out)["status"] == "not_admissible"


def test_check_generic_pair(capsys):
    code, out, _ = run(capsys, "check", "--A", "0.6", "--B", "0.95")
    assert code == 0
    rec = load(out)
    assert rec["wk_scalar"] == pytest.approx(2.5403881748537801, abs=1e-10)
    assert rec["route_gap"] <= ROUTE_GAP_BOUND
    assert rec["master_ok"] and rec["in_band"]
    assert 1 <= rec["steps"] <= 8   # evaluations of G for U


def test_check_angles_input(capsys):
    code, out, _ = run(capsys, "check", "--p", str(math.pi / 2),
                       "--q", str(math.pi))
    assert code == 0
    rec = load(out)
    assert rec["A"] == 1.0 and rec["B"] == 1.0


def test_check_bad_inputs(capsys):
    code, _, err = run(capsys, "check", "--A", "2", "--B", "0.5")
    assert code == 1
    code, _, _ = run(capsys, "check", "--A", "0.5")
    assert code == 1
    code, _, _ = run(capsys, "check", "--A", "0.5", "--B", "0.5",
                     "--p", "1.0", "--q", "2.0")
    assert code == 1


def test_check_on_the_threshold_curve_is_decided_by_rounding(capsys):
    # At B = 0.9938643518264029, one ulp below the double nearest B0(0.2),
    # L lands one ulp above 1/2 and R below it.
    b = 0.9938643518264029
    code, out, _ = run(capsys, "check", "--A", "0.2", "--B", repr(b))
    assert code == 2
    rec = load(out)
    assert rec["status"] == "not_admissible" and rec["admissible"] is False
    assert rec["B0"] == threshold_b0(0.2) == 0.9938643518264031
    assert rec["L"] == 0.5000000000000001 and rec["R"] == 0.4999999999999956


def test_check_solver_failure_near_threshold(capsys):
    b = threshold_b0(0.5) + 1e-6
    code, out, _ = run(capsys, "check", "--A", "0.5", "--B", repr(b))
    assert code == 3
    assert load(out)["status"] == "non_convergence"


def test_zero_command(capsys):
    code, out, _ = run(capsys, "zero", "--A", "0.6", "--B", "0.95")
    assert code == 0
    rec = load(out)
    assert rec["status"] == "ok"
    assert rec["Omega1"] + rec["Omega2"] + rec["Omega3"] + rec["Omega4"] == \
        pytest.approx(1.0, abs=1e-12)
    assert rec["residual"] < 1e-11


@pytest.mark.parametrize("B, cause", [
    ("1e-300", "alpha=3.141592653589793 rounds to pi")])
def test_tiny_b_is_a_solver_refusal(capsys, B, cause):
    # alpha rounds to pi at B = 1e-300.  It is refused, as `evaluate_block`
    # refuses it.
    for command in ("check", "zero"):
        code, out, err = run(capsys, command, "--A", "1", "--B", B)
        assert code == 3 and err == ""
        rec = load(out)
        assert rec["status"] == "non_convergence"
        assert rec["detail"].startswith(cause)


def test_overflowing_pole_is_a_sign_change_refusal(capsys):
    # At B = 5e-324, P overflows and G is NaN on all of [L, R].  The NaN
    # endpoint values are refused, so no NaN reaches the JSON.
    for command in ("check", "zero"):
        code, out, err = run(capsys, command, "--A", "1", "--B", "5e-324")
        assert code == 3 and err == ""
        rec = load(out)
        assert rec["status"] == "no_sign_change"
        assert rec["detail"].startswith("G(L) = nan is not <= tol")
        assert "M" not in rec and "S" not in rec


@pytest.mark.parametrize("argv", [("--A", "1e-300", "--B", "1e-300"),
                                  ("--A", "5e-324", "--B", "0.4"),
                                  ("--p", "1e-300", "--q", "2e-300")])
def test_underflowing_pairs_are_input_errors(capsys, argv):
    for command in ("check", "zero"):
        code, out, err = run(capsys, command, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: require B*(A+B) > 0 and A*(A+B) > 0")


@pytest.mark.parametrize("argv, bad", [
    (("--A", "1e-300", "--B", "1e-10"), "R=-inf"),
    (("--p", "1e-320", "--q", "1.0"), "R=-inf"),
    (("--A", "0.5", "--B", "1e-320"), "L=inf")])
def test_overflowing_interval_pairs_are_input_errors(capsys, argv, bad):
    # A(A+B) or B(A+B) is subnormal but not 0, and the quotient in L or R
    # overflows; such a pair is refused before any record is printed.
    for command in ("check", "zero"):
        code, out, err = run(capsys, command, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: require finite L and R") and bad in err


def test_evaluate_pair_builds_the_interval_once(monkeypatch):
    # Only cli builds the interval record; scalar computes L and R alone.
    built = []

    def counted(p):
        built.append(p)
        return params.admissible_interval(p)

    monkeypatch.setattr(cli, "admissible_interval", counted)
    for a, b in [(0.6, 0.95), (0.5, 0.5), (1.0, 1.0),
                 (0.5, threshold_b0(0.5) + 1e-6)]:
        built.clear()
        evaluate_pair(from_ab(a, b))
        assert len(built) == 1, (a, b)


def test_zero_reports_the_solver_status(capsys):
    b = threshold_b0(0.5) + 1e-6
    code, out, _ = run(capsys, "zero", "--A", "0.5", "--B", repr(b))
    assert code == 3
    rec = load(out)
    assert rec["status"] == "non_convergence"
    assert "misses its measures" in rec["detail"]


def test_zero_has_no_slack_flag(capsys):
    assert run(capsys, "zero", "--A", "0.6", "--B", "0.95",
               "--slack", "1e-9")[0] == 1


@pytest.mark.parametrize("argv", [
    ("check", "--A", "0.6", "--B", "0.95", "--tol", "0"),
    ("check", "--A", "0.6", "--B", "0.95", "--tol", "-1e-12"),
    ("check", "--A", "0.6", "--B", "0.95", "--tol", "nan"),
    ("check", "--A", "0.6", "--B", "0.95", "--tol", "inf"),
    ("check", "--A", "0.6", "--B", "0.95", "--tol", "abc"),
    ("check", "--A", "0.6", "--B", "0.95", "--slack", "inf"),
    ("check", "--A", "0.6", "--B", "0.95", "--slack", "nan"),
    ("check", "--A", "0.6", "--B", "0.95", "--slack", "-1e-9"),
    ("zero", "--A", "0.6", "--B", "0.95", "--tol", "0"),
    ("zero", "--A", "0.6", "--B", "0.95", "--tol", "nan"),
    ("sweep", "--grid", "2", "--tol", "0"),
    ("sweep", "--grid", "2", "--tol", "nan"),
    ("odd", "--trials", "2", "--slack", "inf"),
    ("odd", "--trials", "2", "--slack", "-1"),
])
def test_bad_tol_and_slack_are_input_errors(tmp_path, capsys, argv):
    if argv[0] == "sweep":
        argv += ("--out", str(tmp_path / "s.csv"))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "error: argument --" in err and "Traceback" not in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []   # no temp file, no CSV


def test_slack_of_zero_is_accepted(capsys):
    assert run(capsys, "check", "--A", "1", "--B", "1", "--slack", "0")[0] == 0
    assert run(capsys, "odd", "--trials", "2", "--slack", "0")[0] == 0


def test_record_checks_follow_the_pipeline():
    rec = evaluate_pair(from_ab(0.6, 0.95))
    assert rec.status == "ok" and rec.detail is None
    checks = {c.name: c for c in rec.checks(1e-9)}
    assert list(checks) == ["derivative_margin", "band_scalar",
                            "band_geometric", "route_gap",
                            "master_inequality"]
    assert all(c.ok for c in checks.values())
    assert checks["route_gap"].bound == ROUTE_GAP_BOUND
    assert checks["route_gap"].value == abs(rec.wk_scalar - rec.solution.WK)
    assert checks["master_inequality"].value == rec.solution.master_lhs

    refused = evaluate_pair(from_ab(0.5, threshold_b0(0.5) + 1e-6))
    assert refused.status == "non_convergence" and refused.solution is None
    assert [c.name for c in refused.checks(1e-9)] == ["derivative_margin",
                                                       "band_scalar"]
    assert evaluate_pair(from_ab(0.5, 0.5)).checks(1e-9) == []


def test_band_checks_allow_slack_and_no_more():
    rec = evaluate_pair(from_ab(0.6, 0.95))
    for outside in (math.pi ** 2 / 2 + 5e-10, math.pi ** 2 / 4 - 5e-10):
        off = dataclasses.replace(rec, wk_scalar=outside)
        band = {c.name: c.ok for c in off.checks(1e-9)}
        assert band["band_scalar"] and band["band_geometric"]
        band = {c.name: c.ok for c in off.checks(1e-10)}
        assert not band["band_scalar"] and band["band_geometric"]


def _record_solver_calls(monkeypatch, fail_on=None):
    """The pairs of each `cli.evaluate_block` call of the sweep, recorded
    as they come; call number `fail_on` raises instead."""
    calls = []
    evaluate_block = cli.evaluate_block

    def recorded(pairs, tol):
        calls.append(pairs)
        if len(calls) == fail_on:
            raise RuntimeError("evaluation failed")
        return evaluate_block(pairs, tol)

    monkeypatch.setattr(cli, "evaluate_block", recorded)
    return calls


def test_sweep_failure_leaves_no_temp_file_and_keeps_the_old_csv(
        tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "s.csv"
    out_file.write_bytes(b"previous sweep\n")
    # Two grid blocks: the first block's rows are written, the second
    # block's solver call fails
    grid = 90
    assert grid * grid > cli.SWEEP_BLOCK
    calls = _record_solver_calls(monkeypatch, fail_on=2)
    with pytest.raises(RuntimeError):
        main(["sweep", "--grid", str(grid), "--out", str(out_file)])
    assert len(calls) == 2
    assert list(tmp_path.glob("*.csv.tmp")) == []
    assert out_file.read_bytes() == b"previous sweep\n"


def _sweep_pairs(grid, mode):
    """The grid's ScherkParams in sweep order, built by the constructors."""
    if mode == "AB":
        values = [i / grid for i in range(1, grid + 1)]
        return [from_ab(a, b) for a in values for b in values]
    angles = [0.5 * math.pi * i / grid for i in range(1, grid + 1)]
    return [from_angles(p, p + s) for p in angles for s in angles]


def _stack(params):
    """The pairs as one block: each ScherkParams field an array."""
    return ScherkParams(*(np.array(values) for values in zip(*params)))


def _assert_block_matches_scalar(pairs, rec, params):
    for field in ScherkParams._fields:
        assert getattr(pairs, field).tolist() == [
            getattr(x, field) for x in params], field
    assert rec.status.size == len(params)
    for k, x in enumerate(params):
        ref = evaluate_pair(x)
        where = f"A={x.A!r}, B={x.B!r}"
        assert cli.STATUSES[rec.status[k]] == ref.status, where
        expect = [math.nan] * 6
        if ref.zero is not None:
            expect[:4] = ref.zero.U, ref.zero.S, ref.margin, ref.wk_scalar
        if ref.solution is not None:
            expect[4:] = ref.solution.WK, ref.route_gap
        # Both paths call the same closed forms: equal bits, NaN for NaN.
        np.testing.assert_array_equal([col[k] for col in rec[1:]], expect,
                                      err_msg=where)


@pytest.mark.parametrize("grid, mode", [(65, "AB"), (12, "pq")])
def test_block_evaluator_matches_evaluate_pair_on_grids(grid, mode):
    params = _sweep_pairs(grid, mode)
    start = 0
    blocks = list(cli._Sweep(grid, mode, 1e-12)._blocks())
    assert [pairs.A.size for _, pairs in blocks[:-1]] == [cli.SWEEP_BLOCK] * (
        len(blocks) - 1)
    for flat, pairs in blocks:
        stop = start + pairs.A.size
        assert flat.tolist() == list(range(start, stop))
        _assert_block_matches_scalar(pairs, cli.evaluate_block(pairs),
                                     params[start:stop])
        start = stop
    assert start == grid * grid


def _threshold_pairs():
    """Pairs at B0(A) + 1, 2 and 3 ulp and B0(A) + 1e-12 for fixed A, then
    three pairs just above B0(A) that `pair_commands.txt` and an earlier
    defect report name."""
    out = []
    for a in (0.001, 0.01, 0.05, 0.1, 0.15, 0.1975, 0.2, 0.25, 0.3, 0.4,
              0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99, 0.9975):
        b = b0 = threshold_b0(a)
        for _ in range(3):
            b = math.nextafter(b, 2.0)
            out.append((a, b))
        out.append((a, b0 + 1e-12))
    return out + [(0.1975, 0.9940325801725397),
                  (0.9975, 0.13225811292499762), (0.2, 0.9938643518264031)]


THRESHOLD_PAIRS = _threshold_pairs()


def test_threshold_pairs_answer_the_oracle_or_refuse():
    # Next to B = B0(A) the zero point nears the arc endpoint.  Each pair
    # refuses, or answers on both routes with the 50-digit scalar zero's
    # W^2|K|.  Where the oracle finds no sign change the exact pair lies
    # on or under the curve, and the answer is the curve's value pi^2/4.
    answered = 0
    for a, b in THRESHOLD_PAIRS:
        rec = evaluate_pair(from_ab(a, b))
        if rec.status != "ok":
            continue
        answered += 1
        try:
            expect = math.pi ** 2 * (1.0 + a * b) / mp_scalar_root(a, b)[1] ** 2
        except ValueError:
            expect = math.pi ** 2 / 4.0
        where = f"A={a!r}, B={b!r}"
        assert rec.route_gap <= ROUTE_GAP_BOUND, where
        assert rec.solution.WK == pytest.approx(expect, rel=1e-12), where
    assert answered >= 20


def test_block_evaluator_matches_evaluate_pair_on_edge_pairs():
    # The corner, a pair within an ulp of B0(A) that rounding makes not
    # admissible, a refused zero point and two solved ones near B0(A), then
    # pairs whose scalar zero comes from the G(L) > 0 end, the
    # degenerate-interval midpoint and the G(R) < 0 end of `solve_zero`.
    # Then three pairs on which the paths have parted by an ulp, when
    # `math.hypot`, x*x or numpy's arctan stood in for libm, a B so small
    # that alpha rounds to pi, and one so small that P overflows.
    # Last, two pairs on which Newton steps leave the bracket [L, R] and
    # bisection steps stand in: three times at (0.005, 1), ten times at
    # (1, 1e-9), whose zero point then misses its measures.
    params = [from_ab(a, b) for a, b in [
        (1.0, 1.0), (0.2, 0.9938643518264029),
        (0.5, threshold_b0(0.5) + 1e-6), (0.52, 0.94), (0.94, 0.52),
        (0.08603685184259213, 0.9989909331760518),
        (0.09, 0.9988913694662622),
        (1.0, 1.1102230246251565e-16),
        (0.7181383713219818, 0.9574269277339676),
        (0.9537738791884737, 0.8985663290012464),
        (0.083988245473411, 0.9991003552723192),
        (1.0, 1e-300), (1.0, 5e-324), (0.005, 1.0), (1.0, 1e-9)]]
    pairs = _stack(params)
    rec = cli.evaluate_block(pairs)
    assert [cli.STATUSES[s] for s in rec.status] == [
        "ok", "not_admissible", "non_convergence", "ok", "ok",
        "non_convergence", "non_convergence", "non_convergence", "ok", "ok",
        "ok", "non_convergence", "no_sign_change", "ok", "non_convergence"]
    _assert_block_matches_scalar(pairs, rec, params)
    # Those three branches return L, the midpoint of [L, R] and R itself,
    # where the Newton iteration would land within an ulp or two of them.
    refs = [evaluate_pair(x) for x in params[5:8]]
    ends = [refs[0].interval.L,
            0.5 * (refs[1].interval.L + refs[1].interval.R),
            refs[2].interval.R]
    assert [ref.zero.U for ref in refs] == ends == rec.U[5:8].tolist()

    # The pairs next to B = B0(A), as one block.
    threshold = [from_ab(a, b) for a, b in THRESHOLD_PAIRS]
    pairs = _stack(threshold)
    _assert_block_matches_scalar(pairs, cli.evaluate_block(pairs), threshold)

    # A block with no admissible pair runs every stage on empty arrays.
    alone = _stack(params[1:2])
    assert cli.evaluate_block(alone).status.tolist() == [cli.NOT_ADMISSIBLE]


def _csv_row(rec):
    """The sweep's CSV row for one pair's record: floats with 17
    significant digits, empty cells where the pipeline stopped."""
    x = rec.params
    cells = [x.p, x.q, x.A, x.B, "true" if rec.interval.nonempty else "false"]
    values = [""] * 6
    if rec.zero is not None:
        values[:4] = rec.zero.U, rec.zero.S, rec.margin, rec.wk_scalar
    if rec.solution is not None:
        values[4:] = rec.solution.WK, rec.route_gap
    cells += values + [rec.status]
    return ",".join(c if isinstance(c, str) else f"{c:.17g}" for c in cells)


@pytest.mark.parametrize("grid, mode, solver_calls", [
    (90, "AB", 2), (50, "AB", 1), (12, "pq", 1)])
def test_sweep_csv_is_evaluate_pair_row_by_row(tmp_path, capsys, monkeypatch,
                                               grid, mode, solver_calls):
    # Grid 90 spans two grid blocks, grid 50 and grid 12 one each.
    calls = _record_solver_calls(monkeypatch)
    out_file = tmp_path / "s.csv"
    assert run(capsys, "sweep", "--grid", str(grid), "--mode", mode,
               "--out", str(out_file))[0] == 0
    refs = [evaluate_pair(x) for x in _sweep_pairs(grid, mode)]
    assert out_file.read_text().splitlines() == [CSV_HEADER] + [
        _csv_row(rec) for rec in refs]
    # The solver calls take every grid pair, in grid order, exactly
    # SWEEP_BLOCK in each call but the last.
    assert [(a, b) for pairs in calls
            for a, b in zip(pairs.A.tolist(), pairs.B.tolist())] == [
                (rec.params.A, rec.params.B) for rec in refs]
    sizes = [pairs.A.size for pairs in calls]
    assert len(sizes) == solver_calls
    assert sizes[:-1] == [cli.SWEEP_BLOCK] * (solver_calls - 1)


def test_sweep_grid2(tmp_path, capsys):
    out_file = tmp_path / "s.csv"
    code, _, err = run(capsys, "sweep", "--grid", "2", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    last = lines[4].split(",")
    assert last[2] == "1" and last[3] == "1"
    assert float(last[8]) == pytest.approx(math.pi ** 2 / 2, abs=1e-12)
    assert "ok=3" in err and "not_admissible=1" in err


def test_sweep_deterministic(tmp_path, capsys):
    # Grid 65 spans two grid blocks, so a block boundary is crossed too.
    for flags in (("--grid", "7"), ("--grid", "65"),
                  ("--grid", "65", "--mode", "pq")):
        f1 = tmp_path / "a.csv"
        f2 = tmp_path / "b.csv"
        assert run(capsys, "sweep", *flags, "--out", str(f1))[0] == 0
        assert run(capsys, "sweep", *flags, "--out", str(f2))[0] == 0
        assert f1.read_bytes() == f2.read_bytes(), flags


def test_sweep_pq_mode(tmp_path, capsys):
    out_file = tmp_path / "pq.csv"
    code, _, err = run(capsys, "sweep", "--grid", "10", "--mode", "pq",
                       "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 101
    statuses = {line.split(",")[-1] for line in lines[1:]}
    assert "ok" in statuses and "not_admissible" in statuses
    for line in lines[1:]:
        cells = line.split(",")
        p, q = float(cells[0]), float(cells[1])
        assert 0 < p < q <= math.pi + 1e-15
        if cells[-1] == "ok":
            wk = float(cells[8])
            assert math.pi ** 2 / 4 - 1e-9 <= wk <= math.pi ** 2 / 2 + 1e-9


def test_sweep_bad_grid_and_path(tmp_path, capsys, monkeypatch):
    code, out, err = run(capsys, "sweep", "--grid", "1",
                         "--out", str(tmp_path / "x.csv"))
    assert code == 1 and out == ""
    assert "scherk sweep: error: argument --grid: must be an integer >= 2" \
        in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []
    assert run(capsys, "sweep", "--grid", "2",
               "--out", "/nonexistent-dir/x.csv")[0] == 1
    # A directory or an empty path is refused before the sweep runs: ""
    # would put the temporary file beside the working directory.
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    for out_arg in (str(work), ""):
        code, out, err = run(capsys, "sweep", "--grid", "2", "--out", out_arg)
        assert code == 1 and out == ""
        assert "error: argument --out: must name a file" in err
        assert list(tmp_path.iterdir()) == [work]
        assert list(work.iterdir()) == []


def test_certify(capsys):
    code, out, _ = run(capsys, "certify")
    assert code == 0
    assert "20/9" in out and "49/9" in out
    assert "all entries nonnegative" in out
    assert out.splitlines()[-5:] == [
        f"identity {name}: proved"
        for name in ("lower_band", "swap", "p_minus_r", "threshold", "h_r")]


def test_certify_corrupt_negative_control(capsys, corrupt_expected):
    corrupt_expected("2z", 4, 4, 1)
    code, out, err = run(capsys, "certify")
    assert code == 4 and out == ""
    assert "2z[4][4]" in err
    corrupt_expected("y", 0, 0, 1)
    code, _, err = run(capsys, "certify")
    assert code == 4
    assert "y[0][0]" in err


def test_certify_names_a_failed_identity(capsys, monkeypatch):
    # A wrong term in a shipped closed form breaks the identities that run
    # it; the certificates still print and the exit code is 4.
    interval_R = params.interval_R
    monkeypatch.setattr(params, "interval_R",
                        lambda A, B, k, e: interval_R(A, B, k, e) + A / 10)
    code, out, _ = run(capsys, "certify")
    assert code == 4 and "all entries nonnegative" in out
    assert "identity swap: FAILED" in out
    assert "identity p_minus_r: FAILED" in out
    assert "identity lower_band: proved" in out
    code, out, _ = run(capsys, "certify", "--json")
    assert code == 4
    doc = load(out)
    assert doc["nonnegative"] is True
    assert doc["identities"] == {"lower_band": True, "swap": False,
                                 "p_minus_r": False, "threshold": True,
                                 "h_r": True}


# `certify` has no option to perturb an entry: any such argv is rejected.
@pytest.mark.parametrize("corrupt", [
    ("y", "0", "0", "1"), ("y", "9", "9", "1"), ("y", "a", "0", "1"),
    ("y", "0", "0", "abc"), ("y", "-1", "-1", "-1"), ("2z", "0", "5", "1")],
    ids=" ".join)
def test_certify_corrupt_rejects_a_bad_entry(capsys, corrupt):
    code, out, err = run(capsys, "certify", "--corrupt", *corrupt)
    assert code == 1 and out == ""
    assert "unrecognized arguments: --corrupt" in err
    assert "Traceback" not in err


def test_certify_json(capsys):
    code, out, _ = run(capsys, "certify", "--json")
    assert code == 0
    doc = load(out)
    assert doc["nonnegative"] is True
    assert doc["y"]["bidegree"] == [3, 3]
    assert doc["two_z"]["bidegree"] == [4, 4]
    assert doc["y"]["coeffs"][1][2] == "20/9"
    assert doc["two_z"]["coeffs"][2][2] == "49/9"
    assert doc["identities"] == {"lower_band": True, "swap": True,
                                 "p_minus_r": True, "threshold": True,
                                 "h_r": True}


def test_odd_command(capsys):
    code, out, _ = run(capsys, "odd", "--trials", "10", "--seed", "7")
    assert code == 0
    assert "min S1" in out and "PASS" in out


def test_odd_deterministic_and_first_minimum(capsys):
    argv = ("odd", "--trials", "50", "--seed", "7", "--extremal")
    code, first, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv)[1] == first
    min_s1, min_seed = math.inf, None
    for seed in range(7, 57):
        s1 = fourier_S1(random_odd_lift(seed, 1 + seed % 8, 0.3))
        if s1 < min_s1:
            min_s1, min_seed = s1, seed
    assert first.splitlines()[0] == (
        f"min S1 over 50 lifts: {min_s1:.12f} (seed {min_seed}); "
        f"sharp constant {8.0 / math.pi ** 2:.12f}")


def test_odd_seed_past_2_128_matches_oracle(capsys):
    # A seed of three 64-bit words folds every word into its stream's key.
    seed = 2 ** 128
    code, out, _ = run(capsys, "odd", "--trials", "3", "--seed", str(seed))
    assert code == 0
    s1 = []
    for s in range(seed, seed + 3):
        c1, cm1 = full_grid_fourier_mode(
            direct_random_odd_lift(s, 1 + s % 8, 0.3, DEFAULT_GRID), 1)
        s1.append(abs(c1) ** 2 + abs(cm1) ** 2)
    first = min(range(3), key=s1.__getitem__)
    assert out.splitlines()[0] == (
        f"min S1 over 3 lifts: {s1[first]:.12f} (seed {seed + first}); "
        f"sharp constant {8.0 / math.pi ** 2:.12f}")


@pytest.mark.parametrize("seed", [0, 7])
def test_odd_extremal_golden_output(capsys, seed):
    # `odd --trials 1000 --extremal` as the committed files print it.
    golden = Path(__file__).parent / "data" / \
        f"odd_trials1000_extremal_seed{seed}.txt"
    code, out, _ = run(capsys, "odd", "--trials", "1000", "--extremal",
                       "--seed", str(seed))
    assert code == 0
    assert out == golden.read_text()


@pytest.mark.parametrize("trials, seed", [(20, 2 ** 128), (4, 2 ** 64 - 2)])
def test_odd_multiword_seed_golden_output(capsys, trials, seed):
    # Seeds of three 64-bit words and across the 2^64 word boundary, with
    # uint64 overflow warnings as errors, print the committed files.
    golden = Path(__file__).parent / "data" / \
        f"odd_trials{trials}_seed{seed}.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = run(capsys, "odd", "--trials", str(trials),
                           "--seed", str(seed))
    assert code == 0
    assert out == golden.read_text()


def _replay_golden(capsys, name):
    """Run every case of tests/data/<name> and compare it byte for byte.
    Each case is "$ <argv>", "exit <code>" and the command's stdout; the
    CI steps that diff these files write them in the same form.  Returns
    the number of cases."""
    golden = (Path(__file__).parent / "data" / name).read_text()
    head, *cases = golden.split("$ ")
    assert head == ""
    for case in cases:
        argv = case.partition("\n")[0]
        code, out, _ = run(capsys, *argv.split())
        assert f"{argv}\nexit {code}\n{out}" == case, argv
    return len(cases)


def test_pair_commands_golden_output(capsys):
    # `check` and `zero` on the committed argv sets.  They cover interior
    # pairs, the (1, 1) corner, the slow bisection at A = 1, the endpoint
    # and degenerate-interval branches, not_admissible, non_convergence,
    # --p/--q, --tol/--slack and bad input.
    assert _replay_golden(capsys, "pair_commands.txt") >= 50


def test_certify_golden_output(capsys):
    # `certify` and `certify --json`: both certificate matrices, their
    # minima and every identity proof.
    assert _replay_golden(capsys, "certify.txt") == 2


def test_odd_rejects_zero_trials(capsys):
    code, out, err = run(capsys, "odd", "--trials", "0")
    assert code == 1 and out == ""
    assert "scherk odd: error: argument --trials: must be an integer >= 1" \
        in err and "Traceback" not in err


@pytest.mark.parametrize("seed", ["-1", "-5", "x"])
def test_odd_rejects_a_negative_seed(capsys, seed):
    code, out, err = run(capsys, "odd", "--trials", "2", f"--seed={seed}")
    assert code == 1
    assert "error: argument --seed: " in err and "Traceback" not in err
    assert out == ""


def test_logsub_command(capsys):
    code, out, _ = run(capsys, "logsub", "--samples", "5", "--seed", "3",
                       "--h", "1e-2", "--h", "1e-3", "--h", "0.07")
    assert code == 0
    assert "h=0.07:" in out and "PASS" in out


def test_logsub_rejects_zero_samples(capsys):
    code, out, err = run(capsys, "logsub", "--samples", "0")
    assert code == 1 and out == ""
    assert ("scherk logsub: error: argument --samples: must be an integer "
            ">= 1") in err and "Traceback" not in err


# A step must also keep the stencil inside the disk: h < 0.0732.
@pytest.mark.parametrize("h", ["nan", "inf", "0", "-1e-3", "0.1", "0.0733"])
def test_logsub_rejects_a_bad_step(capsys, h):
    code, out, err = run(capsys, "logsub", "--samples", "2", "--h=0.01",
                         f"--h={h}")
    assert code == 1
    assert "error: argument --h: " in err and "Traceback" not in err
    assert out == ""


def test_unknown_flag_is_input_error(capsys):
    assert run(capsys, "check", "--nope", "1")[0] == 1


def test_one_parser_serves_successive_calls(tmp_path, capsys, monkeypatch):
    # Each command, run after the others in one process, prints and
    # returns what it does on a parser built for it alone.
    out_file = tmp_path / "s.csv"
    sequence = [("sweep", "--grid", "7", "--out", str(out_file)),
                ("check", "--A", "0.7", "--B", "0.9"),
                ("check", "--A", "0.7", "--nope", "1"),
                ("odd", "--trials", "7")]

    def outcome(argv):
        result = run(capsys, *argv)
        return result + (out_file.read_bytes(),) if argv[0] == "sweep" \
            else result

    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    assert [result[0] for result in fresh] == [0, 0, 1, 0]

    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda build=cli.build_parser: built.append(1)
                        or build())
    cli._parser.cache_clear()
    assert [outcome(argv) for argv in sequence] == fresh
    assert len(built) == 1


# Runs each step of argv[1] (a JSON list: an argv for `cli.main`, or Python
# source to exec) in one interpreter, and prints per step its exit code,
# stdout, stderr and which of numpy and scherk.oddmap are loaded.
_STEPS = """\
import contextlib, io, json, sys
import scherk
from scherk.cli import main
for step in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = exec(step, {}) if isinstance(step, str) else main(step)
    print(json.dumps([code, out.getvalue(), err.getvalue(),
                      [m for m in ("numpy", "scherk.oddmap")
                       if m in sys.modules]]))
"""


def _run_steps(steps, cwd):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _STEPS, json.dumps(steps)],
                         cwd=cwd, env=env, check=True, capture_output=True,
                         text=True).stdout
    return [json.loads(line) for line in out.splitlines()]


def test_numpy_loads_only_with_the_array_commands(tmp_path):
    # `import scherk` and the scalar commands leave numpy and oddmap
    # unloaded; the array commands that follow in the same process print
    # and write what they do in a fresh one.
    scalar = [["check", "--A", "0.7", "--B", "0.9"],
              ["zero", "--A", "0.5", "--B", "0.9"],
              ["certify"], ["logsub", "--samples", "3"],
              readme_library_code()]
    arrays = [["sweep", "--grid", "12", "--out", "ab.csv"],
              ["sweep", "--grid", "12", "--mode", "pq", "--out", "pq.csv"],
              ["odd", "--trials", "20", "--extremal"]]
    together, fresh = tmp_path / "together", tmp_path / "fresh"
    together.mkdir()
    fresh.mkdir()
    steps = _run_steps(scalar + arrays, together)
    assert [code for code, *_ in steps] == [0, 2, 0, 0, None, 0, 0, 0]
    assert [loaded for *_, loaded in steps] == [[]] * len(scalar) + [
        ["numpy"], ["numpy"], ["numpy", "scherk.oddmap"]]
    alone = [_run_steps([argv], fresh)[0] for argv in arrays]
    assert [step[:3] for step in steps[len(scalar):]] == [
        step[:3] for step in alone]
    for name in ("ab.csv", "pq.csv"):
        assert (together / name).read_bytes() == (fresh / name).read_bytes()
