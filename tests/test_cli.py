import dataclasses
import json
import math

import pytest

from scherk import cli
from scherk.cli import CSV_HEADER, ROUTE_GAP_BOUND, evaluate_pair, main
from scherk.oddmap import fourier_S1, random_odd_lift
from scherk.params import from_ab, threshold_b0


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_equality_corner(capsys):
    code, out, _ = run(capsys, "check", "--A", "1", "--B", "1")
    assert code == 0
    rec = json.loads(out)
    assert rec["wk_scalar"] == pytest.approx(math.pi ** 2 / 2, abs=1e-12)
    assert rec["margin"] == 0.0
    assert rec["status"] == "ok"


def test_check_not_admissible(capsys):
    code, out, _ = run(capsys, "check", "--A", "0.5", "--B", "0.5")
    assert code == 2
    assert json.loads(out)["status"] == "not_admissible"


def test_check_generic_pair(capsys):
    code, out, _ = run(capsys, "check", "--A", "0.6", "--B", "0.95")
    assert code == 0
    rec = json.loads(out)
    assert rec["wk_scalar"] == pytest.approx(2.5403881748537801, abs=1e-10)
    assert rec["route_gap"] < 1e-8
    assert rec["master_ok"] and rec["in_band"]


def test_check_angles_input(capsys):
    code, out, _ = run(capsys, "check", "--p", str(math.pi / 2),
                       "--q", str(math.pi))
    assert code == 0
    rec = json.loads(out)
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
    # At B = B0(0.2) exactly, L lands one ulp above 1/2 and R below it.
    b = threshold_b0(0.2)
    code, out, _ = run(capsys, "check", "--A", "0.2", "--B", repr(b))
    assert code == 2
    rec = json.loads(out)
    assert rec["status"] == "not_admissible" and rec["admissible"] is False
    assert rec["B0"] == b
    assert rec["L"] == 0.5000000000000001 and rec["R"] == 0.4999999999999956


def test_check_solver_failure_near_threshold(capsys):
    b = threshold_b0(0.5) + 1e-6
    code, out, _ = run(capsys, "check", "--A", "0.5", "--B", repr(b))
    assert code == 3
    assert json.loads(out)["status"] == "non_convergence"


def test_zero_command(capsys):
    code, out, _ = run(capsys, "zero", "--A", "0.6", "--B", "0.95")
    assert code == 0
    rec = json.loads(out)
    assert rec["status"] == "ok"
    assert rec["Omega1"] + rec["Omega2"] + rec["Omega3"] + rec["Omega4"] == \
        pytest.approx(1.0, abs=1e-12)
    assert rec["residual"] < 1e-11


def test_zero_reports_the_solver_status(capsys):
    b = threshold_b0(0.5) + 1e-6
    code, out, _ = run(capsys, "zero", "--A", "0.5", "--B", repr(b))
    assert code == 3
    rec = json.loads(out)
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


def test_sweep_failure_leaves_no_temp_file_and_keeps_the_old_csv(
        tmp_path, capsys, monkeypatch):
    out_file = tmp_path / "s.csv"
    out_file.write_bytes(b"previous sweep\n")
    calls = []

    def failing(params, tol):
        calls.append(params)
        if len(calls) == 3:
            raise RuntimeError("evaluation failed")
        return evaluate_pair(params, tol)

    monkeypatch.setattr(cli, "evaluate_pair", failing)
    with pytest.raises(RuntimeError):
        main(["sweep", "--grid", "3", "--out", str(out_file)])
    assert len(calls) == 3
    assert list(tmp_path.glob("*.csv.tmp")) == []
    assert out_file.read_bytes() == b"previous sweep\n"


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
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    assert run(capsys, "sweep", "--grid", "7", "--out", str(f1))[0] == 0
    assert run(capsys, "sweep", "--grid", "7", "--out", str(f2))[0] == 0
    assert f1.read_bytes() == f2.read_bytes()


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


def test_sweep_bad_grid_and_path(tmp_path, capsys):
    assert run(capsys, "sweep", "--grid", "1",
               "--out", str(tmp_path / "x.csv"))[0] == 1
    assert run(capsys, "sweep", "--grid", "2",
               "--out", "/nonexistent-dir/x.csv")[0] == 1


def test_certify(capsys):
    code, out, _ = run(capsys, "certify")
    assert code == 0
    assert "20/9" in out and "49/9" in out
    assert "all entries nonnegative" in out


def test_certify_corrupt_negative_control(capsys):
    code, _, err = run(capsys, "certify", "--corrupt", "y", "0", "0", "1")
    assert code == 4
    assert "y[0][0]" in err


def test_certify_json(capsys):
    code, out, _ = run(capsys, "certify", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["nonnegative"] is True
    assert doc["y"]["bidegree"] == [3, 3]
    assert doc["two_z"]["bidegree"] == [4, 4]
    assert doc["y"]["coeffs"][1][2] == "20/9"
    assert doc["two_z"]["coeffs"][2][2] == "49/9"


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


def test_odd_rejects_zero_trials(capsys):
    assert run(capsys, "odd", "--trials", "0")[0] == 1


def test_logsub_command(capsys):
    code, out, _ = run(capsys, "logsub", "--samples", "5", "--seed", "3",
                       "--h", "1e-2", "--h", "1e-3")
    assert code == 0
    assert "PASS" in out


def test_logsub_rejects_zero_samples(capsys):
    assert run(capsys, "logsub", "--samples", "0")[0] == 1


def test_unknown_flag_is_input_error(capsys):
    assert run(capsys, "check", "--nope", "1")[0] == 1
