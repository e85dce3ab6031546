import json
import math

import pytest

from scherk.cli import CSV_HEADER, main
from scherk.oddmap import fourier_S1, random_odd_lift


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


def test_check_solver_failure_near_threshold(capsys):
    from scherk.params import threshold_b0
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
