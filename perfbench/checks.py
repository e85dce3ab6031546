"""Correctness checks on each workload's outputs, run outside the timing.

The checks compare against values computed apart from the code under test
(the 50-digit mpmath root and the Poisson-kernel quadrature in
`tests/oracles.py`, the threshold B0(A) from its quadratic, an FFT
autocorrelation) or against properties the method must have (the band
pi^2/4 <= W^2|K| <= pi^2/2, route agreement, the sharp derivative margin).

Each `check_*` function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import math
import os
import random
import re
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from oracles import mp_scalar_root, poisson_arc_measure  # noqa: E402
from workloads import (FAILED_STATUSES, PAIR_MARGIN,  # noqa: E402
                       SWEEP_GRID, pair_inputs, threshold_b0)

PI2 = math.pi ** 2
BAND_SLACK = 1e-9
ROUTE_GAP_MAX = 1e-8
MARGIN_MIN = -1e-9
RECOMPUTE_RTOL = 1e-12
ORACLE_SAMPLE = 25        # rows or pairs checked against the mpmath root
ORACLE_TOL = 1e-10        # on U and on S
POISSON_SAMPLE = 10       # pairs whose z0 is checked by quadrature
POISSON_TOL = 1e-9
THRESHOLD_TIE = 1e-12     # |B - B0(A)| below this: admissibility by rounding
# Named fault: the zero-point solver gives up on admissible pairs just
# above the threshold curve.  Every failure must lie in this band.
FAULT_BAND = 2e-3
HALL_TOL = 1e-10
SHARP = 8.0 / math.pi ** 2


def scalar_problems(tag, A, B, U, S, margin, wks, wkg=None, gap=None):
    """Checks shared by sweep rows and pairs on the scalar route."""
    out = []
    lo, hi = PI2 / 4.0 - BAND_SLACK, PI2 / 2.0 + BAND_SLACK
    sigma = math.sqrt(2.0 * (1.0 + A * B))
    if abs(margin - (S - sigma)) > RECOMPUTE_RTOL * sigma:
        out.append(f"{tag}: margin {margin!r} != S - sqrt(2(1+AB))")
    if margin < MARGIN_MIN:
        out.append(f"{tag}: margin {margin!r} < {MARGIN_MIN}")
    expect = PI2 * (1.0 + A * B) / (S * S)
    if abs(wks - expect) > RECOMPUTE_RTOL * expect:
        out.append(f"{tag}: wk_scalar {wks!r} != pi^2(1+AB)/S^2 = {expect!r}")
    if not lo <= wks <= hi:
        out.append(f"{tag}: wk_scalar {wks!r} outside the band")
    if wkg is not None:
        if not lo <= wkg <= hi:
            out.append(f"{tag}: wk_geometric {wkg!r} outside the band")
        if not abs(wks - wkg) < ROUTE_GAP_MAX:
            out.append(f"{tag}: route gap {abs(wks - wkg)!r}")
        if gap is not None and gap != abs(wks - wkg):
            out.append(f"{tag}: route_gap {gap!r} != |wk_s - wk_g|")
    return out


def oracle_problems(tag, A, B, U, S):
    u_mp, s_mp = mp_scalar_root(A, B)
    if abs(U - u_mp) > ORACLE_TOL or abs(S - s_mp) > ORACLE_TOL:
        return [f"{tag}: (U, S) = ({U!r}, {S!r}) vs mpmath "
                f"({u_mp!r}, {s_mp!r})"]
    return []


def fault_problems(tag, A, B, status):
    """A failure outside the named fault is a problem."""
    if status != "non_convergence" or not 0.0 <= B - threshold_b0(A) <= FAULT_BAND:
        return [f"{tag}: {status} outside the near-threshold band "
                f"(B - B0(A) = {B - threshold_b0(A)!r})"]
    return []


def _num(text):
    return float(text) if text else None


def check_sweep_csv(path: str, seed: int, grid: int = SWEEP_GRID) -> list:
    """Problems in one `scherk sweep` CSV of the (A, B) grid."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != grid * grid:
        problems.append(f"sweep: {len(rows)} rows, expected {grid * grid}")
    values = [i / grid for i in range(1, grid + 1)]
    seen = {(_num(r["A"]), _num(r["B"])) for r in rows}
    if seen != {(a, b) for a in values for b in values}:
        problems.append("sweep: the (A, B) pairs are not the grid")
    ok_rows, best = [], None
    for r in rows:
        A, B, status = _num(r["A"]), _num(r["B"]), r["status"]
        tag = f"sweep A={A!r} B={B!r}"
        admissible = r["admissible"] == "true"
        b0 = threshold_b0(A)
        if admissible != (B >= b0) and abs(B - b0) > THRESHOLD_TIE:
            problems.append(f"{tag}: admissible={admissible}, B0(A)={b0!r}")
        if admissible == (status == "not_admissible"):
            problems.append(f"{tag}: status {status} with "
                            f"admissible={admissible}")
        if status in FAILED_STATUSES:
            problems += fault_problems(tag, A, B, status)
        if status in ("ok", "non_convergence"):
            problems += scalar_problems(
                tag, A, B, _num(r["U"]), _num(r["S"]), _num(r["margin"]),
                _num(r["wk_scalar"]), _num(r["wk_geometric"]),
                _num(r["route_gap"]))
        if status == "ok":
            ok_rows.append(r)
            wk = _num(r["wk_scalar"])
            if best is None or wk > best[0]:
                best = (wk, A, B)
    if best is None or best[1:] != (1.0, 1.0) or abs(best[0] - PI2 / 2) > 1e-12:
        problems.append(f"sweep: maximum of wk_scalar is {best}, expected "
                        f"pi^2/2 at (1, 1)")
    rng = random.Random(seed)
    for r in rng.sample(ok_rows, min(ORACLE_SAMPLE, len(ok_rows))):
        problems += oracle_problems(f"sweep A={r['A']} B={r['B']}",
                                    _num(r["A"]), _num(r["B"]),
                                    _num(r["U"]), _num(r["S"]))
    return problems


def _arcs(A, B):
    """(center, half-length) of I1..I4 for alpha = 2 atan(sqrt(A/B))."""
    alpha = 2.0 * math.atan(math.sqrt(A / B))
    rest = math.pi - alpha
    return [(0.5 * alpha, 0.5 * alpha),
            (alpha + 0.5 * rest, 0.5 * rest),
            (math.pi + 0.5 * alpha, 0.5 * alpha),
            (math.pi + alpha + 0.5 * rest, 0.5 * rest)]


def poisson_problems(tag, A, B, U, r, t):
    """The four harmonic measures at z0 against their scalar-zero targets.

    V and T are rebuilt here from U, so the targets rest only on U (which
    the mpmath root checks) and on (A, B).
    """
    k = math.sqrt(1.0 - A * A)
    e = math.sqrt(1.0 - B * B)
    P = (1.0 + A * B) / (B * (A + B))
    V = k * (P - U)
    T = -e * (U + k * k / (A * (A + B)))
    targets = (0.5 * (U + V), 0.5 * (1.0 - U - T),
               0.5 * (U - V), 0.5 * (1.0 - U + T))
    measured = [poisson_arc_measure(r, t, phi, s) for phi, s in _arcs(A, B)]
    worst = max(abs(m - g) for m, g in zip(measured, targets))
    if worst > POISSON_TOL:
        return [f"{tag}: harmonic measures at z0 off by {worst!r}"]
    return []


def check_pairs(results: list, seed: int) -> list:
    """Problems in the results of one `pairs` round."""
    problems = []
    inputs = pair_inputs(seed)
    if [tuple(r[:2]) for r in results] != inputs:
        return ["pairs: results do not match the seeded inputs"]
    ok = []
    for res in results:
        A, B, status = res[:3]
        tag = f"pairs A={A!r} B={B!r}"
        if B < threshold_b0(A) + PAIR_MARGIN:
            problems.append(f"{tag}: input not inside the domain")
        if status != "ok":
            problems.append(f"{tag}: {status} on an interior pair")
            continue
        (U, _V, _T, S, wks, wkg, lhs, rhs, master_ok, mod, r, t,
         resid) = res[3:]
        margin = S - math.sqrt(2.0 * (1.0 + A * B))
        problems += scalar_problems(tag, A, B, U, S, margin, wks, wkg)
        rhs_expect = math.sqrt(2.0 * (1.0 + A * B)) / (A + B)
        if abs(rhs - rhs_expect) > RECOMPUTE_RTOL or not master_ok \
                or lhs < rhs_expect - BAND_SLACK:
            problems.append(f"{tag}: master inequality {lhs!r} >= {rhs!r} "
                            f"fails (ok={master_ok})")
        if not mod <= BAND_SLACK or not resid <= BAND_SLACK:
            problems.append(f"{tag}: modulus residual {mod!r}, "
                            f"measure residual {resid!r}")
        ok.append(res)
    rng = random.Random(seed)
    for res in rng.sample(ok, min(ORACLE_SAMPLE, len(ok))):
        problems += oracle_problems(f"pairs A={res[0]!r} B={res[1]!r}",
                                    res[0], res[1], res[3], res[6])
    for res in rng.sample(ok, min(POISSON_SAMPLE, len(ok))):
        problems += poisson_problems(f"pairs A={res[0]!r} B={res[1]!r}",
                                     res[0], res[1], res[3], res[13], res[14])
    return problems


def fft_hall_lhs(samples: np.ndarray) -> float:
    """Left side of the averaging inequality via Wiener-Khinchin.

    C at grid shift m is Re R(2m), R the circular autocorrelation of
    F = exp(i theta), which one FFT gives at every lag.
    """
    n = samples.size
    f = np.exp(1j * samples)
    spec = np.fft.fft(f)
    acf = np.fft.ifft(spec * np.conj(spec)) / n
    m = np.arange(n // 8 + 1)
    step = 2.0 * math.pi / n
    j = 0.5 * (1.0 - acf[(2 * m) % n].real)
    g = np.cos(2.0 * m * step) * j
    return float(step * (g.sum() - 0.5 * (g[0] + g[-1])))


_NUM = r"([-+0-9.e]+)"


def check_odd(stdout: str, rc: int, seed: int) -> list:
    """Problems in the output of one `scherk odd --extremal` run."""
    from scherk import oddmap

    problems = []
    if rc != 0:
        problems.append(f"odd: exit code {rc}")
    m = re.search(r"min S1 over \d+ lifts: " + _NUM, stdout)
    if m is None or not float(m.group(1)) >= SHARP - BAND_SLACK:
        problems.append(f"odd: min S1 line missing or below 8/pi^2: "
                        f"{m and m.group(0)}")
    ext = re.findall(r"^\s+" + _NUM + r"\s+" + _NUM + r"\s+" + _NUM + r"$",
                     stdout, re.M)
    gaps = [float(s1) - SHARP for _w, s1, _g in ext]
    widths = [float(w) for w, _s1, _g in ext]
    if (len(ext) < 2 or widths != sorted(widths, reverse=True)
            or any(g <= 0.0 for g in gaps)
            or any(b >= a for a, b in zip(gaps, gaps[1:]))):
        problems.append(f"odd: extremal S1 - 8/pi^2 not positive and "
                        f"falling as smoothing shrinks: {gaps}")
    s1_id = oddmap.fourier_S1(oddmap.identity_lift())
    if abs(s1_id - 1.0) > 1e-12:
        problems.append(f"odd: identity lift S1 = {s1_id!r}")
    hall = re.findall(r"hall: lhs=" + _NUM + r" rhs=" + _NUM
                      + r" holds=(\w+) max\(J-tau\)=" + _NUM, stdout)
    lifts = [oddmap.identity_lift(),
             oddmap.random_odd_lift(seed, modes=4, amplitude=0.3),
             oddmap.extremal_sequence(0.01)]
    if len(hall) != len(lifts):
        problems.append(f"odd: {len(hall)} hall lines, expected {len(lifts)}")
    for (lhs, _rhs, holds, gap), lift in zip(hall, lifts):
        expect = fft_hall_lhs(lift.samples)
        if abs(float(lhs) - expect) > HALL_TOL or holds != "True" \
                or float(gap) > 1e-10:
            problems.append(f"odd: hall lhs {lhs} vs FFT {expect!r}, "
                            f"holds={holds}, max(J-tau)={gap}")
    if "odd-map checks PASS" not in stdout:
        problems.append("odd: the command did not report PASS")
    return problems
