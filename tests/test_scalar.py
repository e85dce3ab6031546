import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import named_check, random_admissible
from oracles import mp_scalar_root
from scherk.errors import NotAdmissible
from scherk.params import admissible_interval, from_ab
from scherk.scalar import (barrier_chain_check, g_eval, hr_identity_residual,
                           s_eval, solve_zero)

PYTH = [(Fraction(3, 5), Fraction(4, 5)),
        (Fraction(5, 13), Fraction(12, 13)),
        (Fraction(8, 17), Fraction(15, 17))]
PYTH += [(k, a) for (a, k) in PYTH]   # both orientations of each triple


def test_g_eval_equality_corner():
    g, m, n = g_eval(from_ab(1.0, 1.0), 0.5)
    assert abs(g) < 1e-15   # (A+B)*cos(pi/2) rounds to ~1e-16
    assert m == 0.0 and n == 0.0


@pytest.mark.parametrize("a", [0.3, 0.5, 0.7, 0.95, 1.0])
def test_g_vanishes_at_half_for_symmetric_pairs(a):
    g, m, n = g_eval(from_ab(a, a), 0.5)
    assert abs(g) < 1e-14
    assert m == pytest.approx(n, abs=1e-14)


def test_g_eval_frozen_value():
    # 50-digit evaluation of the three cosine terms.
    g, _, _ = g_eval(from_ab(0.6, 0.95), 0.5)
    assert g == pytest.approx(-0.096698030138343262333, abs=1e-14)


def test_s_eval_values():
    assert s_eval(from_ab(1.0, 1.0), 0.5) == pytest.approx(2.0, abs=1e-15)
    # Symmetric closed form S = 2A + 2*A*kappa*sin(pi*kappa/(2A^2)).
    a = 0.95
    k = math.sqrt(1 - a * a)
    closed = 2 * a + 2 * a * k * math.sin(math.pi * k / (2 * a * a))
    s = s_eval(from_ab(a, a), 0.5)
    assert s == pytest.approx(closed, abs=1e-14)
    assert s == pytest.approx(2.2067874442598013117, abs=1e-13)


def test_solve_zero_equality_corner_is_exact():
    z = solve_zero(from_ab(1.0, 1.0))
    assert z.U == 0.5 and z.S == 2.0 and z.residual == 0.0
    assert z.M == z.N == z.V == z.T == 0.0


def test_solve_zero_symmetric():
    # Symmetric pairs are admissible only for a^2 >= (sqrt(5)-1)/2, i.e.
    # a >= 0.7862; at any admissible symmetric pair the zero is U = 1/2.
    for a in (0.8, 0.9, 0.95):
        z = solve_zero(from_ab(a, a))
        assert z.U == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(NotAdmissible):
        solve_zero(from_ab(0.7, 0.7))


def test_solve_zero_frozen_root():
    # 50-digit bisection oracle for (A, B) = (0.6, 0.95).
    z = solve_zero(from_ab(0.6, 0.95))
    assert z.U == pytest.approx(0.51245105701930676097, abs=1e-12)
    assert z.S == pytest.approx(2.4697310263106393522, abs=1e-12)
    assert z.residual <= 1e-12 * max(1.0, math.pi * z.S)
    assert z.V == pytest.approx(z.M, abs=1e-15)
    assert z.T == pytest.approx(-z.N, abs=1e-15)


def test_solve_zero_not_admissible():
    with pytest.raises(NotAdmissible):
        solve_zero(from_ab(0.5, 0.5))


def test_solve_zero_degenerate_interval():
    # At B = B0(A) the interval collapses to a point where G vanishes; the
    # solver accepts it as a root within tolerance.  (A bracket failure is
    # impossible with a nonempty interval: M(R) <= R and N(L) <= 1-L are
    # both equivalent to L <= R, which forces G(L) <= 0 <= G(R).)
    from scherk.params import threshold_b0
    a = 0.5
    b0 = threshold_b0(a)
    # Exactly at the float threshold, rounding tips the interval empty.
    with pytest.raises(NotAdmissible):
        solve_zero(from_ab(a, b0))
    params = from_ab(a, b0 + 2e-15)
    iv = admissible_interval(params)
    assert 0.0 <= iv.R - iv.L < 1e-12
    z = solve_zero(params)
    assert abs(g_eval(params, z.U)[0]) <= 1e-12


def test_solve_zero_rejects_nonpositive_tol():
    with pytest.raises(ValueError):
        solve_zero(from_ab(0.9, 0.9), tol=0.0)


def test_solve_zero_matches_oracle_on_random_pairs(rng):
    for params in random_admissible(rng, 50, margin=1e-3):
        u_mp, s_mp = mp_scalar_root(params.A, params.B)
        z = solve_zero(params)
        assert z.U == pytest.approx(u_mp, abs=2e-12)
        assert z.S == pytest.approx(s_mp, abs=1e-10)


def test_monotonicity_on_admissible_interval(rng):
    for params in random_admissible(rng, 1000):
        iv = admissible_interval(params)
        u1, u2 = sorted(rng.uniform(iv.L, iv.R, 2))
        if u1 == u2:
            continue
        assert g_eval(params, u1)[0] < g_eval(params, u2)[0] + 1e-15


def test_root_bracketing_and_mn_bounds(rng):
    for params in random_admissible(rng, 300):
        iv = admissible_interval(params)
        z = solve_zero(params)
        assert iv.L - 1e-12 <= z.U <= iv.R + 1e-12
        assert -1e-12 <= z.M <= 0.5 + 1e-12
        assert -1e-12 <= z.N <= 0.5 + 1e-12
        assert z.M <= min(z.U, 0.5) + 1e-9
        assert z.N <= min(1 - z.U, 0.5) + 1e-9


def test_derivative_matches_finite_difference(rng):
    h = 1e-5
    for params in random_admissible(rng, 200):
        iv = admissible_interval(params)
        u = float(rng.uniform(iv.L + h, iv.R - h)) if iv.R - iv.L > 2 * h \
            else 0.5
        fd = (g_eval(params, u + h)[0] - g_eval(params, u - h)[0]) / (2 * h)
        exact = math.pi * s_eval(params, u)
        assert fd == pytest.approx(exact, rel=1e-7)


def test_swap_relation_between_roots(rng):
    tol = 1e-12
    for params in random_admissible(rng, 200, margin=1e-6):
        z = solve_zero(params, tol)
        swapped = from_ab(params.B, params.A)
        g_sw = g_eval(swapped, 1.0 - z.U)[0]
        assert abs(g_sw + g_eval(params, z.U)[0]) < 1e-12
        z_sw = solve_zero(swapped, tol)
        assert abs(z_sw.U - (1.0 - z.U)) < 2 * 1e-9


def test_derivative_inequality_examples():
    check = named_check(from_ab(1.0, 1.0), "derivative_margin")
    assert check.value == 0.0 and check.bound == 0.0 and check.ok

    check = named_check(from_ab(0.95, 0.95), "derivative_margin")
    assert check.value == pytest.approx(0.25614652394668535395, abs=1e-12)
    assert check.ok

    check = named_check(from_ab(0.6, 0.95), "derivative_margin")
    assert check.value == pytest.approx(0.69772651164370431196, abs=1e-12)
    assert check.ok


def test_barrier_chain_generic_pair():
    rep = barrier_chain_check(from_ab(0.6, 0.95))
    assert rep.hr_identity_max_residual < 1e-12
    assert rep.u_star_ge_half
    assert rep.barrier_ok
    assert rep.hr_linear_ok and rep.hl_linear_ok
    assert abs(rep.swap_residual) < 1e-12
    if rep.g_at_u_star is not None:
        assert rep.g_at_u_star >= -1e-12


def test_barrier_chain_equality_corner():
    rep = barrier_chain_check(from_ab(1.0, 1.0))
    assert rep.sigma == 2.0 and rep.c_factor == 2.0
    assert rep.x_star == 0.5 and rep.u_star == 0.5
    assert rep.u_star_ge_half and rep.barrier_ok
    assert rep.hr_linear_ok and rep.hl_linear_ok


def test_hr_identity_exact_on_pythagorean_rationals():
    for (A, kappa) in PYTH:
        for (B, epsilon) in PYTH:
            for U in (Fraction(1, 2), Fraction(2, 5), Fraction(7, 13)):
                assert hr_identity_residual(A, B, kappa, epsilon, U) == 0


def test_sharp_margin_on_grid():
    n = 60
    seen_near_zero = False
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            params = from_ab(i / n, j / n)
            if not admissible_interval(params).nonempty:
                continue
            check = named_check(params, "derivative_margin")
            assert check.ok, (params.A, params.B, check.value)
            if check.value < 1e-6:
                seen_near_zero = True
    assert seen_near_zero  # margin -> 0 toward (1, 1)
