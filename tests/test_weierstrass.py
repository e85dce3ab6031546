import math

import numpy as np
import pytest

from conftest import named_check, random_admissible
from scherk.bernstein import prove_identities
from scherk.cli import ROUTE_GAP_BOUND
from scherk.errors import DomainError
from scherk.harmonic import (master_inequality_check, solve_zero_point,
                             solve_zero_point_block)
from scherk.params import ScherkParams, from_ab
from scherk.scalar import solve_zero
from scherk.weierstrass import wk_scalar


def test_wk_scalar_values():
    assert wk_scalar(from_ab(1.0, 1.0), 2.0).value == pytest.approx(
        math.pi ** 2 / 2, abs=1e-15)
    # 50-digit oracle values via S at the symmetric zero.
    params = from_ab(0.95, 0.95)
    s = solve_zero(params).S
    assert wk_scalar(params, s).value == pytest.approx(
        3.8557014801966062172, abs=1e-11)
    params = from_ab(0.6, 0.95)
    s = solve_zero(params).S
    assert wk_scalar(params, s).value == pytest.approx(
        2.5403881748537801088, abs=1e-11)


def test_wk_scalar_rejects_nonpositive_s():
    with pytest.raises(DomainError):
        wk_scalar(from_ab(0.9, 0.9), 0.0)


def test_wk_geometric_equality_corner():
    # The geometric route at A = B = 1: z0 = 0, D0 = 1 and S_geo = 2, so
    # W^2|K| is pi^2/2, on one pair and on a block of pairs alike.
    params = from_ab(1.0, 1.0)
    zero = solve_zero(params)
    sol = solve_zero_point(params, zero)
    S_geo = (params.A + params.B) * sol.master_lhs
    assert S_geo == 2.0
    assert wk_scalar(params, S_geo).value == pytest.approx(
        math.pi ** 2 / 2, abs=1e-15)
    block = ScherkParams(*(np.array([x]) for x in params))
    with np.errstate(all="ignore"):
        WK, D0, solved = solve_zero_point_block(
            block, *(np.array([x]) for x in (zero.U, zero.V, zero.T)), 1e-9)
    assert solved[0] and D0[0] == 1.0
    assert WK[0] == pytest.approx(math.pi ** 2 / 2, abs=1e-15)


def test_route_equivalence_specific_pairs():
    for a, b in ((0.95, 0.95), (0.6, 0.95), (0.85, 0.9), (1.0, 0.4)):
        params = from_ab(a, b)
        zero = solve_zero(params)
        sol = solve_zero_point(params, zero)
        scal = wk_scalar(params, zero.S).value
        assert abs(sol.WK - scal) <= ROUTE_GAP_BOUND


def test_two_sided_band():
    check = named_check(from_ab(1.0, 1.0), "band_scalar")
    assert check.value == pytest.approx(math.pi ** 2 / 2, abs=1e-12)
    assert check.bound == (math.pi ** 2 / 4, math.pi ** 2 / 2)
    assert check.ok

    check = named_check(from_ab(0.6, 0.95), "band_scalar")
    assert check.ok
    assert check.value > math.pi ** 2 / 4
    assert check.value == pytest.approx(2.5403881748537801088, abs=1e-11)


def test_two_sided_band_random(rng):
    lo = math.pi ** 2 / 4 - 1e-9
    hi = math.pi ** 2 / 2 + 1e-9
    for params in random_admissible(rng, 400):
        check = named_check(params, "band_scalar")
        assert check.ok, (params.A, params.B, check.value)
        assert lo <= check.value <= hi


def test_lower_identity_exact_rational():
    # 4(1+AB) - (A+B+B kappa+A eps)^2 = (kappa eps+kappa+eps-1-AB)^2 for
    # all pairs, proved on rational functions of the half-angle coordinates.
    assert prove_identities()["lower_band"]


def test_geometric_upper_band_is_the_master_inequality(rng):
    # W^2|K| <= pi^2/2 on the geometric route reads S_geo >= sigma, as the
    # master inequality does.
    for params in random_admissible(rng, 60, margin=5e-3):
        band = named_check(params, "band_geometric")
        sol = solve_zero_point(params, solve_zero(params))
        lhs, rhs, master_ok = master_inequality_check(sol, params)
        assert band.ok and master_ok
        assert band.value == sol.WK
        assert lhs >= rhs

