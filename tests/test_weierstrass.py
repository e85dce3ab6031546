import math

import numpy as np
import pytest

from conftest import named_check, random_admissible
from scherk.bernstein import prove_identities
from scherk.cli import ROUTE_GAP_BOUND
from scherk.errors import DomainError
from scherk.harmonic import solve_zero_point, solve_zero_point_block
from scherk.params import ScherkParams, from_ab
from scherk.scalar import solve_zero
from scherk.weierstrass import (GaussAutomorphism, log_subharmonicity_check,
                                wk_scalar)


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
        master = named_check(params, "master_inequality")
        assert band.ok and master.ok
        assert master.value >= master.bound


def test_gauss_automorphism_basics():
    g = GaussAutomorphism(a=0.3 + 0.1j, theta=0.7)
    assert abs(g(0.3 + 0.1j)) < 1e-15
    # Blaschke factor: unimodular on the circle.
    z = complex(math.cos(1.1), math.sin(1.1))
    assert abs(abs(g(z)) - 1.0) < 1e-12
    with pytest.raises(DomainError):
        GaussAutomorphism(a=1.0 + 0j)


def test_log_subharmonicity_identity_map():
    g = GaussAutomorphism(a=0j)
    chk = log_subharmonicity_check(g, 0j, 1e-3)
    assert chk.lap_exact == 0.0
    assert abs(chk.lap_fd) < 1e-4

    chk = log_subharmonicity_check(g, 0.5 + 0j, 1e-3)
    # 32*0.25/(1-0.0625)^2 = 2048/225
    assert chk.lap_exact == pytest.approx(2048.0 / 225.0, abs=1e-12)
    assert chk.lap_fd == pytest.approx(chk.lap_exact, rel=1e-4)


def test_log_subharmonicity_order_two():
    g = GaussAutomorphism(a=0j)
    z = 0.5 + 0j
    exact = log_subharmonicity_check(g, z, 1e-3).lap_exact
    e1 = abs(log_subharmonicity_check(g, z, 1e-2).lap_fd - exact)
    e2 = abs(log_subharmonicity_check(g, z, 0.5e-2).lap_fd - exact)
    assert e1 / e2 == pytest.approx(4.0, rel=0.2)


def test_log_subharmonicity_automorphism():
    g = GaussAutomorphism(a=0.3 + 0j)
    chk = log_subharmonicity_check(g, 0.2 + 0.1j, 1e-3)
    assert chk.lap_fd == pytest.approx(chk.lap_exact, rel=1e-4)
    assert chk.lapK_fd == pytest.approx(chk.lapK_exact, rel=1e-4)
    assert chk.lap_exact >= 0.0 and chk.lapK_exact <= 0.0


def test_log_subharmonicity_signs_random(rng):
    for _ in range(50):
        a = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        g = GaussAutomorphism(a=a, theta=float(rng.uniform(0, 2 * math.pi)))
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        chk = log_subharmonicity_check(g, z, 1e-3)
        assert chk.lap_fd >= -1e-6
        assert chk.lapK_fd <= 1e-6


def test_log_subharmonicity_domain_guard():
    g = GaussAutomorphism(a=0j)
    with pytest.raises(DomainError):
        log_subharmonicity_check(g, 0.999 + 0j, 1e-3)
    with pytest.raises(DomainError):
        log_subharmonicity_check(g, 0j, 0.0)
