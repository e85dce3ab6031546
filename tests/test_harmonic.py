import math

import pytest

from conftest import random_admissible
from oracles import poisson_arc_measure
from scherk import harmonic
from scherk.cli import ROUTE_GAP_BOUND
from scherk.errors import DegenerateError, DomainError, NonConvergence
from scherk.harmonic import (DiskPoint, _arc, cross_ratio_residual,
                             master_inequality_check, measures4,
                             modulus_consistency_residual, phase_param,
                             sinU_identity_residual, solve_zero_point)
from scherk.params import (admissible_interval, arc_alpha, from_ab, mu,
                           threshold_b0)
from scherk.scalar import ScalarZero, g_s, solve_zero
from scherk.weierstrass import wk_scalar


def test_disk_point_rejects_boundary():
    with pytest.raises(DomainError):
        DiskPoint(r=1.0, t=0.0)
    with pytest.raises(DomainError):
        DiskPoint(r=-0.1, t=0.0)


def test_pair_records_reject_attribute_assignment():
    params = from_ab(0.7, 0.9)
    zero = solve_zero(params)
    sol = solve_zero_point(params, zero)
    records = [admissible_interval(params), zero, sol, sol.measures,
               wk_scalar(params, zero.S)]
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], 0.5)


def test_arc_measure_at_origin_is_normalized_arclength():
    for s in (0.1, math.pi / 4, 1.0, 3.0):
        val = _arc(0.0, 0.0, 0.7, math.cos(s), math.sin(s))
        assert val == pytest.approx(s / math.pi, abs=1e-15)


def test_arc_measure_frozen_value():
    # Adaptive Poisson quadrature (and the 50-digit closed form) both give
    # 0.56861166736783072 for this configuration.
    half = math.pi / 4
    val = _arc(0.5, 0.0, 0.0, math.cos(half), math.sin(half))
    assert val == pytest.approx(0.56861166736783072098, abs=1e-13)
    assert val == pytest.approx(poisson_arc_measure(0.5, 0.0, 0.0, half),
                                abs=1e-11)


def test_arc_measure_matches_quadrature_oracle(rng):
    for _ in range(60):
        r = float(rng.uniform(0.0, 0.95))
        t = float(rng.uniform(0.0, 2 * math.pi))
        phi = float(rng.uniform(0.0, 2 * math.pi))
        s = float(rng.uniform(0.05, math.pi - 0.05))
        val = _arc(r, t, phi, math.cos(s), math.sin(s))
        assert val == pytest.approx(poisson_arc_measure(r, t, phi, s),
                                    abs=1e-9)


def test_measures4_origin():
    origin = DiskPoint(r=0.0, t=0.0)
    m = measures4(origin, math.pi / 2)
    for om in (m.Omega1, m.Omega2, m.Omega3, m.Omega4):
        assert om == pytest.approx(0.25, abs=1e-15)
    for alpha in (0.4, 1.0, 2.5):
        m = measures4(origin, alpha)
        assert m.Omega1 == pytest.approx(alpha / (2 * math.pi), abs=1e-15)
        assert m.Omega3 == pytest.approx(alpha / (2 * math.pi), abs=1e-15)
        assert m.Omega2 == pytest.approx((math.pi - alpha) / (2 * math.pi),
                                         abs=1e-15)


def test_measures4_sum_and_oracle(rng):
    z = DiskPoint(r=0.3, t=1.0)
    alpha = math.pi / 3
    m = measures4(z, alpha)
    assert m.Omega1 + m.Omega2 + m.Omega3 + m.Omega4 == pytest.approx(
        1.0, abs=1e-12)
    centers = [alpha / 2, alpha / 2 + math.pi / 2, alpha / 2 + math.pi,
               alpha / 2 + 1.5 * math.pi]
    halves = [alpha / 2, (math.pi - alpha) / 2, alpha / 2,
              (math.pi - alpha) / 2]
    for om, c, s in zip((m.Omega1, m.Omega2, m.Omega3, m.Omega4),
                        centers, halves):
        assert om == pytest.approx(poisson_arc_measure(0.3, 1.0, c, s),
                                   abs=1e-9)

    for _ in range(50):
        z = DiskPoint(r=float(rng.uniform(0, 0.97)),
                      t=float(rng.uniform(0, 2 * math.pi)))
        alpha = float(rng.uniform(0.1, math.pi - 0.1))
        m = measures4(z, alpha)
        assert m.Omega1 + m.Omega2 + m.Omega3 + m.Omega4 == pytest.approx(
            1.0, abs=1e-12)
        assert abs(m.V) <= m.U and abs(m.T) <= 1.0 - m.U + 1e-15


def test_measures4_rejects_bad_alpha():
    z = DiskPoint(r=0.2, t=0.0)
    for alpha in (0.0, math.pi, -1.0):
        with pytest.raises(DomainError):
            measures4(z, alpha)


def test_cross_ratio_trivial_cases():
    origin = DiskPoint(r=0.0, t=0.0)
    assert cross_ratio_residual(origin, math.pi / 2) == pytest.approx(
        0.0, abs=1e-14)
    # sin^2(pi/6)/sin^2(pi/3) = 1/3 = tan^2(pi/6)
    assert cross_ratio_residual(origin, math.pi / 3) == pytest.approx(
        0.0, abs=1e-14)


def test_cross_ratio_identity_random(rng):
    assert abs(cross_ratio_residual(DiskPoint(r=0.7, t=2.5), 1.1)) < 1e-10
    for _ in range(2000):
        z = DiskPoint(r=float(rng.uniform(0, 0.99)),
                      t=float(rng.uniform(0, 2 * math.pi)))
        alpha = float(rng.uniform(0.05, math.pi - 0.05))
        assert abs(cross_ratio_residual(z, alpha)) < 1e-10


def test_sinU_identity(rng):
    origin = DiskPoint(r=0.0, t=0.0)
    for alpha in (0.3, 1.0, 2.0):
        assert abs(sinU_identity_residual(origin, alpha)) < 1e-14
    assert abs(sinU_identity_residual(DiskPoint(0.5, 0.3),
                                      math.pi / 2)) < 1e-10
    assert abs(sinU_identity_residual(DiskPoint(0.9, 4.0), 0.4)) < 1e-9
    for _ in range(500):
        z = DiskPoint(r=float(rng.uniform(0, 0.95)),
                      t=float(rng.uniform(0, 2 * math.pi)))
        alpha = float(rng.uniform(0.1, math.pi - 0.1))
        assert abs(sinU_identity_residual(z, alpha)) < 1e-10


def test_phase_param_symmetric_is_purely_imaginary():
    params = from_ab(0.8, 0.8)
    ph = phase_param(params)
    assert abs(ph.a.real) < 1e-15
    assert ph.a.imag < 0
    assert ph.delta == pytest.approx(-math.pi / 2, abs=1e-14)
    # closed form -i*kappa/(1+A)
    assert ph.a.imag == pytest.approx(-params.kappa / (1 + params.A),
                                      abs=1e-15)


def test_phase_param_modulus_and_residuals(rng):
    params = from_ab(0.6, 0.95)
    ph = phase_param(params)
    assert abs(ph.mod_residual) < 1e-12
    assert abs(ph.cos_residual) < 1e-12
    assert abs(ph.sin_residual) < 1e-12
    for _ in range(1000):
        a, b = rng.uniform(0.05, 0.999, 2)
        ph = phase_param(from_ab(float(a), float(b)))
        assert abs(ph.mod_residual) < 1e-12
        pyth = math.cos(ph.delta) ** 2 + math.sin(ph.delta) ** 2 - 1.0
        assert abs(pyth) < 1e-12
        assert abs(ph.cos_residual) < 1e-11
        assert abs(ph.sin_residual) < 1e-11


def test_phase_param_degenerate():
    with pytest.raises(DegenerateError):
        phase_param(from_ab(1.0, 1.0))


def test_zero_point_equality_corner():
    params = from_ab(1.0, 1.0)
    sol = solve_zero_point(params, solve_zero(params))
    assert sol.z.r == 0.0
    assert sol.D0 == 1.0 and sol.master_lhs == 1.0
    assert sol.WK == pytest.approx(math.pi ** 2 / 2, abs=1e-15)
    m = sol.measures
    for om in (m.Omega1, m.Omega2, m.Omega3, m.Omega4):
        assert om == pytest.approx(0.25, abs=1e-15)


def test_zero_point_rejects_nonpositive_d0(monkeypatch):
    # D0 >= (1 - r)^2 > 0 inside the disk, so only a broken D0 reaches the
    # guard; it raises rather than divide by it.
    params = from_ab(0.9, 0.9)
    zero = solve_zero(params)
    monkeypatch.setattr(harmonic, "_d0", lambda *args: 0.0)
    with pytest.raises(DomainError):
        solve_zero_point(params, zero)


def test_route_gap_tests_the_zero():
    # S_geo = S holds only at the zero point of the true U: a U off by
    # 1e-6, with M, N and S of that U, moves the geometric route away
    # from the scalar one by far more than the route-gap bound.
    params = from_ab(0.7, 0.9)
    U = solve_zero(params).U + 1e-6
    G, S, M, N = g_s(params)(U)
    shifted = ScalarZero(U, M, N, M, -N, S, abs(G), 0)
    sol = solve_zero_point(params, shifted, tol=1.0)
    gap = abs(sol.WK - wk_scalar(params, S).value)
    assert gap > ROUTE_GAP_BOUND


def test_zero_point_symmetric():
    params = from_ab(0.95, 0.95)
    zero = solve_zero(params)
    sol = solve_zero_point(params, zero)
    # Symmetry fixes t0 = pi/2; r is the 50-digit root of the cot formula.
    assert sol.z.t == pytest.approx(math.pi / 2, abs=1e-10)
    assert sol.z.r == pytest.approx(0.27862652205828468434, abs=1e-10)
    m = sol.measures
    assert m.U == pytest.approx(0.5, abs=1e-10)
    assert abs(m.V) == pytest.approx(abs(m.T), abs=1e-10)
    assert m.Omega1 - m.Omega3 == pytest.approx(zero.V, abs=1e-9)
    lhs, rhs, holds = master_inequality_check(sol, params)
    assert holds
    assert lhs == pytest.approx(zero.S / 1.9, abs=1e-9)       # ~1.1615
    assert rhs == pytest.approx(math.sqrt(2 * 1.9025) / 1.9, abs=1e-12)


def test_zero_point_generic_pair():
    params = from_ab(0.6, 0.95)
    zero = solve_zero(params)
    sol = solve_zero_point(params, zero)
    assert sol.residual < 1e-11
    assert modulus_consistency_residual(params, sol.measures) < 1e-9
    assert sol.D0 > 0.0
    m = mu(params)
    assert abs(sol.a_mod - math.sqrt((1 - m) / (1 + m))) < 1e-12
    lhs, rhs, holds = master_inequality_check(sol, params)
    assert holds
    assert lhs * (params.A + params.B) == pytest.approx(zero.S, abs=1e-8)


def test_zero_point_random_pipeline(rng):
    for params in random_admissible(rng, 40, margin=5e-3):
        zero = solve_zero(params)
        sol = solve_zero_point(params, zero)
        assert sol.residual < 1e-11
        assert modulus_consistency_residual(params, sol.measures) < 1e-9
        assert abs(sol.master_lhs * (params.A + params.B) - zero.S) < 1e-8
        lhs, rhs, holds = master_inequality_check(sol, params)
        assert holds


@pytest.mark.parametrize("A, B", [(0.52, 0.94), (0.94, 0.52)])
def test_zero_point_close_to_threshold_is_solved(A, B):
    # Grid-50 sweep pairs just above B0(A), where z0 sits at r ~ 0.9969.
    params = from_ab(A, B)
    zero = solve_zero(params)
    sol = solve_zero_point(params, zero)
    assert sol.z.r > 0.996
    assert sol.residual <= 1e-12
    assert abs(sol.WK - wk_scalar(params, zero.S).value) < 1e-10
    assert master_inequality_check(sol, params)[2]
    h = 0.5 * arc_alpha(params)
    arcs = [(h, h), (h + math.pi / 2, math.pi / 2 - h),
            (h + math.pi, h), (h + 1.5 * math.pi, math.pi / 2 - h)]
    m = sol.measures
    for om, (phi, s) in zip((m.Omega1, m.Omega2, m.Omega3, m.Omega4), arcs):
        assert om == pytest.approx(
            poisson_arc_measure(sol.z.r, sol.z.t, phi, s), abs=1e-9)


def test_zero_point_near_threshold_reports_nonconvergence():
    # Just above B0 the zero point runs to the boundary (r -> 1); the solver
    # must refuse rather than return low-accuracy output.
    a = 0.5
    params = from_ab(a, threshold_b0(a) + 1e-6)
    zero = solve_zero(params)
    with pytest.raises(NonConvergence):
        solve_zero_point(params, zero)
