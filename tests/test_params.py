import math
from fractions import Fraction

import pytest

from scherk.errors import DomainError
from scherk.params import (admissible_interval, arc_alpha, domain_lemma_checks,
                           from_ab, from_angles, interval_L, interval_R, mu,
                           p_minus_r_closed_form, pole, threshold_b0)

PYTHAGOREAN = [(Fraction(3, 5), Fraction(4, 5)),
               (Fraction(5, 13), Fraction(12, 13)),
               (Fraction(8, 17), Fraction(15, 17))]


def test_from_angles_right_angle_corner():
    p = from_angles(math.pi / 2, math.pi)
    assert p.A == 1.0 and p.B == 1.0
    assert abs(p.kappa) < 1e-15 and abs(p.epsilon) < 1e-15
    assert mu(p) == 1.0 and pole(p) == 1.0
    assert arc_alpha(p) == math.pi / 2


def test_from_angles_symmetric():
    p = from_angles(math.pi / 4, math.pi / 2)
    assert p.A == p.B == math.sin(math.pi / 4)
    assert arc_alpha(p) == math.pi / 2


def test_from_angles_high_precision_values():
    # 50-digit sine oracle: sin(0.6435011) and sin(1.9643394 - 0.6435011).
    p = from_angles(0.6435011, 1.9643394)
    assert p.A == pytest.approx(0.59999999296537246736, abs=1e-14)
    assert p.B == pytest.approx(0.96892280519427621009, abs=1e-14)
    assert abs(p.A - 0.6) < 1e-6
    assert abs(p.B - 0.9689) < 1e-3


@pytest.mark.parametrize("p,q", [(0.0, 1.0), (1.0, 1.0), (1.5, 1.2),
                                 (0.5, 3.5), (2.0, 3.0), (0.3, 2.5)])
def test_from_angles_rejects_bad_ranges(p, q):
    with pytest.raises(DomainError):
        from_angles(p, q)


def test_from_angles_tolerates_ulp_overshoot():
    # q assembled as p + pi/2 can re-subtract to pi/2 plus one ulp; the
    # restricted-angle gate must not reject such grid-built inputs.
    p = 0.43982297150257105
    params = from_angles(p, p + math.pi / 2)
    assert params.B == pytest.approx(1.0, abs=1e-15)
    assert params.epsilon >= 0.0


def test_from_ab_rejects_out_of_range():
    for a, b in ((0.0, 0.5), (1.5, 0.5), (0.5, -0.1), (0.5, 1.01)):
        with pytest.raises(DomainError):
            from_ab(a, b)


def test_derived_invariants(rng):
    for _ in range(300):
        a, b = rng.uniform(0.01, 1.0, 2)
        p = from_ab(float(a), float(b))
        assert p.A ** 2 + p.kappa ** 2 == pytest.approx(1.0, abs=1e-14)
        assert p.B ** 2 + p.epsilon ** 2 == pytest.approx(1.0, abs=1e-14)
        assert mu(p) ** 2 == pytest.approx(p.A * p.B, abs=1e-14)
        assert math.tan(arc_alpha(p) / 2) ** 2 == pytest.approx(p.A / p.B,
                                                                rel=1e-12)
        assert math.sin(arc_alpha(p)) == pytest.approx(
            2 * mu(p) / (p.A + p.B), abs=1e-14)
        assert p.p == math.asin(p.A) and p.q == p.p + math.asin(p.B)


def test_interval_equality_corner():
    iv = admissible_interval(from_ab(1.0, 1.0))
    assert iv.L == 0.0 and iv.R == 1.0
    assert iv.B0 == 0.0 and iv.nonempty


def test_interval_frozen_values():
    # 50-digit evaluation of the closed forms.
    iv = admissible_interval(from_ab(0.5, 0.5))
    assert iv.L == pytest.approx(1.1602540378443864676, abs=1e-14)
    assert iv.B0 == pytest.approx(0.94565103784304998996, abs=1e-14)
    assert not iv.nonempty
    assert iv.L > 0.5

    iv = admissible_interval(from_ab(0.6, 0.95))
    assert iv.L == pytest.approx(0.47387285417845689493, abs=1e-14)
    assert iv.R == pytest.approx(0.59829941575161676447, abs=1e-14)
    assert iv.B0 == pytest.approx(0.9100647798723270478, abs=1e-14)
    assert iv.nonempty


def test_interval_contains_half_when_nonempty(rng):
    for _ in range(2000):
        a, b = rng.uniform(0.01, 1.0, 2)
        iv = admissible_interval(from_ab(float(a), float(b)))
        if iv.nonempty:
            assert iv.L <= 0.5 + 1e-15 <= iv.R + 2e-15


def test_domain_lemma_checks_corner_and_generic():
    rep = domain_lemma_checks(from_ab(1.0, 1.0))
    assert rep.swap_residual == 0.0
    assert rep.booleans_agree
    assert abs(rep.p_minus_r) < 1e-15

    rep = domain_lemma_checks(from_ab(0.6, 0.95))
    assert abs(rep.swap_residual) < 1e-12
    assert rep.booleans_agree
    assert rep.p_minus_r >= 0.0
    assert abs(rep.p_minus_r_residual) < 1e-12


def test_boolean_characterizations_agree(rng):
    for _ in range(10_000):
        a, b = rng.uniform(0.005, 1.0, 2)
        rep = domain_lemma_checks(from_ab(float(a), float(b)))
        assert rep.booleans_agree


def test_swap_residual_small_everywhere(rng):
    worst = 0.0
    for _ in range(10_000):
        a, b = rng.uniform(0.005, 1.0, 2)
        rep = domain_lemma_checks(from_ab(float(a), float(b)))
        worst = max(worst, abs(rep.swap_residual))
    assert worst < 1e-12


def test_threshold_is_quadratic_root(rng):
    for _ in range(10_000):
        a = float(rng.uniform(0.005, 1.0))
        k = math.sqrt(1.0 - a * a)
        b0 = threshold_b0(a, k)
        resid = (1 + k) * b0 * b0 + a * (1 - k) * b0 - 2 * k
        assert abs(resid) < 1e-12


def test_exact_rational_identities():
    for A, kappa in PYTHAGOREAN:
        for B, epsilon in PYTHAGOREAN:
            one = Fraction(1)
            swap = one - interval_R(A, B, kappa, epsilon) \
                - interval_L(B, A, epsilon, kappa)
            assert swap == 0
            P = (1 + A * B) / (B * (A + B))
            pmr = P - interval_R(A, B, kappa, epsilon)
            assert pmr == p_minus_r_closed_form(A, B, kappa, epsilon)
            assert pmr >= 0
