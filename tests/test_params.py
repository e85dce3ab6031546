import math

import mpmath
import pytest

from scherk.bernstein import prove_identities
from scherk.errors import DomainError
from scherk.params import (admissible_interval, arc_alpha, from_ab,
                           from_angles, interval_L, interval_R, mu, pole,
                           threshold_b0)


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


def _domain_lemma_floats(params):
    """The float residual of 1 - R(A,B) = L(B,A), P - R, and whether
    L <= R, L <= 1/2 and B >= B0(A) agree, all from `admissible_interval`."""
    iv = admissible_interval(params)
    A, B, kappa, epsilon = params[:4]
    swap = 1.0 - iv.R - interval_L(B, A, epsilon, kappa)
    agree = iv.nonempty == (iv.L <= 0.5) == (B >= iv.B0)
    return swap, pole(params) - iv.R, agree


def test_domain_lemma_checks_corner_and_generic():
    swap, p_minus_r, agree = _domain_lemma_floats(from_ab(1.0, 1.0))
    assert swap == 0.0 and agree
    assert abs(p_minus_r) < 1e-15

    swap, p_minus_r, agree = _domain_lemma_floats(from_ab(0.6, 0.95))
    assert abs(swap) < 1e-12 and agree
    A, B, _, epsilon = from_ab(0.6, 0.95)[:4]
    closed = epsilon * (A * epsilon + A + B) / (A * B * (A + B) * (1 + epsilon))
    assert p_minus_r >= 0.0 and abs(p_minus_r - closed) < 1e-12


def test_boolean_characterizations_agree(rng):
    # Exact arithmetic makes the three predicates one (the threshold
    # identity); in floats they still agree on random pairs.
    for _ in range(10_000):
        a, b = rng.uniform(0.005, 1.0, 2)
        assert _domain_lemma_floats(from_ab(float(a), float(b)))[2]


def test_swap_residual_small_everywhere(rng):
    worst = 0.0
    for _ in range(10_000):
        a, b = rng.uniform(0.005, 1.0, 2)
        A, B, kappa, epsilon = from_ab(float(a), float(b))[:4]
        swap = 1.0 - interval_R(A, B, kappa, epsilon) \
            - interval_L(B, A, epsilon, kappa)
        worst = max(worst, abs(swap))
    assert worst < 1e-12


def test_threshold_is_quadratic_root(rng):
    for _ in range(10_000):
        a = float(rng.uniform(0.005, 1.0))
        k = math.sqrt(1.0 - a * a)
        b0 = threshold_b0(a, k)
        resid = (1 + k) * b0 * b0 + a * (1 - k) * b0 - 2 * k
        assert abs(resid) < 1e-12


def test_exact_rational_identities():
    # The domain lemma, proved over all pairs on rational functions of the
    # half-angle coordinates, from the package's own interval_L/R and pole.
    proved = prove_identities()
    assert proved["swap"] and proved["p_minus_r"] and proved["threshold"]


@pytest.mark.parametrize("A", [0.05, 0.2, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999,
                               0.999999, 0.999999998381498, 1.0 - 2.0 ** -40,
                               1.0 - 2.0 ** -53])
def test_threshold_curve_in_half_angle_coordinates(A):
    # threshold_b0 takes the root of the curve (x + y)^2 + x^2 y^2 = 1 in
    # the half-angle coordinates, which does not cancel near A = 1.
    # Against the 40-digit root of the quadratic it is within a few ulps of
    # B0 itself, also where B0 -> 0; 0.999999998381498 was the worst of
    # 150,000 sampled A in [0.9, 1).
    kappa = math.sqrt(1.0 - A * A)
    with mpmath.workdps(40):
        a, k = mpmath.mpf(A), mpmath.mpf(kappa)
        b = a * (1 - k)
        root = (-b + mpmath.sqrt(b * b + 8 * k * (1 + k))) / (2 * (1 + k))
        b0 = threshold_b0(A, kappa)
        assert abs(b0 - root) <= 5 * math.ulp(b0)
