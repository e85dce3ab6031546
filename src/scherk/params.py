"""Parameter algebra of the two-angle Scherk comparison family.

A pair of angles (p, q) with 0 < p < q <= pi, p <= pi/2, q - p <= pi/2
determines

    A = sin(p),            B = sin(q - p),
    kappa = sqrt(1 - A^2), epsilon = sqrt(1 - B^2),

and `ScherkParams` keeps those six values: floats for one pair, numpy
arrays for a block.  The rest are closed forms over `scherk.ops`,

    mu = sqrt(A*B),        P = (1 + A*B) / (B*(A + B)),

and the arc parameter alpha with tan^2(alpha/2) = A/B, so that
sin(alpha) = 2*mu/(A + B).  The scalar zero of the family lives in

    [L, R],   L = kappa/(1 + kappa) * P,
              R = (1 - epsilon*kappa^2/(A*(A + B))) / (1 + epsilon),

which is nonempty exactly when B >= B0(A), the positive root of
(1 + kappa)*B^2 + A*(1 - kappa)*B - 2*kappa.

The endpoint helpers and `pole` use only field arithmetic, so that
`bernstein.prove_identities` runs them on exact rational functions.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError
from .ops import FLOAT


class ScherkParams(NamedTuple):
    """One member of the comparison family, or a block of them.

    A, B in (0, 1]; kappa, epsilon are the complementary cosines; p, q the
    angles in the restricted convention (p <= pi/2, q - p <= pi/2), so
    cos(p) = kappa and cos(q - p) = epsilon.  `take` selects block pairs.
    """

    A: float
    B: float
    kappa: float
    epsilon: float
    p: float
    q: float

    def take(self, idx) -> "ScherkParams":
        return ScherkParams(*(x[idx] for x in self))


class AdmissibleInterval(NamedTuple):
    """Endpoints of the admissible interval and the threshold B0(A)."""

    L: float
    R: float
    nonempty: bool
    B0: float


def interval_L(A, B, kappa, epsilon):
    """Left endpoint; pure field arithmetic (Fraction-safe)."""
    return kappa * (1 + A * B) / ((1 + kappa) * B * (A + B))


def interval_R(A, B, kappa, epsilon):
    """Right endpoint; pure field arithmetic (Fraction-safe)."""
    return (1 - epsilon * kappa * kappa / (A * (A + B))) / (1 + epsilon)


def threshold_b0(A: float, kappa: float | None = None) -> float:
    """Positive root of (1+kappa)*B^2 + A*(1-kappa)*B - 2*kappa in B.

    In the half-angle coordinates x = tan(p/2) = A/(1 + kappa) and
    y = tan((q - p)/2) the curve B = B0(A) is (x + y)^2 + x^2 y^2 = 1.
    Its root y = (1 - x^2)/(x + sqrt(1 + x^2 - x^4)), with 1 - x^2 written
    kappa (1 + x^2), has no cancellation, and B0 = 2y/(1 + y^2) is within
    a few ulps of the exact root.  The quadratic's own form
    -A(1 - kappa) + sqrt(disc) cancels near A = 1 (~800 ulps at 0.999).
    """
    if kappa is None:
        kappa = cos_from_sin(A)
    x = A / (1 + kappa)
    y = kappa * (1 + x * x) / (x + math.sqrt(1 + x * x - x ** 4))
    return 2 * y / (1 + y * y)


def arc_alpha(pair, ops=FLOAT):
    """Arc parameter alpha in (0, pi) with tan^2(alpha/2) = A/B."""
    return 2.0 * ops.atan(ops.sqrt(pair.A / pair.B))


def mu(pair, ops=FLOAT):
    """mu = sqrt(A*B), the modulus behind the Gauss-map parameter."""
    return ops.sqrt(pair.A * pair.B)


def pole(pair):
    """P = (1 + A*B) / (B*(A + B)), where M(U) = kappa*(P - U) vanishes."""
    return (1 + pair.A * pair.B) / (pair.B * (pair.A + pair.B))


def cos_from_sin(x, ops=FLOAT):
    """sqrt(1 - x^2) clamped at 0: the cosine of the angle in [0, pi/2]
    whose sine is x, as kappa of A and epsilon of B."""
    return ops.sqrt(ops.maximum(0.0, 1.0 - x * x))


def ab_params(A, B, ops=FLOAT) -> ScherkParams:
    """`from_ab` without its checks: p = asin(A), q = p + asin(B)."""
    p = ops.asin(A)
    return ScherkParams(A, B, cos_from_sin(A, ops), cos_from_sin(B, ops),
                        p, p + ops.asin(B))


def angle_params(p, q, ops=FLOAT) -> ScherkParams:
    """`from_angles` without its checks.  cos of an angle in [0, pi/2] can
    round to a tiny negative, so the cosines are clamped at 0."""
    return ScherkParams(ops.sin(p), ops.sin(q - p),
                        ops.maximum(0.0, ops.cos(p)),
                        ops.maximum(0.0, ops.cos(q - p)), p, q)


def _require_finite_interval(params: ScherkParams) -> ScherkParams:
    """`params`, or DomainError where B*(A+B) or A*(A+B) is 0 (P, R and G
    divide by them) or where L or R is not finite.  A subnormal product
    can overflow the quotient: L = inf at (0.5, 1e-320), R = -inf at
    (1e-300, 1e-10)."""
    A, B = params.A, params.B
    if B * (A + B) == 0.0 or A * (A + B) == 0.0:
        raise DomainError(f"require B*(A+B) > 0 and A*(A+B) > 0, "
                          f"got an underflow at A={A}, B={B}")
    L = interval_L(A, B, params.kappa, params.epsilon)
    R = interval_R(A, B, params.kappa, params.epsilon)
    if not (math.isfinite(L) and math.isfinite(R)):
        raise DomainError(f"require finite L and R, got L={L}, R={R} "
                          f"at A={A}, B={B}")
    return params


def from_ab(A: float, B: float) -> ScherkParams:
    """Build parameters directly from the sine pair (A, B) in (0, 1]^2.

    Angle data is populated with the principal branch p = asin(A),
    q = p + asin(B), which always lands in the restricted convention.
    """
    if not (0.0 < A <= 1.0 and 0.0 < B <= 1.0):
        raise DomainError(f"require 0 < A, B <= 1, got A={A}, B={B}")
    return _require_finite_interval(ab_params(A, B))


def from_angles(p: float, q: float) -> ScherkParams:
    """Build parameters from angles with 0 < p < q <= pi.

    The restricted convention p <= pi/2 and q - p <= pi/2 is enforced, so
    the signed cosines cos(p) and cos(q-p) are nonnegative and coincide
    with kappa, epsilon.  Obtuse angles are rejected rather than
    sign-folded.
    """
    # Slack of 1e-12, about 4500 ulps of pi/2: it admits angles that pass
    # pi/2 or pi by rounding alone, such as q = p + pi/2, whose q - p can
    # come back an ulp above pi/2.  Within 1e-12 past pi/2, sin rounds to
    # 1.0 and cos is a negative of size <= 1e-12 that angle_params clamps
    # to 0: (A, kappa) or (B, epsilon) is (1, 0), still a sine and cosine.
    eps = 1e-12
    if not (0.0 < p < q <= math.pi + eps):
        raise DomainError(f"require 0 < p < q <= pi, got p={p}, q={q}")
    if p > math.pi / 2 + eps or q - p > math.pi / 2 + eps:
        raise DomainError(
            f"restricted-angle convention needs p <= pi/2 and q-p <= pi/2, "
            f"got p={p}, q-p={q - p}")
    return _require_finite_interval(angle_params(p, q))


def admissible_interval(params: ScherkParams) -> AdmissibleInterval:
    """Endpoints [L, R], the threshold B0(A), and the nonemptiness flag.

    Non-admissible pairs are data, not errors: sweeps classify the whole
    square, so an empty interval returns nonempty=False.

    `L <= R` is the one admissibility predicate; B >= B0(A) and L <= 1/2
    are equivalent to it in exact arithmetic only.  Within a few ulps of
    B0(A) rounding decides it: at B = 0.9938643518264029, one ulp below the
    double nearest B0(0.2), L = 0.5000000000000001 and R =
    0.4999999999999956, so that pair is not admissible.
    """
    A, B, kappa, epsilon = params[:4]
    L = interval_L(A, B, kappa, epsilon)
    R = interval_R(A, B, kappa, epsilon)
    return AdmissibleInterval(L, R, L <= R, threshold_b0(A, kappa))
