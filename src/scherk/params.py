"""Parameter algebra of the two-angle Scherk comparison family.

A pair of angles (p, q) with 0 < p < q <= pi, p <= pi/2, q - p <= pi/2
determines

    A = sin(p),            B = sin(q - p),
    kappa = sqrt(1 - A^2), epsilon = sqrt(1 - B^2),
    mu = sqrt(A*B),        P = (1 + A*B) / (B*(A + B)),

and the arc parameter alpha with tan^2(alpha/2) = A/B, so that
sin(alpha) = 2*mu/(A + B).  The scalar zero of the family lives in

    [L, R],   L = kappa/(1 + kappa) * P,
              R = (1 - epsilon*kappa^2/(A*(A + B))) / (1 + epsilon),

which is nonempty exactly when B >= B0(A), the positive root of
(1 + kappa)*B^2 + A*(1 - kappa)*B - 2*kappa.

The endpoint helpers take (A, B, kappa, epsilon) explicitly and use only
field arithmetic, so exact inputs (fractions.Fraction on Pythagorean
parameters) stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

#: Default slack for floating-point identity residuals (double precision
#: with ~1e2 of condition-amplification headroom).
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class ScherkParams:
    """Derived constants of one member of the comparison family.

    A, B in (0, 1]; kappa, epsilon are the complementary cosines; mu, P as
    in the module docstring.  The angle fields hold the restricted-angle
    data (p <= pi/2, q - p <= pi/2, so c_p = kappa >= 0 and d_q = epsilon
    >= 0); both constructors fill them.
    """

    A: float
    B: float
    kappa: float
    epsilon: float
    mu: float
    P: float
    p: float
    q: float
    c_p: float
    d_q: float
    alpha: float
    h: float


@dataclass(frozen=True)
class AdmissibleInterval:
    """Endpoints of the admissible interval and the threshold B0(A)."""

    L: float
    R: float
    nonempty: bool
    B0: float


@dataclass(frozen=True)
class DomainLemmaReport:
    """Residuals and boolean agreements for the admissible-domain lemma."""

    swap_residual: float       # 1 - R(A,B) - L(B,A)
    nonempty_by_interval: bool  # L <= R
    nonempty_by_half: bool      # L <= 1/2
    nonempty_by_threshold: bool  # B >= B0(A)
    booleans_agree: bool
    p_minus_r: float           # P - R(A,B), nonnegative
    p_minus_r_residual: float  # P - R minus its closed form


def _validate_ab(A, B) -> None:
    if not (0.0 < A <= 1.0 and 0.0 < B <= 1.0):
        raise DomainError(f"require 0 < A, B <= 1, got A={A}, B={B}")


def interval_L(A, B, kappa, epsilon):
    """Left endpoint; pure field arithmetic (Fraction-safe)."""
    return kappa * (1 + A * B) / ((1 + kappa) * B * (A + B))


def interval_R(A, B, kappa, epsilon):
    """Right endpoint; pure field arithmetic (Fraction-safe)."""
    return (1 - epsilon * kappa * kappa / (A * (A + B))) / (1 + epsilon)


def p_minus_r_closed_form(A, B, kappa, epsilon):
    """Closed form of P - R: epsilon*(A*epsilon + A + B) / (A*B*(A+B)*(1+epsilon))."""
    return epsilon * (A * epsilon + A + B) / (A * B * (A + B) * (1 + epsilon))


def threshold_b0(A: float, kappa: float | None = None) -> float:
    """Positive root of (1+kappa)*B^2 + A*(1-kappa)*B - 2*kappa in B."""
    if kappa is None:
        kappa = math.sqrt(max(0.0, 1.0 - A * A))
    disc = A * A * (1 - kappa) ** 2 + 8 * kappa * (1 + kappa)
    return (-A * (1 - kappa) + math.sqrt(disc)) / (2 * (1 + kappa))


def from_ab(A: float, B: float) -> ScherkParams:
    """Build parameters directly from the sine pair (A, B) in (0, 1]^2.

    Angle data is populated with the principal branch p = asin(A),
    q = p + asin(B), which always lands in the restricted convention.
    """
    _validate_ab(A, B)
    kappa = math.sqrt(max(0.0, 1.0 - A * A))
    epsilon = math.sqrt(max(0.0, 1.0 - B * B))
    mu = math.sqrt(A * B)
    P = (1 + A * B) / (B * (A + B))
    p = math.asin(A)
    q = p + math.asin(B)
    alpha = 2.0 * math.atan(math.sqrt(A / B))
    return ScherkParams(A=A, B=B, kappa=kappa, epsilon=epsilon, mu=mu, P=P,
                        p=p, q=q, c_p=kappa, d_q=epsilon,
                        alpha=alpha, h=alpha / 2.0)


def from_angles(p: float, q: float) -> ScherkParams:
    """Build parameters from angles with 0 < p < q <= pi.

    The restricted convention p <= pi/2 and q - p <= pi/2 is enforced, so
    the signed cosines c_p = cos(p) and d_q = cos(q-p) are nonnegative and
    coincide with kappa, epsilon.  Obtuse angles are rejected rather than
    sign-folded.
    """
    # One-ulp slack: q built as p + pi/2 can overshoot the gate on re-
    # subtraction; the cosine clamp below keeps the convention intact.
    eps = 1e-12
    if not (0.0 < p < q <= math.pi + eps):
        raise DomainError(f"require 0 < p < q <= pi, got p={p}, q={q}")
    if p > math.pi / 2 + eps or q - p > math.pi / 2 + eps:
        raise DomainError(
            f"restricted-angle convention needs p <= pi/2 and q-p <= pi/2, "
            f"got p={p}, q-p={q - p}")
    A = math.sin(p)
    B = math.sin(q - p)
    c_p = math.cos(p)
    d_q = math.cos(q - p)
    # cos of an angle in [0, pi/2] can round to a tiny negative; clamp.
    c_p = max(0.0, c_p)
    d_q = max(0.0, d_q)
    mu = math.sqrt(A * B)
    P = (1 + A * B) / (B * (A + B))
    alpha = 2.0 * math.atan(math.sqrt(A / B))
    return ScherkParams(A=A, B=B, kappa=c_p, epsilon=d_q, mu=mu, P=P,
                        p=p, q=q, c_p=c_p, d_q=d_q,
                        alpha=alpha, h=alpha / 2.0)


def admissible_interval(params: ScherkParams) -> AdmissibleInterval:
    """Endpoints [L, R], the threshold B0(A), and the nonemptiness flag.

    Non-admissible pairs are data, not errors: sweeps classify the whole
    square, so an empty interval returns nonempty=False.

    `L <= R` is the one admissibility predicate; B >= B0(A) and L <= 1/2
    are equivalent to it in exact arithmetic only.  Within a few ulps of
    B0(A) rounding decides it: at B = B0(0.2) exactly, L = 0.5000000000000001
    and R = 0.4999999999999956, so that pair is not admissible.
    """
    A, B = params.A, params.B
    L = interval_L(A, B, params.kappa, params.epsilon)
    R = interval_R(A, B, params.kappa, params.epsilon)
    return AdmissibleInterval(L=L, R=R, nonempty=L <= R,
                              B0=threshold_b0(A, params.kappa))


def domain_lemma_checks(params: ScherkParams) -> DomainLemmaReport:
    """Residuals for the three assertions of the admissible-domain lemma.

    (i)  1 - R(A,B) = L(B,A);
    (ii) [L <= R] <=> [L <= 1/2] <=> [B >= B0(A)];
    (iii) P - R = epsilon*(A*epsilon + A + B)/(A*B*(A+B)*(1+epsilon)) >= 0.
    """
    A, B, k, e = params.A, params.B, params.kappa, params.epsilon
    L = interval_L(A, B, k, e)
    R = interval_R(A, B, k, e)
    L_swap = interval_L(B, A, e, k)
    b0 = threshold_b0(A, k)
    by_interval = L <= R
    by_half = L <= 0.5
    by_threshold = B >= b0
    pmr = params.P - R
    return DomainLemmaReport(
        swap_residual=1.0 - R - L_swap,
        nonempty_by_interval=by_interval,
        nonempty_by_half=by_half,
        nonempty_by_threshold=by_threshold,
        booleans_agree=(by_interval == by_half == by_threshold),
        p_minus_r=pmr,
        p_minus_r_residual=pmr - p_minus_r_closed_form(A, B, k, e),
    )
