"""The scalar reduction: the monotone function G, its zero, and the sharp
derivative bound.

For parameters (A, B) with derived constants kappa, epsilon, P put

    M(U) = kappa*(P - U),
    N(U) = epsilon*(U + kappa^2/(A*(A+B))),
    G(U) = B*cos(pi*M(U)) - A*cos(pi*N(U)) - (A+B)*cos(pi*U).

On the admissible interval [L, R] the function G is strictly increasing
with scaled derivative

    S(U) = (1/pi) G'(U)
         = (A+B)*sin(pi*U) + B*kappa*sin(pi*M(U)) + A*epsilon*sin(pi*N(U)),

and the sharp bound states S(U) >= sqrt(2*(1+A*B)) at the admissible zero.
The zero exists and is unique by monotonicity plus the sign change
G(L) <= 0 <= G(R).  It is found by Newton's method on G with derivative
pi*S, kept inside the sign bracket by a bisection fallback; from the
midpoint of [L, R] it takes about five evaluations of G.

The barrier chain behind the sharp bound, u* = P - sigma/(2B(2+AB-A^2))
at least 1/2 and G(u*) >= 0 when u* < R, is checked by the tests on `g_s`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import NoSignChange, NotAdmissible
from .ops import FLOAT
from .params import ScherkParams, interval_L, interval_R, pole

_DEGENERATE_WIDTH = 1e-15   # a narrower interval is solved at its midpoint
_STEP_ULPS = 4      # a Newton step this many ulps or less ends the iteration
_MAX_STEPS = 100    # evaluations of G; Newton needs ~5, bisection ~60


class ScalarZero(NamedTuple):
    """The admissible zero U together with its derived quantities.

    V = M(U) and T = -N(U) are the (V, T) targets of the zero point, as
    both constructors keep the restricted-angle convention.
    """

    U: float
    M: float
    N: float
    V: float
    T: float
    S: float
    residual: float
    steps: int       # evaluations of G after the two at L and R


def g_s(pair, ops=FLOAT):
    """U -> (G, S, M, N) of a pair, or of a block on ARRAY.

    One closure forms M and N once for all four values, so G has one
    formula and S is only ever evaluated with it.  The coefficients A + B,
    B*kappa and A*epsilon are hoisted, as `B * kappa * sin(x)` evaluates as
    `(B*kappa) * sin(x)` anyway.
    """
    A, B, kappa, epsilon = pair.A, pair.B, pair.kappa, pair.epsilon
    P = pole(pair)
    shift = kappa * kappa / (A * (A + B))
    ab, bk, ae = A + B, B * kappa, A * epsilon
    pi, cos, sin = math.pi, ops.cos, ops.sin

    def evaluate(U):
        M, N = kappa * (P - U), epsilon * (U + shift)
        pm, pn, pu = pi * M, pi * N, pi * U
        return (B * cos(pm) - A * cos(pn) - ab * cos(pu),
                ab * sin(pu) + bk * sin(pm) + ae * sin(pn), M, N)
    return evaluate


def sigma(pair, ops=FLOAT):
    """The sharp bound sqrt(2(1+AB)) on S at the zero."""
    return ops.sqrt(2.0 * (1.0 + pair.A * pair.B))


def solve_zero(params: ScherkParams, tol: float = 1e-12) -> ScalarZero:
    """Find the admissible zero of G on [L, R].

    Safeguarded Newton (rtsafe): from the midpoint of [L, R], each
    evaluation of G shrinks the bracket by its sign, and the next iterate
    is the Newton step u - G/(pi*S) when it falls strictly inside the
    bracket, else the bracket midpoint.  Once the Newton step is at most
    _STEP_ULPS ulps, one last step is taken and kept only if it lowers
    |G|.  G = 0, a bracket that cannot be split, or _MAX_STEPS evaluations
    also end it.  The stopping rule does not depend on `tol`, which only
    gates the sign change.  `steps` counts the evaluations of G after the
    two at the ends.  A*B = 1 is an exact analytic branch (U = 1/2, S = 2),
    where floating-point root isolation would be pointless.  Only L and R
    of the admissible interval are computed here, and `L <= R` decides
    admissibility as in `admissible_interval`.  Every evaluation, at the
    ends and at each Newton step, gives G, S, M and N together, so the
    record's S, M, N and residual all belong to the U it returns.

    Raises NotAdmissible for an empty interval and NoSignChange unless
    G(L) <= tol and G(R) >= -tol (NaN fails both; never silently clamped),
    and ValueError unless 0 < tol < inf.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if params.A == 1.0 and params.B == 1.0:
        return ScalarZero(0.5, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0)

    a, b = interval_L(*params[:4]), interval_R(*params[:4])
    if not a <= b:
        raise NotAdmissible(
            f"empty admissible interval for A={params.A}, B={params.B}: "
            f"L={a} > R={b}")
    evaluate = g_s(params)

    def zero(U: float, at_U, steps: int) -> ScalarZero:
        G, S, M, N = at_U
        return ScalarZero(U, M, N, M, -N, S, abs(G), steps)

    if b - a < _DEGENERATE_WIDTH:
        mid = 0.5 * (a + b)
        at_mid = evaluate(mid)
        if abs(at_mid[0]) <= tol:
            return zero(mid, at_mid, 1)
        raise NoSignChange(
            f"degenerate interval at A={params.A}, B={params.B} with "
            f"|G| = {abs(at_mid[0])} > tol")
    at_a, at_b = evaluate(a), evaluate(b)
    ga, gb = at_a[0], at_b[0]
    if not ga <= tol:   # NaN included
        raise NoSignChange(
            f"G(L) = {ga} is not <= tol at A={params.A}, B={params.B}")
    if not gb >= -tol:
        raise NoSignChange(
            f"G(R) = {gb} is not >= -tol at A={params.A}, B={params.B}")
    if ga > 0.0:
        return zero(a, at_a, 0)
    if gb < 0.0:
        return zero(b, at_b, 0)

    lo, hi = a, b
    u = 0.5 * (a + b)
    for steps in range(1, _MAX_STEPS + 1):
        at_u = evaluate(u)
        gu, su, _, _ = at_u
        if gu == 0.0:
            break
        if gu < 0.0:
            lo = u
        else:
            hi = u
        du = gu / (math.pi * su) if su > 0.0 else math.inf
        if abs(du) <= _STEP_ULPS * math.ulp(u):
            u_last = u - du
            at_last = evaluate(u_last)
            steps += 1
            if abs(at_last[0]) < abs(gu):
                u, at_u = u_last, at_last
            break
        u_next = u - du
        if not lo < u_next < hi:
            u_next = 0.5 * (lo + hi)
            if not lo < u_next < hi:
                break
        u = u_next
    else:   # the last step moved u past its evaluation
        at_u = evaluate(u)
    return zero(u, at_u, steps)


def solve_zero_block(pairs: ScherkParams, L, R, tol: float):
    """(U, (S, M, N), found, steps) of `solve_zero` on a block of
    admissible pairs, by the first branch that applies; `found` is False
    where it raises.  The Newton iteration makes the same decisions per
    pair under masks.  S, M and N come from one evaluation at U."""
    import numpy as np
    from .ops import ARRAY

    evaluate = g_s(pairs, ARRAY)
    corner = (pairs.A == 1.0) & (pairs.B == 1.0)
    ga, gb = evaluate(L)[0], evaluate(R)[0]
    centre = 0.5 * (L + R)
    degenerate = R - L < _DEGENERATE_WIDTH
    refused = ~corner & ~np.where(degenerate,
                                  np.abs(evaluate(centre)[0]) <= tol,
                                  (ga <= tol) & (gb >= -tol))
    newton = ~(corner | degenerate | refused | (ga > 0.0) | (gb < 0.0))
    lo, hi, u = L, R, centre
    gu, du = np.zeros_like(u), np.zeros_like(u)
    steps = np.where(degenerate & ~corner, 1, 0)
    active, last_step = newton.copy(), np.zeros_like(newton)
    for _ in range(_MAX_STEPS):
        if not active.any():
            break
        gx, sx, _, _ = evaluate(u)
        steps += active
        gu = np.where(active, gx, gu)
        below = gx < 0.0
        lo = np.where(active & below, u, lo)
        hi = np.where(active & ~below, u, hi)
        dx = np.where(sx > 0.0, gx / (math.pi * sx), np.inf)
        du = np.where(active, dx, du)
        hit = gx == 0.0
        tiny = active & ~hit & (np.abs(dx) <= _STEP_ULPS * np.spacing(u))
        last_step |= tiny
        active &= ~hit & ~tiny
        u_next = u - dx
        mid = 0.5 * (lo + hi)
        u_next = np.where((lo < u_next) & (u_next < hi), u_next, mid)
        active &= (lo < u_next) & (u_next < hi)
        u = np.where(active, u_next, u)
    u_last = u - du
    steps += last_step
    u = np.where(last_step & (np.abs(evaluate(u_last)[0]) < np.abs(gu)),
                 u_last, u)
    U = np.select([corner, degenerate, ga > 0.0, gb < 0.0],
                  [0.5, centre, L, R], u)
    _, S, M, N = evaluate(U)
    return U, (np.where(corner, 2.0, S), M, N), ~refused, steps

