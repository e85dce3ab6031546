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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import NoSignChange, NotAdmissible
from .ops import FLOAT
from .params import ScherkParams, from_ab, interval_L, interval_R, pole

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


@dataclass(frozen=True)
class BarrierChainReport:
    """Residuals and flags of the barrier chain behind the sharp bound."""

    sigma: float                 # sqrt(2*(1+A*B))
    c_factor: float              # C = 2 + A*B - A^2
    x_star: float                # sigma / (2*B*C)
    u_star: float                # P - x_star
    u_star_ge_half: bool
    g_at_u_star: Optional[float]     # None when u_star >= R
    barrier_ok: bool             # G(u_star) >= -slack whenever u_star < R
    hr_at_root: float            # (A+B)*(1-U) + B*kappa*M + A*epsilon*N
    hl_at_root: float            # (A+B)*U     + B*kappa*M + A*epsilon*N
    hr_linear_ok: bool           # hr_at_root >= sigma/2 - slack
    hl_linear_ok: bool
    swap_residual: float         # G_{B,A}(1-U) + G_{A,B}(U)
    root: ScalarZero


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
    G(L) <= tol and G(R) >= -tol (NaN fails both; never silently clamped).
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
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


def barrier_chain_check(params: ScherkParams,
                        tol: float = 1e-12,
                        slack: float = 1e-12) -> BarrierChainReport:
    """Verify the barrier chain behind the right linear estimate.

    H_R = B*(2+A*B-A^2)*(P-U) is `bernstein.prove_identities`'s h_r.
    (i)   U* = P - sigma/(2*B*C) satisfies U* >= 1/2;
    (ii)  if U* < R then G(U*) >= 0 (the barrier point);
    (iii) both linear estimates >= sigma/2 at the solved root;
    (iv)  the swap identity G_{B,A}(1-U) = -G_{A,B}(U).
    """
    A, B = params.A, params.B
    k, e = params.kappa, params.epsilon
    R = interval_R(A, B, k, e)
    zero = solve_zero(params, tol)
    evaluate = g_s(params)

    bound = sigma(params)
    c_factor = 2.0 + A * B - A * A
    x_star = bound / (2.0 * B * c_factor)
    u_star = pole(params) - x_star

    g_at_u_star = None
    barrier_ok = True
    if u_star < R:
        g_at_u_star = evaluate(u_star)[0]
        barrier_ok = g_at_u_star >= -slack

    def _h(front: float) -> float:
        return front * (A + B) + B * k * zero.M + A * e * zero.N

    hr_at_root = _h(1.0 - zero.U)
    hl_at_root = _h(zero.U)

    swapped = from_ab(B, A)
    swap_residual = g_s(swapped)(1.0 - zero.U)[0] + evaluate(zero.U)[0]

    return BarrierChainReport(
        sigma=bound,
        c_factor=c_factor,
        x_star=x_star,
        u_star=u_star,
        u_star_ge_half=u_star >= 0.5 - slack,
        g_at_u_star=g_at_u_star,
        barrier_ok=barrier_ok,
        hr_at_root=hr_at_root,
        hl_at_root=hl_at_root,
        hr_linear_ok=hr_at_root >= 0.5 * bound - slack,
        hl_linear_ok=hl_at_root >= 0.5 * bound - slack,
        swap_residual=swap_residual,
        root=zero,
    )
