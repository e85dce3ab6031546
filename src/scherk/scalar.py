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
from typing import Optional

from .errors import NoSignChange, NotAdmissible
from .ops import FLOAT
from .params import (AdmissibleInterval, ScherkParams, admissible_interval,
                     from_ab, pole)

_DEGENERATE_WIDTH = 1e-15   # a narrower interval is solved at its midpoint
_STEP_ULPS = 4      # a Newton step this many ulps or less ends the iteration
_MAX_STEPS = 100    # evaluations of G; Newton needs ~5, bisection ~60


@dataclass(frozen=True)
class ScalarZero:
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
    hr_identity_max_residual: float  # max |H_R - B*C*(P-U)| on a sample grid
    g_at_u_star: Optional[float]     # None when u_star >= R
    barrier_ok: bool             # G(u_star) >= -slack whenever u_star < R
    hr_at_root: float            # (A+B)*(1-U) + B*kappa*M + A*epsilon*N
    hl_at_root: float            # (A+B)*U     + B*kappa*M + A*epsilon*N
    hr_linear_ok: bool           # hr_at_root >= sigma/2 - slack
    hl_linear_ok: bool
    swap_residual: float         # G_{B,A}(1-U) + G_{A,B}(U)
    root: ScalarZero


def g_s(pair, ops=FLOAT):
    """G, S and U -> (M, N) of a pair, or of a block on ARRAY."""
    A, B, kappa, epsilon = pair.A, pair.B, pair.kappa, pair.epsilon
    P = pole(pair)
    shift = kappa * kappa / (A * (A + B))
    pi, cos, sin = math.pi, ops.cos, ops.sin

    def mn(U):
        return kappa * (P - U), epsilon * (U + shift)

    def g(U):
        M, N = mn(U)
        return B * cos(pi * M) - A * cos(pi * N) - (A + B) * cos(pi * U)

    def s(U):
        M, N = mn(U)
        return ((A + B) * sin(pi * U) + B * kappa * sin(pi * M)
                + A * epsilon * sin(pi * N))
    return g, s, mn


def sigma(pair, ops=FLOAT):
    """The sharp bound sqrt(2(1+AB)) on S at the zero."""
    return ops.sqrt(2.0 * (1.0 + pair.A * pair.B))


def solve_zero(params: ScherkParams, tol: float = 1e-12,
               interval: Optional[AdmissibleInterval] = None) -> ScalarZero:
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
    where floating-point root isolation would be pointless.  `interval` is
    `admissible_interval(params)`, built here when not given.

    Raises NotAdmissible for an empty interval and NoSignChange unless
    G(L) <= tol and G(R) >= -tol (NaN fails both; never silently clamped).
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if params.A == 1.0 and params.B == 1.0:
        return ScalarZero(U=0.5, M=0.0, N=0.0, V=0.0, T=0.0, S=2.0,
                          residual=0.0, steps=0)

    interval = interval or admissible_interval(params)
    if not interval.nonempty:
        raise NotAdmissible(
            f"empty admissible interval for A={params.A}, B={params.B}: "
            f"L={interval.L} > R={interval.R}")
    a, b = interval.L, interval.R
    g, s, mn = g_s(params)
    ga, gb = g(a), g(b)

    def zero(U: float, residual: float, steps: int) -> ScalarZero:
        M, N = mn(U)
        return ScalarZero(U, M, N, M, -N, s(U), residual, steps)

    if a == b or b - a < _DEGENERATE_WIDTH:
        mid = 0.5 * (a + b)
        gm = g(mid)
        if abs(gm) <= tol:
            return zero(mid, abs(gm), 1)
        raise NoSignChange(
            f"degenerate interval at A={params.A}, B={params.B} with "
            f"|G| = {abs(gm)} > tol")
    if not ga <= tol:   # NaN included
        raise NoSignChange(
            f"G(L) = {ga} is not <= tol at A={params.A}, B={params.B}")
    if not gb >= -tol:
        raise NoSignChange(
            f"G(R) = {gb} is not >= -tol at A={params.A}, B={params.B}")
    if ga > 0.0:
        return zero(a, abs(ga), 0)
    if gb < 0.0:
        return zero(b, abs(gb), 0)

    lo, hi = a, b
    u = 0.5 * (a + b)
    for steps in range(1, _MAX_STEPS + 1):
        gu = g(u)
        if gu == 0.0:
            break
        if gu < 0.0:
            lo = u
        else:
            hi = u
        su = s(u)
        du = gu / (math.pi * su) if su > 0.0 else math.inf
        if abs(du) <= _STEP_ULPS * math.ulp(u):
            u_last = u - du
            g_last = g(u_last)
            steps += 1
            if abs(g_last) < abs(gu):
                u, gu = u_last, g_last
            break
        u_next = u - du
        if not lo < u_next < hi:
            u_next = 0.5 * (lo + hi)
            if not lo < u_next < hi:
                break
        u = u_next
    return zero(u, abs(gu), steps)


def solve_zero_block(pairs: ScherkParams, L, R, tol: float):
    """(U, S, found, steps) of `solve_zero` on a block of admissible pairs,
    by the first branch that applies; `found` is False where it raises.
    The Newton iteration makes the same decisions per pair under masks."""
    import numpy as np
    from .ops import ARRAY

    g, s, _ = g_s(pairs, ARRAY)
    corner = (pairs.A == 1.0) & (pairs.B == 1.0)
    ga, gb = g(L), g(R)
    centre = 0.5 * (L + R)
    degenerate = (L == R) | (R - L < _DEGENERATE_WIDTH)
    refused = ~corner & ~np.where(degenerate, np.abs(g(centre)) <= tol,
                                  (ga <= tol) & (gb >= -tol))
    newton = ~(corner | degenerate | refused | (ga > 0.0) | (gb < 0.0))
    lo, hi, u = L, R, centre
    gu, du = np.zeros_like(u), np.zeros_like(u)
    steps = np.where(degenerate & ~corner, 1, 0)
    active, last_step = newton.copy(), np.zeros_like(newton)
    for _ in range(_MAX_STEPS):
        if not active.any():
            break
        gx, sx = g(u), s(u)
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
    u = np.where(last_step & (np.abs(g(u_last)) < np.abs(gu)), u_last, u)
    U = np.select([corner, degenerate, ga > 0.0, gb < 0.0],
                  [0.5, centre, L, R], u)
    return U, np.where(corner, 2.0, s(U)), ~refused, steps


def hr_identity_residual(A, B, kappa, epsilon, U):
    """H_R - B*(2+A*B-A^2)*(P-U); identically zero.

    Only kappa^2, epsilon^2 enter, so the expression is rational in
    (A, B, U) and exact on Fraction inputs with Pythagorean parameters.
    """
    P = (1 + A * B) / (B * (A + B))
    k2 = kappa * kappa
    e2 = epsilon * epsilon
    hr = (A + B) * (1 - U) + B * k2 * (P - U) + A * e2 * (U + k2 / (A * (A + B)))
    return hr - B * (2 + A * B - A * A) * (P - U)


def barrier_chain_check(params: ScherkParams,
                        tol: float = 1e-12,
                        slack: float = 1e-12,
                        samples: int = 20) -> BarrierChainReport:
    """Verify the barrier chain behind the right linear estimate.

    (i)   H_R = B*(2+A*B-A^2)*(P-U) exactly, sampled across [L, R];
    (ii)  U* = P - sigma/(2*B*C) satisfies U* >= 1/2;
    (iii) if U* < R then G(U*) >= 0 (the barrier point);
    (iv)  both linear estimates >= sigma/2 at the solved root;
    (v)   the swap identity G_{B,A}(1-U) = -G_{A,B}(U).
    Raises ValueError for samples < 1, which would check nothing in (i).
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    A, B = params.A, params.B
    k, e = params.kappa, params.epsilon
    interval = admissible_interval(params)
    zero = solve_zero(params, tol, interval)
    L, R = interval.L, interval.R

    bound = sigma(params)
    c_factor = 2.0 + A * B - A * A
    x_star = bound / (2.0 * B * c_factor)
    u_star = pole(params) - x_star

    max_resid = 0.0
    for i in range(samples):
        u = L + (R - L) * i / (samples - 1) if samples > 1 else L
        max_resid = max(max_resid, abs(hr_identity_residual(A, B, k, e, u)))

    g_at_u_star = None
    barrier_ok = True
    if u_star < R:
        g_at_u_star = g_s(params)[0](u_star)
        barrier_ok = g_at_u_star >= -slack

    def _h(front: float) -> float:
        return front * (A + B) + B * k * zero.M + A * e * zero.N

    hr_at_root = _h(1.0 - zero.U)
    hl_at_root = _h(zero.U)

    swapped = from_ab(B, A)
    swap_residual = g_s(swapped)[0](1.0 - zero.U) + g_s(params)[0](zero.U)

    return BarrierChainReport(
        sigma=bound,
        c_factor=c_factor,
        x_star=x_star,
        u_star=u_star,
        u_star_ge_half=u_star >= 0.5 - slack,
        hr_identity_max_residual=max_resid,
        g_at_u_star=g_at_u_star,
        barrier_ok=barrier_ok,
        hr_at_root=hr_at_root,
        hl_at_root=hl_at_root,
        hr_linear_ok=hr_at_root >= 0.5 * bound - slack,
        hl_linear_ok=hl_at_root >= 0.5 * bound - slack,
        swap_residual=swap_residual,
        root=zero,
    )
