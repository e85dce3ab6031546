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
The zero is found by bisection (guaranteed by monotonicity plus the sign
change G(L) <= 0 <= G(R)) with a short Newton polish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import NoSignChange, NotAdmissible
from .params import ScherkParams, admissible_interval, from_ab

_BISECT_WIDTH = 1e-12
_NEWTON_POLISH = 5


@dataclass(frozen=True)
class ScalarZero:
    """The admissible zero U together with its derived quantities.

    V and T are the signed variants c_p*(P-U) and -d_q*(U + kappa^2/(A(A+B)));
    in the restricted-angle convention V = M(U) and T = -N(U).
    """

    U: float
    M: float
    N: float
    V: float
    T: float
    S: float
    residual: float


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


def _mn(params: ScherkParams, U: float) -> tuple[float, float]:
    k, e = params.kappa, params.epsilon
    A, B = params.A, params.B
    return k * (params.P - U), e * (U + k * k / (A * (A + B)))


def g_eval(params: ScherkParams, U: float) -> tuple[float, float, float]:
    """Evaluate (G(U), M(U), N(U)).

    M may land outside [0, 1/2] for U outside the admissible interval;
    callers gate admissibility separately.
    """
    M, N = _mn(params, U)
    G = (params.B * math.cos(math.pi * M)
         - params.A * math.cos(math.pi * N)
         - (params.A + params.B) * math.cos(math.pi * U))
    return G, M, N


def s_eval(params: ScherkParams, U: float) -> float:
    """Scaled derivative S(U) = (1/pi) G'(U); positive on [L, R]."""
    M, N = _mn(params, U)
    return ((params.A + params.B) * math.sin(math.pi * U)
            + params.B * params.kappa * math.sin(math.pi * M)
            + params.A * params.epsilon * math.sin(math.pi * N))


def _make_zero(params: ScherkParams, U: float, residual: float) -> ScalarZero:
    M, N = _mn(params, U)
    V = params.c_p * (params.P - U)
    T = -params.d_q * (U + params.kappa ** 2
                       / (params.A * (params.A + params.B)))
    return ScalarZero(U=U, M=M, N=N, V=V, T=T,
                      S=s_eval(params, U), residual=residual)


def solve_zero(params: ScherkParams, tol: float = 1e-12) -> ScalarZero:
    """Find the admissible zero of G to |G(U)| <= tol*max(1, |G'(U)|).

    Bisection to bracket width 1e-12 followed by at most five Newton steps
    using pi*S as the derivative; Newton steps leaving the bracket are
    rejected.  A*B = 1 is an exact analytic branch (U = 1/2, S = 2), where
    floating-point root isolation would be pointless.

    Raises NotAdmissible for an empty interval and NoSignChange when
    G(L) > tol or G(R) < -tol (reported, never silently clamped).
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if params.A == 1.0 and params.B == 1.0:
        return ScalarZero(U=0.5, M=0.0, N=0.0, V=0.0, T=0.0, S=2.0,
                          residual=0.0)

    interval = admissible_interval(params)
    if not interval.nonempty:
        raise NotAdmissible(
            f"empty admissible interval for A={params.A}, B={params.B}: "
            f"L={interval.L} > R={interval.R}")
    a, b = interval.L, interval.R
    ga = g_eval(params, a)[0]
    gb = g_eval(params, b)[0]

    if a == b or b - a < 1e-15:
        mid = 0.5 * (a + b)
        gm = g_eval(params, mid)[0]
        if abs(gm) <= tol:
            return _make_zero(params, mid, abs(gm))
        raise NoSignChange(
            f"degenerate interval at A={params.A}, B={params.B} with "
            f"|G| = {abs(gm)} > tol")
    if ga > tol:
        raise NoSignChange(f"G(L) = {ga} > tol at A={params.A}, B={params.B}")
    if gb < -tol:
        raise NoSignChange(f"G(R) = {gb} < -tol at A={params.A}, B={params.B}")
    if ga > 0.0:
        return _make_zero(params, a, abs(ga))
    if gb < 0.0:
        return _make_zero(params, b, abs(gb))

    lo, hi = a, b
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        gm = g_eval(params, mid)[0]
        if gm < 0.0:
            lo = mid
        else:
            hi = mid

    u = 0.5 * (lo + hi)
    g = g_eval(params, u)[0]
    for _ in range(_NEWTON_POLISH):
        s = s_eval(params, u)
        if s <= 0.0:
            break
        step = g / (math.pi * s)
        u_next = u - step
        if not (a <= u_next <= b):
            break
        g_next = g_eval(params, u_next)[0]
        if abs(g_next) >= abs(g):
            break
        u, g = u_next, g_next
        if abs(g) <= 0.25 * tol:
            break
    return _make_zero(params, u, abs(g))


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
    """
    A, B = params.A, params.B
    k, e = params.kappa, params.epsilon
    zero = solve_zero(params, tol)
    interval = admissible_interval(params)
    L, R = interval.L, interval.R

    sigma = math.sqrt(2.0 * (1.0 + A * B))
    c_factor = 2.0 + A * B - A * A
    x_star = sigma / (2.0 * B * c_factor)
    u_star = params.P - x_star

    max_resid = 0.0
    for i in range(samples):
        u = L + (R - L) * i / (samples - 1) if samples > 1 else L
        max_resid = max(max_resid, abs(hr_identity_residual(A, B, k, e, u)))

    g_at_u_star = None
    barrier_ok = True
    if u_star < R:
        g_at_u_star = g_eval(params, u_star)[0]
        barrier_ok = g_at_u_star >= -slack

    def _h(front: float) -> float:
        return front * (A + B) + B * k * zero.M + A * e * zero.N

    hr_at_root = _h(1.0 - zero.U)
    hl_at_root = _h(zero.U)

    swapped = from_ab(B, A)
    swap_residual = g_eval(swapped, 1.0 - zero.U)[0] + g_eval(params, zero.U)[0]

    return BarrierChainReport(
        sigma=sigma,
        c_factor=c_factor,
        x_star=x_star,
        u_star=u_star,
        u_star_ge_half=u_star >= 0.5 - slack,
        hr_identity_max_residual=max_resid,
        g_at_u_star=g_at_u_star,
        barrier_ok=barrier_ok,
        hr_at_root=hr_at_root,
        hl_at_root=hl_at_root,
        hr_linear_ok=hr_at_root >= 0.5 * sigma - slack,
        hl_linear_ok=hl_at_root >= 0.5 * sigma - slack,
        swap_residual=swap_residual,
        root=zero,
    )
