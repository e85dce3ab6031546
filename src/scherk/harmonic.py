"""Harmonic measures of boundary arcs and the distinguished zero point.

The four fixed arcs for arc parameter alpha in (0, pi) are

    I1 = (0, alpha),       I2 = (alpha, pi),
    I3 = (pi, pi+alpha),   I4 = (pi+alpha, 2*pi),

with harmonic measures Omega_j at a point z = r*e^{it} of the unit disk.
For the arc centered at phi with half-length s the measure omega solves

    cot(pi*omega) = ((1+r^2)*cos(s) - 2r*cos(t-phi)) / ((1-r^2)*sin(s)),

and the combinations U = Omega1+Omega3, V = Omega1-Omega3, T = Omega4-Omega2
satisfy the cross-ratio identity

    sin(pi*Omega1) sin(pi*Omega3) / (sin(pi*Omega2) sin(pi*Omega4))
        = tan^2(alpha/2)

for every z, as does sin(pi*U) = (1-r^4) sin(alpha) / (|1-w| |e^{2i alpha}-w|)
with w = z^2; the tests assert both on `_measures`.  The distinguished
point z0 is the one whose measures realize the (U, V, T) data of the
scalar zero.  At z0 the geometric route reads
S_geo = (A+B) sin(pi*U) D0/(1+r^2), with U measured at z0 and
D0 = 1 + r^2 - 2*sqrt(1-mu^2)*r*cos(t0-delta), where delta is the phase of
the Gauss-map parameter a (`_phase`); `weierstrass` derives W^2|K| =
pi^2 (1+A*B) / S_geo^2.  `_master_lhs` is S_geo/(A+B), on floats and on
arrays.

z0 is found in closed form from the circular level sets of Omega1 and
Omega2 (see solve_zero_point), and refused only when it lies outside the
open disk, when alpha rounds to pi, or when it misses its four measures
by more than the tolerance.  The four measures share two half-lengths, so
`_measures` takes the cos and sin of each once, on floats and on arrays.
The records are NamedTuples, except DiskPoint, which checks its radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from . import weierstrass
from .errors import DomainError, NonConvergence
from .ops import FLOAT
from .params import arc_alpha, mu
from .scalar import ScalarZero, sigma

if TYPE_CHECKING:
    from .params import ScherkParams

@dataclass(frozen=True)
class DiskPoint:
    """Polar point r*e^{it} with r in [0, 1)."""

    r: float
    t: float

    def __post_init__(self):
        if not (0.0 <= self.r < 1.0):
            raise DomainError(f"require 0 <= r < 1, got r={self.r}")


class FourMeasures(NamedTuple):
    Omega1: float
    Omega2: float
    Omega3: float
    Omega4: float
    U: float
    V: float
    T: float


class ZeroSolution(NamedTuple):
    """The distinguished zero point with its derived curvature data."""

    z: DiskPoint
    measures: FourMeasures
    D0: float
    delta: float
    a_mod: float
    WK: float
    master_lhs: float
    residual: float  # max |Omega_j(z) - target_j| over the four arcs


def _arc(r, t, phi, cos_half, sin_half, ops=FLOAT):
    """Harmonic measure at r e^{it} of the arc (phi - half, phi + half),
    given cos(half) and sin(half).

    atan2 on (numerator, denominator) of the cot formula realizes the
    arccot branch mapping R onto (0, pi); the positive denominator pins
    the value inside (0, 1) continuously across cot = 0.
    """
    num = (1.0 + r * r) * cos_half - 2.0 * r * ops.cos(t - phi)
    den = (1.0 - r * r) * sin_half
    return ops.atan2(den, num) / math.pi


def _measures(r, t, alpha, ops=FLOAT) -> FourMeasures:
    """The four measures; I1, I3 have half-length h = alpha/2 and I2, I4
    (pi - alpha)/2, and each half-length's cos and sin are taken once."""
    h = 0.5 * alpha
    half_large = 0.5 * (math.pi - alpha)
    ch, sh = ops.cos(h), ops.sin(h)
    cl, sl = ops.cos(half_large), ops.sin(half_large)
    o1, o3 = _arc(r, t, h, ch, sh, ops), _arc(r, t, h + math.pi, ch, sh, ops)
    o2 = _arc(r, t, h + 0.5 * math.pi, cl, sl, ops)
    o4 = _arc(r, t, h + 1.5 * math.pi, cl, sl, ops)
    return FourMeasures(o1, o2, o3, o4, o1 + o3, o1 - o3, o4 - o2)


def _residual(m: FourMeasures, U, V, T, ops=FLOAT):
    """max |Omega_j - target_j| for the targets of the scalar zero."""
    d1, d2 = abs(m.Omega1 - 0.5 * (U + V)), abs(m.Omega2 - 0.5 * (1.0 - U - T))
    d3, d4 = abs(m.Omega3 - 0.5 * (U - V)), abs(m.Omega4 - 0.5 * (1.0 - U + T))
    return ops.maximum(ops.maximum(ops.maximum(d1, d2), d3), d4)


def measures4(z: DiskPoint, alpha: float) -> FourMeasures:
    """Harmonic measures of the four fixed arcs, plus (U, V, T)."""
    if not (0.0 < alpha < math.pi):
        raise DomainError(f"require 0 < alpha < pi, got {alpha}")
    return _measures(z.r, z.t, alpha)


def _phase(pair, mu, ops=FLOAT):
    """a = ar + i ai and delta = arg a of the Gauss-map parameter

        a = (A*epsilon - B*kappa - i*mu*(kappa + epsilon)) / ((1+mu)*(A+B)),

    with |a| = sqrt((1-mu)/(1+mu)), mu = sqrt(AB); a = 0 at A*B = 1."""
    A, B, kappa, epsilon = pair.A, pair.B, pair.kappa, pair.epsilon
    den = (1.0 + mu) * (A + B)
    ar, ai = (A * epsilon - B * kappa) / den, -mu * (kappa + epsilon) / den
    return ar, ai, ops.atan2(ai, ar)


def _d0(mu, r, t, delta, ops=FLOAT):
    """D0 = 1 + r^2 - 2 sqrt(1-mu^2) r cos(t-delta)."""
    root1m2 = ops.sqrt(ops.maximum(0.0, 1.0 - mu * mu))
    return 1.0 + r * r - 2.0 * root1m2 * r * ops.cos(t - delta)


def _master_lhs(U, r, D0, ops=FLOAT):
    """sin(pi U) D0 / (1 + r^2) = S_geo/(A+B), U measured at z0."""
    return ops.sin(math.pi * U) * D0 / (1.0 + r * r)


def _zero_point(alpha, U, V, T, ops=FLOAT):
    """(r, t) of z0 = c - det/num, c = e^{i alpha}, in reals.  Each line
    is Im(e*(1 + w*u)) = 0 with e = e^{-i*arg}; with e*w = p + iq and
    u = x + iy that reads q*x + p*y = -Im(e)."""
    cr, ci = ops.cos(alpha), ops.sin(alpha)
    th1 = math.pi * (0.5 * (U + V)) + 0.5 * alpha
    th2 = -(math.pi * (0.5 * (1.0 - U - T)) + 0.5 * (math.pi - alpha))
    e1r, e1i, e2r, e2i = ops.cos(th1), ops.sin(th1), ops.cos(th2), ops.sin(th2)
    g1r = e1r * (1.0 - cr) - e1i * -ci           # e1 (1 - c)
    g1i = e1r * -ci + e1i * (1.0 - cr)
    g2r = -e2r * (1.0 + cr) - -e2i * ci          # -e2 (1 + c)
    g2i = -e2r * ci + -e2i * (1.0 + cr)
    qr, qi = ops.div(g1i * g2r - g1r * g2i, 0.0,    # det / num
                     g1r * e2i - g2r * e1i, g2i * e1i - g1i * e2i)
    zr, zi = cr - qr, ci - qi
    return ops.hypot(zr, zi), ops.atan2(zi, zr) % (2.0 * math.pi)


def solve_zero_point(params: "ScherkParams", scalar_zero: ScalarZero,
                     tol: float = 1e-12) -> ZeroSolution:
    """Locate z0 whose four harmonic measures realize the scalar-zero data.

    The targets are Omega1 = (U+V)/2 and Omega2 = (1-U-T)/2 from the scalar
    zero; matching those two pins the remaining measures through the sum
    and cross-ratio constraints (checked and reported as `residual`).

    Closed form: by the inscribed-angle theorem the level set Omega = t of
    an arc (a, b) of half-length s is the circular arc through a and b on
    which arg((b-z)/(a-z)) = pi*t + s.  I1 = (1, c) and I2 = (c, -1) share
    c = e^{i alpha}, so under u = 1/(c-z) the two level sets are the lines
        arg(1 + (1-c) u) = -(pi*Omega1 + alpha/2),
        arg(1 - (1+c) u) = pi*Omega2 + (pi-alpha)/2,
    and z0 = c - 1/u is one 2x2 real solve.  Raises NonConvergence when
    r is not below 1 (NaN included), when alpha rounds to pi, or when the
    four measures miss their targets by more than tol (or by NaN), and
    ValueError unless 0 < tol < inf.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    A, B = params.A, params.B
    mu_ab, alpha = mu(params), arc_alpha(params)
    if A * B >= 1.0:
        # Full symmetry: z0 is the origin, mu = 1 removes the phase term.
        z = DiskPoint(r=0.0, t=0.0)
        m = measures4(z, alpha)
        lhs = _master_lhs(m.U, 0.0, 1.0)
        WK = weierstrass.wk_scalar_value(params, (A + B) * lhs)
        return ZeroSolution(z, m, 1.0, 0.0, 0.0, WK, lhs, abs(m.U - 0.5))

    U, V, T = scalar_zero.U, scalar_zero.V, scalar_zero.T
    r, t = _zero_point(alpha, U, V, T)
    if not r < 1.0:
        raise NonConvergence(f"zero point at r={r} is not inside the open "
                             f"unit disk (A={A}, B={B})")
    if not alpha < math.pi:   # the residual refuses it; this says why
        raise NonConvergence(f"alpha={alpha} rounds to pi, so I2 and "
                             f"I4 are empty (A={A}, B={B})")
    m = _measures(r, t, alpha)
    resid = _residual(m, U, V, T)
    if not resid <= tol:
        raise NonConvergence(f"zero point misses its measures by {resid} > "
                             f"tol {tol} (A={A}, B={B})")

    ar, ai, delta = _phase(params, mu_ab)
    D0 = _d0(mu_ab, r, t, delta)
    if D0 <= 0.0:   # D0 >= (1 - r)^2 > 0 as r < 1; only rounding fails it
        raise DomainError(f"require D0 > 0, got {D0}")
    master_lhs = _master_lhs(m.U, r, D0)
    WK = weierstrass.wk_scalar_value(params, (A + B) * master_lhs)
    return ZeroSolution(DiskPoint(r, t), m, D0, delta, abs(complex(ar, ai)),
                        WK, master_lhs, resid)


def solve_zero_point_block(pairs: "ScherkParams", U, V, T, tol: float):
    """(WK, D0, solved) of `solve_zero_point` on a block of pairs; `solved`
    is False where it raises NonConvergence."""
    import numpy as np
    from .ops import ARRAY

    corner = pairs.A * pairs.B >= 1.0
    mu_ab, alpha = mu(pairs, ARRAY), arc_alpha(pairs, ARRAY)
    r, t = (np.where(corner, 0.0, x)
            for x in _zero_point(alpha, U, V, T, ARRAY))
    m = _measures(r, t, alpha, ARRAY)
    resid = _residual(m, U, V, T, ARRAY)
    delta = _phase(pairs, mu_ab, ARRAY)[2]
    D0 = np.where(corner, 1.0, _d0(mu_ab, r, t, delta, ARRAY))
    S_geo = (pairs.A + pairs.B) * _master_lhs(m.U, r, D0, ARRAY)
    WK = weierstrass.wk_scalar_value(pairs, S_geo)
    return WK, D0, corner | ((r < 1.0) & (resid <= tol))


def master_inequality_check(sol: ZeroSolution, params: "ScherkParams",
                            slack: float = 1e-9):
    """The reduced sharp bound at the solved zero point.

    lhs = sin(pi U) D0/(1+r^2) = S_geo/(A+B) must dominate
    rhs = sigma/(A+B): the geometric route's S_geo >= sigma.
    """
    rhs = sigma(params) / (params.A + params.B)
    return sol.master_lhs, rhs, sol.master_lhs >= rhs - slack


def modulus_consistency_residual(params: "ScherkParams",
                                 m: FourMeasures) -> float:
    """| |(1-U)kappa + i T A| - |U epsilon + i V B| | at measured (U, V, T).

    The zero equation multiplies (U epsilon + iVB) by a unimodular factor,
    so the moduli agree whenever the measures come from a true zero point.
    """
    lhs = abs(complex((1.0 - m.U) * params.kappa, m.T * params.A))
    rhs = abs(complex(m.U * params.epsilon, m.V * params.B))
    return abs(lhs - rhs)
