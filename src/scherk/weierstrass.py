"""Curvature and slope of the comparison surface from its Gauss-map data.

For Weierstrass data (g, phi) of an upward minimal graph,

    K = -4|g'|^2 / (|phi|^2 (1+|g|^2)^4),   W = (1+|g|^2)/(1-|g|^2),

so the slope-normalized curvature is W^2|K| = 4|g'|^2/(|phi|^2 (1-|g|^4)^2).
At the distinguished zero z0 = r e^{it} of the fixed-arc family the
harmonic measures give sin(pi U) = (1-r^4) sin(alpha) / (|1-z0^2|
|e^{2 i alpha}-z0^2|), with U = Omega1 + Omega3 measured at z0, and
sin(alpha) = 2 sqrt(A*B)/(A+B).  Substituted, they give the geometric route

    W^2|K| = pi^2 (1+A*B) / S_geo^2,   S_geo = (A+B) sin(pi U) D0 / (1+r^2),

with D0 as in `harmonic`.  S_geo stays well conditioned as z0 nears the arc
endpoint e^{i alpha}, where |1-z0^2| |z0^2-e^{2 i alpha}| / (1-r^2) is a
0/0.  The scalar route is the same formula with the derivative value S of
the scalar zero, so both call `wk_scalar_value`.  S_geo = S only where U is
the zero's: that agreement is the computational content of the phase
elimination.
Both routes land in the band [pi^2/4, pi^2/2] on admissible parameters.
That W^2|K| is log-subharmonic and |K| log-superharmonic, for every such
(g, phi), is proved exactly in `bernstein.prove_identities`
(`log_wk_laplacian`, `log_k_laplacian`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError

if TYPE_CHECKING:
    from .params import ScherkParams


class NormalizedCurvature(NamedTuple):
    """W^2|K| value of `wk_scalar`."""

    value: float


def wk_scalar_value(pair, S):
    """The scalar route pi^2 (1+A*B) / S^2, on floats or arrays."""
    return math.pi ** 2 * (1.0 + pair.A * pair.B) / (S * S)


def wk_scalar(params: "ScherkParams", S: float) -> NormalizedCurvature:
    """Scalar route: pi^2 (1+A*B) / S^2 from the solved derivative value."""
    if S <= 0.0:
        raise DomainError(f"require S > 0, got {S}")
    return NormalizedCurvature(wk_scalar_value(params, S))
