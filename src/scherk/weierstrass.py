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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError

if TYPE_CHECKING:
    from .params import ScherkParams


@dataclass(frozen=True)
class GaussAutomorphism:
    """Gauss map g(z) = e^{i theta} (z - a)/(1 - conj(a) z), |a| < 1."""

    a: complex
    theta: float = 0.0

    def __post_init__(self):
        if abs(self.a) >= 1.0:
            raise DomainError(f"require |a| < 1, got |a|={abs(self.a)}")

    def __call__(self, z: complex) -> complex:
        return cmath.exp(1j * self.theta) * (z - self.a) / (1.0 - self.a.conjugate() * z)

    def deriv(self, z: complex) -> complex:
        denom = (1.0 - self.a.conjugate() * z) ** 2
        return cmath.exp(1j * self.theta) * (1.0 - abs(self.a) ** 2) / denom


class NormalizedCurvature(NamedTuple):
    """W^2|K| value of `wk_scalar`."""

    value: float


@dataclass(frozen=True)
class LaplacianCheck:
    """Finite-difference vs closed-form Laplacians of the two log quantities."""

    lap_fd: float      # FD Laplacian of log(W^2|K|)
    lap_exact: float   # 32|g|^2|g'|^2/(1-|g|^4)^2
    lapK_fd: float     # FD Laplacian of log|K|
    lapK_exact: float  # -16|g'|^2/(1+|g|^2)^2


def wk_scalar_value(pair, S):
    """The scalar route pi^2 (1+A*B) / S^2, on floats or arrays."""
    return math.pi ** 2 * (1.0 + pair.A * pair.B) / (S * S)


def wk_scalar(params: "ScherkParams", S: float) -> NormalizedCurvature:
    """Scalar route: pi^2 (1+A*B) / S^2 from the solved derivative value."""
    if S <= 0.0:
        raise DomainError(f"require S > 0, got {S}")
    return NormalizedCurvature(wk_scalar_value(params, S))


def _log_wk(g: GaussAutomorphism, z: complex) -> float:
    # phi == 1: the phi term is log-harmonic, so it drops from the Laplacian.
    gz = abs(g(z))
    return math.log(4.0) + 2.0 * math.log(abs(g.deriv(z))) \
        - 2.0 * math.log(1.0 - gz ** 4)


def _log_k(g: GaussAutomorphism, z: complex) -> float:
    gz = abs(g(z))
    return math.log(4.0) + 2.0 * math.log(abs(g.deriv(z))) \
        - 4.0 * math.log(1.0 + gz ** 2)


def _five_point_lap(f, z: complex, h: float) -> float:
    return (f(z + h) + f(z - h) + f(z + 1j * h) + f(z - 1j * h)
            - 4.0 * f(z)) / (h * h)


def log_subharmonicity_check(g: GaussAutomorphism, z: complex,
                             h: float) -> LaplacianCheck:
    """Five-point FD Laplacians of log(W^2|K|) and log|K| vs closed forms.

    With phi == 1 the quantity log(W^2|K|) differs from the general case by
    a harmonic term, so the Laplacian comparison is unaffected.  Requires
    the stencil to stay well inside the disk (|z| < 1 - 4h).
    """
    if h <= 0.0:
        raise DomainError(f"require h > 0, got {h}")
    if abs(z) >= 1.0 - 4.0 * h:
        raise DomainError(
            f"stencil too close to the boundary: |z|={abs(z)}, h={h}")
    gz = abs(g(z))
    gp = abs(g.deriv(z))
    lap_exact = 32.0 * gz ** 2 * gp ** 2 / (1.0 - gz ** 4) ** 2
    lapk_exact = -16.0 * gp ** 2 / (1.0 + gz ** 2) ** 2
    return LaplacianCheck(
        lap_fd=_five_point_lap(lambda w: _log_wk(g, w), z, h),
        lap_exact=lap_exact,
        lapK_fd=_five_point_lap(lambda w: _log_k(g, w), z, h),
        lapK_exact=lapk_exact,
    )
