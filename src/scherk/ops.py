"""Elementwise operations for the closed forms: FLOAT on one pair's
floats, ARRAY on numpy arrays for a block.  ARRAY is built, and numpy
imported, on its first access, so FLOAT's users never load numpy.  They
round alike, so a pair gets the same bits on both paths.  numpy's cos,
sin, sqrt, hypot and % match libm; elsewhere ARRAY follows CPython:
- atan, atan2 are `math`'s: numpy's differ by an ulp on ~0.1% and ~8% of
  inputs, and near B0(A) ~1/(1 - r) times an ulp can move a pair past tol.
- asin is `math`'s: numpy's arcsin differs on ~8% of uniform inputs in
  (0, 1], and asin gives p and q, which the sweep prints.
- complex division is Smith's method, as in CPython.
- FLOAT's hypot is abs(complex), libm's; `math.hypot` is CPython's own and
  puts r an ulp lower at (A, B) = (0.7181383713219818, 0.9574269277339676).
Products group left to right on both, so `B * kappa * sin(x)` is
`(B*kappa) * sin(x)`: a coefficient hoisted out of an evaluation, as in
`scalar.g_s`'s one closure for G, S, M and N, keeps every bit.
"""

from __future__ import annotations

import math
from types import SimpleNamespace


def _complex_div(ar, ai, br, bi):
    q = complex(ar, ai) / complex(br, bi)
    return q.real, q.imag


FLOAT = SimpleNamespace(cos=math.cos, sin=math.sin, sqrt=math.sqrt,
                        asin=math.asin, atan=math.atan, atan2=math.atan2,
                        maximum=max, div=_complex_div,
                        hypot=lambda x, y: abs(complex(x, y)))


def __getattr__(name):
    global ARRAY
    if name != "ARRAY":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy as np

    def smith_div(ar, ai, br, bi):
        by_real = abs(br) >= abs(bi)
        ratio = np.where(by_real, bi / br, br / bi)
        denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
        return (np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom,
                np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom)

    def libm(fn):
        return lambda *xs: np.array(list(map(fn, *(x.tolist() for x in xs))))

    ARRAY = SimpleNamespace(cos=np.cos, sin=np.sin, sqrt=np.sqrt,
                            asin=libm(math.asin), atan=libm(math.atan),
                            atan2=libm(math.atan2), maximum=np.maximum,
                            div=smith_div, hypot=np.hypot)
    return ARRAY
