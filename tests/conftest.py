import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from scherk.harmonic import _measures  # noqa: E402
from scherk.ops import FLOAT  # noqa: E402
from scherk.params import from_ab, pole, threshold_b0  # noqa: E402
from scherk.scalar import sigma  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


@pytest.fixture
def corrupt_expected(monkeypatch):
    """Change entry (i, j) of the table that the certificate check compares
    the rebuilt "y" or "2z" matrix with, by an exact delta."""
    from scherk import bernstein

    def corrupt(name, i, j, delta):
        attr = {"y": "CERT_Y_EXPECTED", "2z": "CERT_2Z_EXPECTED"}[name]
        rows = [list(row) for row in getattr(bernstein, attr)]
        rows[i][j] += delta
        monkeypatch.setattr(bernstein, attr, tuple(map(tuple, rows)))
    return corrupt


def random_admissible(rng, count, margin=0.0, b_floor=0.0):
    """Random (A, B) pairs with B >= B0(A) + margin."""
    out = []
    while len(out) < count:
        a = float(rng.uniform(0.01, 1.0))
        b = float(rng.uniform(max(b_floor, 0.01), 1.0))
        if b >= threshold_b0(a) + margin and b <= 1.0:
            out.append(from_ab(a, b))
    return out


def named_check(params, name):
    """The check `name` of the pipeline record of one pair, at `check`'s
    default slack."""
    from scherk.cli import SLACK, evaluate_pair
    for check in evaluate_pair(params).checks(SLACK):
        if check.name == name:
            return check
    raise AssertionError(f"no {name} check at A={params.A}, B={params.B}")


def on_both_paths(fn, *columns):
    """fn(*point, ops.FLOAT) point by point and fn(*columns, ops.ARRAY)
    once: two arrays of fn's values at the same points, a value's parts
    (if fn returns a tuple) along the first axis."""
    from scherk.ops import ARRAY
    points = zip(*(c.tolist() for c in columns))
    return (np.array([fn(*point, FLOAT) for point in points]).T,
            np.asarray(fn(*columns, ARRAY)))


def cross_ratio_gap(r, t, alpha, ops=FLOAT):
    """sin(pi O1) sin(pi O3) / (sin(pi O2) sin(pi O4)) - tan^2(alpha/2) of
    `harmonic._measures` at r e^{it}, on ops.FLOAT or ops.ARRAY."""
    m = _measures(r, t, alpha, ops)
    s1, s2, s3, s4 = (np.sin(np.pi * om) for om in m[:4])
    return s1 * s3 / (s2 * s4) - np.tan(0.5 * alpha) ** 2


def barrier_point(params):
    """u* = P - sigma/(2BC), C = 2 + AB - A^2: S >= sigma wherever U <= u*,
    as H_R = B C (P - U) (`bernstein.prove_identities`'s h_r)."""
    A, B = params.A, params.B
    return pole(params) - sigma(params) / (2.0 * B * (2.0 + A * B - A * A))


def linear_estimates(params, zero):
    """(H_R, H_L) = (A+B)(1-U or U) + B kappa M + A epsilon N at the zero;
    each is at least sigma/2."""
    A, B = params.A, params.B
    tail = B * params.kappa * zero.M + A * params.epsilon * zero.N
    return (A + B) * (1.0 - zero.U) + tail, (A + B) * zero.U + tail
