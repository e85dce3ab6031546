import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from scherk.params import from_ab, threshold_b0  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


def random_admissible(rng, count, margin=0.0, b_floor=0.0):
    """Random (A, B) pairs with B >= B0(A) + margin."""
    out = []
    while len(out) < count:
        a = float(rng.uniform(0.01, 1.0))
        b = float(rng.uniform(max(b_floor, 0.01), 1.0))
        if b >= threshold_b0(a) + margin and b <= 1.0:
            out.append(from_ab(a, b))
    return out


def named_check(params, name, slack=1e-9):
    """The check `name` of the pipeline record of one pair."""
    from scherk.cli import evaluate_pair
    for check in evaluate_pair(params).checks(slack):
        if check.name == name:
            return check
    raise AssertionError(f"no {name} check at A={params.A}, B={params.B}")
