"""Normalized curvature of the two-parameter Scherk comparison family.

The package computes W^2|K| at the distinguished zero point of the family
through two independent routes (geometric and scalar), verifies the
identities and inequalities connecting them in floating point, checks the
two Bernstein positivity certificates in exact rational arithmetic, and
proves the algebraic identities of the parameters exactly.

`import scherk` loads no submodule: each public name is imported from its
home module on first access, so numpy loads only with the code that runs
on arrays (the block solvers, `ops.ARRAY` and `oddmap`).
"""

import importlib

__version__ = "0.1.0"

# Each public name and its home module; `errors` is a module itself.
_HOME = {name: home for home, names in {
    "params": ("AdmissibleInterval", "ScherkParams", "admissible_interval",
               "from_ab", "from_angles", "threshold_b0"),
    "scalar": ("ScalarZero", "solve_zero"),
    "harmonic": ("DiskPoint", "FourMeasures", "ZeroSolution",
                 "master_inequality_check", "measures4", "solve_zero_point"),
    "weierstrass": ("NormalizedCurvature", "wk_scalar"),
    "bernstein": ("BernsteinForm", "BiPoly", "prove_identities",
                  "to_bernstein", "verify_appendix_certificates"),
    "oddmap": ("OddLift", "autocorrelation", "extremal_sequence",
               "fourier_S1", "hall_inequality_check", "random_odd_lift"),
    "errors": ("errors",),
}.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importlib, not `from . import`, which would look the name up here.
    module = importlib.import_module(f".{home}", __name__)
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
