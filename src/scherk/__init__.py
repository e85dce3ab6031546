"""Normalized curvature of the two-parameter Scherk comparison family.

The package computes W^2|K| at the distinguished zero point of the family
through two independent routes (geometric and scalar), verifies the
identities and inequalities connecting them in floating point, and checks
the two Bernstein positivity certificates in exact rational arithmetic.
"""

from .params import (AdmissibleInterval, ScherkParams, admissible_interval,
                     domain_lemma_checks, from_ab, from_angles, threshold_b0)
from .scalar import (BarrierChainReport, ScalarZero, barrier_chain_check,
                     solve_zero)
from .harmonic import (DiskPoint, FourMeasures, ZeroSolution,
                       cross_ratio_residual, master_inequality_check,
                       measures4, phase_param, sinU_identity_residual,
                       solve_zero_point)
from .weierstrass import (GaussAutomorphism, NormalizedCurvature,
                          log_subharmonicity_check, lower_identity_residual,
                          wk_geometric, wk_scalar, zero_control_check)
from .bernstein import (BernsteinForm, BiPoly, to_bernstein,
                        verify_appendix_certificates)
from .oddmap import (OddLift, autocorrelation, extremal_sequence, fourier_S1,
                     hall_inequality_check, random_odd_lift)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "AdmissibleInterval", "ScherkParams", "admissible_interval",
    "domain_lemma_checks", "from_ab", "from_angles", "threshold_b0",
    "BarrierChainReport", "ScalarZero", "barrier_chain_check", "solve_zero",
    "DiskPoint", "FourMeasures", "ZeroSolution", "cross_ratio_residual",
    "master_inequality_check", "measures4", "phase_param",
    "sinU_identity_residual", "solve_zero_point",
    "GaussAutomorphism", "NormalizedCurvature", "log_subharmonicity_check",
    "lower_identity_residual", "wk_geometric", "wk_scalar",
    "zero_control_check",
    "BernsteinForm", "BiPoly", "to_bernstein", "verify_appendix_certificates",
    "OddLift", "autocorrelation", "extremal_sequence", "fourier_S1",
    "hall_inequality_check", "random_odd_lift",
    "errors",
]
