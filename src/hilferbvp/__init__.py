"""Numerical solver and hypothesis checker for two-parameter fractional
boundary-value problems on (0, 1] with an integral boundary condition.

The solution is represented in the weighted form w(t) = t^(1-gamma) y(t);
fractional operators are discretized by product integration on graded
meshes; existence/uniqueness hypotheses are evaluated as certificates.
"""

from .analysis import (
    Certificate,
    check_kernel_bound,
    check_mu,
    contraction_certificate,
    hypothesis_report,
)
from .core import (
    DerivedConstants,
    GradedMesh,
    HilferProblem,
    WeightedGridFunction,
    default_grading,
    derive_constants,
)
from .fracops import (
    QuadratureRule,
    hilfer_derivative,
    physical_integral,
    rl_derivative,
    rl_integral,
)
from .solver import (
    PicardSettings,
    SolutionBracket,
    SolveResult,
    apply_delta,
    boundary_identity_gap,
    bracket_from_bounds,
    solve_picard,
)
from .verify import (
    ResidualReport,
    constant_rhs_oracle,
    power_rhs_oracle,
    residual_check,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "DerivedConstants",
    "GradedMesh",
    "HilferProblem",
    "PicardSettings",
    "QuadratureRule",
    "ResidualReport",
    "SolutionBracket",
    "SolveResult",
    "WeightedGridFunction",
    "apply_delta",
    "boundary_identity_gap",
    "bracket_from_bounds",
    "check_kernel_bound",
    "check_mu",
    "constant_rhs_oracle",
    "contraction_certificate",
    "default_grading",
    "derive_constants",
    "hilfer_derivative",
    "hypothesis_report",
    "physical_integral",
    "power_rhs_oracle",
    "residual_check",
    "rl_derivative",
    "rl_integral",
    "solve_picard",
]
