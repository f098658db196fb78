"""Numerical solver and hypothesis checker for two-parameter fractional
boundary-value problems on (0, 1] with an integral boundary condition.

The solution is represented in the weighted form w(t) = t^(1-gamma) y(t);
fractional operators are discretized by product integration on graded
meshes; existence/uniqueness hypotheses are evaluated as certificates.
"""

from .analysis import (
    Certificate,
    LipschitzEstimate,
    check_kernel_bound,
    check_mu,
    contraction_certificate,
    estimate_lipschitz,
    hypothesis_report,
)
from .core import (
    DerivedConstants,
    GradedMesh,
    HilferProblem,
    WeightedGridFunction,
    default_grading,
    derive_constants,
    to_physical,
    weighted_norm,
)
from .fracops import (
    QuadratureRule,
    caputo_derivative,
    hilfer_derivative,
    physical_integral,
    q_kernel,
    rl_derivative,
    rl_integral,
)
from .solver import (
    ControlFunctions,
    PicardSettings,
    SolutionBracket,
    SolveResult,
    apply_delta,
    boundary_identity_gap,
    bracket_from_bounds,
    build_control_functions,
    solution_integral,
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
    "ControlFunctions",
    "DerivedConstants",
    "GradedMesh",
    "HilferProblem",
    "LipschitzEstimate",
    "PicardSettings",
    "QuadratureRule",
    "ResidualReport",
    "SolutionBracket",
    "SolveResult",
    "WeightedGridFunction",
    "apply_delta",
    "boundary_identity_gap",
    "bracket_from_bounds",
    "build_control_functions",
    "caputo_derivative",
    "check_kernel_bound",
    "check_mu",
    "constant_rhs_oracle",
    "contraction_certificate",
    "default_grading",
    "derive_constants",
    "estimate_lipschitz",
    "hilfer_derivative",
    "hypothesis_report",
    "physical_integral",
    "power_rhs_oracle",
    "q_kernel",
    "residual_check",
    "rl_derivative",
    "rl_integral",
    "solution_integral",
    "solve_picard",
    "to_physical",
    "weighted_norm",
]
