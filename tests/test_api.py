import hilferbvp

PUBLIC = {
    "Certificate", "ControlFunctions", "DerivedConstants", "GradedMesh",
    "HilferProblem", "LipschitzEstimate", "PicardSettings", "QuadratureRule",
    "ResidualReport", "SolutionBracket", "SolveResult", "WeightedGridFunction",
    "apply_delta", "boundary_identity_gap", "bracket_from_bounds",
    "build_control_functions", "check_kernel_bound", "check_mu",
    "constant_rhs_oracle", "contraction_certificate", "default_grading",
    "derive_constants", "estimate_lipschitz", "hilfer_derivative",
    "hypothesis_report", "physical_integral", "power_rhs_oracle", "q_kernel",
    "residual_check", "rl_derivative", "rl_integral", "solve_picard",
    "to_physical", "weighted_norm",
}


def test_public_names_are_pinned():
    assert sorted(hilferbvp.__all__) == sorted(PUBLIC)


def test_every_public_name_imports():
    namespace = {}
    exec("from hilferbvp import *", namespace)
    assert PUBLIC <= namespace.keys()


def test_folded_helpers_are_gone():
    # The Caputo derivative is hilfer_derivative(alpha, 1.0, ...), and the
    # integral of y in the boundary identity lives in boundary_identity_gap.
    for name in ("solution_integral", "caputo_derivative"):
        assert not hasattr(hilferbvp, name)
    from hilferbvp import fracops, solver
    assert not hasattr(fracops, "caputo_derivative")
    assert not hasattr(solver, "solution_integral")
