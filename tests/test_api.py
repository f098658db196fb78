import hilferbvp

PUBLIC = {
    "Certificate", "DerivedConstants", "GradedMesh", "HilferProblem",
    "PicardSettings", "QuadratureRule", "ResidualReport", "SolutionBracket",
    "SolveResult", "WeightedGridFunction", "apply_delta",
    "boundary_identity_gap", "bracket_from_bounds", "check_kernel_bound",
    "check_mu", "constant_rhs_oracle", "contraction_certificate",
    "default_grading", "derive_constants", "hilfer_derivative",
    "hypothesis_report", "physical_integral", "power_rhs_oracle",
    "residual_check", "rl_derivative", "rl_integral", "solve_picard",
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
    # The other names had no caller in the package, the CLI or a test oracle.
    from hilferbvp import analysis, core, errors, fracops, solver
    removed = {
        fracops: ("caputo_derivative", "q_kernel"),
        solver: ("solution_integral", "build_control_functions", "ControlFunctions"),
        core: ("weighted_norm", "to_physical"),
        analysis: ("estimate_lipschitz", "LipschitzEstimate"),
        errors: ("InvalidInterval",),
    }
    for module, names in removed.items():
        for name in names:
            assert not hasattr(hilferbvp, name)
            assert not hasattr(module, name)
