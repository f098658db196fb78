"""The Mittag-Leffler closed form behind err_max, checked three ways."""

import math

import numpy as np
import pytest

import oracle
from hilferbvp import (GradedMesh, HilferProblem, PicardSettings, QuadratureRule,
                       default_grading, derive_constants, solve_picard)
from hilferbvp.verify import constant_rhs_oracle


@pytest.mark.parametrize("alpha,beta,lam,d,b", [
    (0.5, 0.5, 0.2, 1.0, 0.25),
    (0.3, 0.8, 0.5, 0.4, 1.7),
    (0.9, 0.1, 0.0, 2.0, 0.6),
])
def test_zero_slope_matches_constant_rhs_oracle(alpha, beta, lam, d, b):
    problem = HilferProblem(alpha=alpha, beta=beta, lam=lam, d=d, rhs=lambda t, y: b)
    consts = derive_constants(problem)
    mesh = GradedMesh(64, default_grading(consts.gamma))
    expected = constant_rhs_oracle(problem, consts, mesh).values
    got = oracle.linear_rhs_weighted(alpha, beta, lam, d, 0.0, b, mesh.nodes)
    np.testing.assert_allclose(got, expected, rtol=1e-14, atol=1e-15)


def _solve(n, a=0.25, b=0.25, alpha=0.5, beta=0.5, lam=0.2, d=1.0):
    problem = HilferProblem(alpha=alpha, beta=beta, lam=lam, d=d,
                            rhs=lambda t, y: a * y + b)
    consts = derive_constants(problem)
    rule = QuadratureRule(GradedMesh(n, default_grading(consts.gamma)))
    result = solve_picard(problem, consts, PicardSettings(), rule)
    assert result.converged
    exact = oracle.linear_rhs_weighted(alpha, beta, lam, d, a, b, rule.mesh.nodes)
    return result.solution.values, exact


@pytest.fixture(scope="module")
def ladder():
    return {n: _solve(n) for n in (256, 1024, 2048, 4096)}


def test_solver_error_decreases_along_the_mesh_ladder(ladder):
    errors = [float(np.max(np.abs(w - exact))) for w, exact in ladder.values()]
    assert all(fine < coarse for coarse, fine in zip(errors, errors[1:])), errors
    assert errors[-1] <= 1e-6


def test_origin_value_is_c_over_gamma(ladder):
    w, _ = ladder[4096]
    gamma = 0.5 + 0.5 * (1.0 - 0.5)
    c = oracle.boundary_coefficient(0.5, 0.5, 0.2, 1.0, 0.25, 0.25)
    assert abs(w[0] - c / math.gamma(gamma)) <= 1e-6


def test_closed_form_satisfies_the_boundary_condition():
    # I^(1-gamma) y(0) = c must equal lam * int_0^1 y + d, int_0^1 y by the series.
    alpha, beta, lam, d, a, b = 0.4, 0.6, 0.3, 0.8, 0.5, 0.2
    gamma = alpha + beta * (1.0 - alpha)
    c = oracle.boundary_coefficient(alpha, beta, lam, d, a, b)
    integral = (c * float(oracle.mittag_leffler(alpha, gamma + 1.0, np.array(a)))
                + b * sum(a ** k / math.gamma(alpha * (k + 1) + 2.0) for k in range(60)))
    assert c == pytest.approx(lam * integral + d, rel=1e-14)
