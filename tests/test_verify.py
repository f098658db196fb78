import math
import warnings

import numpy as np
import pytest

from hilferbvp.core import (
    GradedMesh,
    HilferProblem,
    WeightedGridFunction,
    default_grading,
    derive_constants,
)
from hilferbvp.errors import NotConstantRhs, OutOfDomain, RequiresLambdaZero
from hilferbvp.fracops import QuadratureRule
from hilferbvp.solver import PicardSettings, solve_picard
from hilferbvp.verify import (
    constant_rhs_oracle,
    power_rhs_oracle,
    residual_check,
)

GAMMA_075 = 1.2254167024651776451


def problem_with(rhs, alpha=0.5, beta=0.5, lam=0.0, d=1.0, **kw):
    return HilferProblem(alpha=alpha, beta=beta, lam=lam, d=d, rhs=rhs, **kw)


def setup(problem, n=128):
    consts = derive_constants(problem)
    mesh = GradedMesh(n, default_grading(consts.gamma))
    return consts, mesh, QuadratureRule(mesh)


class TestConstantRhsOracle:
    def test_zero_everything(self):
        p = problem_with(lambda t, y: 0.0, d=0.0)
        consts, mesh, _ = setup(p)
        w = constant_rhs_oracle(p, consts, mesh)
        assert np.all(w.values == 0.0)

    def test_lambda_zero_shape(self):
        p = problem_with(lambda t, y: 1.0, lam=0.0, d=1.0)
        consts, mesh, _ = setup(p)
        w = constant_rhs_oracle(p, consts, mesh)
        t = mesh.nodes
        expected = (1.0 / GAMMA_075
                    + t ** (p.alpha + 1.0 - consts.gamma) / math.gamma(p.alpha + 1.0))
        assert np.max(np.abs(w.values - expected)) < 1e-14

    def test_weighted_origin_value(self):
        # w(0) = Lambda + 0.2/(Gamma(0.75) mu Gamma(2.5))
        #      = 1.1999483834747010487 (mpmath, 30 digits)
        p = problem_with(lambda t, y: 1.0, lam=0.2, d=1.0)
        consts, mesh, _ = setup(p)
        w = constant_rhs_oracle(p, consts, mesh)
        assert w.values[0] == pytest.approx(1.1999483834747010487, rel=1e-14)

    def test_matches_picard(self):
        p = problem_with(lambda t, y: 1.0, lam=0.2, d=1.0)
        consts, mesh, rule = setup(p, n=256)
        res = solve_picard(p, consts, PicardSettings(), rule)
        oracle = constant_rhs_oracle(p, consts, mesh)
        assert np.max(np.abs(res.solution.values - oracle.values)) < 1e-12

    def test_rejects_nonconstant(self):
        p = problem_with(lambda t, y: 1.0 + 0.1 * y)
        consts, mesh, _ = setup(p)
        with pytest.raises(NotConstantRhs):
            constant_rhs_oracle(p, consts, mesh)

    @pytest.mark.parametrize("where", [(0.5, 5.0), (1.0, 1.0)])
    def test_rejects_nan(self, where):
        # nan at a probe point, and at the reference point f(1, 1)
        def f(t, y):
            return np.where((t == where[0]) & (y == where[1]), math.nan, 1.0)

        p = problem_with(f)
        consts, mesh, _ = setup(p)
        with pytest.raises(NotConstantRhs):
            constant_rhs_oracle(p, consts, mesh)


class TestPowerRhsOracle:
    def test_sigma_one_reduces_to_constant(self):
        p = problem_with(lambda t, y: 1.0, lam=0.0)
        consts, mesh, _ = setup(p)
        left = power_rhs_oracle(p, consts, mesh, sigma=1.0)
        right = constant_rhs_oracle(p, consts, mesh)
        assert np.max(np.abs(left.values - right.values)) < 1e-14

    def test_half_power_zero_offset(self):
        # y(t) = Gamma(1.5)/Gamma(2) t = Gamma(1.5) t for f = t^0.5, d = 0.
        p = problem_with(lambda t, y: t ** 0.5, lam=0.0, d=0.0)
        consts, mesh, _ = setup(p)
        w = power_rhs_oracle(p, consts, mesh, sigma=1.5)
        t = mesh.nodes
        expected = 0.88622692545275801365 * t ** (1.5 + p.alpha - consts.gamma)
        assert np.max(np.abs(w.values - expected)) < 1e-14

    def test_linear_power(self):
        # f = t, sigma = 2: y = Gamma(2)/Gamma(2.5) t^1.5; the coefficient
        # is 1/1.3293403881791370205 (mpmath).
        p = problem_with(lambda t, y: t, lam=0.0, d=0.0)
        consts, mesh, _ = setup(p)
        w = power_rhs_oracle(p, consts, mesh, sigma=2.0)
        y_at_1 = w.values[-1]
        assert y_at_1 == pytest.approx(1.0 / 1.3293403881791370205, rel=1e-14)

    def test_matches_picard_with_refinement(self):
        p = problem_with(lambda t, y: t ** 0.5, lam=0.0, d=1.0)
        errs = []
        for n in (64, 128, 256):
            consts, mesh, rule = setup(p, n=n)
            res = solve_picard(p, consts, PicardSettings(), rule)
            oracle = power_rhs_oracle(p, consts, mesh, sigma=1.5)
            errs.append(np.max(np.abs(res.solution.values - oracle.values)))
        assert errs[2] <= errs[1] / 2.0 * 1.1    # first order or better
        assert errs[1] <= errs[0] / 2.0 * 1.1

    def test_requires_lambda_zero(self):
        p = problem_with(lambda t, y: t ** 0.5, lam=0.1)
        consts, mesh, _ = setup(p)
        with pytest.raises(RequiresLambdaZero):
            power_rhs_oracle(p, consts, mesh, sigma=1.5)

    def test_sigma_domain(self):
        p = problem_with(lambda t, y: 1.0, lam=0.0)
        consts, mesh, _ = setup(p)
        with pytest.raises(OutOfDomain):
            power_rhs_oracle(p, consts, mesh, sigma=0.5)


class TestResidualCheck:
    def test_zero_problem_zero_residuals(self):
        p = problem_with(lambda t, y: 0.0, d=0.0)
        consts, mesh, rule = setup(p)
        w = WeightedGridFunction(mesh, consts.gamma, np.zeros(mesh.n + 1))
        rep = residual_check(p, consts, w, rule)
        assert rep.interior_residual < 1e-14
        assert rep.boundary_residual < 1e-14
        assert rep.node_count > 0

    def test_oracle_residual_shrinks_with_n(self):
        p = problem_with(lambda t, y: 1.0, lam=0.2)
        interior = []
        boundary = []
        for n in (64, 128, 256, 512):
            consts, mesh, rule = setup(p, n=n)
            oracle = constant_rhs_oracle(p, consts, mesh)
            rep = residual_check(p, consts, oracle, rule)
            interior.append(rep.interior_residual)
            boundary.append(rep.boundary_residual)
        # halving n halves the residual, give or take 10 percent
        for seq in (interior, boundary):
            for a, b in zip(seq, seq[1:]):
                assert b <= a / 2.0 * 1.25
        assert interior[-1] < 1e-3

    def test_perturbation_detected(self):
        # Shifting w by +0.1 moves the boundary defect by at least
        # 0.1 * Gamma(gamma) * mu through the boundary identity.
        p = problem_with(lambda t, y: 1.0, lam=0.2)
        consts, mesh, rule = setup(p, n=256)
        oracle = constant_rhs_oracle(p, consts, mesh)
        base = residual_check(p, consts, oracle, rule).boundary_residual
        shifted = WeightedGridFunction(mesh, consts.gamma, oracle.values + 0.1)
        rep = residual_check(p, consts, shifted, rule)
        expected_jump = 0.1 * math.gamma(consts.gamma) * consts.mu
        assert rep.boundary_residual >= expected_jump - base - 1e-8

    def test_t_cut_validation(self):
        p = problem_with(lambda t, y: 1.0)
        consts, mesh, rule = setup(p)
        w = constant_rhs_oracle(p, consts, mesh)
        with pytest.raises(OutOfDomain):
            residual_check(p, consts, w, rule, t_cut=0.0)
        with pytest.raises(OutOfDomain):
            residual_check(p, consts, w, rule, t_cut=0.5)

    @pytest.mark.parametrize("alpha, beta", [(0.5, 0.5), (0.3, 0.8), (0.4, 1.0)])
    def test_exact_solution_residual_is_small(self, alpha, beta):
        # The derivative in Riemann-Liouville form, d/dt I^(1-alpha) v, is
        # sharper than the nested Hilfer stages: on the exact w the interior
        # residual falls from 1.6e-6, 9.0e-4 and 3.5e-3 (Hilfer form) to
        # 3.2e-8, 2.5e-8 and 1.0e-10.
        p = problem_with(lambda t, y: 1.0, alpha=alpha, beta=beta, lam=0.2)
        consts, mesh, rule = setup(p, n=4096)
        oracle = constant_rhs_oracle(p, consts, mesh)
        assert residual_check(p, consts, oracle, rule).interior_residual <= 1e-7

    @pytest.mark.parametrize("alpha, beta", [(0.5, 0.5), (0.3, 0.8), (1.0, 0.0)])
    def test_stack_matches_one_problem_calls(self, alpha, beta):
        # A stack of problems that differ in lam and d costs one operator
        # apply, one stencil and one rhs call; each report equals its
        # one-problem call bit for bit.
        def rhs(t, y):
            return 0.8 * y + 0.3 + 0.1 * np.sin(y)

        problems = [problem_with(rhs, alpha=alpha, beta=beta, lam=lam, d=d)
                    for lam, d in ((0.0, 0.5), (0.1, 1.0), (0.2, 2.0), (0.3, 0.7))]
        _, mesh, rule = setup(problems[0], n=300)
        consts = [derive_constants(p) for p in problems]
        solutions = [solve_picard(p, c, PicardSettings(), rule).solution
                     for p, c in zip(problems, consts)]
        stacked = residual_check(problems, consts, solutions, rule)
        for p, c, w, report in zip(problems, consts, solutions, stacked):
            alone = residual_check(p, c, w, rule)
            assert report == alone
            assert np.isfinite(alone.interior_residual)
        assert len({report.interior_residual for report in stacked}) == len(problems)

    def test_stack_must_share_the_rhs(self):
        problems = [problem_with(lambda t, y: 1.0, lam=lam) for lam in (0.0, 0.1)]
        _, mesh, rule = setup(problems[0])
        consts = [derive_constants(p) for p in problems]
        w = [constant_rhs_oracle(p, c, mesh) for p, c in zip(problems, consts)]
        with pytest.raises(ValueError, match="share"):
            residual_check(problems, consts, w, rule)

    def test_overflow_reported_without_warning(self):
        # A solution near the float limit: int_0^1 y overflows, and the
        # boundary residual comes out non-finite, without a numpy warning,
        # for the caller to judge.
        p = problem_with(lambda t, y: 1.0, lam=0.2, d=1.7e308)
        consts, mesh, rule = setup(p, n=64)
        w = WeightedGridFunction(mesh, consts.gamma,
                                 np.full(mesh.n + 1, consts.capital_lambda))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = residual_check(p, consts, w, rule)
        assert not math.isfinite(rep.boundary_residual)

    def test_node_count_matches_cut(self):
        p = problem_with(lambda t, y: 1.0)
        consts, mesh, rule = setup(p)
        w = constant_rhs_oracle(p, consts, mesh)
        rep = residual_check(p, consts, w, rule, t_cut=0.25)
        assert rep.node_count == int(np.sum(mesh.nodes >= 0.25))
        assert rep.t_cut == 0.25
