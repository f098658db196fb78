import math

import numpy as np
import pytest

from hilferbvp.core import (
    GradedMesh,
    HilferProblem,
    WeightedGridFunction,
    composite_order,
    default_grading,
    derive_constants,
    to_physical,
    weighted_norm,
)
from hilferbvp.analysis import CERT_RHS_NONNEGATIVE, estimate_lipschitz, hypothesis_report
from hilferbvp.config import RhsSpec
from hilferbvp.errors import OutOfDomain, RhsEvaluationFailure, SingularProblem
from hilferbvp.fracops import QuadratureRule
from hilferbvp.solver import _rhs_samples
from hilferbvp.verify import residual_check

# Reference values computed with mpmath.gamma at 30 digits.
GAMMA_075 = 1.2254167024651776451
GAMMA_175 = 0.91906252684888323385


def const_problem(alpha=0.5, beta=0.5, lam=0.0, d=1.0, c=1.0, **kw):
    return HilferProblem(alpha=alpha, beta=beta, lam=lam, d=d,
                         rhs=lambda t, y: c, **kw)


class TestGradedMesh:
    @pytest.mark.parametrize("n,r", [(1, 1.0), (7, 1.0), (64, 2.5), (200, 4.0)])
    def test_endpoints_and_monotonicity(self, n, r):
        mesh = GradedMesh(n, r)
        assert mesh.nodes[0] == 0.0
        assert mesh.nodes[-1] == 1.0
        assert np.all(np.diff(mesh.nodes) > 0)
        assert mesh.nodes.size == n + 1

    def test_r_equal_one_is_uniform(self):
        mesh = GradedMesh(10, 1.0)
        assert np.allclose(mesh.nodes, np.linspace(0, 1, 11), atol=1e-15)

    def test_default_grading(self):
        assert default_grading(1.0) == 2.0
        assert default_grading(0.5) == 4.0
        with pytest.raises(OutOfDomain):
            default_grading(0.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            GradedMesh(0, 1.0)
        with pytest.raises(ValueError):
            GradedMesh(8, 0.5)

    def test_nodes_read_only(self):
        mesh = GradedMesh(8, 2.0)
        with pytest.raises(ValueError):
            mesh.nodes[0] = 0.5


class TestWeightedGridFunction:
    def test_shape_and_finiteness(self):
        mesh = GradedMesh(4, 1.0)
        with pytest.raises(ValueError):
            WeightedGridFunction(mesh, 0.75, np.zeros(4))
        with pytest.raises(ValueError):
            WeightedGridFunction(mesh, 0.75, [0, 1, np.nan, 0, 0])
        with pytest.raises(ValueError):
            WeightedGridFunction(mesh, 1.5, np.zeros(5))

    def test_values_copied(self):
        mesh = GradedMesh(4, 1.0)
        raw = np.ones(5)
        w = WeightedGridFunction(mesh, 1.0, raw)
        raw[0] = 99.0
        assert w.values[0] == 1.0


class TestDeriveConstants:
    def test_lambda_zero_direct_substitution(self):
        c = derive_constants(const_problem(alpha=0.5, beta=0.5, lam=0.0, d=1.0))
        assert c.gamma == 0.75
        assert c.mu == 1.0
        assert c.capital_lambda == pytest.approx(1.0 / GAMMA_075, rel=1e-15)

    def test_alpha_one_zero_offset(self):
        c = derive_constants(const_problem(alpha=1.0, beta=0.7, lam=0.0, d=0.0))
        assert c.gamma == 1.0
        assert c.mu == 1.0
        assert c.capital_lambda == 0.0

    def test_nontrivial_case_against_gamma_oracle(self):
        # mu and Lambda recomputed with mpmath at 30 digits:
        #   mu = 1 - 0.2/Gamma(1.75)          = 0.78238694957379653838
        #   Lambda = (0.2/(mu G(0.75) G(1.75)) + 1/G(0.75)) * 1
        #          = 1.0430247328931083689
        c = derive_constants(const_problem(lam=0.2, d=1.0))
        assert c.mu == pytest.approx(0.78238694957379653838, rel=1e-15)
        assert c.capital_lambda == pytest.approx(1.0430247328931083689, rel=1e-14)
        assert c.mu_positive

    def test_exact_cancellation_is_singular(self):
        gamma = composite_order(0.5, 0.5)
        lam = math.gamma(gamma + 1.0)
        with pytest.raises(SingularProblem):
            derive_constants(const_problem(lam=lam))

    def test_negative_mu_not_fatal(self):
        c = derive_constants(const_problem(alpha=0.9, beta=0.0, lam=2.0))
        assert c.mu < 0.0
        assert not c.mu_positive

    @pytest.mark.parametrize("alpha", np.linspace(0.05, 1.0, 7))
    @pytest.mark.parametrize("beta", np.linspace(0.0, 1.0, 7))
    def test_composite_order_formulas_agree(self, alpha, beta):
        via_product = alpha + beta - alpha * beta
        assert composite_order(alpha, beta) == pytest.approx(via_product, abs=1e-15)
        assert alpha <= composite_order(alpha, beta) <= 1.0 + 1e-15

    def test_lambda_zero_always_unit_mu(self):
        for alpha in np.linspace(0.1, 1.0, 5):
            for beta in np.linspace(0.0, 1.0, 5):
                c = derive_constants(const_problem(alpha=float(alpha), beta=float(beta)))
                assert c.mu == 1.0


class TestProblemValidation:
    def test_ranges(self):
        with pytest.raises(ValueError):
            const_problem(alpha=0.0)
        with pytest.raises(ValueError):
            const_problem(alpha=1.2)
        with pytest.raises(ValueError):
            const_problem(beta=-0.1)
        with pytest.raises(ValueError):
            const_problem(lam=-1.0)
        with pytest.raises(ValueError):
            const_problem(d=-0.5)

    def test_bound_ordering(self):
        with pytest.raises(ValueError):
            const_problem(lower_bound=2.0, upper_bound=1.0)
        with pytest.raises(ValueError):
            const_problem(lower_bound=0.0, upper_bound=1.0)
        p = const_problem(lower_bound=1.0, upper_bound=1.0)
        assert p.lower_bound == p.upper_bound == 1.0


class TestWeightedNorm:
    def make(self, values, gamma=0.75):
        mesh = GradedMesh(len(values) - 1, 1.0)
        return WeightedGridFunction(mesh, gamma, np.asarray(values, dtype=float))

    def test_zero_function(self):
        assert weighted_norm(self.make(np.zeros(9))) == 0.0

    def test_monotone_max_at_endpoint(self):
        mesh = GradedMesh(16, 1.0)
        w = WeightedGridFunction(mesh, 1.0, mesh.nodes)
        assert weighted_norm(w) == 1.0

    def test_weighted_constant(self):
        assert weighted_norm(self.make(np.ones(9))) == 1.0

    def test_norm_axioms_on_random_samples(self):
        rng = np.random.RandomState(3)
        for _ in range(25):
            a = rng.uniform(-2, 2, 9)
            b = rng.uniform(-2, 2, 9)
            s = rng.uniform(-3, 3)
            na = weighted_norm(self.make(a))
            nb = weighted_norm(self.make(b))
            assert weighted_norm(self.make(s * a)) == pytest.approx(abs(s) * na, rel=1e-14)
            assert weighted_norm(self.make(a + b)) <= na + nb + 1e-14
            assert (na == 0.0) == np.all(a == 0.0)


class TestToPhysical:
    def test_gamma_one_identity_weight(self):
        mesh = GradedMesh(8, 1.0)
        w = WeightedGridFunction(mesh, 1.0, np.full(9, 4.2))
        for t in (0.1, 0.55, 1.0):
            assert to_physical(w, t) == pytest.approx(4.2, rel=1e-15)

    def test_unit_weighted_function(self):
        mesh = GradedMesh(8, 2.0)
        w = WeightedGridFunction(mesh, 0.75, np.ones(9))
        assert to_physical(w, 1.0) == pytest.approx(1.0, rel=1e-15)
        # 0.0001^(gamma-1) = 0.0001^(-1/4) = 10 exactly
        assert to_physical(w, 1e-4) == pytest.approx(10.0, rel=1e-12)

    def test_domain(self):
        mesh = GradedMesh(8, 1.0)
        w = WeightedGridFunction(mesh, 0.75, np.ones(9))
        with pytest.raises(OutOfDomain):
            to_physical(w, 0.0)
        with pytest.raises(OutOfDomain):
            to_physical(w, 1.0001)


class CountingRhs:
    """Wraps an rhs and counts how often it is called."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, t, y):
        self.calls += 1
        return self.f(t, y)


class TestRhsValues:
    @pytest.mark.parametrize("spec", [
        RhsSpec("constant", c=1.5),
        RhsSpec("linear", a=0.25, b=0.25),
        RhsSpec("power", sigma=1.5),
        RhsSpec("logistic", scale=0.5),
        RhsSpec("expression", expr="exp(-t)*y/(1+y) + 0.5"),
    ], ids=lambda spec: spec.kind)
    def test_cli_rhs_is_one_array_call_per_grid(self, spec):
        f = CountingRhs(spec.build())
        p = HilferProblem(alpha=0.5, beta=0.5, lam=0.2, d=1.0, rhs=f)
        consts = derive_constants(p)
        rule = QuadratureRule(GradedMesh.graded_for(32, consts.gamma))
        w = WeightedGridFunction(rule.mesh, consts.gamma,
                                 np.linspace(1.0, 2.0, 33))
        samples = _rhs_samples(p, consts, w.values, rule.mesh)
        assert f.calls == 1
        t = rule.mesh.nodes
        y = t[1:] ** (consts.gamma - 1.0) * w.values[1:]
        expected = [f.f(float(a), float(b)) for a, b in zip(t[1:], y)]
        np.testing.assert_allclose(samples[1:], expected, rtol=1e-14)
        f.calls = 0
        residual_check(p, consts, w, rule)
        assert f.calls == 1

    def test_scalar_only_callable_falls_back_bit_for_bit(self):
        def f(t, y):
            return math.sin(t) + min(y, 2.0)
        counted = CountingRhs(f)
        p = HilferProblem(alpha=0.5, beta=0.5, lam=0.0, d=1.0, rhs=counted)
        t, y = np.meshgrid(np.linspace(0.1, 1.0, 5), np.linspace(0.0, 3.0, 7),
                           indexing="ij")
        values = p.rhs_values(t, y)
        expected = np.array([[f(float(a), float(b)) for a, b in zip(ta, ya)]
                             for ta, ya in zip(t, y)])
        assert values.shape == (5, 7)
        assert np.array_equal(values, expected)
        assert counted.calls == 1 + t.size      # one failed array call, then per point

    def test_scalar_result_broadcasts(self):
        f = CountingRhs(lambda t, y: 2.5)
        p = HilferProblem(alpha=0.5, beta=0.5, lam=0.0, d=1.0, rhs=f)
        values = p.rhs_values(np.linspace(0.1, 1.0, 4)[:, None], np.zeros(3))
        assert values.shape == (4, 3)
        assert np.all(values == 2.5)
        assert f.calls == 1
        assert p.rhs_values(0.5, 1.0).shape == ()

    def test_raising_callable_fails_lipschitz_and_nonnegativity(self):
        def boom(t, y):
            raise RuntimeError("boom")
        p = HilferProblem(alpha=0.5, beta=0.5, lam=0.0, d=1.0, rhs=boom)
        with pytest.raises(RhsEvaluationFailure):
            estimate_lipschitz(p, 4, 4, (0.0, 1.0))
        cert = hypothesis_report(p)[0]
        assert cert.name == CERT_RHS_NONNEGATIVE
        assert not cert.holds
        assert math.isnan(cert.value)
