import ast
import math
from pathlib import Path

import numpy as np
import pytest

from hilferbvp import core
from hilferbvp.core import (
    GradedMesh,
    HilferProblem,
    WeightedGridFunction,
    composite_order,
    default_grading,
    derive_constants,
    rhs_samples,
)
from hilferbvp.analysis import CERT_RHS_NONNEGATIVE, hypothesis_report
from hilferbvp.config import RhsSpec
from hilferbvp.errors import ConfigError, DegenerateMesh, MeshTooLarge, OutOfDomain, SingularProblem
from hilferbvp.fracops import QuadratureRule
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

    def test_nodes_beyond_physical_memory_rejected(self, monkeypatch):
        # The threshold is the 8 (n+1) bytes of the nodes, checked before
        # they are allocated; without a memory figure there is no check.
        monkeypatch.setattr(core, "_physical_memory", lambda: 8 * 17)
        assert GradedMesh(16, 2.0).nodes.size == 17
        with pytest.raises(MeshTooLarge, match="physical memory"):
            GradedMesh(17, 2.0)
        monkeypatch.setattr(core, "_physical_memory", lambda: None)
        assert GradedMesh(17, 2.0).nodes.size == 18

    @pytest.mark.parametrize("n, r, first", [
        (4096, 100.0, 0),         # t_1 underflows to 0
        (257, 130.0, 0),          # t_1 = 4e-314 is subnormal
        (70000, 75.0, 0),         # longer than one chunk of the check
    ])
    def test_steep_mesh_rejected(self, n, r, first):
        # Every width must be at least the smallest normal double; the error
        # is a ConfigError that names n, r and the first narrow pair.
        with pytest.raises(DegenerateMesh) as info:
            GradedMesh(n, r)
        assert isinstance(info.value, ConfigError)
        message = str(info.value)
        assert f"n = {n}, r = {r:g}" in message
        assert f"t_{first} = " in message and f"t_{first + 1} = " in message

    @pytest.mark.parametrize("n, r", [(257, 100.0), (100000, 40.0), (4, 500.0)])
    def test_steep_but_resolved_mesh_accepted(self, n, r):
        nodes = GradedMesh(n, r).nodes
        assert np.all(np.diff(nodes) >= np.finfo(float).tiny)

    @pytest.mark.parametrize("r", [1.0, 2.0, 8.0 / 3.0, 40.0])
    @pytest.mark.parametrize("n", [7, 4097, 100000])
    def test_nodes_built_in_place_keep_their_bits(self, n, r):
        # The nodes are built in one array, in place; they are the bits of
        # the out-of-place (j/n)^r.
        expected = (np.arange(n + 1) / n) ** r
        assert GradedMesh(n, r).nodes.tobytes() == expected.tobytes()


def test_core_imports_only_errors():
    # The memory guard and its figure live in core, the lowest module that
    # allocates, so that no module it imports can own them.  Imports inside
    # functions count too.
    imported = set()
    for node in ast.walk(ast.parse(Path(core.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            base = "hilferbvp." * (node.level > 0) + (node.module or "")
            imported.update([base] if node.module else
                            [base + alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {m for m in imported if m.split(".")[0] == "hilferbvp"} == {"hilferbvp.errors"}


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
        assert c.mu > 0.0

    def test_exact_cancellation_is_singular(self):
        gamma = composite_order(0.5, 0.5)
        lam = math.gamma(gamma + 1.0)
        with pytest.raises(SingularProblem):
            derive_constants(const_problem(lam=lam))

    def test_negative_mu_not_fatal(self):
        c = derive_constants(const_problem(alpha=0.9, beta=0.0, lam=2.0))
        assert c.mu < 0.0
        assert not c.mu > 0.0

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
        samples = rhs_samples((p,), w.values[None], rule.mesh)[0]
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

    def test_raising_callable_fails_nonnegativity(self):
        def boom(t, y):
            raise RuntimeError("boom")
        p = HilferProblem(alpha=0.5, beta=0.5, lam=0.0, d=1.0, rhs=boom)
        cert = hypothesis_report(p)[0]
        assert cert.name == CERT_RHS_NONNEGATIVE
        assert not cert.holds
        assert math.isnan(cert.value)
