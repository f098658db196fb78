import math
import subprocess
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from helpers import child_env, clear_table_store, smooth_profile
from hilferbvp import core, fracops
from hilferbvp.core import GradedMesh, WeightedGridFunction
from hilferbvp.errors import InsufficientNodes, MeshMismatch, MeshTooLarge, OutOfDomain
from hilferbvp.fracops import (
    QuadratureRule,
    boundary_kernel_weights,
    differentiate,
    hilfer_derivative,
    physical_integral,
    rl_derivative,
    rl_integral,
)


def make_rule(n, r=2.0):
    return QuadratureRule(GradedMesh(n, r))


class TestRlIntegral:
    def test_zero_input(self):
        rule = make_rule(16)
        out = rl_integral(0.5, np.zeros(17), rule)
        assert np.all(out == 0.0)

    def test_order_one_constant_exact(self):
        rule = make_rule(16)
        t = rule.mesh.nodes
        out = rl_integral(1.0, np.full(17, 3.0), rule)
        assert np.max(np.abs(out - 3.0 * t)) < 1e-14

    def test_power_rule_value(self):
        # I^0.5 applied to s^0.5 at t = 1 equals Gamma(1.5)/Gamma(2)
        # = 0.88622692545275801365 (mpmath, 30 digits).
        rule = make_rule(512, r=4.0)
        t = rule.mesh.nodes
        out = rl_integral(0.5, t ** 0.5, rule)
        assert out[-1] == pytest.approx(0.88622692545275801365, abs=5e-6)

    def test_exact_for_piecewise_linear_against_quad(self):
        # Independent oracle: adaptive quadrature of the weakly singular
        # kernel against the same piecewise-linear reconstruction.
        rule = make_rule(8)
        t = rule.mesh.nodes
        g = smooth_profile(t)
        out = rl_integral(0.6, g, rule)
        for i in (3, 5, 8):
            oracle, _ = quad(lambda s: np.interp(s, t, g), 0.0, t[i],
                             weight="alg", wvar=(0.0, -0.4), limit=200)
            oracle /= math.gamma(0.6)
            assert out[i] == pytest.approx(oracle, abs=5e-9)

    def test_mesh_mismatch(self):
        rule = make_rule(16)
        with pytest.raises(MeshMismatch):
            rl_integral(0.5, np.zeros(16), rule)

    def test_order_domain(self):
        rule = make_rule(16)
        with pytest.raises(OutOfDomain):
            rl_integral(0.0, np.zeros(17), rule)

    @pytest.mark.parametrize("n", [16, 64, 65, 1024, 4096])
    def test_stacked_rows_equal_one_row_calls(self, n):
        # A stack of m sample rows is one apply for all of them; each row
        # must come out as its own call, bit for bit, across block edges
        # (n = 64, 65), at SOE, integer and composite orders.
        rule = make_rule(n, r=8.0 / 3.0)
        t = rule.mesh.nodes
        rng = np.random.default_rng(n)
        rows = np.vstack([smooth_profile(t), np.sin(7.0 * t) - t ** 0.3,
                          rng.uniform(-1.0, 3.0, (14, n + 1))])
        for order in (0.25, 0.5, 1.0, 1.2):
            for m in (1, 2, 7, 16):
                stacked = rl_integral(order, rows[:m], rule)
                assert stacked.shape == (m, n + 1)
                for row, g in zip(stacked, rows[:m]):
                    assert np.array_equal(row, rl_integral(order, g, rule)), (order, m)

    def test_stacked_shape_checks(self):
        rule = make_rule(16)
        with pytest.raises(MeshMismatch):
            rl_integral(0.5, np.zeros((3, 16)), rule)
        with pytest.raises(MeshMismatch):
            rl_integral(0.5, np.zeros((2, 3, 17)), rule)
        with pytest.raises(MeshMismatch):
            rl_integral(0.5, 1.0, rule)
        # The derivatives take a row or a stack of rows, as rl_integral.
        for bad in (np.zeros((2, 3, 17)), np.zeros((3, 16))):
            with pytest.raises(MeshMismatch):
                differentiate(bad, rule.mesh)
            with pytest.raises(MeshMismatch):
                hilfer_derivative(0.5, 0.5, bad, rule)

    def test_weights_nonnegative(self):
        # Positivity preservation of the cone hinges on this: every table of
        # the SOE operator rl_integral applies is >= 0 (n = 200 spans four
        # blocks): this order's tables and weights and the shared tables of
        # the mesh.  Order 1 maps g >= 0 to a nondecreasing function.
        mesh = GradedMesh(200, 2.5)
        for order in (0.3, 0.5):
            op = fracops._soe_operator(mesh.nodes, order)
            assert op.decay.shape[0] == 3 and op.gather.shape[1] > 0
            assert op.modes.x.size > 0 and op.weights.size == op.modes.x.size
            assert len(op.near) == 4 and len(op.modes.gather) == len(op.modes.spread) >= 1
            for table in op.tables() + op.modes.tables():
                assert np.all(table >= 0.0)
        g = np.random.default_rng(200).random(201)
        g[::7] = 0.0
        out = rl_integral(1.0, g, QuadratureRule(mesh))
        assert np.all(np.diff(out) >= 0.0)

    def test_power_rule_convergence_order(self):
        # Error against Gamma(sigma)/Gamma(alpha+sigma) t^(alpha+sigma-1)
        # should at least halve twice when n doubles on an r >= 2/sigma mesh.
        alpha, sigma = 0.5, 1.5
        errs = []
        for n in (128, 256, 512):
            rule = make_rule(n, r=2.0)
            t = rule.mesh.nodes
            out = rl_integral(alpha, t ** (sigma - 1.0), rule)
            exact = math.gamma(sigma) / math.gamma(alpha + sigma) * t ** (alpha + sigma - 1.0)
            errs.append(np.max(np.abs(out - exact)))
        assert errs[1] <= errs[0] / 4.0 * 1.2
        assert errs[2] <= errs[1] / 4.0 * 1.2


class TestDifferentiate:
    def test_exact_for_quadratics(self):
        mesh = GradedMesh(32, 2.0)
        t = mesh.nodes
        out = differentiate(1.0 + 2.0 * t + 3.0 * t ** 2, mesh)
        assert np.max(np.abs(out - (2.0 + 6.0 * t))) < 1e-12

    def test_matches_cosine_derivative(self):
        mesh = GradedMesh(256, 1.0)
        t = mesh.nodes
        out = differentiate(np.sin(3.0 * t), mesh)
        assert np.max(np.abs(out - 3.0 * np.cos(3.0 * t))) < 5e-4

    @pytest.mark.parametrize("n", [10 ** 5, 10 ** 6])
    def test_no_cancellation_at_large_n(self, n):
        # On r = 8/3 the widths change their float exponent at t = 0.25 and
        # 0.5; a middle weight formed as a sum of nodes misses the others'
        # sum by rounding there, times |v|/h^2 (6.6e-8 at n = 10^5 and
        # 2.8e-6 at 10^6).  Weights on differences leave the truncation
        # error only.
        mesh = GradedMesh(n, 8.0 / 3.0)
        t = mesh.nodes
        out = differentiate(t ** 1.5, mesh)
        away = t >= 0.05
        assert np.max(np.abs(out[away] - 1.5 * t[away] ** 0.5)) <= 1e-9

    def test_steep_mesh_without_warning(self):
        # r = 40, n = 10^5: t_1 = 1e-200, so a product of two widths
        # underflows to 0; ratios of widths stay finite.
        mesh = GradedMesh(10 ** 5, 40.0)
        t = mesh.nodes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = differentiate(t ** 1.5, mesh)
        assert np.all(np.isfinite(out))
        away = t >= 0.05
        assert np.max(np.abs(out[away] - 1.5 * t[away] ** 0.5)) <= 1e-6

    def test_stacked_rows_match_one_row_calls(self):
        # differentiate and hilfer_derivative take a stack of rows, each bit
        # for bit its one-row call, as rl_integral.
        rule = make_rule(300, r=8.0 / 3.0)
        t = rule.mesh.nodes
        rows = np.stack([smooth_profile(t), t ** 1.5, np.sin(5.0 * t)])
        for m in (1, 3):
            plain = differentiate(rows[:m], rule.mesh)
            assert plain.shape == (m, 301)
            for k, g in enumerate(rows[:m]):
                assert np.array_equal(plain[k], differentiate(g, rule.mesh))
            for alpha, beta in ((0.5, 0.0), (0.5, 0.5), (0.3, 0.8), (0.7, 1.0),
                                (1.0, 0.0), (1.0, 0.5)):
                stacked = hilfer_derivative(alpha, beta, rows[:m], rule)
                assert stacked.shape == (m, 301)
                for k, g in enumerate(rows[:m]):
                    one = hilfer_derivative(alpha, beta, g, rule)
                    assert np.array_equal(stacked[k], one), (alpha, beta, m)


class TestRlDerivative:
    def test_zero_input(self):
        rule = make_rule(16)
        assert np.all(rl_derivative(0.5, np.zeros(17), rule) == 0.0)

    def test_annihilates_its_own_power(self):
        # D^a t^(a-1) = 0; the discrete operator reproduces this away from
        # the origin with the explicitly calibrated constants below.
        for alpha, cal in ((0.5, 2.0), (0.75, 0.5)):
            for n in (256, 1024):
                rule = make_rule(n, r=max(1.0, 2.0 / alpha))
                t = rule.mesh.nodes
                g = np.empty_like(t)
                g[1:] = t[1:] ** (alpha - 1.0)
                g[0] = g[1]
                out = rl_derivative(alpha, g, rule)
                inside = (t >= 0.05) & (t < 1.0)
                assert np.max(np.abs(out[inside])) <= cal / n

    def test_derivative_of_identity(self):
        # D^0.5 t = t^0.5 * Gamma(2)/Gamma(1.5); the coefficient equals
        # 2/sqrt(pi) = 1.1283791670955125739 (mpmath).
        rule = make_rule(512, r=3.0)
        t = rule.mesh.nodes
        out = rl_derivative(0.5, t.copy(), rule)
        exact = 1.1283791670955125739 * t ** 0.5
        inside = t >= 0.01
        assert np.max(np.abs(out[inside] - exact[inside])) < 1e-5

    def test_recovers_after_integral(self):
        rule = make_rule(512, r=2.0)
        t = rule.mesh.nodes
        g = smooth_profile(t)
        rec = rl_derivative(0.4, rl_integral(0.4, g, rule), rule)
        inside = (t >= 0.01) & (t < 1.0)
        assert np.max(np.abs(rec[inside] - g[inside])) < 1e-4

    def test_order_and_node_guards(self):
        rule = make_rule(16)
        with pytest.raises(OutOfDomain):
            rl_derivative(1.0, np.zeros(17), rule)
        small = make_rule(3)
        with pytest.raises(InsufficientNodes):
            rl_derivative(0.5, np.zeros(4), small)


class TestCaputoDerivative:
    """The Caputo derivative is the Hilfer derivative of type beta = 1."""

    def test_constant_annihilated(self):
        rule = make_rule(64)
        out = hilfer_derivative(0.5, 1.0, np.full(65, 2.0), rule)
        assert np.max(np.abs(out)) < 1e-12

    def test_identity_power_rule(self):
        # Caputo of t at order 0.5: t^0.5/Gamma(1.5), coefficient
        # 1.1283791670955125739 (mpmath).
        rule = make_rule(128)
        t = rule.mesh.nodes
        out = hilfer_derivative(0.5, 1.0, t.copy(), rule)
        assert np.max(np.abs(out - 1.1283791670955125739 * t ** 0.5)) < 1e-10

    def test_quadratic_power_rule(self):
        # Caputo of t^2 at order 0.5: 2 t^1.5/Gamma(2.5), coefficient
        # 1.5045055561273500985 (mpmath).
        rule = make_rule(512, r=2.0)
        t = rule.mesh.nodes
        out = hilfer_derivative(0.5, 1.0, t ** 2, rule)
        exact = 1.5045055561273500985 * t ** 1.5
        assert np.max(np.abs(out - exact)) < 2e-5

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_is_integral_of_nodal_derivative(self, alpha):
        # I^(1-alpha) g' byte for byte, on one block and past it.
        for n in (64, 1024):
            rule = make_rule(n)
            g = np.sin(3.0 * rule.mesh.nodes)
            caputo = rl_integral(1.0 - alpha, differentiate(g, rule.mesh), rule)
            assert np.array_equal(hilfer_derivative(alpha, 1.0, g, rule), caputo)


class TestHilferDerivative:
    def test_beta_zero_matches_riemann_liouville(self):
        rule = make_rule(128)
        g = smooth_profile(rule.mesh.nodes)
        left = hilfer_derivative(0.6, 0.0, g, rule)
        right = rl_derivative(0.6, g, rule)
        assert np.array_equal(left, right)

    def test_beta_one_constant_annihilated(self):
        rule = make_rule(64)
        out = hilfer_derivative(0.5, 1.0, np.full(65, 3.0), rule)
        assert np.max(np.abs(out)) < 1e-12

    def test_composite_order_annihilation(self):
        # The inner derivative stage at composite order gamma kills
        # t^(gamma-1); calibrated like the plain annihilation test.
        alpha, beta = 0.5, 0.5
        gamma = alpha + beta * (1.0 - alpha)
        for n in (256, 1024):
            rule = make_rule(n, r=max(1.0, 2.0 / gamma))
            t = rule.mesh.nodes
            g = np.empty_like(t)
            g[1:] = t[1:] ** (gamma - 1.0)
            g[0] = g[1]
            out = rl_derivative(gamma, g, rule)
            inside = (t >= 0.05) & (t < 1.0)
            assert np.max(np.abs(out[inside])) <= 0.5 / n

    def test_alpha_one_is_plain_derivative(self):
        rule = make_rule(64)
        t = rule.mesh.nodes
        out = hilfer_derivative(1.0, 0.3, t ** 2, rule)
        assert np.max(np.abs(out - 2.0 * t)) < 1e-12

    def test_parameter_domain(self):
        rule = make_rule(16)
        with pytest.raises(OutOfDomain):
            hilfer_derivative(0.0, 0.5, np.zeros(17), rule)
        with pytest.raises(OutOfDomain):
            hilfer_derivative(0.5, 1.2, np.zeros(17), rule)


class TestOperatorIdentities:
    @pytest.mark.parametrize("a,b", [(0.3, 0.5), (0.5, 0.7), (0.3, 0.3)])
    def test_semigroup(self, a, b):
        errs = []
        for n in (512, 1024):
            rule = make_rule(n, r=max(1.0, 2.0 / min(a, b)))
            g = smooth_profile(rule.mesh.nodes)
            lhs = rl_integral(a, rl_integral(b, g, rule), rule)
            rhs = rl_integral(a + b, g, rule)
            errs.append(np.max(np.abs(lhs - rhs)))
        assert errs[-1] < 1e-4
        assert errs[1] <= errs[0] / 2.0 * 1.1     # halving order >= 1

    @pytest.mark.parametrize("a,b,tol", [(0.5, 0.5, 1e-2), (0.3, 0.6, 4e-4)])
    def test_composition_identity(self, a, b, tol):
        # I^gamma D^gamma g agrees with I^alpha D^(alpha,beta) g away from
        # the origin cusp; tolerances calibrated per parameter pair.
        gamma = a + b * (1.0 - a)
        rule = make_rule(1024, r=2.0)
        t = rule.mesh.nodes
        g = smooth_profile(t)
        lhs = rl_integral(gamma, rl_derivative(gamma, g, rule), rule)
        rhs = rl_integral(a, hilfer_derivative(a, b, g, rule), rule)
        inside = t >= 0.05
        assert np.max(np.abs(lhs[inside] - rhs[inside])) < tol

    def test_vanishing_limit_at_first_node(self):
        values = []
        for n in (16, 64, 256, 1024):
            rule = make_rule(n, r=2.0)
            g = smooth_profile(rule.mesh.nodes)
            values.append(abs(rl_integral(0.5, g, rule)[1]))
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 5e-3

    def test_kernel_ratio_below_e_on_grid(self):
        taus = np.linspace(0.0, 1.0, 100)
        alphas = np.linspace(0.01, 1.0, 100)
        for alpha in alphas:
            ratios = [(1.0 - tau) ** alpha / (alpha * math.gamma(alpha)) for tau in taus]
            assert max(ratios) < math.e


class TestEndpointKernels:
    def test_boundary_weights_against_quad(self):
        rule = make_rule(8)
        t = rule.mesh.nodes
        g = smooth_profile(t)
        ours = float(boundary_kernel_weights(0.5, rule.mesh) @ g)
        oracle, _ = quad(lambda s: np.interp(s, t, g), 0.0, 1.0,
                         weight="alg", wvar=(0.0, 0.5), limit=200)
        oracle /= math.gamma(1.5)
        assert ours == pytest.approx(oracle, abs=1e-12)

    def test_boundary_weights_constant_exact(self):
        # integral of Q/Gamma(alpha) over [0,1] is 1/Gamma(alpha+2); both
        # sides evaluated from the same gamma routine, so the rule must be
        # exact to roundoff.  Cross-checked against adaptive quadrature too.
        for alpha in (0.3, 0.5, 0.9):
            mesh = GradedMesh(64, 3.0)
            ours = float(boundary_kernel_weights(alpha, mesh) @ np.ones(65))
            assert ours == pytest.approx(1.0 / math.gamma(alpha + 2.0), rel=1e-13)
            oracle, _ = quad(lambda s: (1.0 - s) ** alpha / alpha, 0.0, 1.0)
            assert ours == pytest.approx(oracle / math.gamma(alpha), rel=1e-10)

    def test_boundary_weights_on_nodes_where_one_minus_t_rounds(self):
        # gamma = 0.287 grades n = 4096 with r = 6.97: t_1 = 6.8e-26, and
        # 1 - t rounds to 1 up to node 19.  Each weight integrates (1-s)^p
        # against the hat of node j; with s = a + h v on an interval
        # [a, a + h] that is h (1-a)^p times a 2F1 in x = h/(1-a).
        p = 0.274
        t = GradedMesh(4096, 2.0 / 0.287068).nodes
        ours = fracops._pl_kernel_weights(t, p, "right")
        assert np.sum(1.0 - t == 1.0) == 20
        with mpmath.workdps(40):
            q = mpmath.mpf(p)

            def hat(j, side):
                a = mpmath.mpf(t[j])
                h = mpmath.mpf(t[j + 1]) - a
                x = h / (1 - a)
                rising = mpmath.hyp2f1(-q, 2, 3, x) / 2
                return h * (1 - a) ** q * (rising if side else
                                           mpmath.hyp2f1(-q, 1, 2, x) - rising)

            for j in range(1, 401):
                exact = hat(j - 1, True) + hat(j, False)
                assert abs(ours[j] - exact) <= 1e-15 * exact, j

    def test_physical_integral_against_quad(self):
        mesh = GradedMesh(8, 2.0)
        t = mesh.nodes
        w = WeightedGridFunction(mesh, 0.75, smooth_profile(t))
        ours = physical_integral(w)
        oracle, _ = quad(lambda s: np.interp(s, t, w.values), 0.0, 1.0,
                         weight="alg", wvar=(-0.25, 0.0), limit=200)
        assert ours == pytest.approx(oracle, abs=1e-12)

    def test_physical_integral_gamma_one_is_trapezoid(self):
        mesh = GradedMesh(16, 1.0)
        w = WeightedGridFunction(mesh, 1.0, mesh.nodes.copy())
        assert physical_integral(w) == pytest.approx(0.5, rel=1e-14)


# Unblocked full-square assembly, kept verbatim as the reference the blocked
# lower-triangle assembly must reproduce bit for bit.
def _ref_hat_moments(p, ua, ub, width=None):
    p1, p2 = p + 1.0, p + 2.0
    m0 = (ua ** p1 - ub ** p1) / p1
    m1 = (ua ** p2 - ub ** p2) / p2
    lo = m1 - ub * m0
    hi = ua * m0 - m1
    if width is None:
        width = ua - ub
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(ua > 0.0, width / ua, 0.0)
    far = (ub > 0.0) & (x < 1e-2)
    if np.any(far):
        xf = x[far]
        term = np.ones_like(xf)
        s_lo = np.full_like(xf, 0.5)
        s_hi = np.full_like(xf, 0.5)
        for k in range(1, 8):
            term *= -xf * (p - k + 1.0) / k
            s_lo += term / ((k + 1.0) * (k + 2.0))
            s_hi += term / (k + 2.0)
        base = ua[far] ** p * width[far] ** 2
        lo[far] = base * s_lo
        hi[far] = base * s_hi
    return lo, hi


def _ref_convolution_matrix(t, order):
    n = t.size - 1
    h = t[1:] - t[:-1]
    ua = np.maximum(t[:, None] - t[None, :-1], 0.0)
    ub = np.maximum(t[:, None] - t[None, 1:], 0.0)
    w = np.zeros((n + 1, n + 1))
    lo, hi = _ref_hat_moments(order - 1.0, ua, ub)
    w[:, :-1] += lo / h
    w[:, 1:] += hi / h
    w /= math.gamma(order)
    return w


# Chunk-by-chunk and block-by-block SOE table builders, kept verbatim (with
# the exponential helpers they called) as the reference the grouped
# builders must reproduce bit for bit.
def _ref_soe_exp(z):
    flush = z > fracops._SOE_FLUSH
    e = np.exp(-np.minimum(z, fracops._SOE_FLUSH))
    e[flush] = 0.0
    return e


def _ref_exp_hat_moments(z):
    em = np.expm1(-z)
    with np.errstate(divide="ignore", invalid="ignore"):
        zz = z * z
        right = (z + em) / zz
        left = -(em + z * _ref_soe_exp(z)) / zz
    small = z < fracops._EXP_SERIES_Z
    zs = -z[small]
    s_left = np.zeros(zs.shape)
    s_right = np.zeros(zs.shape)
    for m in range(fracops._EXP_SERIES_TERMS - 1, -1, -1):
        inv = 1.0 / math.factorial(m + 2)
        s_left *= zs
        s_left += (m + 1) * inv
        s_right *= zs
        s_right += inv
    left[small] = s_left
    right[small] = s_right
    return left, right


def _ref_history_tables(t, x, c0=0, c1=None):
    n = t.size - 1
    b = fracops._SOE_BLOCK
    if c1 is None:
        c1 = -(-(n + 1) // b) - 1
    gather = np.zeros((c1 - c0, b + 1, x.size))
    spread = np.zeros((c1 - c0, b, x.size))
    for c in range(c0, c1):
        r0 = (c + 1) * b
        r1 = min(r0 + b, n + 1)
        ref = t[r0 - 1]
        j0 = max(r0 - b - 1, 0)
        width = (t[j0 + 1:r0] - t[j0:r0 - 1])[:, None]
        lift = _ref_soe_exp((ref - t[j0 + 1:r0])[:, None] * x) * width
        left, right = _ref_exp_hat_moments(width * x)
        off = j0 - (r0 - b - 1)
        g = gather[c - c0]
        g[off:b] += lift * left
        g[off + 1:b + 1] += lift * right
        g[g < np.finfo(float).tiny] = 0.0
        spread[c - c0, :r1 - r0] = _ref_soe_exp((t[r0:r1] - ref)[:, None] * x)
    return gather, spread


def _ref_fill_block(block, t, r0, c0, order):
    r1 = r0 + block.shape[0]
    dist = np.maximum(t[r0:r1, None] - t[None, c0:r1], 0.0)
    ua, ub = dist[:, :-1], dist[:, 1:]
    hb = t[c0 + 1:r1] - t[c0:r1 - 1]
    lo, hi = _ref_hat_moments(order - 1.0, ua, ub)
    lo /= hb
    hi /= hb
    block[:, :-1] += lo
    block[:, 1:] += hi
    block /= math.gamma(order)


def _ref_soe_order_tables(t, order):
    """The near field and the Gauss-mode gather and spread of _SoeOperator."""
    n = t.size - 1
    b = fracops._SOE_BLOCK
    blocks = -(-(n + 1) // b)
    near = tuple(np.zeros((blocks, fracops._SOE_ROWS, width))
                 for width in fracops._SOE_NEAR_WIDTHS)
    block = np.empty((b, b + 1))
    for blk in range(blocks):
        r0 = blk * b
        r1 = min(r0 + b, n + 1)
        c0 = max(r0 - 1, 0)
        block.fill(0.0)
        _ref_fill_block(block[:r1 - r0, c0 - r0 + 1:r1 - r0 + 1], t, r0, c0, order)
        for i, table in enumerate(near):
            table[blk] = block[i * fracops._SOE_ROWS:(i + 1) * fracops._SOE_ROWS,
                               :table.shape[2]]
    delta = fracops._history_delta(t)
    x, w = ((np.zeros(0), np.zeros(0)) if delta is None
            else fracops._soe_nodes(1.0 - order, delta))
    gauss = min(x.size, fracops._SOE_GAUSS_NODES)
    gather, spread = _ref_history_tables(t, x[:gauss])
    w = w / math.gamma(order)
    spread *= w[:gauss]
    gather = np.ascontiguousarray(gather.transpose(0, 2, 1))
    return near, gather, spread


_SMALL_BLOCK = 16


class TestBlockedAssembly:
    """The row-block lower-triangle assembly against the full-square one."""

    @staticmethod
    def _assert_bit_equal(n):
        for r in (1.0, 2.5, 4.0):
            t = GradedMesh(n, r).nodes
            for order in (0.25, 0.5, 1.0, 1.7):
                ours = fracops._convolution_matrix(t, order)
                ref = _ref_convolution_matrix(t, order)
                assert ours.tobytes() == ref.tobytes(), (r, order)

    @pytest.mark.parametrize("n", [1, 2, 3, 1000])
    def test_bit_equal_at_default_budget(self, n):
        self._assert_bit_equal(n)

    @pytest.mark.parametrize("n", [_SMALL_BLOCK - 1, _SMALL_BLOCK, _SMALL_BLOCK + 1,
                                   2 * _SMALL_BLOCK + 3])
    def test_bit_equal_around_block_edges(self, n, monkeypatch):
        # Shrink the budget so that the block height at this n is
        # _SMALL_BLOCK and the row count straddles block boundaries.
        monkeypatch.setattr(fracops, "_BLOCK_ENTRIES", _SMALL_BLOCK * (n + 1))
        assert fracops._block_rows(n) == _SMALL_BLOCK
        self._assert_bit_equal(n)

    def test_default_budget_splits_n_1000(self):
        assert fracops._block_rows(1000) < 1001

    def test_kernel_weights_bit_equal(self):
        for r in (1.0, 2.5, 4.0):
            t = GradedMesh(200, r).nodes
            h = t[1:] - t[:-1]
            for p in (-0.75, -0.25, 0.0, 0.7):
                lo, hi = _ref_hat_moments(p, t[1:], t[:-1])
                left = np.zeros(t.size)
                left[:-1] += hi / h
                left[1:] += lo / h
                # The right side's far-field series takes the widths h, not
                # (1 - t_j) - (1 - t_{j+1}), which rounds to 0 below 1e-16.
                lo, hi = _ref_hat_moments(p, 1.0 - t[:-1], 1.0 - t[1:], h)
                right = np.zeros(t.size)
                right[:-1] += lo / h
                right[1:] += hi / h
                assert fracops._pl_kernel_weights(t, p, "left").tobytes() == left.tobytes()
                assert fracops._pl_kernel_weights(t, p, "right").tobytes() == right.tobytes()

    def test_assembly_peak_memory_near_output_size(self):
        # The full-square assembly peaked near 12x the output; blocked
        # scratch is O(_BLOCK_ENTRIES).
        n = 2048
        t = GradedMesh(n, 8.0 / 3.0).nodes
        tracemalloc.start()
        try:
            fracops._convolution_matrix(t, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * (n + 1) ** 2


class TestOperatorCacheHooks:
    """The dense-matrix cache reaches _convolution_matrix through the module
    global, so a wrapper installed there sees every assembly (the benchmark
    tracer does this).  rl_integral no longer uses this cache, so it is
    driven directly."""

    def test_assembles_once_per_miss(self, monkeypatch):
        calls = []
        assemble = fracops._convolution_matrix

        def counting(*args):
            calls.append(args)
            return assemble(*args)

        monkeypatch.setattr(fracops, "_convolution_matrix", counting)
        fracops._cached_convolution_matrix.cache_clear()
        try:
            first = fracops._cached_convolution_matrix(24, 1.5, 0.4)
            assert len(calls) == 1
            second = fracops._cached_convolution_matrix(24, 1.5, 0.4)
            assert len(calls) == 1
            assert np.array_equal(first, second)
            expected = assemble(GradedMesh(24, 1.5).nodes, 0.4)
            assert first.tobytes() == expected.tobytes()
            info = fracops._cached_convolution_matrix.cache_info()
            assert (info.hits, info.misses) == (1, 1)
        finally:
            fracops._cached_convolution_matrix.cache_clear()


def _clear_operator_caches():
    """Empty the operator caches and the table store: the next SOE operator
    is built, as in a process on a fresh store."""
    fracops._cached_convolution_matrix.cache_clear()
    fracops._cached_soe_operator.cache_clear()
    clear_table_store()


def _operator_cache_sizes():
    """Entries of the dense-matrix cache, the SOE operator cache and the
    shared SOE tables of each mesh."""
    return (fracops._cached_convolution_matrix.cache_info().currsize,
            fracops._cached_soe_operator.cache_info().currsize,
            len(fracops._soe_mesh_modes))


def _built_nbytes(n, r, order):
    """Bytes of the SOE tables of I^order on GradedMesh(n, r), from a build
    that is then dropped from the cache: those of the order itself, and
    those that every order on the mesh shares."""
    _clear_operator_caches()
    try:
        op = fracops._cached_soe_operator(n, r, order)
        return op.nbytes, op.modes.nbytes
    finally:
        _clear_operator_caches()


class TestMeshTooLarge:
    def test_soe_rejected_before_allocation(self, monkeypatch):
        # At n = 10^6 and r = 8 the SOE tables, in several tiers, would take
        # about 1.7 GB.  The 8 MB of nodes fit in 16 MiB; the tables are
        # rejected before any of them is allocated: the call's traced peak
        # stays below the 16 MiB, and no cache keeps an entry.
        n, r = 10 ** 6, 8.0
        monkeypatch.setattr(core, "_physical_memory", lambda: 2 ** 24)
        rule = make_rule(n, r=r)
        assert len(fracops._soe_tiers(rule.mesh.nodes)) > 1
        g = np.zeros(n + 1)
        _clear_operator_caches()
        tracemalloc.start()
        try:
            with pytest.raises(MeshTooLarge, match="sum-of-exponentials"):
                rl_integral(0.5, g, rule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 24
        assert _operator_cache_sizes() == (0, 0, 0)

    def test_soe_rejected_when_only_the_nodes_fit(self, monkeypatch):
        # The 8 MB of nodes at n = 10^6 fit in 16 MiB and the mesh is built;
        # the SOE tables do not, and are rejected before they are built.
        n, r = 10 ** 6, 2.0
        monkeypatch.setattr(core, "_physical_memory", lambda: 2 ** 24)
        rule = make_rule(n, r=r)
        _clear_operator_caches()
        with pytest.raises(MeshTooLarge, match="sum-of-exponentials"):
            rl_integral(0.5, np.zeros(n + 1), rule)
        assert _operator_cache_sizes() == (0, 0, 0)

    def test_soe_threshold_is_table_size(self, monkeypatch):
        # The first order on a mesh builds its own tables and the shared
        # ones, and needs the bytes of both.
        n, r = 1025, 2.0
        own, shared = _built_nbytes(n, r, 0.5)
        need = own + shared
        assert need < 8 * (n + 1) ** 2 // 4
        monkeypatch.setattr(core, "_physical_memory", lambda: need)
        _clear_operator_caches()
        try:
            rl_integral(0.5, np.zeros(n + 1), make_rule(n, r=r))
            assert _operator_cache_sizes() == (0, 1, 1)
            _clear_operator_caches()
            # One more block of nodes needs more bytes.
            m = n + fracops._SOE_BLOCK
            with pytest.raises(MeshTooLarge):
                rl_integral(0.5, np.zeros(m + 1), make_rule(m, r=r))
            monkeypatch.setattr(core, "_physical_memory", lambda: need - 1)
            with pytest.raises(MeshTooLarge):
                rl_integral(0.5, np.zeros(n + 1), make_rule(n, r=r))
            assert _operator_cache_sizes() == (0, 0, 0)
        finally:
            _clear_operator_caches()

    def test_later_order_needs_only_its_own_tables(self, monkeypatch):
        n, r = 1025, 2.0
        own, shared = _built_nbytes(n, r, 0.25)
        assert own < shared
        _clear_operator_caches()
        try:
            rl_integral(0.5, np.zeros(n + 1), make_rule(n, r=r))
            monkeypatch.setattr(core, "_physical_memory", lambda: own - 1)
            with pytest.raises(MeshTooLarge):
                rl_integral(0.25, np.zeros(n + 1), make_rule(n, r=r))
            assert _operator_cache_sizes() == (0, 1, 1)
            monkeypatch.setattr(core, "_physical_memory", lambda: own)
            rl_integral(0.25, np.zeros(n + 1), make_rule(n, r=r))
            assert _operator_cache_sizes() == (0, 2, 1)
        finally:
            _clear_operator_caches()

    def test_threshold_is_one_block_table_size(self, monkeypatch):
        # n = 16 fills one block and needs no history modes; the tables of
        # the fractional part are all that is checked, so order 1.5 needs
        # those of order 0.5 and order 1 needs none.  The block's near field
        # is a staircase of 4 row groups of 16 rows: group g keeps the
        # 16(g+1)+1 window columns up to its last row's own node.
        n, r = 16, 2.0
        own, shared = _built_nbytes(n, r, 0.5)
        need = own + shared
        assert need == 8 * sum(16 * (16 * (g + 1) + 1) for g in range(4)) == 20992
        monkeypatch.setattr(core, "_physical_memory", lambda: need)
        _clear_operator_caches()
        try:
            for order in (0.5, 1.5):
                rl_integral(order, np.zeros(n + 1), make_rule(n, r=r))
            # The guard runs on a cache miss, when the tables are built.
            _clear_operator_caches()
            monkeypatch.setattr(core, "_physical_memory", lambda: need - 1)
            with pytest.raises(MeshTooLarge):
                rl_integral(0.5, np.zeros(n + 1), make_rule(n, r=r))
            with pytest.raises(MeshTooLarge):
                rl_integral(1.5, np.zeros(n + 1), make_rule(n, r=r))
            assert _operator_cache_sizes() == (0, 0, 0)
            rl_integral(1.0, np.zeros(n + 1), make_rule(n, r=r))
        finally:
            _clear_operator_caches()

    @pytest.mark.parametrize("r", [1.0, 8.0 / 3.0, 8.0])
    @pytest.mark.parametrize("n", [16, 1025, 4096])
    def test_guard_counts_the_built_bytes(self, monkeypatch, n, r):
        # The guard's count is exact: the first order on a mesh fits in the
        # bytes of its own and the shared tables and not in one byte less; a
        # later order likewise in those of its own tables.
        own, shared = _built_nbytes(n, r, 0.5)
        later, _ = _built_nbytes(n, r, 0.25)
        rule = make_rule(n, r=r)
        _clear_operator_caches()
        try:
            monkeypatch.setattr(core, "_physical_memory", lambda: own + shared - 1)
            with pytest.raises(MeshTooLarge):
                rl_integral(0.5, np.zeros(n + 1), rule)
            monkeypatch.setattr(core, "_physical_memory", lambda: own + shared)
            rl_integral(0.5, np.zeros(n + 1), rule)
            monkeypatch.setattr(core, "_physical_memory", lambda: later - 1)
            with pytest.raises(MeshTooLarge):
                rl_integral(0.25, np.zeros(n + 1), rule)
            monkeypatch.setattr(core, "_physical_memory", lambda: later)
            rl_integral(0.25, np.zeros(n + 1), rule)
            assert _operator_cache_sizes() == (0, 2, 1)
        finally:
            _clear_operator_caches()

    def test_unallocatable_tables_rejected(self, monkeypatch):
        # Tables that pass the guard but cannot be allocated raise
        # MeshTooLarge, not numpy's MemoryError, and no cache keeps an entry.
        def unallocatable(*args):
            raise MemoryError("no room")

        monkeypatch.setattr(fracops, "_history_tables", unallocatable)
        _clear_operator_caches()
        with pytest.raises(MeshTooLarge, match="could not be allocated"):
            rl_integral(0.5, np.zeros(1025), make_rule(1024))
        assert _operator_cache_sizes() == (0, 0, 0)

    def test_check_skipped_without_sysconf(self, monkeypatch):
        def unavailable(name):
            raise ValueError(name)

        monkeypatch.setattr(core.os, "sysconf", unavailable)
        assert core._physical_memory.__wrapped__() is None
        monkeypatch.setattr(core, "_physical_memory", lambda: None)
        rl_integral(0.5, np.zeros(17), make_rule(16))


class TestSoeOperator:
    """The sum-of-exponentials operator against the dense matrix."""

    B = fracops._SOE_BLOCK
    ORDERS = (0.05, 0.25, 0.5, 0.75, 0.95)

    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 3, 777, 4096])
    def test_matches_dense(self, n):
        rng = np.random.default_rng(n)
        for r in (1.0, 2.5, 4.0, 8.0):
            t = GradedMesh(n, r).nodes
            gs = (np.ones(n + 1), t ** 0.3, rng.random(n + 1))
            signed = rng.standard_normal(n + 1)
            for order in self.ORDERS:
                w = fracops._convolution_matrix(t, order)
                op = fracops._soe_operator(t, order)
                for g in gs:
                    dense = w @ g
                    diff = np.max(np.abs(op.apply(g) - dense))
                    assert diff <= 1e-12 * np.max(np.abs(dense)), (r, order)
                # With signs mixed, |W g| can be far below |W| |g|; the dense
                # entries carry up to ~1e-12 relative error of their own
                # where _hat_moments switches to its series (_FAR_FIELD).
                diff = np.max(np.abs(op.apply(signed) - w @ signed))
                assert diff <= 1e-12 * np.max(np.abs(w) @ np.abs(signed)), (r, order)
                self._assert_near_field_exact(op, w)

    def _assert_near_field_exact(self, op, w):
        # Block b's window is the nodes bB-1 .. bB+B-1.  From node bB on its
        # near-field entries are the dense ones; window column 0 carries only
        # the interval (t_{bB-1}, t_{bB}), and node -1 of block 0 reads zero.
        # The block is reassembled from its staircase of row groups, whose
        # dropped columns read zero.
        n = w.shape[0] - 1
        rows = fracops._SOE_ROWS
        blocks = op.near[0].shape[0]
        assert [table.shape for table in op.near] == [
            (blocks, rows, (g + 1) * rows + 1) for g in range(self.B // rows)]
        for b in range(blocks):
            r0, r1 = b * self.B, min((b + 1) * self.B, n + 1)
            block = np.zeros((self.B, self.B + 1))
            for g, table in enumerate(op.near):
                block[g * rows:(g + 1) * rows, :table.shape[2]] = table[b]
            near = block[:r1 - r0]
            assert near[:, 1:r1 - r0 + 1].tobytes() == w[r0:r1, r0:r1].tobytes()
            assert not np.any(near[:, r1 - r0 + 1:])
            if b == 0:
                assert not np.any(near[:, 0])
            else:
                assert np.all(near[:, 0] <= w[r0:r1, r0 - 1])
        assert not np.any(block[n + 1 - (blocks - 1) * self.B:])

    def test_exponential_moments_against_mpmath(self):
        mpmath.mp.dps = 40
        z = np.concatenate([np.geomspace(1e-12, 1e6, 200), [0.99, 1.0, 1.01]])
        left, right = fracops._exp_hat_moments(z)
        for zi, lo, hi in zip(z, left, right):
            x = mpmath.mpf(float(zi))
            exact_lo = (1 - mpmath.exp(-x) * (1 + x)) / x ** 2
            exact_hi = (x - 1 + mpmath.exp(-x)) / x ** 2
            assert abs(lo - exact_lo) <= 1e-15 * exact_lo
            assert abs(hi - exact_hi) <= 1e-15 * exact_hi

    @pytest.mark.parametrize("order", (1e-12,) + ORDERS + (1.0 - 1e-9,))
    def test_kernel_sum_relative_error(self, order):
        # Orders near 1 make u^(order-1) decay slowly in ln x towards x = 0;
        # that tail is one node, so K stays the same.
        for delta in (1e-3, 1e-12):
            x, w = fracops._soe_nodes(1.0 - order, delta)
            assert x.size < 160
            u = np.geomspace(delta, 1.0, 2000)
            approx = np.einsum("uk,k->u", np.exp(-np.outer(u, x)), w)
            assert np.max(np.abs(approx * u ** (1.0 - order) - 1.0)) <= 1e-14

    def test_rl_integral_builds_only_soe(self, monkeypatch):
        # No dense path: an assembly raises, and the SOE operator is built
        # for the fractional part of each order only (none for order 1).
        built = []
        soe = fracops._soe_operator

        def dense(*args):
            raise AssertionError("rl_integral assembled a dense matrix")

        def recording(nodes, order, *shared):
            built.append(order)
            return soe(nodes, order, *shared)

        monkeypatch.setattr(fracops, "_convolution_matrix", dense)
        monkeypatch.setattr(fracops, "_soe_operator", recording)
        _clear_operator_caches()
        try:
            for n in (16, 1024):
                for order, fraction in ((0.3, 0.3), (1.0, None), (1.2, 0.2)):
                    del built[:]
                    rl_integral(order, np.ones(n + 1), make_rule(n))
                    if fraction is None:
                        assert built == [], (n, order)
                    else:
                        assert len(built) == 1 and built[0] == pytest.approx(fraction), (n, order)
        finally:
            _clear_operator_caches()

    def test_builds_once_per_miss(self, monkeypatch):
        # The cache reaches the builder through the module global, so a
        # wrapper installed there sees every build.  The benchmark tracer
        # wraps _convolution_matrix and reads
        # _cached_convolution_matrix.cache_info(), which must stay.
        calls = []
        build = fracops._soe_operator

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(fracops, "_soe_operator", counting)
        _clear_operator_caches()
        try:
            rule = make_rule(1025, r=1.5)
            g = smooth_profile(rule.mesh.nodes)
            first = rl_integral(0.4, g, rule)
            assert len(calls) == 1
            second = rl_integral(0.4, g, rule)
            assert len(calls) == 1
            assert np.array_equal(first, second)
            info = fracops._cached_soe_operator.cache_info()
            assert (info.hits, info.misses) == (1, 1)
            assert fracops._cached_convolution_matrix.cache_info().currsize == 0
        finally:
            _clear_operator_caches()

    def test_independent_of_blas_threads(self, tmp_path):
        # The SOE apply makes one small BLAS dgemv per row and block, which
        # OpenBLAS runs in one thread (_SoeOperator); the cumulative
        # trapezoid uses no BLAS.  So the output is the same bytes with
        # one, two or four OpenBLAS threads, at fractional and integer
        # orders alike.  On the r = 40 mesh the first tier keeps 632
        # modes: its gathers (632 x 65) and spreads (64 x 632) are the
        # largest gemvs of an apply at n = 4096.  Nothing is built at
        # import.
        script = (
            "import hashlib, numpy as np\n"
            "from hilferbvp import fracops\n"
            "from hilferbvp.core import GradedMesh\n"
            "assert fracops._cached_soe_operator.cache_info().currsize == 0\n"
            "out = b''\n"
            "for n in (1024, 4096):\n"
            "    mesh = GradedMesh(n, 8.0 / 3.0)\n"
            "    g = np.sin(7.0 * mesh.nodes) + mesh.nodes ** 0.3\n"
            "    rule = fracops.QuadratureRule(mesh)\n"
            "    for a in (0.25, 0.5, 1.0, 1.2):\n"
            "        out += fracops.rl_integral(a, g, rule).tobytes()\n"
            "    stack = np.vstack([g, g ** 2, np.cos(g)])\n"
            "    out += fracops.rl_integral(0.5, stack, rule).tobytes()\n"
            "    # Orders 0.7 and 0.3 built on the warm mesh, sharing its tables.\n"
            "    out += fracops.hilfer_derivative(0.3, 0.8, g, rule).tobytes()\n"
            "    ops = [fracops._cached_soe_operator(n, mesh.r, a) for a in (0.25, 0.7)]\n"
            "    assert ops[0].modes is ops[1].modes\n"
            "mesh = GradedMesh(4096, 40.0)\n"
            "assert fracops._soe_tiers(mesh.nodes)[0][2] == 632\n"
            "g = np.sin(7.0 * mesh.nodes) + mesh.nodes ** 0.3\n"
            "rule = fracops.QuadratureRule(mesh)\n"
            "out += fracops.rl_integral(0.05, g, rule).tobytes()\n"
            "stack = np.vstack([g, g ** 2, np.cos(g)])\n"
            "out += fracops.rl_integral(0.05, stack, rule).tobytes()\n"
            "print(hashlib.sha256(out).hexdigest())\n"
        )
        # Each thread count builds on a store of its own; the last run reads
        # the first one's tables back.
        digests = []
        for threads, store in ((1, "one"), (2, "two"), (4, "four"), (2, "one")):
            env = dict(child_env(threads), XDG_CACHE_HOME=str(tmp_path / store))
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            digests.append(done.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1] == digests[2] == digests[3]


class TestSharedSoeTables:
    """The trapezoid modes of the SOE operators are built once per mesh and
    shared by every order on it."""

    @pytest.mark.parametrize("n", [65, 1025, 4096])
    def test_shared_tables_match_dense(self, n):
        # Within test_matches_dense's bounds, whichever order builds the
        # shared tables.
        t = GradedMesh(n, 2.5).nodes
        rng = np.random.default_rng(n)
        gs = (np.ones(n + 1), t ** 0.3, rng.random(n + 1))
        signed = rng.standard_normal(n + 1)
        orders = (0.25, 0.5, 0.75)
        dense = {order: fracops._convolution_matrix(t, order) for order in orders}
        _clear_operator_caches()
        try:
            for build in (orders, orders[::-1]):
                _clear_operator_caches()
                ops = [fracops._cached_soe_operator(n, 2.5, order) for order in build]
                assert all(op.modes is ops[0].modes for op in ops)
                for order, op in zip(build, ops):
                    w = dense[order]
                    for g in gs:
                        diff = np.max(np.abs(op.apply(g) - w @ g))
                        assert diff <= 1e-12 * np.max(np.abs(w @ g)), (build, order)
                    diff = np.max(np.abs(op.apply(signed) - w @ signed))
                    assert diff <= 1e-12 * np.max(np.abs(w) @ np.abs(signed)), (build, order)
        finally:
            _clear_operator_caches()

    def test_built_once_read_only_and_shared(self, monkeypatch):
        built = []
        build = fracops._soe_modes

        def counting(nodes):
            built.append(nodes.size)
            return build(nodes)

        monkeypatch.setattr(fracops, "_soe_modes", counting)
        _clear_operator_caches()
        try:
            n, r = 1025, 8.0 / 3.0
            ops = [fracops._cached_soe_operator(n, r, order) for order in (0.25, 0.5, 0.75)]
            assert built == [n + 1]
            modes = ops[0].modes
            delta = fracops._history_delta(GradedMesh(n, r).nodes)
            for order, op in zip((0.25, 0.5, 0.75), ops):
                assert op.modes is modes
                for name in ("x", "tiers", "gather", "spread"):
                    assert getattr(op.modes, name) is getattr(modes, name)
                for table in op.tables() + modes.tables():
                    assert not table.flags.writeable
                # The shared nodes are the trapezoid nodes of every order.
                x, _ = fracops._soe_nodes(1.0 - order, delta)
                assert x[fracops._SOE_GAUSS_NODES:].tobytes() == modes.x.tobytes()
            # Another mesh builds its own.
            fracops._cached_soe_operator(n + 1, r, 0.5)
            assert built == [n + 1, n + 2]
        finally:
            _clear_operator_caches()

    def test_tables_held_by_a_solve_and_its_check(self):
        # alpha = beta = 1/2 at n = 4096 on its default mesh: the solve and
        # its residual check both apply order 1/2, one operator beside the
        # shared modes (5.25 MiB).
        n, r = 4096, 8.0 / 3.0
        _clear_operator_caches()
        try:
            op = fracops._cached_soe_operator(n, r, 0.5)
            held = op.nbytes + op.modes.nbytes
        finally:
            _clear_operator_caches()
        assert held <= 5.3 * 2 ** 20

    def test_no_subnormal_table_entries(self):
        # Entries below exp(-_SOE_FLUSH) are exact zeros, and no subnormal
        # is left to slow the applies.
        z = np.array([0.0, 1.0, 699.0, 700.0, 700.5, 707.0, 745.0, 800.0])
        e = fracops._soe_exp(z)
        assert e[:4].tobytes() == np.exp(-z[:4]).tobytes()
        assert not np.any(e[4:])
        tiny = np.finfo(float).tiny
        for n in (1024, 4096):
            op = fracops._soe_operator(GradedMesh(n, 8.0 / 3.0).nodes, 0.5)
            for table in op.tables() + op.modes.tables():
                assert not np.any((table != 0.0) & (np.abs(table) < tiny)), n

    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3, 0.4])
    def test_hilfer_derivative_builds_one_operator_at_beta_half(self, alpha, monkeypatch):
        # At beta = 1/2 the inner order (1-alpha)(1-beta) and the outer one
        # beta(1-alpha) are the same float, so one operator serves both.
        built = []
        build = fracops._soe_operator

        def counting(*args):
            built.append(args[1])
            return build(*args)

        monkeypatch.setattr(fracops, "_soe_operator", counting)
        _clear_operator_caches()
        try:
            rule = make_rule(256, r=2.0)
            hilfer_derivative(alpha, 0.5, smooth_profile(rule.mesh.nodes), rule)
            assert len(built) == 1, built
        finally:
            _clear_operator_caches()


class TestSoeTiers:
    """The plan of the shared trapezoid modes: per history chunk, the modes
    that its own block and every later one read, rounded up to tiers."""

    MESHES = [(1025, 1.0), (1025, 8.0 / 3.0), (10 ** 5, 1.0), (10 ** 5, 8.0 / 3.0),
              (10 ** 5, 8.0), (10 ** 5, 40.0)]

    @staticmethod
    def _gaps(nodes):
        b = fracops._SOE_BLOCK
        return nodes[b::b] - nodes[b - 1:-1:b]

    @pytest.mark.parametrize("n, r", MESHES)
    def test_counts_cover_later_gaps_and_never_rise(self, n, r):
        nodes = GradedMesh(n, r).nodes
        gaps = self._gaps(nodes)
        tiers = fracops._soe_tiers(nodes)
        assert [c0 for c0, _, _ in tiers] == [0] + [c1 for _, c1, _ in tiers[:-1]]
        assert tiers[-1][1] == gaps.size
        counts = np.concatenate([[k] * (c1 - c0) for c0, c1, k in tiers])
        assert np.all(np.diff(counts) <= 0) and len(set(counts)) == len(tiers)
        assert counts[0] == fracops._soe_reach(float(np.min(gaps)))
        for c in range(gaps.size):
            # All modes that blocks c + 1, c + 2, ... read, and at most a
            # ladder step more.
            need = max(fracops._soe_reach(float(gap)) for gap in gaps[c:])
            assert need <= counts[c] <= fracops._SOE_LADDER * need + 1, (c, need)

    @pytest.mark.parametrize("order", (1e-12, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0 - 1e-9))
    def test_each_tier_reproduces_the_kernel(self, order):
        # The Gauss modes and a tier's trapezoid modes reproduce u^(order-1)
        # on [the tier's smallest gap, 1], as _soe_nodes does on [delta, 1].
        # (At n = 10^5 and r = 40, delta ~ 1e-128, _soe_nodes itself is off
        # by 1.1e-14 at order 1e-12 with all its modes: its nodes exp(k h)
        # carry the rounding of k h, up to 2.8e-14 there.)
        gauss = fracops._SOE_GAUSS_NODES
        for n, r in [(m, r) for m in (1025, 4096) for r in (1.0, 8.0 / 3.0, 8.0, 40.0)]:
            nodes = GradedMesh(n, r).nodes
            gaps = self._gaps(nodes)
            x, w = fracops._soe_nodes(1.0 - order, float(np.min(gaps)))
            for c0, c1, k in fracops._soe_tiers(nodes):
                u = np.geomspace(np.min(gaps[c0:c1]), 1.0, 2000)
                approx = np.einsum("uk,k->u", np.exp(-np.outer(u, x[:gauss + k])),
                                   w[:gauss + k])
                err = np.max(np.abs(approx * u ** (1.0 - order) - 1.0))
                assert err <= 1e-14, (n, r, c0, k)

    def test_steep_grading_plan_alone(self):
        # At n = 10^5 and r = 40 (alpha = 0.05 graded by 2/alpha) the shared
        # tables take about 0.3 GB in at most 16 tiers, against 1.8 GB with
        # every chunk at the first count.  The plan is O(n/B) work on the
        # nodes and allocates no table.
        nodes = GradedMesh(10 ** 5, 40.0).nodes
        tracemalloc.start()
        try:
            tiers = fracops._soe_tiers(nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert 1 < len(tiers) <= 16
        b = fracops._SOE_BLOCK
        shared = sum(8 * (c1 - c0) * (2 * b + 1) * k for c0, c1, k in tiers)
        flat = 8 * tiers[-1][1] * (2 * b + 1) * tiers[0][2]
        assert shared < 0.4e9 and shared < flat / 4

    def test_tier_tables_are_slices_of_full_tables(self):
        # A tier's tables hold its chunks and the first k modes only, and
        # their entries are those of tables built with every mode on every
        # chunk, bit for bit.
        nodes = GradedMesh(1025, 8.0).nodes
        modes = fracops._soe_modes(nodes)
        full = fracops._history_tables(nodes, modes.x)
        assert list(modes.tiers) == fracops._soe_tiers(nodes) and len(modes.tiers) > 1
        for (c0, c1, k), gather, spread in zip(modes.tiers, modes.gather, modes.spread):
            assert gather.tobytes() == np.ascontiguousarray(full[0][c0:c1, :k]).tobytes()
            assert spread.tobytes() == np.ascontiguousarray(full[1][c0:c1, :, :k]).tobytes()


class TestGroupedTables:
    """The grouped SOE table builders against the chunk-by-chunk and
    block-by-block references, bit for bit, and their scratch memory."""

    B = fracops._SOE_BLOCK

    @staticmethod
    def _assert_tables_match(n, r):
        t = GradedMesh(n, r).nodes
        modes = fracops._soe_modes(t)
        for (c0, c1, k), gather, spread in zip(modes.tiers, modes.gather, modes.spread):
            ref = _ref_history_tables(t, modes.x[:k], c0, c1)
            ref_gather = np.ascontiguousarray(ref[0].transpose(0, 2, 1))
            assert gather.tobytes() == ref_gather.tobytes(), (n, r, c0)
            assert spread.tobytes() == ref[1].tobytes(), (n, r, c0)
        for order in (0.05, 0.25, 0.5, 0.95):
            op = fracops._soe_operator(t, order, modes)
            near, gather, spread = _ref_soe_order_tables(t, order)
            assert len(op.near) == len(near)
            for ours, ref in zip(op.near, near):
                assert ours.tobytes() == ref.tobytes(), (n, r, order)
            assert op.gather.tobytes() == gather.tobytes(), (n, r, order)
            assert op.spread.tobytes() == spread.tobytes(), (n, r, order)

    # n + 1 = 64 is a mesh of one block, n + 1 = 128 one of two full blocks.
    @pytest.mark.parametrize("r", [1.0, 8.0 / 3.0, 8.0, 40.0])
    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B - 1, 2 * B + 3, 777, 4096])
    def test_bit_equal_to_chunk_by_chunk(self, n, r):
        self._assert_tables_match(n, r)

    # Budgets of one chunk or block per group, of a few (so that groups end
    # inside tiers and before the partial last block), and of a part of one.
    @pytest.mark.parametrize("budget", [1, 3 * 16 * 65, 3 * 65 * 10 + 1, 1 << 12])
    @pytest.mark.parametrize("n, r", [(2 * B + 3, 40.0), (777, 8.0 / 3.0), (1025, 8.0),
                                      (1100, 40.0)])
    def test_bit_equal_with_small_groups(self, n, r, budget, monkeypatch):
        monkeypatch.setattr(fracops, "_GROUP_ENTRIES", budget)
        self._assert_tables_match(n, r)

    def test_scratch_memory_bounded(self):
        # On top of the tables they return, the shared build and a later
        # order's build each hold at most 0.75 MiB of scratch at n = 4096.
        t = GradedMesh(4096, 8.0 / 3.0).nodes
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            modes = fracops._soe_modes(t)
            shared = tracemalloc.get_traced_memory()[1] - start - modes.nbytes
            fracops._soe_operator(t, 0.5, modes)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            op = fracops._soe_operator(t, 0.25, modes)
            later = tracemalloc.get_traced_memory()[1] - start - op.nbytes
        finally:
            tracemalloc.stop()
        assert shared <= 0.75 * 2 ** 20
        assert later <= 0.75 * 2 ** 20


class TestPastDenseMemoryWall:
    def test_power_rule_at_n_40000(self):
        # The dense operator would take 8 (n+1)^2 bytes = 12.8 GB here.
        # Order 1 is the cumulative trapezoid, exact on t^0 and t^1; order
        # 1.5 composes it with the SOE operator of order 0.5.
        n = 40000
        cases = ((0.5, 0.5, 1e-5), (1.0, 1.0, 1e-13), (1.5, 0.5, 1e-5))
        _clear_operator_caches()
        tracemalloc.start()
        try:
            for order, alpha, tol in cases:
                mesh = GradedMesh.graded_for(n, alpha)
                t = mesh.nodes
                for sigma in (1.0, 2.0):
                    out = rl_integral(order, t ** (sigma - 1.0), QuadratureRule(mesh))
                    exact = (math.gamma(sigma) / math.gamma(order + sigma)
                             * t ** (order + sigma - 1.0))
                    assert np.max(np.abs(out - exact)) <= tol, (order, sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            _clear_operator_caches()
        assert peak <= 0.01 * 8 * (n + 1) ** 2
