import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from hilferbvp.core import (
    GradedMesh,
    HilferProblem,
    WeightedGridFunction,
    default_grading,
    derive_constants,
    rhs_samples,
)
from hilferbvp import solver
from hilferbvp.errors import (
    MeshTooLarge,
    MissingBounds,
    NonFiniteIterate,
    RhsEvaluationFailure,
    RhsNegative,
    SingularProblem,
)
from hilferbvp.fracops import QuadratureRule
from hilferbvp.solver import (
    PicardSettings,
    apply_delta,
    boundary_identity_gap,
    bracket_from_bounds,
    solve_picard,
)

# mpmath references (30 digits)
GAMMA_075 = 1.2254167024651776451
GAMMA_15 = 0.88622692545275801365


def problem_with(rhs, alpha=0.5, beta=0.5, lam=0.0, d=1.0, **kw):
    return HilferProblem(alpha=alpha, beta=beta, lam=lam, d=d, rhs=rhs, **kw)


def setup(problem, n=128, r=None):
    consts = derive_constants(problem)
    mesh = GradedMesh(n, r if r is not None else default_grading(consts.gamma))
    return consts, QuadratureRule(mesh)


def constant_lambda_start(consts, mesh):
    return WeightedGridFunction(mesh, consts.gamma,
                                np.full(mesh.n + 1, consts.capital_lambda))


class TestApplyDelta:
    def test_zero_rhs_zero_offset_is_zero_map(self):
        p = problem_with(lambda t, y: 0.0, d=0.0, lam=0.3)
        consts, rule = setup(p)
        w = WeightedGridFunction(rule.mesh, consts.gamma,
                                 np.linspace(0.0, 1.0, rule.mesh.n + 1))
        out = apply_delta(p, consts, w, rule)
        assert np.max(np.abs(out.values)) < 1e-15

    def test_constant_rhs_lambda_zero_closed_form(self):
        c = 2.0
        p = problem_with(lambda t, y: c, lam=0.0, d=1.0)
        consts, rule = setup(p)
        t = rule.mesh.nodes
        expected = (p.d / GAMMA_075
                    + c * t ** (p.alpha + 1.0 - consts.gamma) / GAMMA_15)
        for start in (np.zeros(t.size), np.full(t.size, 5.0)):
            w = WeightedGridFunction(rule.mesh, consts.gamma, start)
            out = apply_delta(p, consts, w, rule)
            # image independent of the input, exact for constant rhs
            assert np.max(np.abs(out.values - expected)) < 1e-13

    def test_constant_rhs_with_boundary_term(self):
        # Q integrates to 1/(alpha(alpha+1)); verified independently with
        # adaptive quadrature before freezing the closed form below.
        alpha, c, lam = 0.5, 1.0, 0.2
        q_integral, _ = quad(lambda tau: (1.0 - tau) ** alpha / alpha, 0.0, 1.0)
        assert q_integral == pytest.approx(1.0 / (alpha * (alpha + 1.0)), rel=1e-12)
        p = problem_with(lambda t, y: c, lam=lam, d=1.0)
        consts, rule = setup(p, n=256)
        t = rule.mesh.nodes
        g_gamma = math.gamma(consts.gamma)
        head = (consts.capital_lambda
                + lam * c / (g_gamma * consts.mu * math.gamma(alpha + 2.0)))
        expected = head + c * t ** (alpha + 1.0 - consts.gamma) / math.gamma(alpha + 1.0)
        w = constant_lambda_start(consts, rule.mesh)
        out = apply_delta(p, consts, w, rule)
        assert np.max(np.abs(out.values - expected)) < 1e-13

    def test_negative_rhs_rejected(self, monkeypatch):
        p = problem_with(lambda t, y: -1.0)
        consts, rule = setup(p)
        w = constant_lambda_start(consts, rule.mesh)
        with pytest.raises(RhsNegative):
            apply_delta(p, consts, w, rule)

        # With no row left without an error, nothing is convolved: an
        # operator too large for memory does not hide the rhs error.
        def too_large(*args):
            raise MeshTooLarge("the operator would not fit in memory")

        monkeypatch.setattr(solver, "rl_integral", too_large)
        with pytest.raises(RhsNegative):
            apply_delta(p, consts, w, rule)

    def test_overflowing_image_rejected(self):
        p = problem_with(lambda t, y: 1.7e308, lam=0.2)
        consts, rule = setup(p, n=64)
        w = constant_lambda_start(consts, rule.mesh)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteIterate):
                apply_delta(p, consts, w, rule)

    def test_positivity_preservation(self):
        # nonnegative rhs, mu > 0, d >= 0: the cone maps into itself.
        rng = np.random.RandomState(11)
        p = problem_with(lambda t, y: 0.3 + 0.5 * y / (1.0 + y), lam=0.4, d=0.7)
        consts, rule = setup(p, n=64)
        assert consts.mu > 0
        for _ in range(10):
            w = WeightedGridFunction(rule.mesh, consts.gamma,
                                     rng.uniform(0.0, 3.0, rule.mesh.n + 1))
            out = apply_delta(p, consts, w, rule)
            assert np.all(out.values >= 0.0)


class TestSolvePicard:
    def test_constant_rhs_two_iterations_any_start(self):
        p = problem_with(lambda t, y: 1.5, lam=0.0)
        consts, rule = setup(p)
        rng = np.random.RandomState(5)
        for start in (np.zeros(rule.mesh.n + 1),
                      rng.uniform(0.0, 4.0, rule.mesh.n + 1)):
            settings = PicardSettings(initial_guess=start)
            res = solve_picard(p, consts, settings, rule)
            assert res.converged
            assert res.iterations == 2
            assert res.history[-1] <= settings.tol

    def test_zero_problem_from_zero_start(self):
        p = problem_with(lambda t, y: 0.0, d=0.0)
        consts, rule = setup(p)
        settings = PicardSettings(initial_guess=np.zeros(rule.mesh.n + 1))
        res = solve_picard(p, consts, settings, rule)
        assert res.converged
        assert res.iterations == 1
        assert np.all(res.solution.values == 0.0)

    def test_contraction_rate_observed(self):
        # q = (0.2 e/(Gamma(0.75) mu) + 1/Gamma(1.5)) * 0.25
        #   = 0.42385655067671243746 (mpmath, 30 digits), and the observed
        # late-iteration ratios must not exceed q + 0.05.
        q = 0.42385655067671243746
        p = problem_with(lambda t, y: (y + 1.0) / 4.0, lam=0.2, d=1.0,
                         lipschitz=0.25)
        consts, rule = setup(p, n=256)
        res = solve_picard(p, consts, PicardSettings(), rule)
        assert res.converged
        ratios = [b / a for a, b in zip(res.history, res.history[1:]) if a > 1e-8]
        assert ratios, "iteration ended before any usable ratio"
        assert max(ratios[-3:]) <= q + 0.05

    def test_not_converged_flag_carries_history(self):
        p = problem_with(lambda t, y: (y + 1.0) / 4.0, lam=0.2)
        consts, rule = setup(p, n=32)
        res = solve_picard(p, consts, PicardSettings(max_iter=3), rule)
        assert not res.converged
        assert res.iterations == 3
        assert len(res.history) == 3
        assert np.all(np.isfinite(res.solution.values))

    def test_history_invariants(self):
        p = problem_with(lambda t, y: (y + 1.0) / 4.0, lam=0.2)
        consts, rule = setup(p, n=64)
        res = solve_picard(p, consts, PicardSettings(), rule)
        assert len(res.history) == res.iterations
        assert res.history[-1] <= 1e-10

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            PicardSettings(tol=0.0)
        with pytest.raises(ValueError):
            PicardSettings(max_iter=0)
        p = problem_with(lambda t, y: 1.0)
        consts, rule = setup(p)
        for start in (np.ones(rule.mesh.n), np.full(rule.mesh.n + 1, np.nan)):
            with pytest.raises(ValueError):
                solve_picard(p, consts, PicardSettings(initial_guess=start), rule)

    def test_bracket_midpoint_start(self):
        p = problem_with(lambda t, y: 1.0, lam=0.0,
                         lower_bound=1.0, upper_bound=1.0)
        consts, rule = setup(p)
        bracket = bracket_from_bounds(p, consts, rule.mesh)
        res = solve_picard(p, consts,
                           PicardSettings(initial_guess=bracket.lower.values), rule)
        # with A1 = A2 = c the lower envelope is the bracket midpoint and
        # IS the solution
        assert res.converged
        assert res.iterations == 1


def plain_picard(problem, consts, rule, tol=1e-10, max_iter=1000):
    """The unaccelerated iteration w <- Delta(w) from the constant-Lambda
    start, with the successive differences it took."""
    w = constant_lambda_start(consts, rule.mesh)
    history = []
    for _ in range(max_iter):
        w_next = apply_delta(problem, consts, w, rule)
        history.append(float(np.max(np.abs(w_next.values - w.values))))
        w = w_next
        if history[-1] <= tol:
            break
    return w, history


class TestPlainPicardReference:
    def test_contraction_rate_and_same_fixed_point(self):
        # Criterion 5's problem: the certified q bounds the late ratio of the
        # plain iteration, whatever acceleration solve_picard applies.
        q = 0.42385655067671243746
        p = problem_with(lambda t, y: (y + 1.0) / 4.0, lam=0.2, d=1.0,
                         lipschitz=0.25)
        consts, rule = setup(p, n=256)
        w, history = plain_picard(p, consts, rule)
        assert history[-1] <= 1e-10
        ratios = [b / a for a, b in zip(history, history[1:]) if a > 1e-8]
        assert ratios, "iteration ended before any usable ratio"
        assert max(ratios[-3:]) <= q + 0.05
        res = solve_picard(p, consts, PicardSettings(), rule)
        assert res.converged
        assert np.max(np.abs(res.solution.values - w.values)) <= 1e-9


class TestAnderson:
    @pytest.mark.parametrize("a", [0.8, 1.0])
    def test_beyond_contraction_bound(self, a):
        # Certified q = 1.695 a (1.36 and 1.70), so Banach does not apply;
        # plain Picard still converges here, in 60 and 128 iterations.
        p = problem_with(lambda t, y: a * y + 0.25, lam=0.2, d=1.0)
        consts, rule = setup(p, n=256)
        res = solve_picard(p, consts, PicardSettings(), rule)
        assert res.converged
        assert res.iterations <= 30
        w, history = plain_picard(p, consts, rule, tol=1e-12)
        assert history[-1] <= 1e-12
        assert np.max(np.abs(res.solution.values - w.values)) <= 1e-8

    def test_first_two_steps_are_plain(self):
        p = problem_with(lambda t, y: (y + 1.0) / 4.0, lam=0.2, d=1.0)
        consts, rule = setup(p, n=64)
        res = solve_picard(p, consts, PicardSettings(), rule)
        _, history = plain_picard(p, consts, rule, max_iter=2)
        assert res.history[:2] == history

    def test_iterates_stay_in_the_cone(self):
        # Unguarded, a mixed iterate on this problem is negative near the
        # origin, and sqrt would turn it into nan.
        seen = []

        def f(t, y):
            seen.append(float(np.min(y)))
            return np.sqrt(y)

        p = problem_with(f, lam=0.3, d=0.01)
        consts, rule = setup(p, n=128)
        res = solve_picard(p, consts, PicardSettings(), rule)
        assert res.converged
        assert len(seen) == res.iterations
        assert min(seen) >= 0.0

    def test_deterministic(self):
        p = problem_with(lambda t, y: 0.8 * y + 0.3 + 0.1 * np.sin(y), lam=0.3)
        consts, rule = setup(p, n=256)
        first = solve_picard(p, consts, PicardSettings(), rule)
        second = solve_picard(p, consts, PicardSettings(), rule)
        assert first.solution.values.tobytes() == second.solution.values.tobytes()
        assert first.history == second.history

    @pytest.mark.parametrize("spread", [1.0, 1e-9], ids=["independent", "collinear"])
    def test_batched_solve_matches_lstsq(self, spread):
        # Six column-scaled Gram matrices of random differences, as mix forms
        # them.  With spread = 1e-9 the last difference column nearly
        # repeats the second, so each matrix has an eigenvalue below the
        # cutoff, which lstsq and the batched eigensolve both leave out.
        rng = np.random.default_rng(11)
        d_f = rng.standard_normal((6, solver.ANDERSON_DEPTH, 200))
        d_f[:, -1] = d_f[:, 1] + spread * d_f[:, -1]
        gram = np.einsum("mij,mkj->mik", d_f, d_f)
        scale = np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
        gram /= scale[:, :, None] * scale[:, None, :]
        rhs = np.einsum("mij,mj->mi", d_f, rng.standard_normal((6, 200))) / scale
        sizes = np.abs(np.linalg.eigvalsh(gram))
        cut = sizes <= solver._ANDERSON_RCOND * sizes.max(axis=1, keepdims=True)
        assert cut.any(axis=1).tolist() == [spread < 1.0] * 6
        got = solver._pseudo_solve(gram, rhs)
        for row, matrix, b in zip(got, gram, rhs):
            want = np.linalg.lstsq(matrix, b, rcond=solver._ANDERSON_RCOND)[0]
            assert np.linalg.norm(row - want) <= 1e-12 * np.linalg.norm(want)
        # A direction below the cutoff contributes exactly nothing: the
        # eigenvectors of a diagonal matrix are unit vectors, and the
        # coefficient along the eigenvalue 1e-12 is 0, not 1e12.
        diagonal = np.diag([1.0, 0.5, 1e-12, 0.25, 2.0])[None]
        got = solver._pseudo_solve(diagonal, np.ones((1, 5)))
        assert got.tolist() == [[1.0, 2.0, 0.0, 4.0, 0.5]]
        # Each row's cutoff is its own: eigenvalues 2 and 6e-10 keep both
        # directions, also when stacked with a row whose eigenvalue is 1e3.
        near = np.array([[1.0, 1.0 - 6e-10], [1.0 - 6e-10, 1.0]])
        stack, b = np.stack([near, np.diag([1e3, 1.0])]), np.array([[1.0, -1.0], [1.0, 1.0]])
        alone = solver._pseudo_solve(stack[:1], b[:1])[0]
        assert np.abs(alone).min() > 1e8
        assert solver._pseudo_solve(stack, b)[0].tobytes() == alone.tobytes()

    def test_mixing_a_row_ignores_its_stack(self):
        # One row's residuals and images are mixed alone, then as each row
        # of stacks of 2 to 16 among random neighbours.  One neighbour turns
        # non-finite at the fourth step, and half of them retire halfway.
        # The row's mixed iterates and flags keep their bits throughout.
        rng = np.random.default_rng(12)
        steps, size = 2 * solver.ANDERSON_DEPTH, 64     # the rings wrap
        f = rng.standard_normal((steps, size))
        g = rng.uniform(0.0, 2.0, (steps, size))

        def mixed(stack, row):
            history = solver._AndersonHistory(stack, size)
            columns = list(range(stack))    # the stack row of each column
            seen = []
            for k in range(steps):
                if k == steps // 2:
                    kept = [c for c, i in enumerate(columns) if i == row or i % 2]
                    history.keep(kept)
                    columns = [columns[c] for c in kept]
                fs = rng.standard_normal((len(columns), size))
                gs = rng.uniform(0.0, 2.0, (len(columns), size))
                if k == 3 and stack > 1:
                    fs[columns.index((row + 1) % stack), 7] = np.inf
                at = columns.index(row)
                fs[at], gs[at] = f[k], g[k]
                out, usable = history.mix(fs, gs)
                seen.append((out[at].tobytes(), bool(usable[at])))
            return seen

        alone = mixed(1, 0)
        assert sum(usable for _, usable in alone) == steps - 1
        for stack in range(2, 17):
            for row in range(stack):
                assert mixed(stack, row) == alone


class TestStackedSolve:
    """Problems that share alpha, beta, the rhs and the mesh are solved in
    one stack; every column must be its own solve_picard, bit for bit, and a
    failing column's outcome is the error its solo solve raises."""

    # exp(y - 1000) is 0 to double precision until y nears 1000 and inf
    # beyond 1709: the column near mu = 0 (lam = 0.8) grows and fails at its
    # sixth iteration, while the others converge in 9 or 10.
    @staticmethod
    def rhs(t, y):
        return 0.25 * y + 0.25 + np.exp(y - 1000.0)

    CASES = [(0.0, 0.5), (0.3, 1.0), (0.8, 1.0), (0.6, 2.0), (0.7, 1.0)]
    FAILING = (0.8, 1.0)

    @pytest.mark.parametrize("max_iter", [9, 200])
    def test_columns_equal_solo_solves(self, max_iter):
        calls = []

        def rhs(t, y):
            calls.append(np.shape(t))
            return self.rhs(t, y)

        cases = [case for case in self.CASES if case != self.FAILING]
        problems = [problem_with(rhs, lam=lam, d=d) for lam, d in cases]
        consts = [derive_constants(p) for p in problems]
        rule = QuadratureRule(GradedMesh(64, default_grading(consts[0].gamma)))
        settings = PicardSettings(max_iter=max_iter)
        stacked = solver._solve_stack(problems, consts, settings, rule)
        stack_calls, calls[:] = len(calls), []
        for p, c, got in zip(problems, consts, stacked):
            want = solve_picard(p, c, settings, rule)
            assert got.solution.values.tobytes() == want.solution.values.tobytes()
            assert got.history == want.history
            assert (got.iterations, got.converged) == (want.iterations, want.converged)
        stopped = [r.iterations for r in stacked]
        # One rhs call per stacked iteration, for the whole stack.
        assert stack_calls == max(stopped)
        assert stopped == ([9, 9, 9, 9] if max_iter == 9 else [9, 9, 10, 10])
        if max_iter == 9:
            assert [r.converged for r in stacked] == [True, True, False, False]

    def test_failing_column_gets_its_solo_error(self, monkeypatch):
        # Two stacks, each with one failing column.  In the first, the
        # stacked operator fails at that column's sixth iteration; in the
        # second, hand-built constants with mu = 1e-13 fail the mu guard at
        # the first.  The failing column retires with its solo error, and
        # the other columns go on to their solo results, bit for bit.
        # Retired columns leave the Anderson history in place: the traced
        # peak inside keep stays below one column of one ring buffer.
        keep, peaks = solver._AndersonHistory.keep, []

        def traced_keep(history, columns):
            column_bytes = history.d_f[0].nbytes
            tracemalloc.start()
            try:
                keep(history, columns)
                peaks.append((tracemalloc.get_traced_memory()[1], column_bytes))
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(solver._AndersonHistory, "keep", traced_keep)
        problems = [problem_with(self.rhs, lam=lam, d=d) for lam, d in self.CASES]
        consts = [derive_constants(p) for p in problems]
        rule = QuadratureRule(GradedMesh(64, default_grading(consts[0].gamma)))
        settings = PicardSettings()
        failing = self.CASES.index(self.FAILING)
        near_singular = list(consts)
        near_singular[failing] = replace(consts[failing], mu=1e-13)
        for stack, kind in ((consts, RhsEvaluationFailure),
                            (near_singular, SingularProblem)):
            with pytest.raises(kind) as solo:
                solve_picard(problems[failing], stack[failing], settings, rule)
            stacked = solver._solve_stack(problems, stack, settings, rule)
            assert type(stacked[failing]) is kind
            assert str(stacked[failing]) == str(solo.value)
            for i, (p, c, got) in enumerate(zip(problems, stack, stacked)):
                if i == failing:
                    continue
                want = solve_picard(p, c, settings, rule)
                assert got.solution.values.tobytes() == want.solution.values.tobytes()
                assert got.history == want.history
                assert (got.iterations, got.converged) == (want.iterations, want.converged)
            assert ([r.iterations for i, r in enumerate(stacked) if i != failing]
                    == [9, 9, 10, 10])
        assert peaks and all(peak < column_bytes for peak, column_bytes in peaks)

    def test_apply_delta_rows_equal_single_calls(self):
        problems = [problem_with(self.rhs, lam=lam, d=d) for lam, d in self.CASES]
        consts = [derive_constants(p) for p in problems]
        rule = QuadratureRule(GradedMesh(200, default_grading(consts[0].gamma)))
        rng = np.random.default_rng(3)
        w = rng.uniform(0.0, 3.0, (len(problems), 201))
        images = apply_delta(problems, consts, w, rule)
        assert images.shape == w.shape
        for p, c, row, image in zip(problems, consts, w, images):
            single = apply_delta(p, c, WeightedGridFunction(rule.mesh, c.gamma, row), rule)
            assert single.values.tobytes() == image.tobytes()

    def test_stack_must_share_the_operator(self):
        rhs = self.rhs
        rule = QuadratureRule(GradedMesh(64, 2.0))
        w = np.ones((2, 65))
        for other in (problem_with(rhs, alpha=0.6), problem_with(rhs, beta=0.4),
                      problem_with(lambda t, y: rhs(t, y))):
            stack = [problem_with(rhs), other]
            with pytest.raises(ValueError):
                apply_delta(stack, [derive_constants(p) for p in stack], w, rule)


# The problems of acceptance criterion 7 (tests/test_acceptance.py).
CRITERION_7_BATTERY = [
    HilferProblem(0.5, 0.5, 0.2, 1.0, rhs=lambda t, y: 1.0),
    HilferProblem(0.5, 0.5, 0.2, 1.0, rhs=lambda t, y: (y + 1.0) / 4.0),
    HilferProblem(0.5, 0.5, 0.0, 1.0, rhs=lambda t, y: t ** 0.5),
    HilferProblem(0.7, 0.3, 0.4, 0.5, rhs=lambda t, y: 0.5 * y / (1.0 + y)),
    HilferProblem(0.9, 1.0, 0.6, 2.0, rhs=lambda t, y: 1.0 + 0.1 * y),
    HilferProblem(0.3, 0.8, 0.0, 0.0, rhs=lambda t, y: 2.0),
]


class TestBoundaryIdentity:
    @pytest.mark.parametrize("lam", [0.0, 0.2, 0.6])
    def test_gap_within_ten_tolerances(self, lam):
        p = problem_with(lambda t, y: (y + 1.0) / 4.0, lam=lam)
        consts, rule = setup(p, n=128)
        settings = PicardSettings()
        res = solve_picard(p, consts, settings, rule)
        assert res.converged
        gap = boundary_identity_gap(p, consts, res.solution, rule)
        assert gap <= 10.0 * settings.tol

    @pytest.mark.parametrize("problem", CRITERION_7_BATTERY,
                             ids=[str(k) for k in range(len(CRITERION_7_BATTERY))])
    def test_gap_is_the_operator_defect_at_the_origin(self, problem):
        consts, rule = setup(problem, n=128)
        w = solve_picard(problem, consts, PicardSettings(), rule).solution
        scale = math.gamma(consts.gamma)
        w0 = float(w.values[0])
        gap = boundary_identity_gap(problem, consts, w, rule)
        image = float(apply_delta(problem, consts, w, rule).values[0])
        assert gap == scale * abs(w0 - image)
        # The same defect as |Gamma(gamma) w(0) - lam A - d| with
        # A = d/(mu Gamma(gamma+1)) + B/mu and the discrete boundary
        # functional B, up to rounding.
        from hilferbvp.fracops import boundary_kernel_weights
        samples = rhs_samples((problem,), w.values[None], rule.mesh)[0]
        b = float(np.einsum("i,i->", boundary_kernel_weights(problem.alpha, rule.mesh),
                            samples))
        a = problem.d / (consts.mu * math.gamma(consts.gamma + 1.0)) + b / consts.mu
        closed = abs(scale * w0 - problem.lam * a - problem.d)
        assert abs(gap - closed) <= 1e-15 * scale * abs(w0)

    def test_integral_closed_form_matches_direct_quadrature(self):
        # Same number two ways: the closed form A = d/(mu Gamma(gamma+1)) + B/mu
        # that the operator's value at t = 0 implies, with the discrete
        # boundary functional B, vs direct singular quadrature of t^(g-1) w.
        from hilferbvp.fracops import boundary_kernel_weights, physical_integral
        p = problem_with(lambda t, y: 1.0, lam=0.2)
        consts, rule = setup(p, n=512)
        res = solve_picard(p, consts, PicardSettings(), rule)
        b = float(boundary_kernel_weights(p.alpha, rule.mesh) @ np.ones(rule.mesh.n + 1))
        closed = p.d / (consts.mu * math.gamma(consts.gamma + 1.0)) + b / consts.mu
        direct = physical_integral(res.solution)
        assert closed == pytest.approx(direct, abs=2e-6)


class TestBracket:
    def test_collapsed_bracket_equals_constant_solution(self):
        c = 1.7
        p = problem_with(lambda t, y: c, lam=0.0,
                         lower_bound=c, upper_bound=c)
        consts, rule = setup(p)
        bracket = bracket_from_bounds(p, consts, rule.mesh)
        assert np.array_equal(bracket.lower.values, bracket.upper.values)
        res = solve_picard(p, consts, PicardSettings(), rule)
        assert np.max(np.abs(res.solution.values - bracket.lower.values)) < 1e-12

    def test_zero_offset_zero_lower_shape(self):
        p = problem_with(lambda t, y: 1.0, d=0.0,
                         lower_bound=1e-30, upper_bound=1.0)
        consts, rule = setup(p)
        bracket = bracket_from_bounds(p, consts, rule.mesh)
        assert np.max(np.abs(bracket.lower.values)) < 1e-25

    def test_endpoint_values_against_gamma_oracle(self):
        # At t = 1: lower = 1/Gamma(0.75) + 1/Gamma(1.5)
        #                 = 1.944428106193775555   (mpmath)
        #           upper = 1/Gamma(0.75) + 2/Gamma(1.5)
        #                 = 3.0728072732892881289  (mpmath)
        p = problem_with(lambda t, y: 1.5, d=1.0,
                         lower_bound=1.0, upper_bound=2.0)
        consts, rule = setup(p)
        bracket = bracket_from_bounds(p, consts, rule.mesh)
        assert bracket.lower.values[-1] == pytest.approx(1.944428106193775555, rel=1e-14)
        assert bracket.upper.values[-1] == pytest.approx(3.0728072732892881289, rel=1e-14)
        assert np.all(bracket.lower.values <= bracket.upper.values)

    def test_missing_bounds(self):
        p = problem_with(lambda t, y: 1.0)
        consts, rule = setup(p)
        with pytest.raises(MissingBounds):
            bracket_from_bounds(p, consts, rule.mesh)

    def test_containment_of_converged_solution(self):
        # catalog rhs with analytically verified bounds 1.5 <= f <= 2.5,
        # lam = 0: the solution must lie inside the closed-form bracket.
        def f(t, y):
            return 2.0 + 0.5 * math.sin(3.0 * t) * y / (1.0 + y)

        p = problem_with(f, lam=0.0, lower_bound=1.5, upper_bound=2.5)
        consts, rule = setup(p, n=128)
        res = solve_picard(p, consts, PicardSettings(), rule)
        assert res.converged
        bracket = bracket_from_bounds(p, consts, rule.mesh)
        slack = 1e-6 + 10.0 / rule.mesh.n ** 2
        assert np.all(res.solution.values >= bracket.lower.values - slack)
        assert np.all(res.solution.values <= bracket.upper.values + slack)


class TestMonotoneSandwich:
    def test_delta_between_control_envelopes(self):
        # Nonnegative envelopes 0.5/(1+y) <= f <= 1/(1+y) + 0.05 of f hold at
        # every argument, and every quadrature weight is nonnegative, so the
        # operator applied with lower/f/upper is ordered.
        def f(t, y):
            return 1.0 / (1.0 + y)

        p = problem_with(f, lam=0.3, d=0.5)
        consts, rule = setup(p, n=64)
        p_upper = problem_with(lambda t, y: f(t, y) + 0.05, lam=0.3, d=0.5)
        p_lower = problem_with(lambda t, y: 0.5 * f(t, y), lam=0.3, d=0.5)
        rng = np.random.RandomState(2)
        for _ in range(5):
            w = WeightedGridFunction(rule.mesh, consts.gamma,
                                     rng.uniform(0.0, 2.0, rule.mesh.n + 1))
            mid = apply_delta(p, consts, w, rule).values
            hi = apply_delta(p_upper, consts, w, rule).values
            lo = apply_delta(p_lower, consts, w, rule).values
            assert np.all(lo <= mid + 1e-12)
            assert np.all(mid <= hi + 1e-12)
