"""Fixed-point operator of the equivalent integral equation and its Picard
iteration, plus the closed-form solution bracket of a problem whose rhs
has constant bounds.

The operator maps y to

    Lambda t^(gamma-1)
      + (lam t^(gamma-1) / (Gamma(gamma) mu)) * integral_0^1 (Q(tau)/Gamma(alpha)) f(tau, y(tau)) dtau
      + I^alpha f(., y(.)) (t)

and is applied entirely in the weighted representation w = t^(1-gamma) y.
For f >= 0, mu > 0 and d >= 0 it maps the nonnegative cone into itself,
which the discretization preserves exactly because every quadrature weight
is nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from .core import (
    DerivedConstants,
    GradedMesh,
    HilferProblem,
    WeightedGridFunction,
    mu_error,
)
from .errors import (
    HilferBvpError,
    MissingBounds,
    NonFiniteIterate,
    RhsEvaluationFailure,
    RhsNegative,
)
from .fracops import QuadratureRule, boundary_kernel_weights, rl_integral

# Number of past residual differences an Anderson step combines.
ANDERSON_DEPTH = 5
# Relative cutoff on the singular values of the column-scaled Gram matrix of
# those differences; directions below it are left out of the mixing step.
_ANDERSON_RCOND = 1e-10


@dataclass(frozen=True, eq=False)
class PicardSettings:
    """Stopping rule and starting point for the fixed-point iteration.

    ``initial_guess`` is an explicit grid of weighted samples, or None for
    the constant start w = Lambda.  Settings compare by identity.
    """

    tol: float = 1e-10
    max_iter: int = 200
    initial_guess: Optional[np.ndarray] = None

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if not (isinstance(self.max_iter, (int, np.integer)) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True, eq=False)
class SolveResult:
    solution: WeightedGridFunction
    iterations: int
    history: List[float]
    converged: bool


@dataclass(frozen=True, eq=False)
class SolutionBracket:
    lower: WeightedGridFunction
    upper: WeightedGridFunction


def _rhs_samples(problem: HilferProblem, gamma: float, w: np.ndarray,
                 mesh: GradedMesh) -> np.ndarray:
    """Evaluate f(t_j, y_j) with y_j = t_j^(gamma-1) w_j for every row of the
    (m, n+1) array ``w`` in one rhs call, which receives the rows as one
    flat pair of 1-D arrays, as for a single grid.  The samples are not
    checked here (see _sample_errors).

    f is only defined for t > 0 and y may be unbounded at the origin, so the
    first node reuses the first interior sample; the kernel mass it carries
    is O(t_1^gamma) on the graded mesh.
    """
    t = mesh.nodes
    rows = w.shape[0]
    # An overflowing y shows as a non-finite f, which is checked later.
    with np.errstate(over="ignore", invalid="ignore"):
        y = (t[1:] ** (gamma - 1.0) * w[:, 1:]).reshape(-1)
    out = np.empty_like(w)
    out[:, 1:] = problem.rhs_values(np.tile(t[1:], rows), y).reshape(rows, -1)
    out[:, 0] = out[:, 1]
    return out


def _sample_errors(samples: np.ndarray, t: np.ndarray) -> List[Optional[HilferBvpError]]:
    """Per row of rhs samples, the error it raises, or None: a non-finite
    sample raises RhsEvaluationFailure, else a negative one RhsNegative."""
    errors: List[Optional[HilferBvpError]] = [None] * len(samples)
    if np.isfinite(samples).all() and not (samples < 0.0).any():
        return errors
    for r, row in enumerate(samples):
        finite = np.isfinite(row[1:])
        if not finite.all():
            j = int(np.argmin(finite)) + 1
            errors[r] = RhsEvaluationFailure(
                f"f({t[j]}, .) evaluated to a non-finite value {row[j]}"
            )
        elif (row < 0.0).any():
            j = int(np.argmin(row))
            errors[r] = RhsNegative(
                f"f evaluated to {row[j]} < 0 at t={t[j]}; "
                "the positive-solution iteration requires f >= 0"
            )
    return errors


def apply_delta(problem: Union[HilferProblem, Sequence[HilferProblem]],
                consts: Union[DerivedConstants, Sequence[DerivedConstants]],
                w: Union[WeightedGridFunction, np.ndarray], rule: QuadratureRule):
    """One application of the integral-equation operator, in weighted form.

    Output nodes carry t^(1-gamma) times the operator value; at t = 0 that
    is the weighted limit Lambda + lam B / (Gamma(gamma) mu), the convolution
    term contributing zero there.

    For one problem, ``problem`` is a HilferProblem, ``consts`` its
    DerivedConstants and ``w`` a WeightedGridFunction; the image is returned
    as a WeightedGridFunction.  For a stack of m problems sharing alpha,
    beta, the rhs callable and the mesh, ``problem`` and ``consts`` are
    sequences and ``w`` is the (m, n+1) array of their weighted samples.
    The stack costs one rhs call and one convolution and returns the
    (m, n+1) array of images, each equal to that of the one-problem call
    bit for bit.

    Every row is applied, and only then given its first error, checked in
    this order: SingularProblem (the mu_error of its constants),
    RhsEvaluationFailure or RhsNegative (its rhs samples), NonFiniteIterate
    (its image overflowed).  When every row fails one of the first two
    checks, nothing is applied and the images are nan.  A stack raises the
    error of its first failing row, which is what that row's one-problem
    call raises, and the error's ``rows`` attribute holds the outcome of
    every row: the list of each row's own error (None for a row that did
    not fail) and the (m, n+1) images, whose rows without error are those
    of the one-problem calls bit for bit.  No row is evaluated twice.
    """
    if isinstance(problem, HilferProblem):
        images = _apply_stack((problem,), (consts,), w.values[None], rule)
        return WeightedGridFunction(rule.mesh, consts.gamma, images[0])
    return _apply_stack(problem, consts, w, rule)


def _apply_stack(problems: Sequence[HilferProblem],
                 consts: Sequence[DerivedConstants], w: np.ndarray,
                 rule: QuadratureRule) -> np.ndarray:
    """apply_delta of a stack; see there."""
    lead = problems[0]
    if any(p.alpha != lead.alpha or p.beta != lead.beta or p.rhs is not lead.rhs
           for p in problems):
        raise ValueError("a stack of problems must share alpha, beta and the rhs")
    mesh = rule.mesh
    t = mesh.nodes
    gamma = consts[0].gamma
    samples = _rhs_samples(lead, gamma, w, mesh)
    errors = [mu_error(p, c) or error
              for p, c, error in zip(problems, consts, _sample_errors(samples, t))]
    if None not in errors:
        # No row is left to apply, so nothing is convolved: a solve whose
        # rhs fails at its first iterate reports that, not MeshTooLarge.
        errors[0].rows = (errors, np.full_like(w, np.nan))
        raise errors[0]
    out = np.empty_like(w)
    heads = np.array([c.capital_lambda for c in consts])
    weights = None
    # The samples of a failed row and an overflow give non-finite images,
    # which are checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        conv = rl_integral(lead.alpha, samples, rule)
        # B row by row through einsum's own loop: BLAS ddot splits long
        # vectors over its threads, so its sum depends on the thread count.
        # A failed row gets no B: at mu = 0 it would divide by zero.
        for k, (p, c) in enumerate(zip(problems, consts)):
            if p.lam != 0.0 and errors[k] is None:
                if weights is None:
                    weights = boundary_kernel_weights(lead.alpha, mesh)
                b = float(np.einsum("i,i->", weights, samples[k]))
                heads[k] += p.lam * b / (math.gamma(gamma) * c.mu)
        out[:, 0] = heads
        out[:, 1:] = heads[:, None] + t[1:] ** (1.0 - gamma) * conv[:, 1:]
    finite = np.isfinite(out)
    for k in np.flatnonzero(~finite.all(axis=1)):
        if errors[k] is None:
            j = int(np.argmin(finite[k]))
            errors[k] = NonFiniteIterate(
                f"the operator image is {out[k, j]} at t={t[j]}: the iterate "
                "overflowed double precision"
            )
    failed = [error for error in errors if error is not None]
    if failed:
        failed[0].rows = (errors, out)
        raise failed[0]
    return out


def initial_iterate(consts: DerivedConstants, settings: PicardSettings,
                    mesh: GradedMesh) -> WeightedGridFunction:
    """The start x_0; WeightedGridFunction rejects a wrong-shape or
    non-finite ``initial_guess`` with ValueError."""
    guess = settings.initial_guess
    if guess is None:
        guess = np.full(mesh.n + 1, consts.capital_lambda)
    return WeightedGridFunction(mesh, consts.gamma, guess)


class _AndersonHistory:
    """Ring buffers of the last ANDERSON_DEPTH differences of the residuals
    f = Delta(x) - x and of the images Delta(x), one set per stacked column,
    with the Gram matrices of the residual differences kept up to date, so
    that one mixing step costs O(n * ANDERSON_DEPTH) per column.

    Inner products go through numpy's own loops (``einsum``), not BLAS, so
    the mixing step adds no dependence on the BLAS thread count; each
    column's numbers are those of a one-column history, bit for bit.
    """

    def __init__(self, columns: int, size: int):
        self.d_f = np.zeros((columns, ANDERSON_DEPTH, size))
        self.d_g = np.zeros((columns, ANDERSON_DEPTH, size))
        self.gram = np.zeros((columns, ANDERSON_DEPTH, ANDERSON_DEPTH))
        self.pushed = 0
        self.last = None

    def keep(self, columns: List[int]) -> None:
        """Drop every column not listed."""
        self.d_f = self.d_f[columns]
        self.d_g = self.d_g[columns]
        self.gram = self.gram[columns]
        if self.last is not None:
            self.last = (self.last[0][columns], self.last[1][columns])

    def mix(self, f: np.ndarray, g: np.ndarray):
        """Record the rows of (f_k, g_k) and return, per column, the Anderson
        iterate g_k - dG gamma with gamma = argmin ||f_k - dF gamma||_2, and
        whether it exists: it does not on the first call, when no
        difference is known yet, nor where the differences overflow."""
        last, self.last = self.last, (f, g)
        if last is None:
            return g, np.zeros(len(g), dtype=bool)
        slot = self.pushed % ANDERSON_DEPTH
        np.subtract(f, last[0], out=self.d_f[:, slot])
        np.subtract(g, last[1], out=self.d_g[:, slot])
        self.pushed += 1
        used = min(self.pushed, ANDERSON_DEPTH)
        d_f = self.d_f[:, :used]
        coef = np.zeros((len(f), used))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            column = np.einsum("mij,mj->mi", d_f, self.d_f[:, slot])
            self.gram[:, slot, :used] = column
            self.gram[:, :used, slot] = column
            rhs = np.einsum("mij,mj->mi", d_f, f)
            gram = self.gram[:, :used, :used]
            finite = np.isfinite(gram).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1)
            # Scale the columns to unit length so that the cutoff on singular
            # values measures near collinearity, not the size of a difference.
            scale = np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
            scale[scale == 0.0] = 1.0
            gram = gram / (scale[:, :, None] * scale[:, None, :])
            rhs = rhs / scale
            for r in np.flatnonzero(finite):
                coef[r] = np.linalg.lstsq(gram[r], rhs[r],
                                          rcond=_ANDERSON_RCOND)[0] / scale[r]
            mixed = g - np.einsum("mi,mij->mj", coef, self.d_g[:, :used])
        return mixed, finite


def solve_picard(problem: HilferProblem, consts: DerivedConstants,
                 settings: PicardSettings, rule: QuadratureRule) -> SolveResult:
    """Find the fixed point of the operator by Anderson-accelerated Picard
    iteration, stopping once ||Delta(x_k) - x_k|| <= ``settings.tol`` in the
    weighted sup norm.

    Each iteration applies the operator once, to x_k.  The first two
    iterations are plain Picard steps; from then on the next iterate mixes
    the last ANDERSON_DEPTH + 1 residuals and images (Anderson type II,
    Walker & Ni 2011).  A mixed iterate is accepted only when it is finite
    and nonnegative at every node, i.e. lies in the positive cone the
    operator preserves; otherwise the plain step x_{k+1} = Delta(x_k) is
    taken.  ``history[k]`` is ||Delta(x_k) - x_k||, which on a plain step is
    the difference of successive iterates, ``iterations`` counts operator
    applications, and the returned solution is the last image Delta(x_k).

    Non-convergence is reported through the ``converged`` flag; the final
    image and the history are always returned for diagnosis.  A failing
    operator raises what apply_delta raises.
    """
    outcome = _solve_stack((problem,), (consts,), settings, rule)[0]
    if isinstance(outcome, HilferBvpError):
        raise outcome
    return outcome


def _solve_stack(problems: Sequence[HilferProblem], consts: Sequence[DerivedConstants],
                 settings: PicardSettings, rule: QuadratureRule
                 ) -> List[Union[SolveResult, HilferBvpError]]:
    """solve_picard of every problem of a stack that shares alpha, beta, the
    rhs callable and the mesh, run in lock-step: each iteration makes one
    apply_delta call for the problems still running.  Residuals, stopping
    test, Anderson history, cone safeguard and iteration count are kept per
    problem.

    The outcome of each problem is what solve_picard gives for it alone,
    bit for bit: its SolveResult, or the HilferBvpError its solve raises.
    The stacked apply_delta applies every row and only then gives each its
    first error (see there), so one pass per iteration retires each row on
    its error, on convergence or at ``settings.max_iter``.  The other rows
    continue from their own images, which equal those of solo applies bit
    for bit, so no row is applied again.
    """
    mesh = rule.mesh
    x = np.stack([initial_iterate(c, settings, mesh).values for c in consts])
    mixer = _AndersonHistory(len(problems), mesh.n + 1)
    histories: List[List[float]] = [[] for _ in problems]
    outcomes: List[Union[SolveResult, HilferBvpError, None]] = [None] * len(problems)
    running = list(range(len(problems)))        # the problem of each row of x
    while running:
        try:
            g = apply_delta([problems[i] for i in running],
                            [consts[i] for i in running], x, rule)
            errors = [None] * len(running)
        except HilferBvpError as exc:
            # The error of each row (see apply_delta), or of every row for an
            # error that is not a row's own, such as MeshTooLarge; then x
            # stands in for the images, which no retired row reads.
            errors, g = vars(exc).pop("rows", ([exc] * len(running), x))
        residual = g - x
        steps = np.max(np.abs(residual), axis=1)
        rows = []
        for r, (i, error) in enumerate(zip(running, errors)):
            if error is not None:
                outcomes[i] = error
                continue
            step = float(steps[r])
            history = histories[i]
            history.append(step)
            if step <= settings.tol or len(history) == settings.max_iter:
                image = WeightedGridFunction(mesh, consts[i].gamma, g[r])
                outcomes[i] = SolveResult(solution=image, iterations=len(history),
                                          history=history,
                                          converged=step <= settings.tol)
            else:
                rows.append(r)
        if len(rows) < len(running):
            running = [running[r] for r in rows]
            residual, g = residual[rows], g[rows]
            mixer.keep(rows)
        if running:
            mixed, usable = mixer.mix(residual, g)
            usable &= np.all(np.isfinite(mixed) & (mixed >= 0.0), axis=1)
            x = np.where(usable[:, None], mixed, g)
    return outcomes


def boundary_identity_gap(problem: HilferProblem, consts: DerivedConstants,
                          w: WeightedGridFunction, rule: QuadratureRule) -> float:
    """|Gamma(gamma) w(0) - lam A - d| for a computed solution, where
    A = integral_0^1 y is taken in the closed form the operator itself
    uses, A = d/(mu Gamma(gamma+1)) + B/mu with the discrete boundary
    functional B = integral_0^1 (Q(tau)/Gamma(alpha)) f(tau, y(tau)) dtau.
    The identity therefore closes to stopping tolerance rather than
    quadrature tolerance; verify.residual_check measures the same defect
    with A by direct quadrature."""
    error = mu_error(problem, consts)
    if error is None:
        samples = _rhs_samples(problem, consts.gamma, w.values[None], rule.mesh)
        error = _sample_errors(samples, rule.mesh.nodes)[0]
    if error is not None:
        raise error
    lhs = math.gamma(consts.gamma) * float(w.values[0])
    # The lam A term is left out at lam = 0: A may overflow, and 0 * inf
    # is nan.
    if problem.lam != 0.0:
        weights = boundary_kernel_weights(problem.alpha, rule.mesh)
        b = float(np.einsum("i,i->", weights, samples[0]))
        a = problem.d / (consts.mu * math.gamma(consts.gamma + 1.0)) + b / consts.mu
        lhs -= problem.lam * a
    return abs(lhs - problem.d)


def bracket_from_bounds(problem: HilferProblem, consts: DerivedConstants,
                        mesh: GradedMesh) -> SolutionBracket:
    """Closed-form bracket for problems with constant bounds A1 <= f <= A2:
    both envelope solutions are d/Gamma(gamma) t^(gamma-1) + A t^alpha / Gamma(alpha+1)
    in physical form, sampled here in weighted form.

    The caller asserts that the bounds actually dominate f.
    """
    if problem.lower_bound is None or problem.upper_bound is None:
        raise MissingBounds("bracket_from_bounds needs both lower_bound and upper_bound")
    t = mesh.nodes
    gamma = consts.gamma
    base = problem.d / math.gamma(gamma)
    # alpha + 1 - gamma = (1-beta)(1-alpha) >= 0; t^0 = 1 at the origin.
    expo = problem.alpha + 1.0 - gamma
    shape = t ** expo / math.gamma(problem.alpha + 1.0)
    lower = WeightedGridFunction(mesh, gamma, base + problem.lower_bound * shape)
    upper = WeightedGridFunction(mesh, gamma, base + problem.upper_bound * shape)
    return SolutionBracket(lower=lower, upper=upper)
