"""Fixed-point operator of the equivalent integral equation and its Picard
iteration, plus control functions and upper/lower solution brackets.

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
from typing import Callable, List, Optional

import numpy as np

from .core import (
    MU_TOLERANCE,
    DerivedConstants,
    GradedMesh,
    HilferProblem,
    WeightedGridFunction,
)
from .errors import (
    InvalidInterval,
    MissingBounds,
    RhsEvaluationFailure,
    RhsNegative,
    SingularProblem,
)
from .fracops import QuadratureRule, boundary_kernel_weights, rl_integral

# Number of past residual differences an Anderson step combines.
ANDERSON_DEPTH = 5
# Relative cutoff on the singular values of the column-scaled Gram matrix of
# those differences; directions below it are left out of the mixing step.
_ANDERSON_RCOND = 1e-10


@dataclass(frozen=True)
class PicardSettings:
    """Stopping rule and starting point for the fixed-point iteration.

    ``initial_guess`` is an explicit grid of weighted samples, or None for
    the constant start w = Lambda.
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
class ControlFunctions:
    """Running sup/inf envelopes of f over a sampled y-grid on [y_lo, y_hi];
    both are nondecreasing in their second argument by construction and
    satisfy lower(t, x) <= f(t, x) <= upper(t, x) at the grid points."""

    y_lo: float
    y_hi: float
    upper: Callable[[float, float], float]
    lower: Callable[[float, float], float]


@dataclass(frozen=True, eq=False)
class SolutionBracket:
    lower: WeightedGridFunction
    upper: WeightedGridFunction


def _rhs_samples(problem: HilferProblem, consts: DerivedConstants,
                 w: np.ndarray, mesh: GradedMesh) -> np.ndarray:
    """Evaluate f(t_j, y_j) with y_j = t_j^(gamma-1) w_j.

    f is only defined for t > 0 and y may be unbounded at the origin, so the
    first node reuses the first interior sample; the kernel mass it carries
    is O(t_1^gamma) on the graded mesh.
    """
    t = mesh.nodes
    out = np.empty_like(w)
    out[1:] = problem.rhs_values(t[1:], t[1:] ** (consts.gamma - 1.0) * w[1:])
    bad = ~np.isfinite(out[1:])
    if np.any(bad):
        j = int(np.argmax(bad)) + 1
        raise RhsEvaluationFailure(
            f"f({t[j]}, .) evaluated to a non-finite value {out[j]}"
        )
    out[0] = out[1]
    if np.any(out < 0.0):
        j = int(np.argmin(out))
        raise RhsNegative(
            f"f evaluated to {out[j]} < 0 at t={t[j]}; "
            "the positive-solution iteration requires f >= 0"
        )
    return out


def _require_nonsingular(consts: DerivedConstants) -> None:
    if abs(consts.mu) < MU_TOLERANCE:
        raise SingularProblem(
            f"mu = {consts.mu:.3e} is numerically zero: the integral equation "
            "is unavailable (it requires mu != 0)"
        )


def apply_delta(problem: HilferProblem, consts: DerivedConstants,
                w: WeightedGridFunction, rule: QuadratureRule) -> WeightedGridFunction:
    """One application of the integral-equation operator, in weighted form.

    Output nodes carry t^(1-gamma) times the operator value; at t = 0 that
    is the weighted limit Lambda + lam B / (Gamma(gamma) mu), the convolution
    term contributing zero there.
    """
    _require_nonsingular(consts)
    mesh = rule.mesh
    t = mesh.nodes
    gamma = consts.gamma
    samples = _rhs_samples(problem, consts, w.values, mesh)
    conv = rl_integral(problem.alpha, samples, rule)
    head = consts.capital_lambda
    if problem.lam != 0.0:
        weights = boundary_kernel_weights(problem.alpha, mesh)
        b = float(weights @ samples)
        head += problem.lam * b / (math.gamma(gamma) * consts.mu)
    out = np.empty_like(w.values)
    out[0] = head
    out[1:] = head + t[1:] ** (1.0 - gamma) * conv[1:]
    return WeightedGridFunction(mesh, gamma, out)


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
    f = Delta(x) - x and of the images Delta(x), with the Gram matrix of the
    residual differences kept up to date, so that one mixing step costs
    O(n * ANDERSON_DEPTH).

    Inner products go through numpy's own loops (``einsum``), not BLAS, so
    the mixing step adds no dependence on the BLAS thread count.
    """

    def __init__(self, size: int):
        self.d_f = np.zeros((ANDERSON_DEPTH, size))
        self.d_g = np.zeros((ANDERSON_DEPTH, size))
        self.gram = np.zeros((ANDERSON_DEPTH, ANDERSON_DEPTH))
        self.pushed = 0
        self.last = None

    def mix(self, f: np.ndarray, g: np.ndarray):
        """Record (f_k, g_k) and return the Anderson iterate
        g_k - dG gamma with gamma = argmin ||f_k - dF gamma||_2, or None on
        the first call, when no difference is known yet, and when the
        differences overflow."""
        last, self.last = self.last, (f, g)
        if last is None:
            return None
        slot = self.pushed % ANDERSON_DEPTH
        np.subtract(f, last[0], out=self.d_f[slot])
        np.subtract(g, last[1], out=self.d_g[slot])
        self.pushed += 1
        used = min(self.pushed, ANDERSON_DEPTH)
        d_f = self.d_f[:used]
        with np.errstate(over="ignore", invalid="ignore"):
            column = np.einsum("ij,j->i", d_f, d_f[slot])
            self.gram[slot, :used] = column
            self.gram[:used, slot] = column
            rhs = np.einsum("ij,j->i", d_f, f)
        gram = self.gram[:used, :used]
        if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs))):
            return None
        # Scale the columns to unit length so that the cutoff on singular
        # values measures near collinearity, not the size of a difference.
        scale = np.sqrt(np.diag(gram))
        scale[scale == 0.0] = 1.0
        coef = np.linalg.lstsq(gram / np.outer(scale, scale), rhs / scale,
                               rcond=_ANDERSON_RCOND)[0] / scale
        return g - np.einsum("i,ij->j", coef, self.d_g[:used])


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
    image and the history are always returned for diagnosis.
    """
    mesh = rule.mesh
    x = initial_iterate(consts, settings, mesh)
    mixer = _AndersonHistory(mesh.n + 1)
    history: List[float] = []
    converged = False
    for _ in range(settings.max_iter):
        image = apply_delta(problem, consts, x, rule)
        residual = image.values - x.values
        step = float(np.max(np.abs(residual)))
        history.append(step)
        if step <= settings.tol:
            converged = True
            break
        mixed = mixer.mix(residual, image.values)
        if mixed is not None and np.all(np.isfinite(mixed) & (mixed >= 0.0)):
            x = WeightedGridFunction(mesh, consts.gamma, mixed)
        else:
            x = image
    return SolveResult(solution=image, iterations=len(history),
                       history=history, converged=converged)


def boundary_identity_gap(problem: HilferProblem, consts: DerivedConstants,
                          w: WeightedGridFunction, rule: QuadratureRule) -> float:
    """|Gamma(gamma) w(0) - lam A - d| for a computed solution, where
    A = integral_0^1 y is taken in the closed form the operator itself
    uses, A = d/(mu Gamma(gamma+1)) + B/mu with the discrete boundary
    functional B = integral_0^1 (Q(tau)/Gamma(alpha)) f(tau, y(tau)) dtau.
    The identity therefore closes to stopping tolerance rather than
    quadrature tolerance; verify.residual_check measures the same defect
    with A by direct quadrature."""
    _require_nonsingular(consts)
    weights = boundary_kernel_weights(problem.alpha, rule.mesh)
    b = float(weights @ _rhs_samples(problem, consts, w.values, rule.mesh))
    a = problem.d / (consts.mu * math.gamma(consts.gamma + 1.0)) + b / consts.mu
    lhs = math.gamma(consts.gamma) * float(w.values[0])
    return abs(lhs - problem.lam * a - problem.d)


def build_control_functions(problem: HilferProblem, y_lo: float, y_hi: float,
                            samples: int = 256) -> ControlFunctions:
    """Realize the sup/inf envelopes of f on a uniform y-grid.

    upper(t, x) = max f(t, y_k) over grid points y_k <= x and
    lower(t, x) = min f(t, y_k) over grid points y_k >= x; x is clamped to
    [y_lo, y_hi].  f is opaque, so the envelopes are sampled rather than
    symbolic.
    """
    if not (0.0 < y_lo <= y_hi):
        raise InvalidInterval(f"need 0 < y_lo <= y_hi, got [{y_lo}, {y_hi}]")
    if not (isinstance(samples, (int, np.integer)) and samples >= 2):
        raise InvalidInterval(f"need at least 2 sample points, got {samples}")
    grid = np.linspace(y_lo, y_hi, samples)

    def upper(t: float, x: float) -> float:
        x = min(max(x, y_lo), y_hi)
        return float(np.max(problem.rhs_values(t, grid[grid <= x])))

    def lower(t: float, x: float) -> float:
        x = min(max(x, y_lo), y_hi)
        return float(np.min(problem.rhs_values(t, grid[grid >= x])))

    return ControlFunctions(y_lo=y_lo, y_hi=y_hi, upper=upper, lower=lower)


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
