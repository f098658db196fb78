"""Independent verification of computed solutions.

The interior residual applies the two-parameter fractional derivative to the
solution and compares with f.  The solution is split as

    y(t) = w(0) t^(gamma-1) + v(t),     v(t) = t^(gamma-1) (w(t) - w(0)),

and the first term is annihilated analytically (the derivative of t^(gamma-1)
at composite order gamma vanishes identically), so only the bounded part v
is differentiated numerically.  Residuals are certified away from the origin
(t >= t_cut); the boundary condition is checked separately at t = 0 with the
integral of y taken by singularity-aware quadrature.

The derivative of v is taken in Riemann-Liouville form, d/dt I^(1-alpha) v,
which equals the Hilfer form I^(beta(1-alpha)) d/dt I^((1-beta)(1-alpha)) v
for every beta.  Write u = I^((1-beta)(1-alpha)) v and s = beta(1-alpha).
The outer stage I^s u' is the Caputo derivative of order 1 - s of u, which
is its Riemann-Liouville derivative d/dt I^s u less u(0) t^(s-1)/Gamma(s).
Here u(0) = 0: v is bounded with v(0) = 0 (w is continuous), so u = v at
beta = 1, and otherwise |u(t)| <= max |v| t^k / Gamma(k+1) with
k = (1-beta)(1-alpha) > 0.
The semigroup property I^s I^((1-beta)(1-alpha)) = I^(1-alpha) then gives
d/dt I^(1-alpha) v.  The identity holds for v, not for y, whose singular
part t^(gamma-1) is handled above.  One operator of order 1 - alpha serves
every beta; at alpha = 1/2 it is the solver's own I^(1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from .core import (DerivedConstants, GradedMesh, HilferProblem, WeightedGridFunction,
                   rhs_samples)
from .errors import NotConstantRhs, OutOfDomain, RequiresLambdaZero, SingularProblem
from .fracops import QuadratureRule, hilfer_derivative, physical_integral

# Relative tolerance used to decide that sampled rhs values are "the same
# constant"; pure roundoff in user callbacks stays far below this.
_CONST_RTOL = 1e-12

# Sample points used to probe whether f is constant.
_PROBE_T = (0.21, 0.5, 0.83, 1.0)
_PROBE_Y = (0.0, 0.7, 1.9, 5.0)


@dataclass(frozen=True)
class ResidualReport:
    interior_residual: float
    boundary_residual: float
    t_cut: float
    node_count: int


def residual_check(problem: Union[HilferProblem, Sequence[HilferProblem]],
                   consts: Union[DerivedConstants, Sequence[DerivedConstants]],
                   solution: Union[WeightedGridFunction, Sequence[WeightedGridFunction]],
                   rule: QuadratureRule, t_cut: float = 0.05
                   ) -> Union[ResidualReport, List[ResidualReport]]:
    """max_{t_i >= t_cut} |D^(alpha,beta) y(t_i) - f(t_i, y(t_i))| plus the
    boundary defect |Gamma(gamma) w(0) - lam int_0^1 y - d|.

    For a stack of m problems sharing alpha, beta, the rhs callable and the
    mesh (as in solver.apply_delta), ``problem``, ``consts`` and
    ``solution`` are sequences, and the list of their reports is returned,
    each equal to its one-problem call bit for bit.  The stack costs one
    fractional integral, one stencil and one rhs call.  No numpy warning
    is raised; a residual that overflows is reported as inf or nan, for the
    caller to judge."""
    if not (0.0 < t_cut < 0.5):
        raise OutOfDomain(f"t_cut must lie in (0, 0.5), got {t_cut}")
    single = isinstance(problem, HilferProblem)
    problems, consts, solutions = (((problem,), (consts,), (solution,)) if single
                                   else (problem, consts, solution))
    t = rule.mesh.nodes
    w = np.stack([s.values for s in solutions])
    f = rhs_samples(problems, w, rule.mesh)
    mask = t >= t_cut
    with np.errstate(over="ignore", invalid="ignore"):
        # Bounded part v = t^(gamma-1) (w - w(0)); v(0) = 0 since w is continuous.
        v = np.zeros_like(w)
        v[:, 1:] = t[1:] ** (consts[0].gamma - 1.0) * (w[:, 1:] - w[:, :1])
        # The Riemann-Liouville form of the derivative (module docstring).
        derivative = hilfer_derivative(problems[0].alpha, 0.0, v, rule)
        interior = np.max(np.abs(derivative[:, mask] - f[:, mask]), axis=1).tolist()
        count = int(np.count_nonzero(mask))
        reports = []
        for p, c, solution, row in zip(problems, consts, solutions, interior):
            defect = math.gamma(c.gamma) * float(solution.values[0])
            if p.lam != 0.0:
                # Left out at lam = 0: int y may overflow, and 0 * inf is nan.
                defect -= p.lam * physical_integral(solution)
            boundary = abs(defect - p.d)
            reports.append(ResidualReport(interior_residual=row, boundary_residual=boundary,
                                          t_cut=t_cut, node_count=count))
    return reports[0] if single else reports


def _detect_constant(problem: HilferProblem) -> float:
    c = float(problem.rhs_values(1.0, 1.0))
    if not math.isfinite(c):
        raise NotConstantRhs(
            f"f(1, 1) = {c} is not finite; the constant-rhs oracle needs f "
            "identically equal to a finite constant"
        )
    t, y = np.meshgrid(_PROBE_T, _PROBE_Y, indexing="ij")
    values = problem.rhs_values(t, y)
    off = ~(np.abs(values - c) <= _CONST_RTOL * max(1.0, abs(c)))
    if np.any(off):
        i, j = np.argwhere(off)[0]
        raise NotConstantRhs(
            f"f({_PROBE_T[i]}, {_PROBE_Y[j]}) = {values[i, j]} differs from "
            f"f(1, 1) = {c}; the constant-rhs oracle needs f identically constant"
        )
    return c


def constant_rhs_oracle(problem: HilferProblem, consts: DerivedConstants,
                        mesh: GradedMesh) -> WeightedGridFunction:
    """Closed-form solution for f identically c, in weighted form:

        w(t) = Lambda + lam c/(Gamma(gamma) mu Gamma(alpha+2))
                      + c t^(1-gamma+alpha)/Gamma(alpha+1),

    using integral_0^1 Q(tau) dtau = 1/(alpha(alpha+1))."""
    if not consts.mu > 0.0:
        raise SingularProblem(
            f"mu = {consts.mu:.3e} <= 0: the positive closed form needs mu > 0"
        )
    c = _detect_constant(problem)
    t = mesh.nodes
    gamma = consts.gamma
    alpha = problem.alpha
    head = consts.capital_lambda + problem.lam * c / (
        math.gamma(gamma) * consts.mu * math.gamma(alpha + 2.0))
    values = head + c * t ** (1.0 - gamma + alpha) / math.gamma(alpha + 1.0)
    return WeightedGridFunction(mesh, gamma, values)


def power_rhs_oracle(problem: HilferProblem, consts: DerivedConstants,
                     mesh: GradedMesh, sigma: float) -> WeightedGridFunction:
    """Closed-form solution for f(t, y) = t^(sigma-1) when lam = 0:

        y(t) = (d/Gamma(gamma)) t^(gamma-1)
               + (Gamma(sigma)/Gamma(alpha+sigma)) t^(alpha+sigma-1),

    returned as weighted samples."""
    if problem.lam != 0.0:
        raise RequiresLambdaZero(
            f"the power-rhs closed form needs lam = 0, got {problem.lam}"
        )
    if not sigma >= 1.0:
        raise OutOfDomain(f"sigma must be >= 1, got {sigma}")
    t = mesh.nodes
    gamma = consts.gamma
    alpha = problem.alpha
    coef = math.gamma(sigma) / math.gamma(alpha + sigma)
    values = problem.d / math.gamma(gamma) + coef * t ** (alpha + sigma - gamma)
    return WeightedGridFunction(mesh, gamma, values)
