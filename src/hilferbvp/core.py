"""Problem definition, graded mesh, and the weighted-space representation.

The boundary-value problem lives on (0, 1] and its solution behaves like
t^(gamma-1) at the origin, so the library stores w(t) = t^(1-gamma) y(t),
which extends continuously to t = 0.  The value w(0) is a genuine unknown
carried on the mesh.  All types here are immutable after construction.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateMesh, MeshTooLarge, OutOfDomain, SingularProblem

# Node pairs per numpy call of the mesh's width check, so that its scratch
# stays small next to the nodes at every n.
_WIDTH_CHUNK = 1 << 16

# Below this magnitude of mu the constant Lambda overflows and the integral
# equation is numerically meaningless.
MU_TOLERANCE = 1e-12


@cache
def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where sysconf cannot tell: the one
    figure that _memory_guard holds allocations to."""
    try:
        size = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return size if size > 0 else None


@contextmanager
def _memory_guard(need: int, what: str):
    """Raise MeshTooLarge before the block runs when the `need` bytes of
    `what` it allocates (say "nodes of a mesh with 8 intervals") exceed
    physical memory, and when the block raises MemoryError."""
    have = _physical_memory()
    if have is not None and need > have:
        raise MeshTooLarge(f"the {what} need {need / 2**30:.3g} GiB, more than "
                           f"the {have / 2**30:.3g} GiB of physical memory")
    try:
        yield
    except MemoryError:
        raise MeshTooLarge(f"the {need / 2**30:.3g} GiB of {what} could not be "
                           f"allocated") from None


def default_grading(gamma: float) -> float:
    """Grading exponent resolving both the t^(gamma-1) solution singularity
    and the weakly singular convolution kernel: r = max(1, 2/gamma)."""
    if not (0.0 < gamma <= 1.0):
        raise OutOfDomain(f"gamma must lie in (0, 1], got {gamma}")
    return max(1.0, 2.0 / gamma)


@dataclass(frozen=True, eq=False)
class GradedMesh:
    """Nodes t_j = (j/n)^r on [0, 1], clustered near 0 for r > 1.

    Raises MeshTooLarge, before allocating them, when the 8 (n+1) bytes of
    the nodes alone exceed physical memory, and when they cannot be
    allocated.  Raises DegenerateMesh when two neighbouring nodes lie closer
    than the smallest normal double.  A mesh that passes has t_1 > 0,
    strictly increasing nodes and finite derivative-stencil weights (each
    at most one over the least width)."""

    n: int
    r: float = 1.0
    nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"mesh needs a positive number of intervals, got {self.n}")
        if not (math.isfinite(self.r) and self.r >= 1.0):
            raise ValueError(f"grading exponent must be >= 1, got {self.r}")
        # In place, one array at a time: the same bits as
        # (np.arange(n + 1) / n) ** r at half the peak.
        with _memory_guard(8 * (self.n + 1), f"nodes of a mesh with {self.n} intervals"):
            nodes = np.arange(self.n + 1, dtype=float)
        nodes /= self.n
        nodes **= self.r
        tiny = np.finfo(float).tiny
        for j in range(0, self.n, _WIDTH_CHUNK):
            part = nodes[j:j + _WIDTH_CHUNK + 1]
            narrow = np.flatnonzero(np.diff(part) < tiny)
            if narrow.size:
                k = j + int(narrow[0])
                raise DegenerateMesh(
                    f"the mesh n = {self.n}, r = {self.r:g} is too steep for double "
                    f"precision: its nodes t_{k} = {nodes[k]:.3g} and t_{k + 1} = "
                    f"{nodes[k + 1]:.3g} lie less than {tiny:.3g} apart; use a "
                    f"smaller r or n"
                )
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def graded_for(cls, n: int, gamma: float) -> "GradedMesh":
        return cls(n, default_grading(gamma))


@dataclass(frozen=True, eq=False)
class WeightedGridFunction:
    """Samples w_j of the weighted representation t^(1-gamma) y(t).

    Membership in the positive cone corresponds to all w_j >= 0.
    """

    mesh: GradedMesh
    gamma: float
    values: np.ndarray

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError(f"weight exponent must lie in (0, 1], got {self.gamma}")
        values = np.asarray(self.values, dtype=float).copy()
        if values.shape != (self.mesh.n + 1,):
            raise ValueError(
                f"expected {self.mesh.n + 1} samples, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function samples must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class HilferProblem:
    """The boundary-value problem D^(alpha,beta) y = f(t, y) on (0, 1] with
    I^(1-gamma) y(0) = lam * int_0^1 y(s) ds + d.

    The rhs callback f(t, y), t in (0, 1], must be re-entrant and is array
    in, array out: given two float arrays of one shape it returns that shape
    (a scalar result stands for a constant).  A scalar-only f is evaluated
    point by point instead (see ``rhs_values``).  ``lipschitz``,
    ``lower_bound`` and ``upper_bound`` are optional analyst-supplied data:
    a Lipschitz constant of f in y, and global constant bounds
    lower_bound <= f <= upper_bound.
    """

    alpha: float
    beta: float
    lam: float
    d: float
    rhs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lipschitz: Optional[float] = None
    lower_bound: Optional[float] = None
    upper_bound: Optional[float] = None

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"order alpha must lie in (0, 1], got {self.alpha}")
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError(f"type beta must lie in [0, 1], got {self.beta}")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"boundary weight lam must be >= 0, got {self.lam}")
        if not (math.isfinite(self.d) and self.d >= 0.0):
            raise ValueError(f"boundary offset d must be >= 0, got {self.d}")
        if self.lipschitz is not None and not self.lipschitz >= 0.0:
            raise ValueError(f"lipschitz constant must be >= 0, got {self.lipschitz}")
        lo, hi = self.lower_bound, self.upper_bound
        if lo is not None and not lo > 0.0:
            raise ValueError(f"lower_bound must be > 0, got {lo}")
        if hi is not None and not hi > 0.0:
            raise ValueError(f"upper_bound must be > 0, got {hi}")
        if lo is not None and hi is not None and lo > hi:
            raise ValueError(f"bounds must satisfy lower <= upper, got {lo} > {hi}")

    def rhs_values(self, t, y) -> np.ndarray:
        """f(t, y) on the broadcast of t and y, without warnings; the caller
        judges non-finite values.  The one reader of ``rhs``: f is called on
        the arrays, then point by point if that raises TypeError/ValueError
        or returns another shape."""
        t, y = np.broadcast_arrays(np.asarray(t, dtype=float),
                                   np.asarray(y, dtype=float))
        with np.errstate(all="ignore"):
            try:
                values = np.asarray(self.rhs(t, y), dtype=float)
            except (TypeError, ValueError):
                values = None
            if values is None or values.shape not in ((), t.shape):
                values = np.array([self.rhs(float(a), float(b))
                                   for a, b in zip(t.flat, y.flat)],
                                  dtype=float).reshape(t.shape)
        return np.full(t.shape, values) if values.ndim == 0 else values


def rhs_samples(problems: Sequence[HilferProblem], w: np.ndarray,
                mesh: GradedMesh) -> np.ndarray:
    """f(t_j, y_j) with y_j = t_j^(gamma-1) w_j for every row of the (m, n+1)
    array ``w`` of weighted samples of a stack of problems, in one rhs call
    that receives the rows as one flat pair of 1-D arrays, as for a single
    grid.  A stack must share alpha, beta and the rhs callable (else
    ValueError), so one gamma and one f serve every row.  The samples are
    not judged here: a non-finite y or f is left for the caller.

    f is only defined for t > 0 and y may be unbounded at the origin, so the
    first node reuses the first interior sample; the kernel mass it carries
    is O(t_1^gamma) on the graded mesh.
    """
    lead = problems[0]
    if any(p.alpha != lead.alpha or p.beta != lead.beta or p.rhs is not lead.rhs
           for p in problems):
        raise ValueError("a stack of problems must share alpha, beta and the rhs")
    t = mesh.nodes
    rows = w.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        y = (t[1:] ** (composite_order(lead.alpha, lead.beta) - 1.0)
             * w[:, 1:]).reshape(-1)
    out = np.empty_like(w)
    out[:, 1:] = lead.rhs_values(np.tile(t[1:], rows), y).reshape(rows, -1)
    out[:, 0] = out[:, 1]
    return out


@dataclass(frozen=True)
class DerivedConstants:
    """Per-problem constants of the equivalent integral equation:
    gamma = alpha + beta(1-alpha), mu = 1 - lam/Gamma(gamma+1) and
    Lambda = (lam/(mu Gamma(gamma) Gamma(gamma+1)) + 1/Gamma(gamma)) d."""

    gamma: float
    mu: float
    capital_lambda: float


def composite_order(alpha: float, beta: float) -> float:
    return alpha + beta * (1.0 - alpha)


def unguarded_constants(problem: HilferProblem) -> DerivedConstants:
    """(gamma, mu, Lambda) without the singularity guard, so a failing mu can
    be reported as a certificate; Lambda is inf when mu is exactly 0."""
    gamma = composite_order(problem.alpha, problem.beta)
    g_gamma = math.gamma(gamma)
    g_gamma1 = math.gamma(gamma + 1.0)
    mu = 1.0 - problem.lam / g_gamma1
    capital_lambda = (math.inf if mu == 0.0 else
                      (problem.lam / (mu * g_gamma * g_gamma1) + 1.0 / g_gamma) * problem.d)
    return DerivedConstants(gamma=gamma, mu=mu, capital_lambda=capital_lambda)


def mu_error(problem: HilferProblem,
             consts: DerivedConstants) -> Optional[SingularProblem]:
    """The SingularProblem of a problem whose |mu| < MU_TOLERANCE, else None:
    the equivalence between the differential problem and the integral
    equation requires mu != 0."""
    if abs(consts.mu) < MU_TOLERANCE:
        return SingularProblem(
            f"mu = 1 - lam/Gamma(gamma+1) = {consts.mu:.3e} with lam={problem.lam}, "
            f"gamma={consts.gamma}: the integral-equation formulation requires mu != 0"
        )
    return None


def derive_constants(problem: HilferProblem) -> DerivedConstants:
    """Compute (gamma, mu, Lambda) for a problem.

    Raises the mu_error of a problem whose mu is numerically zero.  A
    negative mu is recorded, not fatal here; positivity analyses reject it.
    """
    consts = unguarded_constants(problem)
    error = mu_error(problem, consts)
    if error is not None:
        raise error
    return consts
