"""Discrete fractional-calculus operators on graded meshes.

All quadrature here is product integration: the weakly singular kernels
(t-s)^(a-1), s^(g-1) and (1-s)^a are integrated in closed form against
piecewise-constant or piecewise-linear reconstructions of the regular
factor.  Newton-Cotes rules lose their order on such kernels; exact kernel
moments keep the product-trapezoidal scheme at O(n^-2) on suitably graded
meshes.  Derivatives are realized as d/dt of a fractional integral, with
the nodal derivative taken by three-point finite differences on the
(nonuniform) mesh.

Fractional orders are plain floats, validated per operation: integrals
accept any order > 0, derivatives need order in (0, 1).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Optional

import numpy as np

from .core import GradedMesh, WeightedGridFunction, composite_order
from .errors import InsufficientNodes, MeshMismatch, MeshTooLarge, OutOfDomain

PRODUCT_RECTANGLE = "product-rectangle"
PRODUCT_TRAPEZOIDAL = "product-trapezoidal"
_SCHEMES = (PRODUCT_RECTANGLE, PRODUCT_TRAPEZOIDAL)

# Orders this small are collapsed to the identity (they arise from
# beta*(1-alpha) or 1-gamma evaluating to roundoff instead of exact zero).
_ORDER_EPS = 1e-14


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """A mesh plus the reconstruction class used for the regular factor."""

    mesh: GradedMesh
    scheme: str = PRODUCT_TRAPEZOIDAL

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(f"unknown quadrature scheme {self.scheme!r}; "
                             f"expected one of {_SCHEMES}")


def gamma_fn(x: float) -> float:
    """Gamma function on (0, inf); relative error well under 1e-13 on (0, 20]."""
    if not (math.isfinite(x) and x > 0.0):
        raise OutOfDomain(f"gamma function requires x > 0, got {x}")
    return math.gamma(x)


def q_kernel(tau: float, alpha: float) -> float:
    """Boundary kernel Q(tau) = integral_tau^1 (s-tau)^(alpha-1) ds
    = (1-tau)^alpha / alpha."""
    if not (0.0 <= tau <= 1.0):
        raise OutOfDomain(f"tau must lie in [0, 1], got {tau}")
    if not (0.0 < alpha <= 1.0):
        raise OutOfDomain(f"alpha must lie in (0, 1], got {alpha}")
    return (1.0 - tau) ** alpha / alpha


# Intervals narrower than this fraction of their distance to the kernel
# point switch from direct power differences (which cancel catastrophically)
# to an 8-term binomial series; at the crossover both are accurate to ~1e-12.
_FAR_FIELD = 1e-2
_SERIES_TERMS = 8

# Scratch entries per assembly block.  The block height is this budget over
# the row length, so assembly temporaries stay O(budget) at every n.
_BLOCK_ENTRIES = 1 << 17


def _block_rows(n: int) -> int:
    """Rows per assembly block of an (n+1) x (n+1) convolution matrix."""
    return max(1, _BLOCK_ENTRIES // (n + 1))


def _split_field(ua: np.ndarray, ub: np.ndarray):
    """width = ua - ub, x = width/ua, and the masks of the far-field
    (series) and near-field (power-difference) entries.  Entries with
    ua = 0 lie in neither: their moments are zero."""
    width = ua - ub
    with np.errstate(divide="ignore", invalid="ignore"):
        x = width / ua
        far = (x < _FAR_FIELD) & (ub > 0.0)
    near = ua > 0.0
    near &= ~far
    return width, x, far, near


def _binomial_sums(p: float, x: np.ndarray, denominators):
    """sum_k binom(p,k)(-x)^k / d(k) over k < _SERIES_TERMS, one sum per d."""
    term = np.ones_like(x)
    step = np.empty_like(x)
    sums = [np.full_like(x, 1.0 / d(0)) for d in denominators]
    for k in range(1, _SERIES_TERMS):
        # x * -(p-k+1) is bitwise (-x) * (p-k+1): rounding is sign-symmetric.
        np.multiply(x, -(p - k + 1.0), out=step)
        step /= k
        term *= step
        for s, d in zip(sums, denominators):
            np.divide(term, d(k), out=step)
            s += step
    return sums


def _hat_moments(p: float, ua: np.ndarray, ub: np.ndarray):
    """Moments of u^p over [ub, ua] against the two hat factors:

        lo = integral u^p (u - ub) du,   hi = integral u^p (ua - u) du,

    for arrays with ua >= ub >= 0 (entries with ua = ub contribute zero).
    Far-field entries (ua - ub << ua) are evaluated by a series in
    x = 1 - ub/ua to avoid cancellation; each formula runs only on the
    entries it serves.
    """
    p1, p2 = p + 1.0, p + 2.0
    width, x, far, near = _split_field(ua, ub)
    lo = np.zeros(width.shape)
    hi = np.zeros(width.shape)
    a, b = ua[near], ub[near]
    m0 = (a ** p1 - b ** p1) / p1
    m1 = (a ** p2 - b ** p2) / p2
    lo[near] = m1 - b * m0
    hi[near] = a * m0 - m1
    s_lo, s_hi = _binomial_sums(p, x[far], (lambda k: (k + 1.0) * (k + 2.0),
                                            lambda k: k + 2.0))
    base = ua[far] ** p * width[far] ** 2
    lo[far] = base * s_lo
    hi[far] = base * s_hi
    return lo, hi


def _box_moment(p: float, ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """integral of u^p over [ub, ua], series-protected in the far field."""
    p1 = p + 1.0
    width, x, far, near = _split_field(ua, ub)
    m0 = np.zeros(width.shape)
    m0[near] = (ua[near] ** p1 - ub[near] ** p1) / p1
    (s,) = _binomial_sums(p, x[far], (lambda k: k + 1.0,))
    m0[far] = ua[far] ** p * width[far] * s
    return m0


def _convolution_matrix(nodes: np.ndarray, order: float, scheme: str) -> np.ndarray:
    """Lower-triangular W with (W g)_i = (1/Gamma(order)) *
    integral_0^{t_i} (t_i - s)^(order-1) R[g](s) ds, R the reconstruction.

    Interval j contributes to row i only when t_{j+1} <= t_i; clamping the
    kernel distances at zero erases every other entry.  W is filled in
    blocks of _block_rows(n) rows, each spanning only the columns its rows
    can reach, so on top of the 8(n+1)^2-byte result the scratch memory is
    O(_BLOCK_ENTRIES).  The operator cache holding these results is bounded
    by count (16 matrices), so it can still hold 2 GB at n = 4096.
    """
    t = nodes
    n = t.size - 1
    h = t[1:] - t[:-1]
    p = order - 1.0
    scale = math.gamma(order)
    w = np.zeros((n + 1, n + 1))
    step = _block_rows(n)
    for r0 in range(0, n + 1, step):
        r1 = min(r0 + step, n + 1)
        # Distances from each output node to the nodes, clamped so uncovered
        # intervals produce zero moments.  In u = t_i - s the left node's hat
        # factor (t_{j+1} - s) becomes (u - ub), the right node's (s - t_j)
        # becomes (ua - u).
        dist = np.maximum(t[r0:r1, None] - t[None, :r1], 0.0)
        ua, ub = dist[:, :-1], dist[:, 1:]
        hb = h[:r1 - 1]
        block = w[r0:r1, :r1]
        if scheme == PRODUCT_RECTANGLE:
            block[:, :-1] += _box_moment(p, ua, ub)
        else:
            lo, hi = _hat_moments(p, ua, ub)
            lo /= hb
            hi /= hb
            block[:, :-1] += lo
            block[:, 1:] += hi
        block /= scale
    w.setflags(write=False)
    return w


def _pl_kernel_weights(nodes: np.ndarray, p: float, side: str) -> np.ndarray:
    """Weights v with v . g = integral_0^1 K(s) PL[g](s) ds for the kernel
    K(s) = s^p (side 'left') or K(s) = (1-s)^p (side 'right'), p > -1."""
    t = nodes
    h = t[1:] - t[:-1]
    v = np.zeros(t.size)
    if side == "left":
        # u = s: the hat factor (s - t_j) is (u - ub), (t_{j+1} - s) is (ua - u).
        lo, hi = _hat_moments(p, t[1:], t[:-1])
        v[:-1] += hi / h
        v[1:] += lo / h
    else:
        # u = 1 - s: (t_{j+1} - s) is (u - ub), (s - t_j) is (ua - u).
        lo, hi = _hat_moments(p, 1.0 - t[:-1], 1.0 - t[1:])
        v[:-1] += lo / h
        v[1:] += hi / h
    v.setflags(write=False)
    return v


@lru_cache(maxsize=16)
def _cached_convolution_matrix(n: int, r: float, order: float, scheme: str) -> np.ndarray:
    return _convolution_matrix(GradedMesh(n, r).nodes, order, scheme)


@lru_cache(maxsize=32)
def _cached_kernel_weights(n: int, r: float, p: float, side: str) -> np.ndarray:
    return _pl_kernel_weights(GradedMesh(n, r).nodes, p, side)


def _check_samples(samples, mesh: GradedMesh) -> np.ndarray:
    g = np.asarray(samples, dtype=float)
    if g.shape != (mesh.n + 1,):
        raise MeshMismatch(
            f"expected {mesh.n + 1} samples for a mesh with {mesh.n} intervals, "
            f"got shape {g.shape}"
        )
    return g


@cache
def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where sysconf cannot tell."""
    try:
        size = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return size if size > 0 else None


def rl_integral(order: float, samples, rule: QuadratureRule) -> np.ndarray:
    """Riemann-Liouville integral I^order g at every mesh node.

    Raises MeshTooLarge, before anything is allocated, when the dense
    operator (8(n+1)^2 bytes) exceeds physical memory.
    """
    if not (math.isfinite(order) and order > 0.0):
        raise OutOfDomain(f"integral order must be > 0, got {order}")
    g = _check_samples(samples, rule.mesh)
    n = rule.mesh.n
    need, have = 8 * (n + 1) ** 2, _physical_memory()
    if have is not None and need > have:
        raise MeshTooLarge(
            f"a dense operator on {n} mesh intervals needs {need / 2**30:.3g} GiB, "
            f"more than the {have / 2**30:.3g} GiB of physical memory"
        )
    w = _cached_convolution_matrix(n, rule.mesh.r, float(order), rule.scheme)
    return w @ g


def differentiate(samples, mesh: GradedMesh) -> np.ndarray:
    """Nodal derivative by three-point stencils (one-sided at both ends)."""
    v = _check_samples(samples, mesh)
    if mesh.n < 2:
        raise InsufficientNodes(f"differentiation needs >= 2 intervals, got {mesh.n}")
    t = mesh.nodes
    x0, x1, x2 = t[:-2], t[1:-1], t[2:]
    d01, d02, d12 = x0 - x1, x0 - x2, x1 - x2
    out = np.empty_like(v)
    out[1:-1] = (
        v[:-2] * d12 / (d01 * d02)
        + v[1:-1] * (2.0 * x1 - x0 - x2) / (-d01 * d12)
        + v[2:] * (-d01) / (d02 * d12)
    )
    # Left end, stencil (t0, t1, t2) evaluated at t0.
    a, b, c = t[0], t[1], t[2]
    out[0] = (
        v[0] * (2.0 * a - b - c) / ((a - b) * (a - c))
        + v[1] * (a - c) / ((b - a) * (b - c))
        + v[2] * (a - b) / ((c - a) * (c - b))
    )
    # Right end, stencil (t_{n-2}, t_{n-1}, t_n) evaluated at t_n.
    a, b, c = t[-3], t[-2], t[-1]
    out[-1] = (
        v[-3] * (c - b) / ((a - b) * (a - c))
        + v[-2] * (c - a) / ((b - a) * (b - c))
        + v[-1] * (2.0 * c - a - b) / ((c - a) * (c - b))
    )
    return out


def _check_derivative_order(order: float) -> None:
    if not (math.isfinite(order) and 0.0 < order < 1.0):
        raise OutOfDomain(f"derivative order must lie in (0, 1), got {order}")


def _require_nodes(mesh: GradedMesh) -> None:
    if mesh.n < 4:
        raise InsufficientNodes(
            f"fractional derivatives need >= 4 mesh intervals, got {mesh.n}"
        )


def rl_derivative(order: float, samples, rule: QuadratureRule) -> np.ndarray:
    """Riemann-Liouville derivative D^order g = d/dt I^(1-order) g."""
    _check_derivative_order(order)
    _require_nodes(rule.mesh)
    h = rl_integral(1.0 - order, samples, rule)
    return differentiate(h, rule.mesh)


def caputo_derivative(order: float, samples, rule: QuadratureRule) -> np.ndarray:
    """Caputo derivative I^(1-order) g', with g' by finite differences."""
    _check_derivative_order(order)
    _require_nodes(rule.mesh)
    dg = differentiate(samples, rule.mesh)
    return rl_integral(1.0 - order, dg, rule)


def hilfer_derivative(alpha: float, beta: float, samples, rule: QuadratureRule) -> np.ndarray:
    """Hilfer derivative I^(beta(1-alpha)) [ d/dt I^(1-gamma) g ] with
    gamma = alpha + beta(1-alpha).

    alpha = 1 is admitted as the classical-derivative limit (all fractional
    orders collapse to zero).  beta = 0 coincides with rl_derivative.
    """
    if not (math.isfinite(alpha) and 0.0 < alpha <= 1.0):
        raise OutOfDomain(f"alpha must lie in (0, 1], got {alpha}")
    if not (0.0 <= beta <= 1.0):
        raise OutOfDomain(f"beta must lie in [0, 1], got {beta}")
    _require_nodes(rule.mesh)
    gamma = composite_order(alpha, beta)
    inner = max(1.0 - gamma, 0.0)
    outer = beta * (1.0 - alpha)
    g = _check_samples(samples, rule.mesh)
    stage = g if inner < _ORDER_EPS else rl_integral(inner, g, rule)
    stage = differentiate(stage, rule.mesh)
    return stage if outer < _ORDER_EPS else rl_integral(outer, stage, rule)


def boundary_kernel_weights(alpha: float, mesh: GradedMesh) -> np.ndarray:
    """Weights v with v . F = integral_0^1 (Q(tau)/Gamma(alpha)) PL[F](tau) dtau,
    Q integrated exactly so constant F incurs no quadrature error."""
    if not (0.0 < alpha <= 1.0):
        raise OutOfDomain(f"alpha must lie in (0, 1], got {alpha}")
    v = _cached_kernel_weights(mesh.n, mesh.r, float(alpha), "right")
    # Q(tau)/Gamma(alpha) = (1-tau)^alpha / Gamma(alpha+1)
    return v / math.gamma(alpha + 1.0)


def physical_integral(w: WeightedGridFunction) -> float:
    """integral_0^1 y(s) ds = integral_0^1 s^(gamma-1) w(s) ds with the
    endpoint singularity integrated exactly against piecewise-linear w."""
    v = _cached_kernel_weights(w.mesh.n, w.mesh.r, float(w.gamma) - 1.0, "left")
    return float(v @ w.values)
