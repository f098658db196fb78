"""Discrete fractional-calculus operators on graded meshes.

All quadrature here is product integration: the weakly singular kernels
(t-s)^(a-1), s^(g-1) and (1-s)^a are integrated in closed form against
piecewise-linear reconstructions of the regular factor.  Newton-Cotes
rules lose their order on such kernels; exact kernel moments keep the
product-trapezoidal scheme at O(n^-2) on suitably graded meshes.
Derivatives are realized as d/dt of a fractional integral, with the nodal
derivative taken by three-point finite differences on the (nonuniform)
mesh.

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

# Orders this small are collapsed to the identity (they arise from
# beta*(1-alpha) or 1-gamma evaluating to roundoff instead of exact zero),
# and an integral order this close to an integer is that integer.
_ORDER_EPS = 1e-14


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """The mesh the product-trapezoidal operators act on."""

    mesh: GradedMesh


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


def _binomial_sums(p: float, x: np.ndarray):
    """sum_k binom(p,k)(-x)^k / ((k+1)(k+2)) and sum_k binom(p,k)(-x)^k / (k+2)
    over k < _SERIES_TERMS."""
    term = np.ones_like(x)
    step = np.empty_like(x)
    s_lo = np.full_like(x, 0.5)
    s_hi = np.full_like(x, 0.5)
    for k in range(1, _SERIES_TERMS):
        # x * -(p-k+1) is bitwise (-x) * (p-k+1): rounding is sign-symmetric.
        np.multiply(x, -(p - k + 1.0), out=step)
        step /= k
        term *= step
        np.divide(term, (k + 1.0) * (k + 2.0), out=step)
        s_lo += step
        np.divide(term, k + 2.0, out=step)
        s_hi += step
    return s_lo, s_hi


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
    s_lo, s_hi = _binomial_sums(p, x[far])
    base = ua[far] ** p * width[far] ** 2
    lo[far] = base * s_lo
    hi[far] = base * s_hi
    return lo, hi


def _fill_block(block: np.ndarray, t: np.ndarray, r0: int, c0: int, order: float) -> None:
    """Fill the zero block `block` with the rows r0.. and columns c0.. of the
    convolution matrix of _convolution_matrix.  The row count is
    block.shape[0], the last column that of the last row.

    The columns hold the nodes c0..r1-1 and the intervals c0..r1-2 between
    them; an interval ending before c0 contributes nothing, so column c0
    carries only its own interval's hat moment when c0 > 0."""
    r1 = r0 + block.shape[0]
    # Distances from each output node to the nodes, clamped so uncovered
    # intervals produce zero moments.  In u = t_i - s the left node's hat
    # factor (t_{j+1} - s) becomes (u - ub), the right node's (s - t_j)
    # becomes (ua - u).
    dist = np.maximum(t[r0:r1, None] - t[None, c0:r1], 0.0)
    ua, ub = dist[:, :-1], dist[:, 1:]
    hb = t[c0 + 1:r1] - t[c0:r1 - 1]
    lo, hi = _hat_moments(order - 1.0, ua, ub)
    lo /= hb
    hi /= hb
    block[:, :-1] += lo
    block[:, 1:] += hi
    block /= math.gamma(order)


def _convolution_matrix(nodes: np.ndarray, order: float) -> np.ndarray:
    """Lower-triangular W with (W g)_i = (1/Gamma(order)) *
    integral_0^{t_i} (t_i - s)^(order-1) PL[g](s) ds, PL the piecewise-linear
    reconstruction.

    rl_integral never builds W: it is the dense reference that the tests
    hold the SOE operator to, and the assembly hook of the benchmark tracer
    (perfbench/tracer.py).  Interval j contributes to row i only when
    t_{j+1} <= t_i; clamping the kernel distances at zero erases every other
    entry.  W is filled in blocks of _block_rows(n) rows, each spanning only
    the columns its rows can reach, so on top of the 8(n+1)^2-byte result
    the scratch memory is O(_BLOCK_ENTRIES).
    """
    n = nodes.size - 1
    w = np.zeros((n + 1, n + 1))
    step = _block_rows(n)
    for r0 in range(0, n + 1, step):
        r1 = min(r0 + step, n + 1)
        _fill_block(w[r0:r1, :r1], nodes, r0, 0, order)
    w.setflags(write=False)
    return w


# --- Sum-of-exponentials (SOE) history -----------------------------------------
#
# rl_integral applies the product-trapezoidal I^order, 0 < order < 1, in
# this form at every n.  The nodes are split into row blocks of _SOE_BLOCK.
# A node's near field (its own block and the interval just before it) keeps
# the exact hat moments of _convolution_matrix.  Its far history, at
# distances u in [delta, 1], sees the kernel u^p through u^p ~ sum_k w_k
# exp(-x_k u), so the history integrals of all nodes of a block share K
# exponential modes, advanced once per block (Jiang, Zhang, Zhang & Zhang,
# Commun. Comput. Phys. 21, 2017).
# Building and applying the operator cost O(n (B + K)), against the dense
# matrix's O(n^2).

_SOE_BLOCK = 64
# The SOE quadrature (_soe_nodes): its step in ln x, the x below which its
# nodes merge into one at x = 0, the reach of the kept nodes (x up to at
# least _SOE_DECAY/delta; the first dropped node adds below 1e-16 relative
# at u >= delta), and the Gauss nodes replacing those with x <= 1.
# Together: relative error below 5e-15 on [delta, 1] for every order in
# (0, 1).
_SOE_STEP = 0.27
_SOE_TINY = 1e-17
_SOE_DECAY = 30.0
_SOE_GAUSS_NODES = 10
# Below this x*h the exponential hat moments switch from expm1 to a series.
_EXP_SERIES_Z = 1.0
_EXP_SERIES_TERMS = 18


def _gauss_rule(x: np.ndarray, w: np.ndarray, m: int):
    """m-point Gauss rule of the discrete measure sum_k w_k delta(x - x_k),
    by Lanczos on diag(x) (fully reorthogonalised) and Golub-Welsch."""
    mass = float(np.sum(w))
    basis = np.zeros((m, x.size))
    basis[0] = np.sqrt(w / mass)
    diag, off = np.zeros(m), np.zeros(m - 1)
    for j in range(m):
        v = x * basis[j]
        diag[j] = np.einsum("i,i->", v, basis[j])
        for _ in range(2):
            v -= np.einsum("ji,j->i", basis[:j + 1],
                           np.einsum("ji,i->j", basis[:j + 1], v))
        if j + 1 < m:
            off[j] = math.sqrt(np.einsum("i,i->", v, v))
            basis[j + 1] = v / off[j]
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, mass * vectors[0] ** 2


def _soe_nodes(s: float, delta: float):
    """Nodes x_k and weights w_k with sum_k w_k exp(-x_k u) = u^(-s) to about
    5e-15 relative for u in [delta, 1], 0 < s <= 1.

    The trapezoidal rule in y = ln x on u^(-s) = (1/Gamma(s)) integral
    exp(-u e^y + s y) dy.  Above x = _SOE_DECAY/delta its nodes are dropped.
    Below x = _SOE_TINY, where exp(-u x) = 1 to double precision, they act
    as one node at x = 0 whose weight is their geometric sum (which grows
    like 1/s).  The nodes with x <= 1 are then replaced by the Gauss rule of
    their discrete measure: on u x <= 1, exp(-u x) is a polynomial of degree
    2 _SOE_GAUSS_NODES - 1 to machine precision.
    """
    h = _SOE_STEP
    k0 = math.floor(math.log(_SOE_TINY) / h)
    # A mesh with coincident nodes has delta = 0; its zero-width intervals
    # contribute nothing, so the SOE need not reach below 1e-300.
    k1 = max(math.ceil(math.log(_SOE_DECAY / max(delta, 1e-300)) / h), 0)
    y = np.arange(k0, k1 + 1) * h
    x, w = np.exp(y), h * np.exp(s * y)
    tail = y <= 0.0
    lump = h * math.exp(s * h * (k0 - 1)) / -math.expm1(-s * h)
    gx, gw = _gauss_rule(np.append(0.0, x[tail]), np.append(lump, w[tail]),
                         _SOE_GAUSS_NODES)
    return np.concatenate([gx, x[~tail]]), np.concatenate([gw, w[~tail]]) / math.gamma(s)


def _exp_hat_moments(z: np.ndarray):
    """integral_0^1 e^(-z v) v dv and integral_0^1 e^(-z v) (1 - v) dv, z >= 0:
    closed forms in expm1 and exp, a Taylor series where z < _EXP_SERIES_Z."""
    em = np.expm1(-z)
    with np.errstate(divide="ignore", invalid="ignore"):
        zz = z * z
        right = (z + em) / zz
        left = -(em + z * np.exp(-z)) / zz
    small = z < _EXP_SERIES_Z
    zs = -z[small]
    # sum_m (-z)^m (m+1)/(m+2)! and sum_m (-z)^m/(m+2)!, by Horner.
    s_left = np.zeros(zs.shape)
    s_right = np.zeros(zs.shape)
    for m in range(_EXP_SERIES_TERMS - 1, -1, -1):
        inv = 1.0 / math.factorial(m + 2)
        s_left *= zs
        s_left += (m + 1) * inv
        s_right *= zs
        s_right += inv
    left[small] = s_left
    right[small] = s_right
    return left, right


def _soe_history_modes(nodes: np.ndarray, order: float):
    """The SOE nodes and weights of the far history of I^order on `nodes`:
    none when every node lies in the first block, else accurate down to
    delta, the least distance from a block's first node to its history."""
    b = _SOE_BLOCK
    if nodes.size <= b:
        return np.zeros(0), np.zeros(0)
    delta = float(np.min(nodes[b::b] - nodes[b - 1:-1:b]))
    return _soe_nodes(1.0 - order, delta)


def _soe_shapes(n: int, k: int):
    """Shapes of the near, gather, spread and decay tables for n intervals
    and k modes."""
    b = _SOE_BLOCK
    blocks = -(-(n + 1) // b)
    hist = blocks - 1
    return (blocks, b, b + 1), (hist, b + 1, k), (hist, b, k), (hist, k)


@dataclass(frozen=True, eq=False)
class _SoeOperator:
    """I^order on n + 1 nodes: exact near-field blocks plus K history modes.

    Nodes are taken in blocks of B = _SOE_BLOCK; the window of block b is
    the nodes bB-1 .. bB+B-1 (node -1 reads zero).
      near[b]      B x (B+1): block b's rows of W on its window.
      gather[c]    (B+1) x K: window c's samples -> the increments of the K
                   history integrals of chunk c (the intervals bB-1 .. bB+B-2
                   for b = c), referred to T_{c+1} = t_{(c+1)B-1}.
      decay[c]     exp(-x_k (T_{c+1} - T_c)) (row 0 unused).
      spread[b-1]  B x K: the history at T_b -> block b's rows, including
                   w_k and 1/Gamma(order).
    The apply uses einsum and ufuncs only, never BLAS, so its rounding does
    not depend on the BLAS thread count.
    """

    n: int
    near: np.ndarray
    gather: np.ndarray
    spread: np.ndarray
    decay: np.ndarray

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.near, self.gather, self.spread, self.decay))

    def apply(self, g: np.ndarray) -> np.ndarray:
        blocks, b = self.near.shape[:2]
        padded = np.zeros(blocks * b + 1)
        padded[1:self.n + 2] = g
        window = np.lib.stride_tricks.sliding_window_view(padded, b + 1)[::b]
        out = np.einsum("bij,bj->bi", self.near, window)
        if blocks > 1:
            hist = np.einsum("cjk,cj->ck", self.gather, window[:-1])
            for c in range(1, blocks - 1):
                hist[c] += self.decay[c] * hist[c - 1]
            out[1:] += np.einsum("cik,ck->ci", self.spread, hist)
        return out.reshape(-1)[:self.n + 1]


def _soe_operator(nodes: np.ndarray, order: float) -> _SoeOperator:
    """The SOE form of the product-trapezoidal I^order, 0 < order < 1.  Its
    near-field entries are those of _convolution_matrix bit for bit; the far
    history carries the SOE quadrature's relative error (below 5e-15)."""
    t = nodes
    n = t.size - 1
    b = _SOE_BLOCK
    x, w = _soe_history_modes(t, order)
    near_shape, gather_shape, spread_shape, decay_shape = _soe_shapes(n, x.size)
    near = np.zeros(near_shape)
    gather = np.zeros(gather_shape)
    spread = np.zeros(spread_shape)
    decay = np.zeros(decay_shape)
    w = w / math.gamma(order)
    for blk in range(near_shape[0]):
        r0 = blk * b
        r1 = min(r0 + b, n + 1)
        c0 = max(r0 - 1, 0)
        _fill_block(near[blk, :r1 - r0, c0 - r0 + 1:r1 - r0 + 1], t, r0, c0, order)
        if blk == 0:
            continue
        # The intervals j0 .. r0-2 of window c join the K modes, which are
        # then referred to T_{c+1} = t_{r0-1}.
        c = blk - 1
        ref = t[r0 - 1]
        j0 = max(r0 - b - 1, 0)
        width = (t[j0 + 1:r0] - t[j0:r0 - 1])[:, None]
        lift = np.exp(-(ref - t[j0 + 1:r0])[:, None] * x) * width
        left, right = _exp_hat_moments(width * x)
        off = j0 - (r0 - b - 1)
        gather[c, off:b] += lift * left
        gather[c, off + 1:b + 1] += lift * right
        if c > 0:
            decay[c] = np.exp(-(ref - t[r0 - b - 1]) * x)
        spread[c, :r1 - r0] = w * np.exp(-(t[r0:r1] - ref)[:, None] * x)
    for table in (near, gather, spread, decay):
        table.setflags(write=False)
    return _SoeOperator(n, near, gather, spread, decay)


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


# Unused by the package; kept because perfbench/tracer.py reads cache_info().
@lru_cache(maxsize=16)
def _cached_convolution_matrix(n: int, r: float, order: float) -> np.ndarray:
    return _convolution_matrix(GradedMesh(n, r).nodes, order)


@lru_cache(maxsize=16)
def _cached_soe_operator(n: int, r: float, order: float) -> _SoeOperator:
    return _soe_operator(GradedMesh(n, r).nodes, order)


@lru_cache(maxsize=64)
def _soe_bytes(n: int, r: float, order: float) -> int:
    """Bytes of the tables of _cached_soe_operator(n, r, order), from O(n)
    arrays only."""
    k = _soe_history_modes(GradedMesh(n, r).nodes, order)[0].size
    return 8 * sum(math.prod(shape) for shape in _soe_shapes(n, k))


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
    """Riemann-Liouville integral I^order g at every mesh node, in O(n).

    The order is split into an integer k and a fraction f in [0, 1).  I^f is
    the sum-of-exponentials form of the product-trapezoidal operator
    (skipped when f < _ORDER_EPS); I^k is then k passes of the cumulative
    trapezoidal rule, which is the product-trapezoidal I^1 exactly.  Raises
    MeshTooLarge, before anything is allocated, when the SOE tables of I^f
    exceed physical memory.
    """
    if not (math.isfinite(order) and order > 0.0):
        raise OutOfDomain(f"integral order must be > 0, got {order}")
    g = _check_samples(samples, rule.mesh)
    n, r = rule.mesh.n, rule.mesh.r
    whole = math.floor(order + _ORDER_EPS)
    frac = float(order) - whole
    if frac < _ORDER_EPS:
        out = g.copy()
    else:
        need, have = _soe_bytes(n, r, frac), _physical_memory()
        if have is not None and need > have:
            raise MeshTooLarge(
                f"a sum-of-exponentials operator on {n} mesh intervals needs "
                f"{need / 2**30:.3g} GiB, more than the {have / 2**30:.3g} GiB "
                f"of physical memory"
            )
        out = _cached_soe_operator(n, r, frac).apply(g)
    half_widths = 0.5 * np.diff(rule.mesh.nodes)
    for _ in range(whole):
        out = np.concatenate(([0.0], np.cumsum((out[:-1] + out[1:]) * half_widths)))
    return out


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
