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
accept any order > 0, derivatives need order in (0, 1).  The integral and
the derivatives take one row of node samples or a stack of rows, shape
(m, n+1); each row of a stack comes out bit for bit as its own one-row call.
"""

from __future__ import annotations

import math
import os
import weakref
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Optional, Tuple

import numpy as np

from .core import GradedMesh, WeightedGridFunction
from .errors import InsufficientNodes, MeshMismatch, MeshTooLarge, OutOfDomain

# Orders this small are collapsed to the identity (they arise from
# beta*(1-alpha) or 1-gamma evaluating to roundoff instead of exact zero),
# and an integral order this close to an integer is that integer.
_ORDER_EPS = 1e-14


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """The mesh the product-trapezoidal operators act on."""

    mesh: GradedMesh


# Intervals narrower than this fraction of their distance to the kernel
# point switch from direct power differences (which cancel catastrophically)
# to an 8-term binomial series; at the crossover both are accurate to ~1e-12.
_FAR_FIELD = 1e-2
_SERIES_TERMS = 8

# Scratch entries per assembly block.  The block height is this budget over
# the row length, so assembly temporaries stay O(budget) at every n.
_BLOCK_ENTRIES = 1 << 17
# Scratch entries per group of the SOE table builders (_history_tables,
# _near_tables): each numpy call covers as many whole history chunks or
# near-field blocks as fit, so the scratch stays in cache and O(budget) at
# every n.
_GROUP_ENTRIES = 1 << 14


def _block_rows(n: int) -> int:
    """Rows per assembly block of an (n+1) x (n+1) convolution matrix."""
    return max(1, _BLOCK_ENTRIES // (n + 1))


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


def _hat_moments(p: float, d: np.ndarray):
    """Moments of u^p over [ub, ua] against the two hat factors:

        lo = integral u^p (u - ub) du,   hi = integral u^p (ua - u) du,

    for the intervals [ub, ua] = [d_{j+1}, d_j] between neighbours along the
    last axis of the contiguous array d, which never rises along that axis
    and stays >= 0 (intervals with ua = ub contribute zero).  lo and hi are
    shaped like d: entry j along the last axis is interval j, and the last
    entry is zero.

    The formulas run on the flattened d, each power once per entry; the
    neighbours across the end of the last axis form no interval, and their
    entries are zeroed.  Far-field intervals (ua - ub << ua) then take a
    series in x = 1 - ub/ua instead, which avoids their cancellation.
    """
    # Buffers are reused and freed early: the scratch stays near four
    # arrays of d's size, which bounds the table builders' memory.
    p1, p2 = p + 1.0, p + 2.0
    flat = d.reshape(-1)
    ends = slice(d.shape[-1] - 1, None, d.shape[-1])
    ua, ub = flat[:-1], flat[1:]
    power = flat ** p1
    m0 = power[:-1] - power[1:]
    m0 /= p1
    del power
    power = flat ** p2
    hi = np.empty(flat.shape)
    m1 = np.subtract(power[:-1], power[1:], out=hi[:-1])
    m1 /= p2
    lo = power
    np.multiply(ub, m0, out=lo[:-1])
    np.subtract(m1, lo[:-1], out=lo[:-1])
    m0 *= ua
    np.subtract(m0, m1, out=hi[:-1])
    x = np.subtract(ua, ub, out=m0)
    with np.errstate(divide="ignore", invalid="ignore"):
        x /= ua
        far = x < _FAR_FIELD
    far &= ub > 0.0
    far[ends] = False
    if far.any():
        x = x[far]
        del m0
        s_lo, s_hi = _binomial_sums(p, x)
        del x
        a = ua[far]
        base = a ** p
        a -= ub[far]
        base *= a * a
        del a
        s_lo *= base
        lo[:-1][far] = s_lo
        s_hi *= base
        hi[:-1][far] = s_hi
    lo[ends] = 0.0
    hi[ends] = 0.0
    return lo.reshape(d.shape), hi.reshape(d.shape)


def _fill_blocks(blocks: np.ndarray, t: np.ndarray, r0: int, c0: int, step: int,
                 order: float) -> None:
    """Fill the zero stack `blocks`, shape (m, R, W), with m blocks of the
    convolution matrix of _convolution_matrix, `step` rows apart: block k
    holds the rows r0 + k step .. r0 + k step + R - 1 and the W = R + r0 - c0
    columns c0 + k step .., the last of them that of its last row.

    The columns hold the nodes and the intervals between them; an interval
    ending before a block's first column contributes nothing, so that
    column carries only its own interval's hat moment when c0 > 0."""
    m, rows, cols = blocks.shape
    t = np.ascontiguousarray(t)
    size = t.itemsize

    def windows(first, width):
        # The nodes first + k step .. first + k step + width - 1 of each block.
        return np.ndarray((m, width), buffer=t, offset=first * size,
                          strides=(step * size, size))

    col_nodes = windows(c0, cols)
    # Distances from each output node to the nodes, clamped so uncovered
    # intervals produce zero moments.  In u = t_i - s the left node's hat
    # factor (t_{j+1} - s) becomes (u - ub), the right node's (s - t_j)
    # becomes (ua - u).
    dist = windows(r0, rows)[:, :, None] - col_nodes[:, None, :]
    np.maximum(dist, 0.0, out=dist)
    # The widths, and 1 past the last node, where lo and hi are zero.
    hb = np.ones((m, 1, cols))
    np.subtract(col_nodes[:, 1:], col_nodes[:, :-1], out=hb[:, 0, :-1])
    lo, hi = _hat_moments(order - 1.0, dist)
    del dist
    lo /= hb
    blocks += lo
    del lo
    hi /= hb
    blocks[..., 1:] += hi[..., :-1]
    blocks /= math.gamma(order)


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
        _fill_blocks(w[None, r0:r1, :r1], nodes, r0, 0, step, order)
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
# matrix's O(n^2).  All but 10 of the K modes do not depend on the order:
# their tables are built once per mesh and shared by every order on it.
# The tables hold only what the apply reads: a block whose history lies
# further back needs fewer modes (_soe_tiers), and the near field is stored
# without its upper triangle of zeros.

_SOE_BLOCK = 64
# Rows per group of the staircase near field, and the window columns each
# group keeps: row i of a block reaches window column i + 1, its own node,
# so group g keeps (g+1) _SOE_ROWS + 1 columns and drops only zeros.
_SOE_ROWS = 16
_SOE_NEAR_WIDTHS = tuple((g + 1) * _SOE_ROWS + 1 for g in range(_SOE_BLOCK // _SOE_ROWS))
# The geometric ladder that the per-chunk mode counts are rounded up on, so
# that runs of chunks share one table (_soe_tiers).
_SOE_LADDER = 1.25
# The SOE quadrature (_soe_nodes): its step in ln x, the x below which its
# nodes merge into one at x = 0, the reach of the kept nodes (x up to at
# least _SOE_DECAY/delta; the first dropped node adds below 1e-16 relative
# at u >= delta), and the Gauss nodes replacing those with x <= 1.
# Together: relative error below 5e-15 on [delta, 1] for every order in
# (0, 1) while delta >= 1e-16; the nodes exp(k h) carry the rounding of
# k h, so below that it grows with ln(1/delta), to 5.8e-15 at delta ~ 1e-25
# and 1.1e-14 at delta = 8.3e-129 (n = 10^5, r = 40), worst at orders
# near 0.
_SOE_STEP = 0.27
_SOE_TINY = 1e-17
_SOE_DECAY = 30.0
_SOE_GAUSS_NODES = 10
# Below this x*h the exponential hat moments switch from expm1 to a series.
_EXP_SERIES_Z = 1.0
_EXP_SERIES_TERMS = 18
# Table entries below exp(-_SOE_FLUSH) are stored as exact zeros (_soe_exp):
# numpy's SIMD exp leaves its fast path below about -707, and such entries
# leave subnormals in the tables that slow every product reading them.
_SOE_FLUSH = 700.0


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


def _soe_reach(delta: float) -> int:
    """k1, the last trapezoid step of _soe_nodes: its nodes are x = exp(k h)
    for k <= k1, reaching at least _SOE_DECAY/delta."""
    # A mesh with coincident nodes has delta = 0; its zero-width intervals
    # contribute nothing, so the SOE need not reach below 1e-300.
    return max(math.ceil(math.log(_SOE_DECAY / max(delta, 1e-300)) / _SOE_STEP), 0)


def _soe_nodes(s: float, delta: float):
    """Nodes x_k and weights w_k with sum_k w_k exp(-x_k u) = u^(-s) for u
    in [delta, 1], 0 < s <= 1, to 5e-15 relative while delta >= 1e-16 and
    to 1.1e-14 at delta = 8.3e-129 (see _SOE_STEP).

    The trapezoidal rule in y = ln x on u^(-s) = (1/Gamma(s)) integral
    exp(-u e^y + s y) dy.  Above x = _SOE_DECAY/delta its nodes are dropped.
    Below x = _SOE_TINY, where exp(-u x) = 1 to double precision, they act
    as one node at x = 0 whose weight is their geometric sum (which grows
    like 1/s).  The nodes with x <= 1 are then replaced by the Gauss rule of
    their discrete measure: on u x <= 1, exp(-u x) is a polynomial of degree
    2 _SOE_GAUSS_NODES - 1 to machine precision.  The result lists the
    _SOE_GAUSS_NODES Gauss nodes first; the trapezoid nodes after them,
    exp(k h) for 1 <= k <= _soe_reach(delta), do not depend on s.
    """
    h = _SOE_STEP
    k0 = math.floor(math.log(_SOE_TINY) / h)
    y = np.arange(k0, _soe_reach(delta) + 1) * h
    x, w = np.exp(y), h * np.exp(s * y)
    tail = y <= 0.0
    lump = h * math.exp(s * h * (k0 - 1)) / -math.expm1(-s * h)
    gx, gw = _gauss_rule(np.append(0.0, x[tail]), np.append(lump, w[tail]),
                         _SOE_GAUSS_NODES)
    return np.concatenate([gx, x[~tail]]), np.concatenate([gw, w[~tail]]) / math.gamma(s)


def _soe_exp(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """exp(-z) for z >= 0, flushed to exact zero where z > _SOE_FLUSH; into
    `out` if given, which may be z itself."""
    flush = z > _SOE_FLUSH
    e = np.minimum(z, _SOE_FLUSH, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    e[flush] = 0.0
    return e


def _exp_hat_moments(z: np.ndarray):
    """integral_0^1 e^(-z v) v dv and integral_0^1 e^(-z v) (1 - v) dv, z >= 0:
    a Taylor series where z < _EXP_SERIES_Z, closed forms in expm1 and exp
    on the other entries only."""
    small = z < _EXP_SERIES_Z
    every = bool(small.all())
    zs = z if every else z[small]
    # sum_m (-z)^m (m+1)/(m+2)! and sum_m (-z)^m/(m+2)!, by Horner; the step
    # s (-z) + c is computed as c - s z, which rounds the same.  The first
    # step of each sum gives its constant c exactly.
    top = _EXP_SERIES_TERMS - 1
    inv = 1.0 / math.factorial(top + 2)
    s_left = np.full(zs.shape, (top + 1) * inv)
    s_right = np.full(zs.shape, inv)
    for m in range(top - 1, -1, -1):
        inv = 1.0 / math.factorial(m + 2)
        s_left *= zs
        np.subtract((m + 1) * inv, s_left, out=s_left)
        s_right *= zs
        np.subtract(inv, s_right, out=s_right)
    if every:
        return s_left, s_right
    del zs
    left = np.empty(z.shape)
    left[small] = s_left
    del s_left
    right = np.empty(z.shape)
    right[small] = s_right
    del s_right
    big = ~small
    zb = z[big]
    em = np.expm1(-zb)
    zz = zb * zb
    part = zb + em
    part /= zz
    right[big] = part
    np.multiply(zb, _soe_exp(zb, out=part), out=part)
    em += part
    del part
    np.negative(em, out=em)
    em /= zz
    left[big] = em
    return left, right


def _history_gaps(nodes: np.ndarray) -> np.ndarray:
    """gap_c = t_{(c+1)B} - t_{(c+1)B-1}, the least distance from the first
    node of block c + 1 to its history, for each history chunk c: the SOE
    modes that block reads must be accurate down to it.  Empty when every
    node lies in the first block, which has no history."""
    b = _SOE_BLOCK
    return nodes[b::b] - nodes[b - 1:-1:b]


def _history_delta(nodes: np.ndarray) -> Optional[float]:
    """delta, the least history gap (_history_gaps), or None without
    history."""
    gaps = _history_gaps(nodes)
    return float(np.min(gaps)) if gaps.size else None


def _soe_tiers(nodes: np.ndarray):
    """The plan of the shared trapezoid modes on `nodes`: a list of tiers
    (c0, c1, k), each a run of history chunks c0 .. c1-1 that keep the modes
    x_1 .. x_k of _soe_nodes.

    Chunk c serves block c + 1 and, through the recurrence, every later
    block, so it keeps the modes up to the largest _soe_reach of its own gap
    and every later one (_history_gaps).  That count is rounded up on a
    geometric ladder of ratio _SOE_LADDER that starts at the last chunk's
    count; the counts never rise along the mesh, and the first one is
    _soe_reach(delta).  O(n/B) arithmetic on the nodes, no table."""
    need = [_soe_reach(gap) for gap in _history_gaps(nodes).tolist()]
    if not need:
        return []
    need = np.maximum.accumulate(need[::-1])[::-1]
    rungs = [int(need[-1])]
    while rungs[-1] < need[0]:
        rungs.append(min(max(rungs[-1] + 1, math.ceil(rungs[-1] * _SOE_LADDER)),
                         int(need[0])))
    counts = np.asarray(rungs)[np.searchsorted(rungs, need)]
    edges = [0, *(np.flatnonzero(np.diff(counts)) + 1).tolist(), counts.size]
    return [(c0, c1, int(counts[c0])) for c0, c1 in zip(edges, edges[1:])]


def _history_tables(t: np.ndarray, x: np.ndarray, c0: int = 0, c1: Optional[int] = None):
    """The gather (K x (B+1) per chunk) and spread (B x K per block) tables
    of the modes x on the nodes t for the chunks c0 .. c1-1 (by default all
    of them), as in _SoeOperator; spread holds exp(-(t_i - T_b) x_k) alone,
    without weights.  Each entry depends on its own mode only.  The tables
    are returned writable.

    They are built in groups of whole chunks of at most _GROUP_ENTRIES
    entries each (one chunk if a chunk alone is larger); gather is filled
    in place through its transposed view."""
    n = t.size - 1
    b, k = _SOE_BLOCK, x.size
    if c1 is None:
        c1 = -(-(n + 1) // b) - 1
    gather = np.zeros((c1 - c0, k, b + 1))
    spread = np.zeros((c1 - c0, b, k))
    gathered = gather.transpose(0, 2, 1)
    step = max(1, _GROUP_ENTRIES // ((b + 1) * max(k, 1)))
    for g0 in range(c0, c1, step):
        g1 = min(g0 + step, c1)
        _fill_history(gathered[g0 - c0:g1 - c0], spread[g0 - c0:g1 - c0], t, x, g0)
    return gather, spread


def _fill_history(gather: np.ndarray, spread: np.ndarray, t: np.ndarray,
                  x: np.ndarray, c0: int) -> None:
    """Fill the zero tables of _history_tables, gather (m, B+1, K) (the
    transposed view of the stored table) and spread (m, B, K), for the m
    chunks from c0 on."""
    m = gather.shape[0]
    b = _SOE_BLOCK
    # Window c joins the B intervals between its nodes cB-1 .. cB+B-1 to
    # the modes, which are then referred to its last node T_{c+1}; block
    # c + 1 starts right after it.  Node -1 of window 0 repeats t_0: its
    # zero-width interval adds zero moments.
    first = c0 * b - 1
    nodes = t[first:(c0 + m) * b] if first >= 0 else np.append(t[0], t[:m * b])
    width = np.diff(nodes).reshape(m, b, 1)
    ref = nodes[b::b]
    z = width * x
    left, right = _exp_hat_moments(z)
    lift = np.multiply((ref[:, None] - nodes[1:].reshape(m, b))[:, :, None], x, out=z)
    _soe_exp(lift, out=lift)
    lift *= width
    # The tables are zero and no product is -0, so writing the first
    # products gives the bits of adding them.
    np.multiply(left, lift, out=gather[:, :b])
    del left
    right *= lift
    del lift
    gather[:, 1:] += right
    del right
    # Products of entries near exp(-_SOE_FLUSH) can still be subnormal.
    gather[gather < np.finfo(float).tiny] = 0.0
    r0 = (c0 + 1) * b
    rows = min(m * b, t.size - r0)
    e = np.multiply((t[r0:r0 + rows] - np.repeat(ref, b)[:rows])[:, None], x)
    _soe_exp(e, out=e)
    full = rows // b
    spread[:full] = e[:full * b].reshape(full, b, x.size)
    if full < m:
        spread[full, :rows - full * b] = e[full * b:]


def _decay_table(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """decay[c] = exp(-x_k (T_{c+1} - T_c)), T_c = t_{cB-1}, as _SoeOperator
    lays it out (row 0 unused)."""
    b = _SOE_BLOCK
    hist = -(-t.size // b) - 1
    decay = np.zeros((hist, x.size))
    ends = t[b - 1:hist * b:b]
    decay[1:] = _soe_exp((ends[1:] - ends[:-1])[:, None] * x)
    return decay


@dataclass(frozen=True, eq=False)
class _SoeModes:
    """The history modes that every order shares on one mesh: the trapezoid
    nodes x_k > 1 of _soe_nodes, which depend on the mesh only (through
    delta), with their gather tables and, as spread, the tables
    exp(-(t_i - T_b) x_k) without the weights (see _SoeOperator).

    The tables are cut into the tiers (c0, c1, k) of _soe_tiers: gather[i]
    and spread[i] serve the chunks c0 .. c1-1 of tiers[i] with the modes
    x_1 .. x_k, which are all that those chunks' blocks read.  The first
    tier keeps all of x."""

    x: np.ndarray
    tiers: Tuple[Tuple[int, int, int], ...]
    gather: Tuple[np.ndarray, ...]
    spread: Tuple[np.ndarray, ...]

    def tables(self) -> Tuple[np.ndarray, ...]:
        return (self.x, *self.gather, *self.spread)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.tables())


def _soe_modes(nodes: np.ndarray) -> _SoeModes:
    """The shared history modes of the SOE operators on `nodes`."""
    tiers = _soe_tiers(nodes)
    k = tiers[0][2] if tiers else 0
    x = np.exp(np.arange(1, k + 1) * _SOE_STEP)
    built = [_history_tables(nodes, x[:kt], c0, c1) for c0, c1, kt in tiers]
    modes = _SoeModes(x, tuple(tiers), tuple(g for g, _ in built),
                      tuple(s for _, s in built))
    for table in modes.tables():
        table.setflags(write=False)
    return modes


@dataclass(frozen=True, eq=False)
class _SoeOperator:
    """I^order on n + 1 nodes: exact near-field blocks plus K history modes,
    the G = _SOE_GAUSS_NODES Gauss modes of this order and the trapezoid
    modes of `modes`, which all orders on the mesh share.

    Nodes are taken in blocks of B = _SOE_BLOCK; the window of block b is
    the nodes bB-1 .. bB+B-1 (node -1 reads zero).
      near[g][b]   rows gR .. gR+R-1 (R = _SOE_ROWS) of block b's rows of W
                   on its window, first (g+1)R+1 columns: the later ones
                   are zero, as W is lower triangular.
      gather[c]    G x (B+1): window c's samples -> the increments of the
                   Gauss modes' history integrals over chunk c (the
                   intervals bB-1 .. bB+B-2 for b = c), referred to
                   T_{c+1} = t_{(c+1)B-1}.
      decay[c]     exp(-x_k (T_{c+1} - T_c)) of all K modes, Gauss modes
                   first (row 0 unused).
      spread[b-1]  B x G: the Gauss modes' history at T_b -> block b's rows,
                   including w_k and 1/Gamma(order).
      weights      w_k/Gamma(order) of the trapezoid modes.
    modes.gather and modes.spread serve the trapezoid modes the same way,
    tier by tier (K_i x (B+1) and B x K_i per chunk), but without weights:
    the apply scales their history by `weights` instead.  A chunk's history
    of the modes past its tier's K_i is carried by the recurrence but never
    read.  nbytes counts this order's tables, not those of `modes`.

    Every table is C-contiguous with its contraction axis last, so the
    apply runs each contraction as np.matmul of a table with a column: one
    BLAS dgemv per sample row and block, of at most 16 x 65, K_i x 65 or
    64 x K_i entries, with K_i <= 2572 (_soe_reach at its 1e-300 floor).
    Its result does not depend on the BLAS thread count, because OpenBLAS
    runs gemvs this small in one thread: OpenBLAS 0.3.31 (numpy 2.4's)
    gave no work to a second thread on 2570 x 65 or 64 x 2570, while it
    splits 20000 x 65 by rows and 65 x 20000 by its sums, and only the
    latter changes bits.  The result may differ in the last bits between
    CPU models, as OpenBLAS picks its gemv kernel for the CPU it runs on.
    The apply takes one sample row or a stack of rows, shape (m, n+1);
    each row of a stack comes out bit for bit as its own one-row apply,
    because it makes the same gemv calls on the same numbers.
    """

    n: int
    near: Tuple[np.ndarray, ...]
    gather: np.ndarray
    spread: np.ndarray
    decay: np.ndarray
    weights: np.ndarray
    modes: _SoeModes

    def tables(self) -> Tuple[np.ndarray, ...]:
        return (*self.near, self.gather, self.spread, self.decay, self.weights)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self.tables())

    def apply(self, g: np.ndarray) -> np.ndarray:
        blocks, rows, b = self.near[0].shape[0], _SOE_ROWS, _SOE_BLOCK
        stack = g.shape[:-1]
        padded = np.zeros(stack + (blocks * b + 1,))
        padded[..., 1:self.n + 2] = g
        # The overlapping windows as a strided view of `padded`.
        step = padded.itemsize
        window = np.ndarray(stack + (blocks, b + 1), buffer=padded,
                            strides=padded.strides[:-1] + (b * step, step))
        out = np.empty(stack + (blocks, b))
        # Every contraction is one gemv per row and block (see above): the
        # samples and the history enter as columns, a trailing unit axis.
        for i, near in enumerate(self.near):
            np.matmul(near, window[..., :near.shape[2], None],
                      out=out[..., i * rows:(i + 1) * rows, None])
        if blocks > 1:
            modes, gauss = self.modes, self.gather.shape[1]
            # Zeros: the recurrence also carries the modes a tier drops.
            hist = np.zeros(stack + (blocks - 1, gauss + modes.x.size))
            np.matmul(self.gather, window[..., :-1, :, None], out=hist[..., :gauss, None])
            for (c0, c1, k), gather in zip(modes.tiers, modes.gather):
                np.matmul(gather, window[..., c0:c1, :, None],
                          out=hist[..., c0:c1, gauss:gauss + k, None])
            chunks = hist.swapaxes(0, -2)
            for c in range(1, blocks - 1):
                chunks[c] += self.decay[c] * chunks[c - 1]
            hist[..., gauss:] *= self.weights
            out[..., 1:, :] += np.matmul(self.spread, hist[..., :gauss, None])[..., 0]
            for (c0, c1, k), spread in zip(modes.tiers, modes.spread):
                out[..., c0 + 1:c1 + 1, :] += np.matmul(
                    spread, hist[..., c0:c1, gauss:gauss + k, None])[..., 0]
        return out.reshape(stack + (-1,))[..., :self.n + 1]


def _near_tables(t: np.ndarray, order: float) -> Tuple[np.ndarray, ...]:
    """The staircase near-field tables of _SoeOperator.  Table g holds the
    rows gR .. gR+R-1 of each block on the first (g+1)R+1 columns of its
    window, and is filled in place in groups of whole blocks of at most
    _GROUP_ENTRIES entries each.  The first block (which has no node -1)
    and a last block with fewer than B rows are groups of one."""
    n = t.size - 1
    b, rows = _SOE_BLOCK, _SOE_ROWS
    blocks = -(-(n + 1) // b)
    full = (n + 1) // b
    near = tuple(np.zeros((blocks, rows, width)) for width in _SOE_NEAR_WIDTHS)
    for g, table in enumerate(near):
        step = max(1, _GROUP_ENTRIES // table[0].size)
        edges = sorted({0, *range(1, full, step), full, blocks})
        for k0, k1 in zip(edges, edges[1:]):
            r0 = k0 * b + g * rows
            height = min(rows, n + 1 - r0)
            if height <= 0:
                continue
            # Window column 0 is node k0 B - 1; block 0 has none, so its
            # columns start at window column 1, node 0.
            c0 = max(k0 * b - 1, 0)
            first = c0 - k0 * b + 1
            _fill_blocks(table[k0:k1, :height, first:height + r0 - c0 + first],
                         t, r0, c0, b, order)
    return near


def _soe_operator(nodes: np.ndarray, order: float,
                  modes: Optional[_SoeModes] = None) -> _SoeOperator:
    """The SOE form of the product-trapezoidal I^order, 0 < order < 1.  Its
    near-field entries are those of _convolution_matrix bit for bit; the far
    history carries the SOE quadrature's relative error (below 5e-15 for
    delta >= 1e-16, up to 1.1e-14 on the steepest meshes; see _soe_nodes).
    `modes` are the shared tables _soe_modes(nodes), built here when not
    given.

    Raises MeshTooLarge, before any table is allocated, when the tables
    this call builds exceed physical memory, and when they cannot be
    allocated."""
    t = nodes
    n = t.size - 1
    b = _SOE_BLOCK
    blocks = -(-(n + 1) // b)
    delta = _history_delta(t)
    x, w = (np.zeros(0), np.zeros(0)) if delta is None else _soe_nodes(1.0 - order, delta)
    gauss = min(x.size, _SOE_GAUSS_NODES)
    k = x.size - gauss
    # Bytes of the near field, of the Gauss modes' gather and spread, of
    # decay and of the weights; then of the shared x and tiers if built here.
    hist = blocks - 1
    need = 8 * (blocks * _SOE_ROWS * sum(_SOE_NEAR_WIDTHS)
                + hist * (2 * b + 1) * gauss + hist * x.size + k)
    if modes is None:
        need += 8 * (k + sum((c1 - c0) * (2 * b + 1) * kt for c0, c1, kt in _soe_tiers(t)))
    have = _physical_memory()
    if have is not None and need > have:
        raise MeshTooLarge(
            f"a sum-of-exponentials operator on {n} mesh intervals needs "
            f"{need / 2**30:.3g} GiB, more than the {have / 2**30:.3g} GiB "
            f"of physical memory"
        )
    try:
        if modes is None:
            modes = _soe_modes(t)
        near = _near_tables(t, order)
        gather, spread = _history_tables(t, x[:gauss])
        decay = _decay_table(t, x)
        w = w / math.gamma(order)
        spread *= w[:gauss]
    except MemoryError:
        raise MeshTooLarge(
            f"the {need / 2**30:.3g} GiB of sum-of-exponentials tables on {n} "
            f"mesh intervals could not be allocated"
        ) from None
    weights = w[gauss:]
    op = _SoeOperator(n, near, gather, spread, decay, weights, modes)
    for table in op.tables():
        table.setflags(write=False)
    return op


def _pl_kernel_weights(nodes: np.ndarray, p: float, side: str) -> np.ndarray:
    """Weights v with v . g = integral_0^1 K(s) PL[g](s) ds for the kernel
    K(s) = s^p (side 'left') or K(s) = (1-s)^p (side 'right'), p > -1."""
    t = nodes
    h = t[1:] - t[:-1]
    v = np.zeros(t.size)
    if side == "left":
        # u = s: the hat factor (s - t_j) is (u - ub), (t_{j+1} - s) is (ua - u).
        # Those are the intervals of the reversed nodes, read backwards.
        lo, hi = _hat_moments(p, t[::-1].copy())
        v[:-1] += hi[-2::-1] / h
        v[1:] += lo[-2::-1] / h
    else:
        # u = 1 - s: (t_{j+1} - s) is (u - ub), (s - t_j) is (ua - u).
        lo, hi = _hat_moments(p, 1.0 - t)
        v[:-1] += lo[:-1] / h
        v[1:] += hi[:-1] / h
    v.setflags(write=False)
    return v


# No solve reads this cache.  perfbench/tracer.py counts dense assemblies
# through its cache_info(), and the tests count misses the same way.
@lru_cache(maxsize=16)
def _cached_convolution_matrix(n: int, r: float, order: float) -> np.ndarray:
    return _convolution_matrix(GradedMesh(n, r).nodes, order)


# The shared SOE modes of each mesh (n, r), built on the first SOE miss on
# it; they live while a cached operator on that mesh does.
_soe_mesh_modes = weakref.WeakValueDictionary()


@lru_cache(maxsize=16)
def _cached_soe_operator(n: int, r: float, order: float) -> _SoeOperator:
    op = _soe_operator(GradedMesh(n, r).nodes, order, _soe_mesh_modes.get((n, r)))
    _soe_mesh_modes[n, r] = op.modes
    return op


@lru_cache(maxsize=32)
def _cached_kernel_weights(n: int, r: float, p: float, side: str) -> np.ndarray:
    return _pl_kernel_weights(GradedMesh(n, r).nodes, p, side)


def _check_samples(samples, mesh: GradedMesh) -> np.ndarray:
    """The samples as floats: one row of one value per node, or a stack of
    such rows, shape (m, n+1)."""
    g = np.asarray(samples, dtype=float)
    if not (1 <= g.ndim <= 2 and g.shape[-1] == mesh.n + 1):
        raise MeshMismatch(
            f"expected {mesh.n + 1} samples for a mesh with {mesh.n} intervals, "
            f"got shape {g.shape}"
        )
    return g


@cache
def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where sysconf cannot tell: the one
    figure that GradedMesh and _soe_operator hold their arrays to."""
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
    MeshTooLarge when the SOE tables of I^f would exceed physical memory
    (see _soe_operator).

    ``samples`` is one row of n + 1 node values or a stack of m such rows,
    shape (m, n+1); each row of the result equals the one-row call bit for
    bit.
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
        out = _cached_soe_operator(n, r, frac).apply(g)
    if whole > 0:
        half_widths = 0.5 * np.diff(rule.mesh.nodes)
        for _ in range(whole):
            steps = np.cumsum((out[..., :-1] + out[..., 1:]) * half_widths, axis=-1)
            out = np.concatenate((np.zeros(steps.shape[:-1] + (1,)), steps), axis=-1)
    return out


def differentiate(samples, mesh: GradedMesh) -> np.ndarray:
    """Nodal derivative by three-point stencils (one-sided at both ends) of
    one row or a stack of rows, as rl_integral takes them.

    Each weight is a ratio of two widths over a third, so no product of two
    widths is formed (on steep meshes such products underflow), and the
    weights act on differences of samples, so they sum to zero exactly
    instead of leaving a rounding error times |v|/h^2.  With every width at
    least the smallest normal double (GradedMesh checks this), no weight
    exceeds 1/min h and all stay finite."""
    v = _check_samples(samples, mesh)
    if mesh.n < 2:
        raise InsufficientNodes(f"differentiation needs >= 2 intervals, got {mesh.n}")
    t = mesh.nodes
    h = np.diff(t)
    dv = np.diff(v)
    out = np.empty_like(v)
    # Interior node j, stencil (t_{j-1}, t_j, t_{j+1}):
    #   v'_j = (h_j/h_{j-1}) (v_j - v_{j-1})/s_j + (h_{j-1}/h_j) (v_{j+1} - v_j)/s_j
    # with s_j = t_{j+1} - t_{j-1}.
    span = t[2:] - t[:-2]
    out[..., 1:-1] = (h[1:] / h[:-1]) / span * dv[..., :-1]
    out[..., 1:-1] += (h[:-1] / h[1:]) / span * dv[..., 1:]
    # Left end, stencil (t0, t1, t2) evaluated at t0.
    h0, h1, s = h[0], h[1], span[0]
    out[..., 0] = s / h0 / h1 * dv[..., 0] - h0 / h1 / s * (v[..., 2] - v[..., 0])
    # Right end, stencil (t_{n-2}, t_{n-1}, t_n) evaluated at t_n.
    h0, h1, s = h[-2], h[-1], span[-1]
    out[..., -1] = s / h1 / h0 * dv[..., -1] - h1 / h0 / s * (v[..., -1] - v[..., -3])
    return out


def rl_derivative(order: float, samples, rule: QuadratureRule) -> np.ndarray:
    """Riemann-Liouville derivative D^order g = d/dt I^(1-order) g: the
    Hilfer derivative of type beta = 0."""
    if not (math.isfinite(order) and 0.0 < order < 1.0):
        raise OutOfDomain(f"derivative order must lie in (0, 1), got {order}")
    return hilfer_derivative(order, 0.0, samples, rule)


def hilfer_derivative(alpha: float, beta: float, samples, rule: QuadratureRule) -> np.ndarray:
    """Hilfer derivative I^(beta(1-alpha)) [ d/dt I^(1-gamma) g ] with
    gamma = alpha + beta(1-alpha).

    alpha = 1 is admitted as the classical-derivative limit (all fractional
    orders collapse to zero).  beta = 0 is the Riemann-Liouville derivative
    d/dt I^(1-alpha) g, beta = 1 the Caputo derivative I^(1-alpha) g'.
    ``samples`` is one row or a stack of rows, as rl_integral takes them.
    """
    if not (math.isfinite(alpha) and 0.0 < alpha <= 1.0):
        raise OutOfDomain(f"alpha must lie in (0, 1], got {alpha}")
    if not (0.0 <= beta <= 1.0):
        raise OutOfDomain(f"beta must lie in [0, 1], got {beta}")
    if rule.mesh.n < 4:
        raise InsufficientNodes(
            f"fractional derivatives need >= 4 mesh intervals, got {rule.mesh.n}"
        )
    g = _check_samples(samples, rule.mesh)
    # 1 - gamma as (1-alpha)(1-beta): at beta = 1/2 it is then bitwise the
    # outer order beta(1-alpha), and both stages share one SOE operator.
    inner = (1.0 - alpha) * (1.0 - beta)
    outer = beta * (1.0 - alpha)
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
    endpoint singularity integrated exactly against piecewise-linear w.
    The sum runs in einsum's own loop: BLAS ddot splits long vectors over
    its threads, so its sum depends on the thread count."""
    v = _cached_kernel_weights(w.mesh.n, w.mesh.r, float(w.gamma) - 1.0, "left")
    return float(np.einsum("i,i->", v, w.values))
