"""Machine-checkable certificates for the hypotheses behind existence and
uniqueness: nonnegativity of f, mu != 0 (and its sign), the kernel bound
Q(tau)/Gamma(alpha) < e, and the contraction condition

    (lam e / (Gamma(gamma) mu) + 1/Gamma(alpha+1)) L_f < 1.

Certificates record the computed quantity and the threshold it was compared
against; a failing certificate is data, not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .core import MU_TOLERANCE, DerivedConstants, HilferProblem, unguarded_constants
from .errors import SingularProblem

CERT_RHS_NONNEGATIVE = "rhs-nonnegative"
CERT_MU_NONZERO = "mu-nonzero"
CERT_KERNEL_BOUND = "kernel-bound"
CERT_CONTRACTION = "contraction"

# Points per axis of the (t, y) grid on which f's nonnegativity is sampled.
_RHS_GRID = 32


@dataclass(frozen=True)
class Certificate:
    name: str
    holds: bool
    value: float
    threshold: float
    detail: str


def check_mu(consts: DerivedConstants) -> Certificate:
    """Holds when mu exceeds the singularity tolerance; the detail records
    the sign, which positivity arguments additionally need."""
    mu = consts.mu
    return Certificate(
        name=CERT_MU_NONZERO,
        holds=mu > MU_TOLERANCE,
        value=mu,
        threshold=MU_TOLERANCE,
        detail=f"mu = 1 - lam/Gamma(gamma+1) = {mu:.17g}; positive: {mu > 0.0}",
    )


def check_kernel_bound(alpha: float, grid_size: int = 1000) -> Certificate:
    """max over a tau-grid of Q(tau)/Gamma(alpha), compared against e.

    The supremum is attained at tau = 0 where it equals 1/Gamma(alpha+1).
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    tau = np.linspace(0.0, 1.0, grid_size)
    values = (1.0 - tau) ** alpha / (alpha * math.gamma(alpha))
    worst = float(np.max(values))
    return Certificate(
        name=CERT_KERNEL_BOUND,
        holds=worst < math.e,
        value=worst,
        threshold=math.e,
        detail=(f"max over {grid_size} tau points of Q(tau)/Gamma(alpha) at "
                f"alpha={alpha:.17g}; closed-form sup is 1/Gamma(alpha+1) = "
                f"{1.0 / math.gamma(alpha + 1.0):.17g}"),
    )


def contraction_certificate(consts: DerivedConstants, alpha: float,
                            lam: float, lipschitz: float) -> Certificate:
    """Contraction constant q = (lam e/(Gamma(gamma) mu) + 1/Gamma(alpha+1)) L_f;
    the iteration is certified when q < 1 strictly."""
    if consts.mu <= 0.0:
        raise SingularProblem(
            f"mu = {consts.mu:.3e} <= 0: the positive-cone contraction "
            "argument requires mu > 0"
        )
    if lipschitz < 0.0:
        raise ValueError(f"lipschitz constant must be >= 0, got {lipschitz}")
    g_gamma = math.gamma(consts.gamma)
    g_alpha1 = math.gamma(alpha + 1.0)
    # Summed as lam-term + L_f/Gamma(alpha+1) so that the boundary case
    # lam = 0, L_f = Gamma(alpha+1) lands on exactly 1.0.
    q = lam * math.e * lipschitz / (g_gamma * consts.mu) + lipschitz / g_alpha1
    return Certificate(
        name=CERT_CONTRACTION,
        holds=q < 1.0,
        value=q,
        threshold=1.0,
        detail=f"L_f = {lipschitz:.17g}",
    )


def _nonnegativity_certificate(problem: HilferProblem, y_max: float) -> Certificate:
    ts = np.arange(1, _RHS_GRID + 1) / _RHS_GRID
    ys = np.linspace(0.0, y_max, _RHS_GRID)
    t, y = np.meshgrid(ts, ys, indexing="ij")
    try:
        vals = problem.rhs_values(t, y)
    except Exception:
        vals = np.full(t.shape, math.nan)
    bad = ~np.isfinite(vals)
    # First non-finite sample, else the first minimum; t is the outer index.
    k = np.argmax(bad) if np.any(bad) else np.argmin(vals)
    i, j = np.unravel_index(k, vals.shape)
    worst = math.nan if bad[i, j] else float(vals[i, j])
    where = (ts[i], ys[j])
    holds = worst >= 0.0
    return Certificate(
        name=CERT_RHS_NONNEGATIVE,
        holds=holds,
        value=worst,
        threshold=0.0,
        detail=(f"min of f over a {_RHS_GRID}x{_RHS_GRID} grid on (0,1]x[0,{y_max:g}], "
                f"attained near (t,y)=({where[0]:.4g},{where[1]:.4g}); "
                "sampled falsification only"),
    )


def hypothesis_report(problem: HilferProblem) -> List[Certificate]:
    """All evaluable certificates in fixed order: nonnegativity of f, mu,
    kernel bound, and (when a Lipschitz constant is known and mu > 0) the
    contraction condition.  Failing certificates are returned, not raised.
    """
    y_max = problem.upper_bound if problem.upper_bound is not None else 10.0
    certs = [_nonnegativity_certificate(problem, y_max)]
    consts = unguarded_constants(problem)
    certs.append(check_mu(consts))
    certs.append(check_kernel_bound(problem.alpha))
    if problem.lipschitz is not None and consts.mu > MU_TOLERANCE:
        certs.append(contraction_certificate(consts, problem.alpha,
                                             problem.lam, problem.lipschitz))
    return certs

