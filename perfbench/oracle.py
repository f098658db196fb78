"""Closed-form solution of the Hilfer BVP with a linear right-hand side.

For f(t, y) = a*y + b the problem

    D^(alpha,beta) y = a y + b,   I^(1-gamma) y(0) = lam * int_0^1 y + d

is solved by

    y(t) = c t^(gamma-1) E_{alpha,gamma}(a t^alpha) + b t^alpha E_{alpha,alpha+1}(a t^alpha),
    c    = (lam b sum_k a^k/Gamma(alpha(k+1)+2) + d) / (1 - lam E_{alpha,gamma+1}(a)),

with the two-parameter Mittag-Leffler function E summed from its power
series.  The benchmark compares the solver's weighted samples
w = t^(1-gamma) y against this, independently of the package's own oracles.
"""

from __future__ import annotations

import math

import numpy as np

# Series terms are dropped once they fall below this fraction of the sum.
_SERIES_RTOL = 1e-18
_SERIES_MAX_TERMS = 160


def _series(coef, z: np.ndarray) -> np.ndarray:
    """sum_k coef(k) z^k for |z| < 1-ish, summed until the terms vanish."""
    z = np.asarray(z, dtype=float)
    total = np.zeros_like(z)
    power = np.ones_like(z)
    for k in range(_SERIES_MAX_TERMS):
        term = coef(k) * power
        total = total + term
        if np.all(np.abs(term) <= _SERIES_RTOL * np.maximum(np.abs(total), 1e-300)):
            return total
        power = power * z
    raise ArithmeticError("Mittag-Leffler series did not converge; |z| too large")


def mittag_leffler(alpha: float, beta: float, z) -> np.ndarray:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z) = sum z^k / Gamma(alpha k + beta)."""
    return _series(lambda k: 1.0 / math.gamma(alpha * k + beta), z)


def boundary_coefficient(alpha: float, beta: float, lam: float, d: float,
                         a: float, b: float) -> float:
    """The constant c = I^(1-gamma) y(0) of the closed form."""
    gamma = alpha + beta * (1.0 - alpha)
    forced = float(_series(lambda k: 1.0 / math.gamma(alpha * (k + 1) + 2.0), np.array(a)))
    denom = 1.0 - lam * float(mittag_leffler(alpha, gamma + 1.0, np.array(a)))
    if denom <= 0.0:
        raise ArithmeticError(f"1 - lam E_(alpha,gamma+1)(a) = {denom} <= 0: no positive solution")
    return (lam * b * forced + d) / denom


def linear_rhs_weighted(alpha: float, beta: float, lam: float, d: float,
                        a: float, b: float, t) -> np.ndarray:
    """Exact w(t) = t^(1-gamma) y(t) for f = a*y + b at the points t (t = 0 allowed)."""
    gamma = alpha + beta * (1.0 - alpha)
    t = np.asarray(t, dtype=float)
    c = boundary_coefficient(alpha, beta, lam, d, a, b)
    z = a * t ** alpha
    return (c * mittag_leffler(alpha, gamma, z)
            + b * t ** (alpha + 1.0 - gamma) * mittag_leffler(alpha, alpha + 1.0, z))
