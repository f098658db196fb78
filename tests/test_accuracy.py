"""Seeded accuracy suite: the solver's w against the closed form of the
linear problem f(t, y) = a y + b, whose solution is a Mittag-Leffler series
(perfbench/oracle.py, loaded from its file and not changed).

Sixteen cases (alpha, beta, lambda, d, a, b) are drawn from a fixed seed
and solved on the default mesh, r = max(1, 2/gamma), at n = 1024 and 4096.
The error is max_j |w_j - w(t_j)| relative to max_j |w(t_j)|, since w grows
like 1/(1 - lam E_{alpha,gamma+1}(a)) toward the edge of existence.  With
a <= 1 the series argument a t^alpha stays in [0, 1], where the float
series converges.

Two parts make up the error.  Near the origin w(t) - w(0) behaves like
t^alpha, and that error converges at order p = min(2, 2 alpha/gamma) on
this grading.  Over the rest of (0, 1] it converges at order 2, with a
constant that grows with r; there the observed order over 1024 -> 4096 is
about 1.85.  The observed order is checked against p where the largest
error lies in the origin layer on both meshes, against 2 where it lies in
the bulk on both, and between the two otherwise.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from hilferbvp import (GradedMesh, HilferProblem, PicardSettings, QuadratureRule,
                       default_grading, derive_constants, solve_picard)

_spec = importlib.util.spec_from_file_location(
    "oracle", Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

SEED = 4242
CASES = 16
MESHES = (1024, 4096)
# Relative error <= C n^(-p) at each n.  The 16 drawn cases need C <= 1.
# Over 192 draws from 12 other seeds C stayed below 20 except at
# 1 - lam E = 0.006 (C = 70) and in the case of test_small_gamma below.
C = 20.0
# The observed order is within this of the expected one (see above).
ORDER_SLACK = 0.3
# A largest error at t below this lies in the origin layer.
ORIGIN_LAYER = 0.5


def _draw():
    """CASES draws of (alpha, beta, lam, d, a, b) that have a solution:
    1 - lam E_{alpha,gamma+1}(a) > 0."""
    rng = np.random.default_rng(SEED)
    cases = []
    while len(cases) < CASES:
        alpha, beta, lam, d, a, b = rng.uniform([0.2, 0.0, 0.0, 0.5, 0.0, 0.0],
                                                [1.0, 1.0, 0.6, 2.0, 1.0, 1.0]).tolist()
        gamma = alpha + beta * (1.0 - alpha)
        if 1.0 - lam * float(oracle.mittag_leffler(alpha, gamma + 1.0, np.array(a))) > 0.0:
            cases.append((alpha, beta, lam, d, a, b))
    return cases


def _errors(alpha, beta, lam, d, a, b, meshes=MESHES):
    """p and, per mesh of `meshes`, the relative max error and the t where
    it lies."""
    problem = HilferProblem(alpha=alpha, beta=beta, lam=lam, d=d,
                            rhs=lambda t, y: a * y + b)
    consts = derive_constants(problem)
    measured = []
    for n in meshes:
        rule = QuadratureRule(GradedMesh(n, default_grading(consts.gamma)))
        result = solve_picard(problem, consts, PicardSettings(tol=1e-13), rule)
        assert result.converged
        exact = oracle.linear_rhs_weighted(alpha, beta, lam, d, a, b, rule.mesh.nodes)
        error = np.abs(result.solution.values - exact)
        k = int(np.argmax(error))
        measured.append((float(error[k] / np.max(np.abs(exact))), float(rule.mesh.nodes[k])))
    return min(2.0, 2.0 * alpha / consts.gamma), measured


def _assert_accurate(p, measured):
    for n, (error, _) in zip(MESHES, measured):
        assert error <= C * n ** -p, (n, error, p)
    (coarse, t_coarse), (fine, t_fine) = measured
    order = math.log(coarse / fine) / math.log(MESHES[1] / MESHES[0])
    at_origin = [t_coarse < ORIGIN_LAYER, t_fine < ORIGIN_LAYER]
    low = p if any(at_origin) else 2.0
    high = p if all(at_origin) else 2.0
    assert low - ORDER_SLACK <= order <= high + ORDER_SLACK, (order, p, at_origin)


@pytest.fixture(scope="module")
def solved():
    return [_errors(*case) for case in _draw()]


@pytest.mark.parametrize("case", range(CASES))
def test_error_and_order(solved, case):
    _assert_accurate(*solved[case])


def test_draws_cover_both_error_layers(solved):
    # The sample exercises both branches of the order check.
    layers = {measured[1][1] < ORIGIN_LAYER for _, measured in solved}
    assert layers == {True, False}


SMALL_GAMMA = (0.274, 0.018, 0.176, 1.59, 0.493, 0.853)


@pytest.mark.xfail(strict=True, reason="the bulk error constant grows with r, "
                   "6.97 here: at n = 1024 the error 4.25e-5 exceeds "
                   "C n^-p = 3.6e-5, though the order over 1024 -> 4096 is 1.89")
def test_small_gamma():
    # gamma = 0.287, r = 6.97: the largest error lies at t = 1.
    _assert_accurate(*_errors(*SMALL_GAMMA))


def test_small_gamma_error_falls_with_n():
    # The boundary functional weights nodes below 1e-16, where 1 - t rounds
    # to 1, with their exact widths, so the error keeps falling with n:
    # 3.1e-6 at n = 4096 and 2.2e-7 at 16384.
    _, ((coarse, _), (fine, _)) = _errors(*SMALL_GAMMA, meshes=(4096, 16384))
    assert fine < coarse
    assert math.log(coarse / fine) / math.log(4.0) >= 2.0 - ORDER_SLACK
