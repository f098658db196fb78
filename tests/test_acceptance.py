"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers after its assertions hold.  Tolerances are fixed here,
not tuned at runtime.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines).
"""

import math
import time

import numpy as np
import pytest

from helpers import smooth_profile
from hilferbvp.analysis import check_kernel_bound, contraction_certificate
from hilferbvp.cli import EXIT_SINGULAR, main
from hilferbvp.core import (
    GradedMesh,
    HilferProblem,
    default_grading,
    derive_constants,
)
from hilferbvp.expressions import parse_expression
from hilferbvp.fracops import QuadratureRule, rl_derivative, rl_integral
from hilferbvp.solver import (
    PicardSettings,
    boundary_identity_gap,
    bracket_from_bounds,
    solve_picard,
)
from hilferbvp.verify import constant_rhs_oracle, residual_check


def solve(problem, n, tol=1e-10, max_iter=200):
    consts = derive_constants(problem)
    mesh = GradedMesh(n, default_grading(consts.gamma))
    rule = QuadratureRule(mesh)
    settings = PicardSettings(tol=tol, max_iter=max_iter)
    return consts, mesh, rule, solve_picard(problem, consts, settings, rule)


def test_criterion_01_power_rule_quadrature():
    n = 2048
    worst = 0.0
    for alpha in (0.3, 0.5, 0.9):
        mesh = GradedMesh.graded_for(n, alpha)
        rule = QuadratureRule(mesh)
        t = mesh.nodes
        for sigma in (1.0, 1.5, 2.0):
            start = time.perf_counter()
            samples = np.ones_like(t) if sigma == 1.0 else t ** (sigma - 1.0)
            out = rl_integral(alpha, samples, rule)
            exact = (math.gamma(sigma) / math.gamma(alpha + sigma)
                     * t ** (alpha + sigma - 1.0))
            elapsed = time.perf_counter() - start
            err = float(np.max(np.abs(out - exact)))
            worst = max(worst, err)
            assert err <= 1e-5, (alpha, sigma, err)
            assert elapsed < 5.0, (alpha, sigma, elapsed)
    print(f"criterion 1 (power-rule quadrature): PASS, worst node error {worst:.3e}")


def test_criterion_02_operator_identities():
    # semigroup
    worst_semi = 0.0
    for a, b in ((0.3, 0.5), (0.5, 0.7), (0.3, 0.3)):
        errs = []
        for n in (512, 1024):
            mesh = GradedMesh(n, max(1.0, 2.0 / min(a, b)))
            rule = QuadratureRule(mesh)
            g = smooth_profile(mesh.nodes)
            lhs = rl_integral(a, rl_integral(b, g, rule), rule)
            rhs = rl_integral(a + b, g, rule)
            errs.append(float(np.max(np.abs(lhs - rhs))))
        assert errs[1] <= 1e-4, (a, b, errs)
        assert errs[1] <= errs[0] / 2.0 * 1.05, (a, b, errs)   # order >= 1
        worst_semi = max(worst_semi, errs[1])
    # inversion, measured away from the origin cusp (t >= 0.01)
    worst_inv = 0.0
    for a in (0.3, 0.5, 0.7):
        errs = []
        for n in (512, 1024):
            mesh = GradedMesh(n, 2.0)
            rule = QuadratureRule(mesh)
            t = mesh.nodes
            g = smooth_profile(t)
            rec = rl_derivative(a, rl_integral(a, g, rule), rule)
            inside = (t >= 0.01) & (t < 1.0)
            errs.append(float(np.max(np.abs(rec[inside] - g[inside]))))
        assert errs[1] <= 1e-4, (a, errs)
        assert errs[1] <= errs[0] / 2.0 * 1.05, (a, errs)
        worst_inv = max(worst_inv, errs[1])
    print(f"criterion 2 (operator identities): PASS, semigroup {worst_semi:.3e}, "
          f"inversion {worst_inv:.3e} at n=1024")


def test_criterion_03_kernel_bound_sweep():
    start = time.perf_counter()
    worst = 0.0
    for alpha in np.logspace(-3, 0, 1000):
        cert = check_kernel_bound(float(alpha), grid_size=1000)
        assert cert.holds, (alpha, cert.value)
        worst = max(worst, cert.value)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, elapsed
    print(f"criterion 3 (kernel bound): PASS, max ratio {worst:.6f} < e, "
          f"{elapsed:.2f}s for 1000 orders")


def test_criterion_04_constant_rhs_oracle():
    problem = HilferProblem(alpha=0.5, beta=0.5, lam=0.2, d=1.0,
                            rhs=lambda t, y: 1.0)
    consts, mesh, rule, result = solve(problem, n=1024)
    assert result.converged
    assert result.iterations <= 25, result.iterations
    oracle = constant_rhs_oracle(problem, consts, mesh)
    err = float(np.max(np.abs(result.solution.values - oracle.values)))
    assert err <= 1e-7, err
    print(f"criterion 4 (constant-rhs oracle): PASS, weighted-norm error "
          f"{err:.3e} in {result.iterations} iterations")


def test_criterion_05_contraction_rate():
    problem = HilferProblem(alpha=0.5, beta=0.5, lam=0.2, d=1.0,
                            rhs=lambda t, y: (y + 1.0) / 4.0, lipschitz=0.25)
    consts = derive_constants(problem)
    cert = contraction_certificate(consts, problem.alpha, problem.lam, 0.25)
    # independent evaluation of the same constant straight from math.gamma
    q_direct = (0.2 * math.e / (math.gamma(0.75) * consts.mu)
                + 1.0 / math.gamma(1.5)) * 0.25
    assert cert.holds and cert.value < 1.0
    assert cert.value == pytest.approx(q_direct, rel=1e-13)
    _, _, _, result = solve(problem, n=256)
    assert result.converged
    ratios = [b / a for a, b in zip(result.history, result.history[1:])
              if a > 1e-8]
    observed = max(ratios[-3:])
    assert observed <= cert.value + 0.05, (observed, cert.value)
    print(f"criterion 5 (contraction rate): PASS, q = {cert.value:.6f}, "
          f"observed late ratio {observed:.6f}")


def test_criterion_06_bracketing():
    # catalog right-hand sides with analytically verified constant bounds;
    # the closed-form bracket applies to the plain boundary value (lam = 0)
    cases = [
        (lambda t, y: 1.0, 1.0, 1.0, "constant"),
        (parse_expression("2 + 0.5*sin(3*t)*y/(1+y)"), 1.5, 2.5, "expression"),
        (parse_expression("1 + 0.5*y/(1+y)"), 1.0, 1.5, "logistic+floor"),
    ]
    n = 256
    slack = 1e-6 + 10.0 / n ** 2
    worst = 0.0
    for rhs, a1, a2, label in cases:
        problem = HilferProblem(alpha=0.5, beta=0.5, lam=0.0, d=1.0, rhs=rhs,
                                lower_bound=a1, upper_bound=a2)
        consts, mesh, rule, result = solve(problem, n=n)
        assert result.converged, label
        bracket = bracket_from_bounds(problem, consts, mesh)
        w = result.solution.values
        below = float(np.max(bracket.lower.values - w))
        above = float(np.max(w - bracket.upper.values))
        assert below <= slack, (label, below)
        assert above <= slack, (label, above)
        worst = max(worst, below, above)
    print(f"criterion 6 (bracketing): PASS, worst excursion {worst:.3e} "
          f"within slack {slack:.3e}")


def test_criterion_07_boundary_identity():
    tol = 1e-10
    battery = [
        HilferProblem(0.5, 0.5, 0.2, 1.0, rhs=lambda t, y: 1.0),
        HilferProblem(0.5, 0.5, 0.2, 1.0, rhs=lambda t, y: (y + 1.0) / 4.0),
        HilferProblem(0.5, 0.5, 0.0, 1.0, rhs=lambda t, y: t ** 0.5),
        HilferProblem(0.7, 0.3, 0.4, 0.5, rhs=lambda t, y: 0.5 * y / (1.0 + y)),
        HilferProblem(0.9, 1.0, 0.6, 2.0, rhs=lambda t, y: 1.0 + 0.1 * y),
        HilferProblem(0.3, 0.8, 0.0, 0.0, rhs=lambda t, y: 2.0),
    ]
    worst = 0.0
    for problem in battery:
        consts, mesh, rule, result = solve(problem, n=128, tol=tol)
        assert result.converged, problem
        gap = boundary_identity_gap(problem, consts, result.solution, rule)
        assert gap <= 10.0 * tol, (problem, gap)
        worst = max(worst, gap)
    print(f"criterion 7 (boundary identity): PASS, worst gap {worst:.3e} "
          f"<= {10.0 * tol:.1e} over {len(battery)} converged solves")


def test_criterion_08_residual_convergence():
    cases = [
        ("constant", HilferProblem(0.5, 0.5, 0.2, 1.0, rhs=lambda t, y: 1.0)),
        ("power", HilferProblem(0.5, 0.5, 0.0, 1.0, rhs=lambda t, y: t ** 0.5)),
    ]
    sizes = (128, 256, 512, 1024)
    for label, problem in cases:
        residuals = []
        for n in sizes:
            consts, mesh, rule, result = solve(problem, n=n)
            assert result.converged
            rep = residual_check(problem, consts, result.solution, rule)
            residuals.append(rep.interior_residual)
        for a, b in zip(residuals, residuals[1:]):
            assert b <= 1.1 * a, (label, residuals)   # monotone within 10%
        order = math.log2(residuals[0] / residuals[-1]) / (len(sizes) - 1)
        assert order >= 1.0, (label, residuals, order)
        print(f"criterion 8 (residual convergence, {label}): PASS, "
              f"residuals {['%.2e' % r for r in residuals]}, order {order:.2f}")


def test_criterion_09_positivity_sweep():
    converged = 0
    total = 0
    min_w = math.inf
    for alpha in np.linspace(0.3, 0.9, 5):
        for beta in np.linspace(0.0, 1.0, 5):
            for lam in np.linspace(0.0, 0.8, 5):
                problem = HilferProblem(float(alpha), float(beta), float(lam),
                                        1.0, rhs=lambda t, y: 0.5 * y / (1.0 + y))
                consts = derive_constants(problem)
                assert consts.mu > 0.0
                total += 1
                _, _, _, result = solve(problem, n=64)
                if result.converged:
                    converged += 1
                    low = float(np.min(result.solution.values))
                    min_w = min(min_w, low)
                    assert low >= -1e-12, (alpha, beta, lam, low)
    assert converged >= 1
    print(f"criterion 9 (positivity): PASS, {converged}/{total} converged, "
          f"min sample {min_w:.3e} >= -1e-12")


def test_criterion_10_singularity_handling(tmp_path, capsys):
    lam = math.gamma(1.75)      # composite order 0.75 for alpha = beta = 0.5
    out = tmp_path / "out"
    config = (
        "[problem]\n"
        "alpha = 0.5\nbeta = 0.5\n"
        f"lambda = {lam!r}\nd = 1.0\n\n"
        "[rhs]\nkind = constant\nc = 1.0\n\n"
        "[mesh]\nn = 64\n\n"
        f"[output]\ndir = {out}\n"
    )
    path = tmp_path / "singular.cfg"
    path.write_text(config, encoding="utf-8")
    code = main(["solve", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_SINGULAR
    assert "mu" in err and "!= 0" in err
    code = main(["certify", str(path)])
    capsys.readouterr()
    assert code == EXIT_SINGULAR
    print(f"criterion 10 (singularity handling): PASS, exit code {code} and "
          "the message names the mu != 0 hypothesis")
