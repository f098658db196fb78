"""Batch front end: solve / certify / sweep / verify.

Exit codes: 0 success, 1 config failure, 2 non-convergence, 3 the mu
hypothesis failed (singular or non-positive mu), 4 some other certificate
failed (certify only), 5 numerical failure (for example the rhs evaluated
to a non-finite value, or the integral operator on the mesh would not
fit in physical memory).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import analysis, solver, verify
from .analysis import CERT_CONTRACTION, CERT_MU_NONZERO, Certificate
from .config import (
    RunConfig,
    SweepConfig,
    parse_run_file,
    parse_sweep_file,
)
from .core import (
    HilferProblem,
    WeightedGridFunction,
    derive_constants,
)
from .errors import ConfigError, HilferBvpError, SingularProblem
from .fracops import QuadratureRule

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_CONVERGED = 2
EXIT_SINGULAR = 3
EXIT_CERTIFICATE = 4
EXIT_NUMERICAL = 5

_NOT_EVALUABLE = "not-evaluable"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    updates = {}
    if args.mesh_n is not None:
        updates["mesh_n"] = args.mesh_n
    if args.mesh_r is not None:
        updates["mesh_r"] = None if args.mesh_r == "auto" else float(args.mesh_r)
    if args.tol is not None:
        updates["tol"] = args.tol
    if args.max_iter is not None:
        updates["max_iter"] = args.max_iter
    if args.output_dir is not None:
        updates["output_dir"] = args.output_dir
    return replace(cfg, **updates) if updates else cfg


def _physical_origin(w0: float, gamma: float) -> float:
    """Limit of y = t^(gamma-1) w at t = 0 for the solution.csv y column."""
    if gamma == 1.0:
        return w0
    if w0 > 0.0:
        return math.inf
    if w0 < 0.0:
        return -math.inf
    return 0.0


def _write_solution_csv(path: Path, w: WeightedGridFunction) -> None:
    t = w.mesh.nodes
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "w", "y"])
        writer.writerow(["0", _fmt(w.values[0]),
                         _fmt(_physical_origin(float(w.values[0]), w.gamma))])
        for j in range(1, t.size):
            y = t[j] ** (w.gamma - 1.0) * w.values[j]
            writer.writerow([_fmt(t[j]), _fmt(w.values[j]), _fmt(y)])


def _certificate_rows(problem: HilferProblem) -> List[List[str]]:
    certs = analysis.hypothesis_report(problem)
    rows = [[c.name, _fmt(c.value), _fmt(c.threshold), str(c.holds)] for c in certs]
    if all(c.name != CERT_CONTRACTION for c in certs):
        rows.append([CERT_CONTRACTION, "", "", _NOT_EVALUABLE])
    return rows


def _report_lines(cfg: RunConfig, consts, certs: List[Certificate],
                  result, residual) -> List[str]:
    lines = ["problem:"]
    lines.append(f"  alpha = {cfg.alpha:g}, beta = {cfg.beta:g}, "
                 f"lambda = {cfg.lam:g}, d = {cfg.d:g}")
    lines.append(f"  rhs: {cfg.rhs.describe()}")
    lines.append(f"  mesh: n = {cfg.mesh_n}, r = "
                 f"{cfg.mesh().r:g}{' (auto)' if cfg.mesh_r is None else ''}")
    lines.append("constants:")
    lines.append(f"  gamma  = {_fmt(consts.gamma)}")
    lines.append(f"  mu     = {_fmt(consts.mu)}")
    lines.append(f"  Lambda = {_fmt(consts.capital_lambda)}")
    lines.append("certificates:")
    for c in certs:
        verdict = "PASS" if c.holds else "FAIL"
        lines.append(f"  {c.name}: {verdict} (value {c.value:.6g} vs "
                     f"threshold {c.threshold:.6g})")
        lines.append(f"    {c.detail}")
    lines.append("picard:")
    lines.append(f"  converged  = {result.converged}")
    lines.append(f"  iterations = {result.iterations}")
    if result.history:
        lines.append(f"  final step = {result.history[-1]:.6g}")
    lines.append("residuals:")
    lines.append(f"  interior (t >= {residual.t_cut:g}, {residual.node_count} nodes)"
                 f" = {residual.interior_residual:.6g}")
    lines.append(f"  boundary (direct quadrature) = {residual.boundary_residual:.6g}")
    return lines


def cmd_solve(args) -> int:
    cfg = _apply_overrides(parse_run_file(args.config), args)
    problem = cfg.to_problem()
    try:
        consts = derive_constants(problem)
    except SingularProblem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    mesh = cfg.mesh()
    rule = QuadratureRule(mesh)
    settings = solver.PicardSettings(tol=cfg.tol, max_iter=cfg.max_iter)
    result = solver.solve_picard(problem, consts, settings, rule)
    certs = analysis.hypothesis_report(problem)
    residual = verify.residual_check(problem, consts, result.solution, rule)
    gap = solver.boundary_identity_gap(problem, consts, result.solution, rule)

    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_solution_csv(outdir / "solution.csv", result.solution)
    lines = _report_lines(cfg, consts, certs, result, residual)
    lines.append(f"  boundary (solver closed form)  = {gap:.6g}")
    (outdir / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))

    mu_cert = next(c for c in certs if c.name == CERT_MU_NONZERO)
    if not mu_cert.holds:
        print(f"error: mu hypothesis failed: {mu_cert.detail}", file=sys.stderr)
        return EXIT_SINGULAR
    if not result.converged:
        print(f"error: Picard iteration did not converge within "
              f"{cfg.max_iter} iterations (last step {result.history[-1]:.3g})",
              file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_certify(args) -> int:
    cfg = _apply_overrides(parse_run_file(args.config), args)
    problem = cfg.to_problem()
    rows = _certificate_rows(problem)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    with (outdir / "certificates.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["name", "value", "threshold", "holds"])
        writer.writerows(rows)
    for row in rows:
        print(",".join(row))
    evaluable = [row for row in rows if row[3] != _NOT_EVALUABLE]
    if all(row[3] == "True" for row in evaluable):
        return EXIT_OK
    mu_row = next(row for row in rows if row[0] == CERT_MU_NONZERO)
    if mu_row[3] != "True":
        print("error: the mu hypothesis (mu = 1 - lambda/Gamma(gamma+1) != 0, "
              "mu > 0) does not hold", file=sys.stderr)
        return EXIT_SINGULAR
    return EXIT_CERTIFICATE


def _sweep_cell(cell_cfg: RunConfig):
    """Metrics for one sweep cell; exceptions become a status, never a crash."""
    try:
        problem = cell_cfg.to_problem()
        consts = derive_constants(problem)
    except SingularProblem:
        return {"status": "singular"}
    except HilferBvpError as exc:
        return {"status": f"failed:{type(exc).__name__}"}
    record = {"mu": consts.mu, "status": "ok"}
    lipschitz = cell_cfg.effective_lipschitz()
    if lipschitz is not None and consts.mu > 0.0:
        record["contraction"] = analysis.contraction_certificate(
            consts, problem.alpha, problem.lam, lipschitz).value
    try:
        rule = QuadratureRule(cell_cfg.mesh())
        settings = solver.PicardSettings(tol=cell_cfg.tol, max_iter=cell_cfg.max_iter)
        result = solver.solve_picard(problem, consts, settings, rule)
        residual = verify.residual_check(problem, consts, result.solution, rule)
    except HilferBvpError as exc:
        record["status"] = f"failed:{type(exc).__name__}"
        return record
    record.update(
        converged=result.converged,
        iterations=result.iterations,
        interior_residual=residual.interior_residual,
        boundary_residual=residual.boundary_residual,
    )
    return record


def cmd_sweep(args) -> int:
    sweep: SweepConfig = parse_sweep_file(args.config)
    base = _apply_overrides(sweep.base, args)
    sweep = SweepConfig(base=base, axes=sweep.axes)
    cells = sweep.cells()
    workers = max(1, args.workers)
    if workers == 1:
        records = [_sweep_cell(cfg) for _, cfg in cells]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_sweep_cell, (cfg for _, cfg in cells)))

    outdir = Path(base.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    axis_names = [axis.parameter for axis in sweep.axes]
    metric_names = ["mu", "contraction", "converged", "iterations",
                    "interior_residual", "boundary_residual", "status"]
    with (outdir / "sweep.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(axis_names + metric_names)
        for (values, _), record in zip(cells, records):
            row = [_fmt(v) for v in values]
            for name in metric_names:
                value = record.get(name)
                if value is None:
                    row.append("")
                elif isinstance(value, float):
                    row.append(_fmt(value))
                else:
                    row.append(str(value))
            writer.writerow(row)
    print(f"wrote {len(records)} rows to {outdir / 'sweep.csv'}")
    return EXIT_OK


def _read_solution_csv(path: str, mesh) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:2]] != ["t", "w"]:
                raise ConfigError("solution file must start with a 't,w,...' header",
                                  path, 1)
            rows = [(float(row[0]), float(row[1])) for row in reader if row]
    except OSError as exc:
        raise ConfigError(f"cannot read solution: {exc}", path)
    except ValueError as exc:
        raise ConfigError(f"bad number in solution file: {exc}", path)
    if len(rows) != mesh.n + 1:
        raise ConfigError(
            f"solution has {len(rows)} samples but the config mesh has "
            f"{mesh.n + 1} nodes", path)
    t = np.array([row[0] for row in rows])
    if np.max(np.abs(t - mesh.nodes)) > 1e-9:
        raise ConfigError("solution nodes do not match the config mesh "
                          "(check mesh n and r)", path)
    return np.array([row[1] for row in rows])


def cmd_verify(args) -> int:
    cfg = _apply_overrides(parse_run_file(args.config), args)
    problem = cfg.to_problem()
    try:
        consts = derive_constants(problem)
    except SingularProblem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    mesh = cfg.mesh()
    w_values = _read_solution_csv(args.solution, mesh)
    solution = WeightedGridFunction(mesh, consts.gamma, w_values)
    rule = QuadratureRule(mesh)
    residual = verify.residual_check(problem, consts, solution, rule)
    gap = solver.boundary_identity_gap(problem, consts, solution, rule)
    print(f"interior residual (t >= {residual.t_cut:g}, {residual.node_count} nodes)"
          f" = {residual.interior_residual:.6g}")
    print(f"boundary residual (direct quadrature) = {residual.boundary_residual:.6g}")
    print(f"boundary residual (solver closed form) = {gap:.6g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mesh-n", type=int, default=None,
                        help="override the mesh interval count")
    common.add_argument("--mesh-r", default=None,
                        help="override the mesh grading exponent (or 'auto')")
    common.add_argument("--tol", type=float, default=None,
                        help="override the Picard stopping tolerance")
    common.add_argument("--max-iter", type=int, default=None,
                        help="override the Picard iteration cap")
    common.add_argument("--workers", type=int, default=1,
                        help="concurrent sweep cells (sweep only)")
    common.add_argument("--output-dir", default=None,
                        help="override the output directory")

    parser = argparse.ArgumentParser(
        prog="hilferbvp",
        description="Solve and certify fractional boundary-value problems "
                    "with an integral boundary condition.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", parents=[common],
                             help="solve a problem and write solution.csv + report.txt")
    p_solve.add_argument("config")
    p_solve.set_defaults(func=cmd_solve)
    p_certify = sub.add_parser("certify", parents=[common],
                               help="evaluate the solvability hypotheses to certificates.csv")
    p_certify.add_argument("config")
    p_certify.set_defaults(func=cmd_certify)
    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="run a parameter sweep to sweep.csv")
    p_sweep.add_argument("config")
    p_sweep.set_defaults(func=cmd_sweep)
    p_verify = sub.add_parser("verify", parents=[common],
                              help="recompute residuals for a stored solution")
    p_verify.add_argument("config")
    p_verify.add_argument("solution")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HilferBvpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
