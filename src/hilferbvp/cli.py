"""Batch front end: solve / certify / sweep / verify.

Exit codes: 0 success, 1 config failure (a mesh too steep for double
precision included), 2 non-convergence, 3 the mu hypothesis failed
(singular or non-positive mu), 4 some other certificate failed (certify
only), 5 numerical failure (for example the rhs evaluated to a non-finite
value, an iterate overflowed (NonFiniteIterate), or the mesh or its
integral operator would not fit in physical memory), 6 a residual of the
solution is not finite (solve and verify, after printing it).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from . import analysis, solver, verify
from .analysis import CERT_CONTRACTION, CERT_MU_NONZERO, Certificate
from .config import (
    RunConfig,
    SweepConfig,
    check_run_config,
    convert,
    parse_run_file,
    parse_sweep_file,
    to_grading,
)
from .core import WeightedGridFunction, derive_constants
from .errors import ConfigError, HilferBvpError, NonFiniteResidual, SingularProblem
from .fracops import QuadratureRule

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_CONVERGED = 2
EXIT_SINGULAR = 3
EXIT_CERTIFICATE = 4
EXIT_NUMERICAL = 5
EXIT_RESIDUAL = 6

_NOT_EVALUABLE = "not-evaluable"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    """cfg with the command-line overrides, checked like the config file."""
    updates = {}
    if args.mesh_n is not None:
        updates["mesh_n"] = args.mesh_n
    if args.mesh_r is not None:
        updates["mesh_r"] = convert("--mesh-r", args.mesh_r, to_grading, "command line")
    if args.tol is not None:
        updates["tol"] = args.tol
    if args.max_iter is not None:
        updates["max_iter"] = args.max_iter
    if args.output_dir is not None:
        updates["output_dir"] = args.output_dir
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}", "command line")
    return check_run_config(replace(cfg, **updates), "command line") if updates else cfg


def _physical_origin(w0: float, gamma: float) -> float:
    """Limit of y = t^(gamma-1) w at t = 0 for the solution.csv y column."""
    if gamma == 1.0:
        return w0
    if w0 > 0.0:
        return math.inf
    if w0 < 0.0:
        return -math.inf
    return 0.0


# Rows of solution.csv formatted per write.  Blocks keep the text out of
# memory: the whole file at once raised the peak RSS of an n = 4096 solve
# by 1 MB, and is 5.7 MiB at n = 10^5.
_CSV_BLOCK_ROWS = 256


def _write_solution_csv(path: Path, w: WeightedGridFunction) -> None:
    """The t, w and y columns in csv.writer's dialect (CRLF rows, no value
    needs quoting).  y is t^(gamma-1) w by libm pow, node by node: numpy's
    vectorised power rounds differently."""
    w0 = float(w.values[0])
    e = w.gamma - 1.0
    with path.open("w", newline="", encoding="utf-8") as handle:
        handle.write(f"t,w,y\r\n0,{_fmt(w0)},{_fmt(_physical_origin(w0, w.gamma))}\r\n")
        for start in range(1, w.values.size, _CSV_BLOCK_ROWS):
            stop = start + _CSV_BLOCK_ROWS
            rows = []
            for t, v in zip(w.mesh.nodes[start:stop].tolist(),
                            w.values[start:stop].tolist()):
                # Never raises: GradedMesh keeps t >= t_1 >= the smallest
                # normal double and e lies in (-1, 0], so pow stays below
                # ~4.5e307, and a float product that overflows gives inf.
                y = math.pow(t, e) * v
                rows.append(f"{t:.17g},{v:.17g},{y:.17g}\r\n")
            handle.write("".join(rows))


def _certificate_rows(certs: List[Certificate]) -> List[List[str]]:
    """certificates.csv rows of ``certs``, with a not-evaluable contraction
    row when there is no contraction certificate."""
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
    lines.append(f"  mesh: n = {cfg.mesh_n}, r = {result.solution.mesh.r:g}"
                 f"{' (auto)' if cfg.mesh_r is None else ''}")
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


def _check_residuals(residual, gap: Optional[float] = None) -> None:
    """Raise NonFiniteResidual naming each residual that is not finite: the
    interior and direct boundary residuals of ``residual`` and, if given,
    the closed-form boundary ``gap``."""
    named = [("interior", residual.interior_residual),
             ("boundary (direct quadrature)", residual.boundary_residual)]
    if gap is not None:
        named.append(("boundary (solver closed form)", gap))
    bad = [f"{name} = {value:.6g}" for name, value in named if not math.isfinite(value)]
    if bad:
        raise NonFiniteResidual(f"the residual check of the solution is not finite: "
                                f"{', '.join(bad)}")


def _settings(cfg: RunConfig) -> solver.PicardSettings:
    return solver.PicardSettings(tol=cfg.tol, max_iter=cfg.max_iter)


def cmd_solve(args) -> int:
    cfg = _apply_overrides(parse_run_file(args.config), args)
    problem = cfg.to_problem()
    consts = derive_constants(problem)
    mesh = cfg.mesh()
    rule = QuadratureRule(mesh)
    result = solver.solve_picard(problem, consts, _settings(cfg), rule)
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
    _check_residuals(residual, gap)
    return EXIT_OK


def cmd_certify(args) -> int:
    cfg = _apply_overrides(parse_run_file(args.config), args)
    certs = analysis.hypothesis_report(cfg.to_problem())
    rows = _certificate_rows(certs)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    with (outdir / "certificates.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["name", "value", "threshold", "holds"])
        writer.writerows(rows)
    for row in rows:
        print(",".join(row))
    if all(c.holds for c in certs):
        return EXIT_OK
    if not next(c for c in certs if c.name == CERT_MU_NONZERO).holds:
        print("error: the mu hypothesis (mu = 1 - lambda/Gamma(gamma+1) != 0, "
              "mu > 0) does not hold", file=sys.stderr)
        return EXIT_SINGULAR
    return EXIT_CERTIFICATE


def _cell_problem(cell_cfg: RunConfig, rhs: Callable):
    """The problem of a sweep cell with `rhs` as f, and its constants, or
    the record of a cell that has none."""
    try:
        problem = cell_cfg.to_problem(rhs)
        return problem, derive_constants(problem)
    except SingularProblem:
        return {"status": "singular"}
    except HilferBvpError as exc:
        return {"status": f"failed:{type(exc).__name__}"}


def _sweep_cell(cell_cfg: RunConfig, setup,
                solved: Union[solver.SolveResult, HilferBvpError, None],
                residual: Union[verify.ResidualReport, HilferBvpError, None]):
    """Metrics for one sweep cell from its _cell_problem ``setup``,
    ``solved``, the outcome of its stacked solve (a SolveResult, or the
    error that ended it), and ``residual``, that of the stacked residual
    check of its solution (None when there is none).  Exceptions become a
    status, never a crash."""
    if isinstance(setup, dict):
        return setup
    problem, consts = setup
    record = {"mu": consts.mu, "status": "ok"}
    lipschitz = cell_cfg.effective_lipschitz()
    if lipschitz is not None and consts.mu > 0.0:
        record["contraction"] = analysis.contraction_certificate(
            consts, problem.alpha, problem.lam, lipschitz).value
    try:
        for outcome in (solved, residual):
            if isinstance(outcome, HilferBvpError):
                raise outcome
        _check_residuals(residual)
    except HilferBvpError as exc:
        record["status"] = f"failed:{type(exc).__name__}"
        return record
    record.update(
        converged=solved.converged,
        iterations=solved.iterations,
        interior_residual=residual.interior_residual,
        boundary_residual=residual.boundary_residual,
    )
    return record


# Workspace bytes one stack of sweep cells may hold, counted in the 16
# doubles per mesh node and stacked cell that the solver keeps
# (solver._WORKSPACE_DOUBLES_PER_NODE); the operator's temporaries add about
# 6 more at the peak of an iteration.  A stacked step has a fixed cost that
# larger stacks share out, so 4 MiB holds 32 cells at n = 1024, 8 at 4096,
# 2 at 16384 and one cell from 32768 up.
_STACK_BYTES = 4 << 20


def _sweep_stacks(cells: List[RunConfig]) -> List[List[int]]:
    """Indices of the cells to solve together.  Cells that share alpha,
    beta, the mesh, the rhs, tol and max_iter iterate the same operator and
    differ only in lambda, d or the Lipschitz constant; each such group is
    cut into stacks of nearly equal size, none holding more than
    _STACK_BYTES of solver workspace (at n = 1024, 32 cells)."""
    groups: Dict[tuple, List[int]] = {}
    for i, cfg in enumerate(cells):
        key = (cfg.alpha, cfg.beta, cfg.mesh_n, cfg.mesh_r, cfg.rhs,
               cfg.tol, cfg.max_iter)
        groups.setdefault(key, []).append(i)
    stacks = []
    for members in groups.values():
        per_cell = 8 * solver._WORKSPACE_DOUBLES_PER_NODE * cells[members[0]].mesh_n
        count = -(-len(members) // max(1, _STACK_BYTES // per_cell))
        cuts = [len(members) * k // count for k in range(count + 1)]
        stacks += [members[a:b] for a, b in zip(cuts, cuts[1:])]
    return stacks


def _sweep_stack(cells: List[RunConfig]) -> List[dict]:
    """Records of cells that _sweep_stacks put together: one stacked Picard
    solve (solver._solve_stack), one stacked residual check of the solved
    cells, then _sweep_cell for each cell.  A mesh that cannot be built
    fails every cell of the stack.  The stack's cells share one RhsSpec
    (_sweep_stacks), so one rhs callable serves them all, and an rhs that
    cannot be built fails every cell too."""
    try:
        rhs = cells[0].rhs.build()
    except HilferBvpError as exc:
        return [{"status": f"failed:{type(exc).__name__}"} for _ in cells]
    setups = [_cell_problem(cfg, rhs) for cfg in cells]
    solvable = [i for i, setup in enumerate(setups) if not isinstance(setup, dict)]
    solved: List[Union[solver.SolveResult, HilferBvpError, None]] = [None] * len(cells)
    checked: List[Union[verify.ResidualReport, HilferBvpError, None]] = [None] * len(cells)
    if solvable:
        problems = [setups[i][0] for i in solvable]
        consts = [setups[i][1] for i in solvable]
        cfg = cells[solvable[0]]
        try:
            rule = QuadratureRule(cfg.mesh())
        except HilferBvpError as exc:
            outcomes = [exc] * len(solvable)
        else:
            outcomes = solver._solve_stack(problems, consts, _settings(cfg), rule)
        done = [k for k, outcome in enumerate(outcomes)
                if isinstance(outcome, solver.SolveResult)]
        if done:
            try:
                reports = verify.residual_check(
                    [problems[k] for k in done], [consts[k] for k in done],
                    [outcomes[k].solution for k in done], rule)
            except HilferBvpError as exc:
                reports = [exc] * len(done)
            for k, report in zip(done, reports):
                checked[solvable[k]] = report
        for i, outcome in zip(solvable, outcomes):
            solved[i] = outcome
    return [_sweep_cell(*args) for args in zip(cells, setups, solved, checked)]


def cmd_sweep(args) -> int:
    sweep: SweepConfig = parse_sweep_file(args.config)
    base = _apply_overrides(sweep.base, args)
    sweep = SweepConfig(base=base, axes=sweep.axes)
    cells = sweep.cells()
    configs = [cfg for _, cfg in cells]
    stacks = _sweep_stacks(configs)
    records: List[dict] = [{}] * len(cells)
    for stack in stacks:
        for i, record in zip(stack, _sweep_stack([configs[i] for i in stack])):
            records[i] = record

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
    """The w column of a solution.csv on `mesh`.  A short row, a non-finite
    t or w, or nodes off the mesh raise ConfigError."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:2]] != ["t", "w"]:
                raise ConfigError("solution file must start with a 't,w,...' header",
                                  path, 1)
            for row in filter(None, reader):
                if len(row) < 2:
                    raise ConfigError("solution row needs a t and a w value",
                                      path, reader.line_num)
                try:
                    t, w = float(row[0]), float(row[1])
                except ValueError as exc:
                    raise ConfigError(f"bad number in solution file: {exc}",
                                      path, reader.line_num) from None
                if not (math.isfinite(t) and math.isfinite(w)):
                    raise ConfigError(f"solution row has a non-finite value "
                                      f"(t = {row[0]}, w = {row[1]})",
                                      path, reader.line_num)
                rows.append((t, w))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read solution: {exc}", path)
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
    consts = derive_constants(problem)
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
    _check_residuals(residual, gap)
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
                        help="kept for existing command lines (must be >= 1); "
                             "starts no threads: sweep solves its stacks one "
                             "after another")
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
    except NonFiniteResidual as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESIDUAL
    except SingularProblem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except HilferBvpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
