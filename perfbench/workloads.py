"""The two benchmark workloads: their inputs, commands and output checks.

Every workload is a set of `hilferbvp` CLI commands run on config files that
are generated here from the seed.  The seed only jitters parameter values
by a few percent, so each workload keeps the cost profile it was chosen for
(see perfbench/README.md).
"""

from __future__ import annotations

import csv
import io
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import oracle


@dataclass
class Result:
    """Exit code and captured streams of one CLI command."""

    returncode: int
    stdout: str
    stderr: str


@dataclass
class Outputs:
    """What one repetition of a workload produced, read back from its files."""

    attempted: int = 0
    failed: int = 0
    interior_residual: float = math.nan
    boundary_residual: float = math.nan
    fingerprint: bytes = b""          # output bytes that must repeat exactly
    problems: List[str] = field(default_factory=list)


@dataclass
class Command:
    args: List[str]                   # CLI arguments after `python -m hilferbvp.cli`
    csv_name: Optional[str] = None    # output CSV the command writes, if any


CliRunner = Callable[[List[str]], Result]


@dataclass
class Workload:
    name: str
    configs: Dict[str, str]           # file name -> text, written to the work dir
    commands: List[Command]
    setup_config: str                 # config parsed by the set-up probe
    setup_parser: str                 # "parse_run_file" or "parse_sweep_file"
    read_outputs: Callable[[Path, List[Result]], Outputs]
    # Run once after the measured repetitions, with a runner for untimed CLI
    # commands in the work dir; returns err_max and any failed checks.
    check: Callable[[Path, CliRunner], Tuple[float, List[str]]]


def _jitter(rng: random.Random, value: float, share: float) -> float:
    return value * (1.0 + share * rng.uniform(-1.0, 1.0))


def run_config(alpha, beta, lam, d, rhs_lines, n, out="out", sweep_lines=()) -> str:
    lines = ["[problem]", f"alpha = {alpha!r}", f"beta = {beta!r}",
             f"lambda = {lam!r}", f"d = {d!r}", "", "[rhs]", *rhs_lines, "",
             "[mesh]", f"n = {n}", "r = auto", "", "[picard]", "tol = 1e-10",
             "max_iter = 200", "", "[output]", f"dir = {out}", ""]
    if sweep_lines:
        lines += ["[sweep]", *sweep_lines, ""]
    return "\n".join(lines)


@dataclass(frozen=True)
class LinearProblem:
    """A problem with f = a*y + b, which the closed form in oracle.py solves."""

    alpha: float
    beta: float
    lam: float
    d: float
    a: float
    b: float
    n: int

    def config(self, out: str) -> str:
        rhs = ["kind = linear", f"a = {self.a!r}", f"b = {self.b!r}"]
        return run_config(self.alpha, self.beta, self.lam, self.d, rhs, self.n, out=out)

    def error(self, solution: Path) -> Tuple[float, float]:
        """Max nodal |w - w_exact| and the w(0) error of a solution.csv."""
        t, w = read_solution(solution)
        exact = oracle.linear_rhs_weighted(self.alpha, self.beta, self.lam, self.d,
                                           self.a, self.b, t)
        return float(np.max(np.abs(w - exact))), float(abs(w[0] - exact[0]))


# --- output readers ----------------------------------------------------------

_REPORT_INTERIOR = re.compile(r"^\s*interior \(t >= [^)]*\) = (\S+)$", re.M)
_REPORT_BOUNDARY = re.compile(r"^\s*boundary \(direct quadrature\) = (\S+)$", re.M)
_VERIFY_INTERIOR = re.compile(r"^interior residual \(t >= [^)]*\) = (\S+)$", re.M)
_VERIFY_BOUNDARY = re.compile(r"^boundary residual \(direct quadrature\) = (\S+)$", re.M)


def _one(pattern: re.Pattern, text: str) -> Optional[str]:
    found = pattern.findall(text)
    return found[0] if len(found) == 1 else None


def read_solution(path: Path):
    """(t, w) columns of a solution.csv."""
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    t = np.array([float(row[0]) for row in rows])
    w = np.array([float(row[1]) for row in rows])
    return t, w


def sweep_cell_failed(row: Dict[str, str]) -> bool:
    """A cell fails on a status other than ok or a converged flag other than
    True.  The status column alone is not trusted: the CLI writes status ok
    for a cell that stopped at max_iter without converging."""
    return row.get("status") != "ok" or row.get("converged") != "True"


def read_sweep(text: str, expected_rows: int) -> Outputs:
    """Cell counts and max residuals over the converged cells of a sweep.csv."""
    out = Outputs(attempted=expected_rows)
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != expected_rows:
        out.problems.append(f"sweep.csv has {len(rows)} rows, expected {expected_rows}")
    converged = [row for row in rows if not sweep_cell_failed(row)]
    out.failed = max(expected_rows - len(converged), 0)
    if converged:
        out.interior_residual = max(float(r["interior_residual"]) for r in converged)
        out.boundary_residual = max(float(r["boundary_residual"]) for r in converged)
    return out


# The closed form's w(0) = c/Gamma(gamma) is matched to this at every mesh used.
W0_TOL = 1e-6


def _oracle_check(problem: LinearProblem, solution: Path,
                  err_tol: float) -> Tuple[float, List[str]]:
    """err_max of a solution.csv against the closed form, with its gates."""
    err_max, err_w0 = problem.error(solution)
    problems = []
    if not err_max <= err_tol:
        problems.append(f"err_max {err_max:.3e} exceeds {err_tol:g}")
    if not err_w0 <= W0_TOL:
        problems.append(f"|w(0) - c/Gamma(gamma)| = {err_w0:.3e} exceeds {W0_TOL:g}")
    return err_max, problems


# --- solve-verify --------------------------------------------------------------

# err_max of the n = 4096 solve is 9.8e-7 at the unjittered problem; the gate
# leaves room for the seed jitter and fails a real loss of accuracy.
SOLVE_ERR_TOL = 2e-6


def solve_verify(seed: int) -> Workload:
    rng = random.Random(f"solve-verify:{seed}")
    problem = LinearProblem(alpha=0.5, beta=0.5, lam=_jitter(rng, 0.2, 0.02),
                            d=_jitter(rng, 1.0, 0.02), a=_jitter(rng, 0.25, 0.02),
                            b=_jitter(rng, 0.25, 0.02), n=4096)

    def read_outputs(workdir: Path, results: List[Result]) -> Outputs:
        solve, verify = results
        out = Outputs(attempted=2, failed=sum(r.returncode != 0 for r in results))
        report_path = workdir / "out" / "report.txt"
        report = report_path.read_text(encoding="utf-8") if report_path.exists() else ""
        if "converged  = True" not in report and solve.returncode == 0:
            out.failed += 1
        if out.failed:
            out.problems.append("solve or verify failed (nonzero exit or not converged)")
        interior, boundary = _one(_REPORT_INTERIOR, report), _one(_REPORT_BOUNDARY, report)
        if interior is None or boundary is None:
            out.problems.append("report.txt lacks the residual lines")
            return out
        # The CSV carries 17 digits, so verify must reproduce the report exactly.
        printed = (_one(_VERIFY_INTERIOR, verify.stdout), _one(_VERIFY_BOUNDARY, verify.stdout))
        if printed != (interior, boundary):
            out.problems.append(f"verify printed residuals {printed}, "
                                f"report.txt has {(interior, boundary)}")
        out.interior_residual = float(interior)
        out.boundary_residual = float(boundary)
        out.fingerprint = (workdir / "out" / "solution.csv").read_bytes()
        return out

    def check(workdir: Path, cli: CliRunner) -> Tuple[float, List[str]]:
        return _oracle_check(problem, workdir / "out" / "solution.csv", SOLVE_ERR_TOL)

    return Workload(
        name="solve-verify",
        configs={"run.cfg": problem.config("out")},
        commands=[Command(["solve", "run.cfg"], "out/solution.csv"),
                  Command(["verify", "run.cfg", "out/solution.csv"])],
        setup_config="run.cfg",
        setup_parser="parse_run_file",
        read_outputs=read_outputs,
        check=check,
    )


# --- sweep-lambda --------------------------------------------------------------

SWEEP_CELLS = 42
# The top-lambda cells converge slowly; their residuals stay near 6e-3.
SWEEP_RESIDUAL_TOL = 0.05
# err_max of the n = 1024 linear-rhs solve is about 6.9e-6.
SWEEP_ERR_TOL = 2e-5


def sweep_lambda(seed: int) -> Workload:
    # Small jitter: the top-lambda cells converge slowly, and their residuals,
    # which set the sweep's maximum, move several times faster than the inputs.
    rng = random.Random(f"sweep-lambda:{seed}")
    c1 = _jitter(rng, 0.8, 0.0025)
    c0 = _jitter(rng, 0.3, 0.005)
    c2 = _jitter(rng, 0.1, 0.005)
    lam_stop = _jitter(rng, 0.3, 0.0025)
    d_start = _jitter(rng, 0.5, 0.01)
    rhs = ["kind = expression", f"expr = {c1!r}*y + {c0!r} + {c2!r}*sin(y)",
           # |df/dy| <= c1 + c2, rounded up so the contraction certificate stays sound.
           f"lipschitz = {math.ceil((c1 + c2) * 1e6) / 1e6!r}"]
    sweep = ["axis1 = lambda", "axis1_start = 0.0", f"axis1_stop = {lam_stop!r}",
             "axis1_steps = 7", "axis2 = d", f"axis2_start = {d_start!r}",
             "axis2_stop = 2.0", "axis2_steps = 6"]
    cfg = run_config(0.5, 0.5, 0.0, 1.0, rhs, 1024, sweep_lines=sweep)
    # A sweep writes no solutions, so err_max comes from a linear-rhs solve at
    # the sweep's mesh size in the check step.
    problem = LinearProblem(alpha=0.5, beta=0.5, lam=lam_stop / 2, d=1.25,
                            a=0.25, b=0.25, n=1024)

    def read_outputs(workdir: Path, results: List[Result]) -> Outputs:
        (result,) = results
        path = workdir / "out" / "sweep.csv"
        if result.returncode != 0 or not path.exists():
            return Outputs(attempted=SWEEP_CELLS, failed=SWEEP_CELLS, problems=[
                f"sweep exited {result.returncode}: {result.stderr[-300:]}"])
        text = path.read_text(encoding="utf-8")
        out = read_sweep(text, SWEEP_CELLS)
        out.fingerprint = text.encode("utf-8")
        if out.failed:
            out.problems.append(f"{out.failed} of {SWEEP_CELLS} cells failed "
                                "or did not converge")
        if not out.interior_residual <= SWEEP_RESIDUAL_TOL:
            out.problems.append(f"interior residual {out.interior_residual:.3e} "
                                f"exceeds {SWEEP_RESIDUAL_TOL:g}")
        return out

    def check(workdir: Path, cli: CliRunner) -> Tuple[float, List[str]]:
        result = cli(["solve", "oracle.cfg"])
        solution = workdir / "oracle" / "solution.csv"
        if result.returncode != 0 or not solution.exists():
            return math.inf, [f"oracle solve exited {result.returncode}: "
                              f"{result.stderr[-300:]}"]
        return _oracle_check(problem, solution, SWEEP_ERR_TOL)

    return Workload(
        name="sweep-lambda",
        configs={"sweep.cfg": cfg, "oracle.cfg": problem.config("oracle")},
        commands=[Command(["sweep", "--workers", "1", "sweep.cfg"], "out/sweep.csv")],
        setup_config="sweep.cfg",
        setup_parser="parse_sweep_file",
        read_outputs=read_outputs,
        check=check,
    )


WORKLOADS = {"solve-verify": solve_verify, "sweep-lambda": sweep_lambda}
