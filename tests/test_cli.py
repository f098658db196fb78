import csv
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import child_env
from hilferbvp import cli, config, fracops, solver
from hilferbvp.cli import (
    EXIT_CERTIFICATE,
    EXIT_CONFIG,
    EXIT_NOT_CONVERGED,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_RESIDUAL,
    EXIT_SINGULAR,
    main,
)
from hilferbvp.config import parse_run_file
from hilferbvp.core import GradedMesh, WeightedGridFunction
from hilferbvp.errors import ExpressionError

CONFIG = """
[problem]
alpha = 0.5
beta = 0.5
lambda = {lam}
d = {d}

[rhs]
{rhs}

[mesh]
n = 64
r = auto

[picard]
tol = 1e-10
max_iter = {max_iter}

[output]
dir = {out}
"""


# A constant rhs whose operator image overflows double precision.
OVERFLOW_RHS = "kind = constant\nc = 1.7e308"
# A d whose solution has finite weighted samples but an int_0^1 y that
# overflows: the boundary residuals are not finite.
OVERFLOW_D = "1.7e308"


def write_config(tmp_path, rhs="kind = constant\nc = 1.0", lam="0.2", d="1.0",
                 max_iter=200, name="run.cfg"):
    out = tmp_path / "out"
    path = tmp_path / name
    path.write_text(CONFIG.format(rhs=rhs, lam=lam, d=d, out=out,
                                  max_iter=max_iter), encoding="utf-8")
    return path, out


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


class TestSolve:
    def test_constant_solution_matches_oracle(self, tmp_path, capsys):
        path, out = write_config(tmp_path)
        assert main(["solve", str(path)]) == EXIT_OK
        rows = read_csv(out / "solution.csv")
        assert rows[0] == ["t", "w", "y"]
        assert len(rows) == 66
        # frozen oracle: w(0) = 1.1999483834747010487 (mpmath)
        assert float(rows[1][1]) == pytest.approx(1.1999483834747010487, rel=1e-12)
        # w and y columns agree through the weight at the last node (t = 1)
        assert float(rows[-1][0]) == 1.0
        assert float(rows[-1][1]) == pytest.approx(float(rows[-1][2]), rel=1e-15)
        report = (out / "report.txt").read_text()
        assert "converged  = True" in report
        assert "mu " in report

    def test_zero_problem(self, tmp_path):
        path, out = write_config(tmp_path, rhs="kind = constant\nc = 0.0",
                                 lam="0.0", d="0.0")
        assert main(["solve", str(path)]) == EXIT_OK
        rows = read_csv(out / "solution.csv")
        ws = np.array([float(r[1]) for r in rows[1:]])
        assert np.max(np.abs(ws)) < 1e-14

    def test_singular_lambda_exit_code_and_message(self, tmp_path, capsys):
        lam = repr(math.gamma(1.75))
        path, _ = write_config(tmp_path, lam=lam)
        for args in (["solve", str(path)],
                     ["verify", str(path), str(tmp_path / "solution.csv")]):
            assert main(args) == EXIT_SINGULAR
            err = capsys.readouterr().err
            assert "mu" in err
            assert "!= 0" in err

    def test_not_converged_exit(self, tmp_path):
        path, _ = write_config(tmp_path,
                               rhs="kind = linear\na = 0.25\nb = 0.25",
                               max_iter=2)
        assert main(["solve", str(path)]) == EXIT_NOT_CONVERGED

    def test_config_error_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[problem]\nalpha\n", encoding="utf-8")
        assert main(["solve", str(path)]) == EXIT_CONFIG
        assert "bad.cfg:2" in capsys.readouterr().err

    def test_missing_file_exit(self, capsys):
        assert main(["solve", "/nonexistent/x.cfg"]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_non_utf8_config_exit_without_traceback(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"[problem]\nalpha = 0.5 # \xb5\n")
        assert main([command, str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {path}: cannot read config: ")

    @pytest.mark.parametrize("command", ["solve", "certify", "sweep"])
    def test_malformed_expression_names_its_line(self, tmp_path, capsys, command):
        path, _ = write_config(tmp_path, rhs="kind = expression\nexpr = y +* 2")
        if command == "sweep":
            path.write_text(path.read_text() + (
                "\n[sweep]\naxis1 = lambda\naxis1_start = 0.0\n"
                "axis1_stop = 0.2\naxis1_steps = 2\n"), encoding="utf-8")
        line = path.read_text().splitlines().index("expr = y +* 2") + 1
        assert main([command, str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {path}:{line}: unexpected '*' at position 3 in rhs "
            f"expression 'y +* 2'\n")
        with pytest.raises(ExpressionError) as raised:
            parse_run_file(str(path))
        assert (raised.value.path, raised.value.line) == (str(path), line)

    def test_long_expression_solves(self, tmp_path, capsys):
        # Each term of a sum is one step of a loop, not one level of recursion.
        expr = " + ".join(["0.0001*y"] * 2000) + " + 0.25"
        path, out = write_config(tmp_path, rhs=f"kind = expression\nexpr = {expr}")
        assert main(["solve", str(path)]) == EXIT_OK
        assert (out / "solution.csv").exists()

    @pytest.mark.parametrize("expr", [" + ".join(["0.0001*y"] * 5000), "^".join(["1"] * 2000)],
                             ids=["5000-term-sum", "2000-level-power"])
    @pytest.mark.parametrize("command", ["solve", "certify", "sweep"])
    def test_expression_past_the_limits_names_its_line(self, tmp_path, capsys, command, expr):
        path, _ = write_config(tmp_path, rhs=f"kind = expression\nexpr = {expr}")
        if command == "sweep":
            path.write_text(path.read_text() + (
                "\n[sweep]\naxis1 = lambda\naxis1_start = 0.0\n"
                "axis1_stop = 0.2\naxis1_steps = 2\n"), encoding="utf-8")
        line = path.read_text().splitlines().index(f"expr = {expr}") + 1
        assert main([command, str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{line}: unexpected ")
        assert err.count("\n") == 1 and err.count("error:") == 1

    def test_rhs_failure_exit_without_traceback(self, tmp_path, capsys):
        # a = 400 drives the iterates to overflow, so f turns non-finite.
        path, _ = write_config(tmp_path, rhs="kind = linear\na = 400\nb = 0.25")
        assert main(["solve", str(path)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "non-finite" in err
        assert "Traceback" not in err

    def test_overflowing_iterate_exit_without_traceback(self, tmp_path, capsys):
        # f = 1.7e308 is finite, but the integral operator's image is not.
        path, _ = write_config(tmp_path, rhs=OVERFLOW_RHS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", str(path)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "overflow" in err
        assert "Traceback" not in err

    def test_mesh_too_large_exit(self, tmp_path, capsys, monkeypatch):
        # Less than the SOE tables of one operator on the n = 64 mesh, whose
        # two near-field blocks alone take 8 * 2 * 64 * 65 bytes.  The guard
        # runs when the tables are built, so the cache starts empty, as in a
        # fresh CLI process.
        monkeypatch.setattr(fracops, "_physical_memory", lambda: 8 * 64 ** 2)
        fracops._cached_soe_operator.cache_clear()
        path, _ = write_config(tmp_path)
        assert main(["solve", str(path)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "physical memory" in err

    def test_one_operator_per_solve_at_alpha_half(self, tmp_path):
        # The residual check takes the derivative in Riemann-Liouville form,
        # of order 1 - alpha: at alpha = 1/2 that is the solver's I^(1/2),
        # so a solve builds one SOE operator, not a second of order 1/4.
        fracops._cached_soe_operator.cache_clear()
        path, _ = write_config(tmp_path, rhs="kind = linear\na = 0.25\nb = 0.25")
        try:
            assert main(["solve", str(path)]) == EXIT_OK
            assert fracops._cached_soe_operator.cache_info().misses == 1
        finally:
            fracops._cached_soe_operator.cache_clear()

    @pytest.mark.parametrize("mesh", ["n = 4096\nr = 100", "n = 257\nr = 130"])
    def test_steep_mesh_is_config_error(self, tmp_path, capsys, mesh):
        # t_1 underflows to 0 (r = 100) or to a subnormal (r = 130): the
        # mesh does not resolve [0, 1] in double precision.
        path, out = write_config(tmp_path)
        path.write_text(path.read_text().replace("n = 64\nr = auto", mesh),
                        encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        n, r = (line.split(" = ")[1] for line in mesh.split("\n"))
        assert f"n = {n}, r = {r}" in err
        assert not out.exists()

    def test_steep_resolved_mesh_without_warning(self, tmp_path, capsys):
        # alpha = 0.05 on r = 100: t_1 = 1e-241, where a product of two
        # stencil widths underflows.  The stencil takes ratios of widths,
        # so the residual is finite and no warning is raised.
        path, out = write_config(tmp_path, rhs="kind = expression\nexpr = exp(y - 1000)",
                                 lam="0.0", d="0.0")
        path.write_text(path.read_text().replace("alpha = 0.5", "alpha = 0.05")
                        .replace("n = 64\nr = auto", "n = 257\nr = 100"), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", str(path)]) == EXIT_OK
        assert "nan" not in (out / "report.txt").read_text()
        assert capsys.readouterr().err == ""

    def test_non_finite_residual_exit(self, tmp_path, capsys):
        # solve writes its outputs and prints the residuals, then exits 6
        # with one error line; verify of the written solution does the same.
        path, out = write_config(tmp_path, d=OVERFLOW_D)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", str(path)]) == EXIT_RESIDUAL
            printed = capsys.readouterr()
            assert main(["verify", str(path), str(out / "solution.csv")]) == EXIT_RESIDUAL
        checked = capsys.readouterr()
        assert "boundary (direct quadrature) = nan" in (out / "report.txt").read_text()
        assert "boundary residual (direct quadrature) = nan" in checked.out
        for err in (printed.err, checked.err):
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "not finite" in err and "boundary (direct quadrature) = nan" in err

    def test_lambda_zero_leaves_out_the_overflowing_integral(self, tmp_path, capsys):
        # At lambda = 0 the boundary defect is |Gamma(gamma) w(0) - d|: an
        # int_0^1 y that overflows must not turn it into 0 * inf = nan.
        path, out = write_config(tmp_path, lam="0.0", d=OVERFLOW_D)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", str(path)]) == EXIT_OK
            capsys.readouterr()
            assert main(["verify", str(path), str(out / "solution.csv")]) == EXIT_OK
        checked = capsys.readouterr().out
        lines = [line for line in (out / "report.txt").read_text().splitlines()
                 + checked.splitlines() if "boundary" in line and "=" in line
                 and "kernel" not in line]
        assert len(lines) == 4, lines
        for line in lines:
            assert math.isfinite(float(line.rsplit("=", 1)[1])), line

    def test_oversized_mesh_exit(self, tmp_path, capsys):
        # The nodes alone of n = 10^13 take 80 TB: the mesh is rejected
        # before any array is allocated, with one error line.
        path, _ = write_config(tmp_path)
        path.write_text(path.read_text().replace("n = 64", "n = 10000000000000"),
                        encoding="utf-8")
        assert main(["solve", str(path)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "physical memory" in err

    def test_unallocatable_mesh_exit(self, tmp_path):
        # The 4.5 GiB of nodes of n = 6 * 10^8 pass the physical-memory guard
        # (pinned at 1 TiB here) but not a 4 GB address-space limit, set in
        # the child only: solve exits 5 with one error line and sweep
        # records the cells.  The nodes' allocation fails at once, so the
        # child uses no memory.
        path, out = write_config(tmp_path)
        path.write_text(path.read_text().replace("n = 64", "n = 600000000"), encoding="utf-8")
        sweep_path = tmp_path / "sweep.cfg"
        sweep_path.write_text(path.read_text() + (
            "\n[sweep]\naxis1 = lambda\naxis1_start = 0.0\n"
            "axis1_stop = 0.2\naxis1_steps = 2\n"), encoding="utf-8")
        script = ("import sys\n"
                  "from hilferbvp import fracops\n"
                  "from hilferbvp.cli import main\n"
                  "fracops._physical_memory = lambda: 2 ** 40\n"
                  "sys.exit(main(sys.argv[1:]))\n")

        def limit():
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (4_000_000 * 1024,) * 2)

        runs = [subprocess.run([sys.executable, "-c", script, command, str(cfg)],
                               env=child_env(), preexec_fn=limit, capture_output=True,
                               text=True)
                for command, cfg in (("solve", path), ("sweep", sweep_path))]
        solve, sweep = runs
        assert solve.returncode == EXIT_NUMERICAL, solve.stderr
        assert solve.stderr.startswith("error: ") and solve.stderr.count("\n") == 1
        assert "could not be allocated" in solve.stderr
        assert sweep.returncode == EXIT_OK and sweep.stderr == "", sweep.stderr
        rows = read_csv(out / "sweep.csv")
        assert [r[-1] for r in rows[1:]] == ["failed:MeshTooLarge"] * 2

    def test_overflowing_sample_one_error_line(self, tmp_path):
        # alpha = 0.02, beta = 0 grade the n = 256 mesh with r = 100, so
        # t_1 = 1.5e-241 and y = t^(gamma-1) w overflows there.  The rhs
        # check reports it, and no numpy warning precedes the error line.
        path, _ = write_config(tmp_path, rhs="kind = linear\na = 0.25\nb = 0.25")
        path.write_text(path.read_text().replace("alpha = 0.5", "alpha = 0.02")
                        .replace("beta = 0.5", "beta = 0.0"), encoding="utf-8")
        done = subprocess.run([sys.executable, "-m", "hilferbvp.cli", "solve", str(path),
                               "--mesh-n", "256"], env=child_env(),
                              capture_output=True, text=True)
        assert done.returncode == EXIT_NUMERICAL
        assert done.stderr.startswith("error: f(") and done.stderr.count("\n") == 1
        assert "non-finite" in done.stderr

    def test_solver_evaluates_the_built_rhs(self, tmp_path, monkeypatch):
        # The benchmark's tracer counts rhs calls by wrapping RhsSpec.build;
        # the callable it returns must be what the solver evaluates.
        calls = []
        build = config.RhsSpec.build

        def counting_build(spec):
            f = build(spec)

            def rhs(t, y):
                calls.append(np.shape(t))
                return f(t, y)
            return rhs

        monkeypatch.setattr(config.RhsSpec, "build", counting_build)
        path, out = write_config(tmp_path, rhs="kind = linear\na = 0.25\nb = 0.25")
        assert main(["solve", str(path)]) == EXIT_OK
        report = (out / "report.txt").read_text()
        iterations = int(report.split("iterations = ")[1].split()[0])
        assert 1 <= len(calls) <= iterations + 5
        assert (64,) in calls            # one call over the 64 nodes with t > 0

    def test_solver_hooks_see_every_operator_application(self, tmp_path, monkeypatch):
        # The benchmark's tracer times solve_picard and apply_delta by
        # replacing them in the solver module; every application must go
        # through that name, once per reported iteration.
        counts = {"solve_picard": 0, "apply_delta": 0}

        def counting(name):
            fn = getattr(solver, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in counts:
            monkeypatch.setattr(solver, name, counting(name))
        path, out = write_config(tmp_path, rhs="kind = linear\na = 0.25\nb = 0.25")
        assert main(["solve", str(path)]) == EXIT_OK
        report = (out / "report.txt").read_text()
        iterations = int(report.split("iterations = ")[1].split()[0])
        assert counts == {"solve_picard": 1, "apply_delta": iterations}

    def test_overrides(self, tmp_path):
        path, out = write_config(tmp_path)
        assert main(["solve", str(path), "--mesh-n", "32", "--tol", "1e-8"]) == EXIT_OK
        assert len(read_csv(out / "solution.csv")) == 34

    def test_mesh_r_auto_overrides_file_r(self, tmp_path):
        # --mesh-r auto over r = 3.5 in the file runs as r = auto in the file.
        runs = {}
        for name, r, override in (("file-auto", "auto", []), ("file-3.5", "3.5", []),
                                  ("flag-auto", "3.5", ["--mesh-r", "auto"])):
            (tmp_path / name).mkdir()
            path, out = write_config(tmp_path / name)
            path.write_text(path.read_text().replace("r = auto", f"r = {r}"),
                            encoding="utf-8")
            assert main(["solve", str(path), *override]) == EXIT_OK
            mesh_line = next(line for line in (out / "report.txt").read_text().splitlines()
                             if line.startswith("  mesh:"))
            runs[name] = mesh_line, (out / "solution.csv").read_bytes()
        assert runs["file-3.5"][0] == "  mesh: n = 64, r = 3.5"
        assert runs["flag-auto"][0].endswith(" (auto)")
        assert runs["flag-auto"] == runs["file-auto"] != runs["file-3.5"]


class TestCertify:
    def test_all_hold(self, tmp_path):
        path, out = write_config(tmp_path,
                                 rhs="kind = linear\na = 0.25\nb = 0.25")
        assert main(["certify", str(path)]) == EXIT_OK
        rows = read_csv(out / "certificates.csv")
        assert rows[0] == ["name", "value", "threshold", "holds"]
        names = [r[0] for r in rows[1:]]
        assert names == ["rhs-nonnegative", "mu-nonzero", "kernel-bound",
                         "contraction"]
        assert all(r[3] == "True" for r in rows[1:])

    def test_expression_without_lipschitz_not_evaluable(self, tmp_path):
        path, out = write_config(tmp_path,
                                 rhs="kind = expression\nexpr = (y+1)/4")
        assert main(["certify", str(path)]) == EXIT_OK
        rows = read_csv(out / "certificates.csv")
        contraction = [r for r in rows if r[0] == "contraction"][0]
        assert contraction[3] == "not-evaluable"

    def test_boundary_lipschitz_fails_strict_inequality(self, tmp_path):
        lipschitz = repr(math.gamma(1.5))
        path, out = write_config(
            tmp_path, lam="0.0",
            rhs=f"kind = constant\nc = 1.0\nlipschitz = {lipschitz}")
        assert main(["certify", str(path)]) == EXIT_CERTIFICATE
        rows = read_csv(out / "certificates.csv")
        contraction = [r for r in rows if r[0] == "contraction"][0]
        assert float(contraction[1]) == 1.0
        assert contraction[3] == "False"

    def test_singular_exit(self, tmp_path):
        path, out = write_config(tmp_path, lam=repr(math.gamma(1.75)))
        assert main(["certify", str(path)]) == EXIT_SINGULAR
        rows = read_csv(out / "certificates.csv")
        mu_row = [r for r in rows if r[0] == "mu-nonzero"][0]
        assert mu_row[3] == "False"


class TestSweep:
    def test_mu_decreases_along_lambda(self, tmp_path):
        path, out = write_config(tmp_path)
        sweep = path.read_text() + (
            "\n[sweep]\naxis1 = lambda\naxis1_start = 0.0\n"
            "axis1_stop = 0.8\naxis1_steps = 5\n")
        path.write_text(sweep, encoding="utf-8")
        assert main(["sweep", str(path)]) == EXIT_OK
        rows = read_csv(out / "sweep.csv")
        assert rows[0][:2] == ["lambda", "mu"]
        mus = [float(r[1]) for r in rows[1:]]
        assert all(b < a for a, b in zip(mus, mus[1:]))
        assert all(r[-1] == "ok" for r in rows[1:])

    def test_degenerate_two_axis_grid(self, tmp_path):
        path, out = write_config(tmp_path)
        sweep = path.read_text() + (
            "\n[sweep]\naxis1 = d\naxis1_start = 0.5\naxis1_stop = 1.0\n"
            "axis1_steps = 2\naxis2 = beta\naxis2_start = 0.0\n"
            "axis2_stop = 1.0\naxis2_steps = 2\n")
        path.write_text(sweep, encoding="utf-8")
        assert main(["sweep", str(path)]) == EXIT_OK
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 5
        assert rows[0][:2] == ["d", "beta"]

    def test_singular_cells_recorded_not_fatal(self, tmp_path):
        path, out = write_config(tmp_path)
        # lambda sweep crossing Gamma(gamma + 1) for gamma = 0.75
        crit = math.gamma(1.75)
        sweep = path.read_text() + (
            f"\n[sweep]\naxis1 = lambda\naxis1_start = 0.0\n"
            f"axis1_stop = {2.0 * crit!r}\naxis1_steps = 3\n")
        path.write_text(sweep, encoding="utf-8")
        assert main(["sweep", str(path)]) == EXIT_OK
        rows = read_csv(out / "sweep.csv")
        statuses = [r[-1] for r in rows[1:]]
        assert statuses[0] == "ok"
        assert statuses[1] == "singular"       # exactly at the critical value
        assert statuses[2] == "ok"             # negative mu still solvable

    def test_mesh_too_large_cell_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fracops, "_physical_memory", lambda: 8 * 64 ** 2)
        fracops._cached_soe_operator.cache_clear()     # as in a fresh process
        path, out = write_config(tmp_path)
        sweep = path.read_text() + (
            "\n[sweep]\naxis1 = lambda\naxis1_start = 0.0\n"
            "axis1_stop = 0.2\naxis1_steps = 2\n")
        path.write_text(sweep, encoding="utf-8")
        assert main(["sweep", str(path)]) == EXIT_OK
        rows = read_csv(out / "sweep.csv")
        assert [r[-1] for r in rows[1:]] == ["failed:MeshTooLarge"] * 2

    def test_overflowing_cells_recorded(self, tmp_path):
        path, out = write_config(tmp_path, rhs=OVERFLOW_RHS)
        sweep = path.read_text() + (
            "\n[sweep]\naxis1 = lambda\naxis1_start = 0.0\n"
            "axis1_stop = 0.2\naxis1_steps = 2\n")
        path.write_text(sweep, encoding="utf-8")
        assert main(["sweep", str(path)]) == EXIT_OK
        rows = read_csv(out / "sweep.csv")
        assert [r[-1] for r in rows[1:]] == ["failed:NonFiniteIterate"] * 2

    def test_failed_cells_from_mesh_and_residual(self, tmp_path):
        # A non-finite residual fails its own cell, not the stack; a mesh
        # too steep for double precision fails every cell.
        path, out = write_config(tmp_path)
        path.write_text(path.read_text() + (
            "\n[sweep]\naxis1 = d\naxis1_start = 1.0\n"
            f"axis1_stop = {OVERFLOW_D}\naxis1_steps = 2\n"), encoding="utf-8")
        assert main(["sweep", str(path)]) == EXIT_OK
        rows = read_csv(out / "sweep.csv")
        assert [r[-1] for r in rows[1:]] == ["ok", "failed:NonFiniteResidual"]
        assert main(["sweep", str(path), "--mesh-n", "4096", "--mesh-r", "100"]) == EXIT_OK
        rows = read_csv(out / "sweep.csv")
        assert [r[-1] for r in rows[1:]] == ["failed:DegenerateMesh"] * 2

    def test_failed_stack_keeps_solo_bytes(self, tmp_path, monkeypatch):
        # exp(y - 1000) turns non-finite on the lambda = 0.8 cell only (see
        # TestStackedSolve in test_solver.py).  That cell is retired from its
        # stack: sweep.csv must be the bytes of an all-solo sweep, with the
        # other cells solved.
        path, out = write_config(tmp_path, rhs="kind = expression\n"
                                 "expr = 0.25*y + 0.25 + exp(y - 1000)")
        path.write_text(path.read_text() + (
            "\n[sweep]\naxis1 = lambda\naxis1_start = 0.0\n"
            "axis1_stop = 0.8\naxis1_steps = 5\n"), encoding="utf-8")
        cells = [cfg for _, cfg in config.parse_sweep_file(str(path)).cells()]
        assert cli._sweep_stacks(cells) == [[0, 1, 2, 3, 4]]
        assert main(["sweep", str(path)]) == EXIT_OK
        stacked = (out / "sweep.csv").read_bytes()
        monkeypatch.setattr(cli, "_sweep_stacks",
                            lambda cells: [[i] for i in range(len(cells))])
        assert main(["sweep", str(path)]) == EXIT_OK
        assert (out / "sweep.csv").read_bytes() == stacked
        rows = read_csv(out / "sweep.csv")
        assert [r[-1] for r in rows[1:]] == ["ok"] * 4 + ["failed:RhsEvaluationFailure"]
        assert all(r[-5] == "True" for r in rows[1:-1])

    def test_failed_cells_retired_in_one_stack(self, tmp_path, monkeypatch):
        # At n = 1024 the lambda = 0.7 and 0.8 cells of this 7-cell sweep
        # fail.  The 7 cells are solved in one stacked solve: the stacked
        # operator that fails gives each cell its own outcome, the failing
        # cells retire with their solo error and the others go on from
        # their own images, so no cell is applied again.  That takes 9
        # operator applications (16 when each running cell was re-applied
        # alone).  sweep.csv is the bytes of an all-solo sweep.
        path, out = write_config(tmp_path, rhs="kind = expression\n"
                                 "expr = 0.25*y + 0.25 + exp(y - 1000)")
        path.write_text(path.read_text() + (
            "\n[sweep]\naxis1 = lambda\naxis1_start = 0.2\n"
            "axis1_stop = 0.8\naxis1_steps = 7\n"), encoding="utf-8")
        stacks, solos, applies = [], [], []
        solve_stack, apply_delta = solver._solve_stack, solver.apply_delta

        def stacked(problems, *args):
            stacks.append([p.lam for p in problems])
            return solve_stack(problems, *args)

        def applied(problems, *args):
            lams = tuple(p.lam for p in problems)
            try:
                images = apply_delta(problems, *args)
            except Exception:
                applies.append((lams, False))
                raise
            applies.append((lams, True))
            return images

        monkeypatch.setattr(solver, "_solve_stack", stacked)
        monkeypatch.setattr(solver, "apply_delta", applied)
        monkeypatch.setattr(solver, "solve_picard",
                            lambda *args: solos.append(args[0].lam))
        args = ["sweep", str(path), "--mesh-n", "1024"]
        assert main(args) == EXIT_OK
        together = (out / "sweep.csv").read_bytes()
        rows = read_csv(out / "sweep.csv")
        assert [r[-1] for r in rows[1:]] == ["ok"] * 5 + ["failed:RhsEvaluationFailure"] * 2
        assert all(r[-5] == "True" for r in rows[1:-2])
        lams = [float(r[0]) for r in rows[1:]]
        assert len(stacks) == 1 and stacks[0] == pytest.approx(lams)
        assert solos == []
        assert len(applies) <= 10
        assert all(len(lams_) > 1 for lams_, _ in applies)
        stacked_applies, applies[:] = applies[:], []

        monkeypatch.setattr(cli, "_sweep_stacks",
                            lambda cells: [[i] for i in range(len(cells))])
        assert main(args) == EXIT_OK
        assert (out / "sweep.csv").read_bytes() == together
        for lam in stacks[0]:
            # In the stack each cell makes the applies of its solo solve:
            # for a failing cell the last of them fails, alone and in the
            # stack alike.
            alone = [ok for lams_, ok in applies if lams_ == (lam,)]
            seen = [ok for lams_, ok in stacked_applies if lam in lams_]
            assert len(seen) == len(alone)
            if lam in stacks[0][5:]:
                assert alone[-1] is False and all(alone[:-1])
                assert seen[-1] is False and all(seen[:-1])

    LAMBDA_D = ("axis1 = lambda\naxis1_start = 0.0\naxis1_stop = 0.3\naxis1_steps = {}\n"
                "axis2 = d\naxis2_start = 0.5\naxis2_stop = 2.0\naxis2_steps = {}\n")
    ALPHA_LAMBDA = ("axis1 = alpha\naxis1_start = 0.4\naxis1_stop = 0.6\naxis1_steps = 2\n"
                    "axis2 = lambda\naxis2_start = 0.0\naxis2_stop = 0.3\naxis2_steps = 9\n")

    @staticmethod
    def _sweep(tmp_path, axes, mesh_n):
        path, out = write_config(tmp_path, rhs="kind = expression\n"
                                 "expr = 0.8*y + 0.3 + 0.1*sin(y)\nlipschitz = 0.9")
        path.write_text(path.read_text() + "\n[sweep]\n" + axes, encoding="utf-8")
        cells = [replace(cfg, mesh_n=mesh_n)
                 for _, cfg in config.parse_sweep_file(str(path)).cells()]
        return path, out, cells

    @pytest.mark.parametrize("axes, mesh_n, stacks", [
        (LAMBDA_D.format(4, 3), 64, [12]),
        (ALPHA_LAMBDA, 4096, [4, 5, 4, 5]),
    ], ids=["lambda-d", "alpha-lambda"])
    def test_stacking_keeps_sweep_bytes(self, tmp_path, monkeypatch, axes, mesh_n, stacks):
        # Cells sharing alpha, beta, mesh, rhs and Picard settings are solved
        # in stacks (at n = 4096 at most 8 cells each, so each alpha's 9
        # cells are cut in two); sweep.csv must be the same bytes for any
        # worker count and equal to solving each cell alone.
        path, out, cells = self._sweep(tmp_path, axes, mesh_n)
        assert [len(stack) for stack in cli._sweep_stacks(cells)] == stacks
        args = ["sweep", str(path), "--mesh-n", str(mesh_n)]
        runs = (["--workers", "1"], ["--workers", "3"], ["--max-iter", "2"])
        texts = []
        for extra in runs:
            assert main(args + extra) == EXIT_OK
            texts.append((out / "sweep.csv").read_bytes())
        monkeypatch.setattr(cli, "_sweep_stacks",
                            lambda cells: [[i] for i in range(len(cells))])
        for extra in ([], ["--max-iter", "2"]):
            assert main(args + extra) == EXIT_OK
            texts.append((out / "sweep.csv").read_bytes())
        assert texts[0] == texts[1] == texts[3]
        # At max_iter = 2 every cell leaves its stack in the same pass,
        # with what its solo solve gives.
        assert texts[2] == texts[4]
        rows = list(csv.reader(texts[0].decode("utf-8").splitlines()))
        assert len(rows) == len(cells) + 1
        assert all(r[-1] == "ok" and r[-5] == "True" for r in rows[1:])
        rows = read_csv(out / "sweep.csv")
        assert all(r[-5] == "False" and r[-4] == "2"
                   and math.isfinite(float(r[-3])) and math.isfinite(float(r[-2]))
                   for r in rows[1:])

    def test_stacks_split_on_tol_and_max_iter(self, tmp_path):
        # Cells are grouped on the plain fields: one that differs only in
        # tol or in max_iter iterates with other settings, alone.
        _, _, cells = self._sweep(tmp_path, self.LAMBDA_D.format(4, 3), 64)
        cells[0] = replace(cells[0], tol=1e-8)
        cells[1] = replace(cells[1], max_iter=100)
        stacks = cli._sweep_stacks(cells)
        assert sorted(stacks) == [[0], [1], list(range(2, 12))]

    def test_stack_workspace_within_budget(self, tmp_path):
        # The 42 cells of a 7 x 6 lambda x d sweep at n = 1024 form one group,
        # cut into stacks of 21.  The traced peak of a stack stays within the
        # 4 MiB workspace budget plus half for the operator's temporaries.
        _, _, cells = self._sweep(tmp_path, self.LAMBDA_D.format(7, 6), 1024)
        stacks = cli._sweep_stacks(cells)
        assert [len(stack) for stack in stacks] == [21, 21]
        stack = [cells[i] for i in stacks[-1]]
        cli._sweep_stack(stack)                 # builds the operators
        tracemalloc.start()
        try:
            records = cli._sweep_stack(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(record["converged"] for record in records)
        assert peak <= 1.5 * cli._STACK_BYTES

    def test_cli_import_leaves_out_the_thread_pool(self):
        script = "import sys, hilferbvp.cli; print('concurrent.futures' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", script], env=child_env(),
                              capture_output=True, text=True, check=True)
        assert done.stdout == "False\n"

    def test_workers_deterministic(self, tmp_path, monkeypatch):
        # --workers is accepted and checked but runs nothing concurrently:
        # a sweep of 4 one-cell stacks starts no thread with --workers 3
        # and writes the bytes of --workers 1.
        path, out = write_config(tmp_path)
        sweep = path.read_text() + (
            "\n[sweep]\naxis1 = alpha\naxis1_start = 0.3\n"
            "axis1_stop = 0.9\naxis1_steps = 4\n")
        path.write_text(sweep, encoding="utf-8")
        started = []

        def start(thread):
            started.append(thread)
            raise RuntimeError("sweep started a thread")

        monkeypatch.setattr(threading.Thread, "start", start)
        assert main(["sweep", str(path), "--workers", "1"]) == EXIT_OK
        serial = (out / "sweep.csv").read_text()
        assert main(["sweep", str(path), "--workers", "3"]) == EXIT_OK
        assert (out / "sweep.csv").read_text() == serial
        assert started == []
        assert [r[-1] for r in read_csv(out / "sweep.csv")[1:]] == ["ok"] * 4


class TestVerify:
    def test_round_trip(self, tmp_path, capsys):
        path, out = write_config(tmp_path)
        assert main(["solve", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["verify", str(path), str(out / "solution.csv")]) == EXIT_OK
        text = capsys.readouterr().out
        assert "interior residual" in text
        assert "boundary residual" in text

    def test_same_bytes_for_any_blas_thread_count(self, tmp_path):
        # Above n of about 10^4 OpenBLAS splits a dot product over its
        # threads.  The solver's boundary functional and verify's integral
        # of y sum in einsum's own loop instead, so solve and verify write
        # and print the same bytes with one and two threads.  Each thread
        # count builds its SOE tables on a table store of its own.
        path, _ = write_config(tmp_path, rhs="kind = linear\na = 0.25\nb = 0.25")
        outputs = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            env = dict(child_env(threads), XDG_CACHE_HOME=str(out / "store"))
            printed = [subprocess.run([sys.executable, "-m", "hilferbvp.cli", *args,
                                       "--mesh-n", "20000", "--output-dir", str(out)],
                                      env=env, capture_output=True,
                                      text=True, check=True).stdout
                       for args in (["solve", str(path)],
                                    ["verify", str(path), str(out / "solution.csv")])]
            outputs.append(printed + [(out / name).read_bytes()
                                      for name in ("solution.csv", "report.txt")])
        assert "boundary residual (solver closed form)" in outputs[0][1]
        assert outputs[0] == outputs[1]

    def test_mesh_mismatch_detected(self, tmp_path, capsys):
        path, out = write_config(tmp_path)
        assert main(["solve", str(path)]) == EXIT_OK
        assert main(["verify", str(path), str(out / "solution.csv"),
                     "--mesh-n", "32"]) == EXIT_CONFIG

    @pytest.mark.parametrize("edit", ["w_nan", "short_row", "t_nan", "w_not_a_number"])
    def test_bad_solution_file_is_config_error(self, tmp_path, capsys, edit):
        path, out = write_config(tmp_path)
        assert main(["solve", str(path)]) == EXIT_OK
        solution = out / "solution.csv"
        rows = read_csv(solution)
        if edit == "w_nan":
            rows[3][1] = "nan"
        elif edit == "short_row":
            rows[3] = rows[3][:1]
        elif edit == "w_not_a_number":
            rows[3][1] = "abc"
        else:
            rows[3][0] = "nan"
        solution.write_text("".join(",".join(row) + "\n" for row in rows),
                            encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", str(path), str(solution)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "solution.csv:4:" in err


    def test_non_utf8_solution_exit_without_traceback(self, tmp_path, capsys):
        path, out = write_config(tmp_path)
        assert main(["solve", str(path)]) == EXIT_OK
        solution = out / "solution.csv"
        solution.write_bytes(solution.read_bytes().replace(b"\r\n", b"\xb5\r\n", 4))
        capsys.readouterr()
        assert main(["verify", str(path), str(solution)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {solution}: cannot read solution: ")


def _sweep_config(tmp_path):
    path, out = write_config(tmp_path)
    path.write_text(path.read_text() + (
        "\n[sweep]\naxis1 = lambda\naxis1_start = 0.0\n"
        "axis1_stop = 0.2\naxis1_steps = 2\n"), encoding="utf-8")
    return path, out


class TestOverrideValidation:
    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("override", [
        ["--tol", "0"], ["--tol", "nan"], ["--max-iter", "0"], ["--mesh-n", "0"],
        ["--mesh-n", "2"], ["--mesh-r", "0.5"], ["--mesh-r", "nan"],
        ["--mesh-r", "abc"], ["--mesh-r", "inf"],
    ], ids=" ".join)
    def test_rejected_like_config_keys(self, tmp_path, capsys, command, override):
        path, out = (write_config if command == "solve" else _sweep_config)(tmp_path)
        assert main([command, str(path), *override]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: command line: ")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "inf", "nan", ""])
    def test_mesh_r_parsed_like_config_r(self, tmp_path, capsys, value):
        # --mesh-r goes through the converter of [mesh] r, under its own name.
        path, _ = write_config(tmp_path)
        assert main(["solve", str(path), "--mesh-r", value]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: command line: bad value for '--mesh-r': ")

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, workers):
        path, out = _sweep_config(tmp_path)
        assert main(["sweep", str(path), "--workers", workers]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: command line: ")
        assert "--workers" in err
        assert not out.exists()


class TestSweepAxisValidation:
    """A sweep axis is checked as the config key it replaces is checked, and
    may not repeat the other axis: the run exits 1 with one error at the
    axis's line, before any stack is solved or sweep.csv is written."""

    @staticmethod
    def _sweep(tmp_path, axes):
        path, out = write_config(tmp_path)
        text = path.read_text() + "\n[sweep]\n"
        for k, (name, start, stop) in enumerate(axes, start=1):
            text += (f"axis{k} = {name}\naxis{k}_start = {start}\n"
                     f"axis{k}_stop = {stop}\naxis{k}_steps = 3\n")
        path.write_text(text, encoding="utf-8")
        return path, out, text.splitlines()

    def _rejected_at(self, tmp_path, capsys, monkeypatch, axes, key):
        path, out, lines = self._sweep(tmp_path, axes)
        monkeypatch.setattr(solver, "_solve_stack", None)   # must not be reached
        assert main(["sweep", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        line = next(k for k, text in enumerate(lines, start=1) if text.startswith(key))
        assert err.startswith(f"error: {path}:{line}: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()
        return err

    @pytest.mark.parametrize("axes, key", [
        ([("alpha", 0.5, 1.2)], "axis1_stop"),
        ([("alpha", 0.0, 0.5)], "axis1_start"),
        ([("beta", -0.1, 0.5)], "axis1_start"),
        ([("beta", 0.5, 1.5)], "axis1_stop"),
        ([("lambda", -0.5, 0.2)], "axis1_start"),
        ([("d", 1.0, -1.0)], "axis1_stop"),
        ([("lipschitz", -1.0, 1.0)], "axis1_start"),
        ([("lambda", 0.0, 0.2), ("alpha", 0.5, 1.2)], "axis2_stop"),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(map(str, v[-1])))
    def test_out_of_domain_axis_rejected(self, tmp_path, capsys, monkeypatch, axes, key):
        err = self._rejected_at(tmp_path, capsys, monkeypatch, axes, key)
        assert f"bad value for '{key}'" in err

    def test_repeated_axis_rejected(self, tmp_path, capsys, monkeypatch):
        axes = [("lambda", 0.0, 0.2), ("lambda", 0.0, 0.2)]
        err = self._rejected_at(tmp_path, capsys, monkeypatch, axes, "axis2 =")
        assert "repeats the sweep parameter 'lambda'" in err

    def test_axes_on_their_domain_edges_run(self, tmp_path):
        path, out, _ = self._sweep(tmp_path, [("alpha", 0.25, 1.0), ("beta", 0.0, 1.0)])
        assert main(["sweep", str(path)]) == EXIT_OK
        assert len(read_csv(out / "sweep.csv")) == 10


def _csv_writer_solution(path, w):
    """The csv.writer code that wrote solution.csv before the row-string
    writer: the bytes it must keep."""
    t = w.mesh.nodes
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "w", "y"])
        writer.writerow(["0", cli._fmt(w.values[0]),
                         cli._fmt(cli._physical_origin(float(w.values[0]), w.gamma))])
        for j in range(1, t.size):
            y = t[j] ** (w.gamma - 1.0) * w.values[j]
            writer.writerow([cli._fmt(t[j]), cli._fmt(w.values[j]), cli._fmt(y)])


class TestBenchmarkSetupProbe:
    """perfbench/run.py times `setup_s` with a probe: a fresh interpreter that
    imports a parser from hilferbvp.cli and parses the workload's config.  A
    refactor that moves those names fails here, not only in the benchmark."""

    @pytest.mark.parametrize("workload", ["solve-verify", "sweep-lambda"])
    def test_probe_parses_the_workload_config(self, tmp_path, monkeypatch, workload):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import run
        import workloads
        w = workloads.WORKLOADS[workload](4242)
        for name, text in w.configs.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        done = subprocess.run([sys.executable, "-c", run.PROBE.format(parser=w.setup_parser),
                               w.setup_config], cwd=tmp_path, env=child_env(),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


class TestSolutionCsv:
    # The last mesh is the steepest GradedMesh accepts at n = 257: t_1 is
    # 8.7e-307, and with gamma = 0.02 the column y reaches ~1e300.
    @pytest.mark.parametrize("gamma, n, r", [
        pytest.param(gamma, n, 2.0 / gamma, id=f"{gamma}-{n}")
        for gamma in (0.75, 1.0) for n in (8, 4096)
    ] + [pytest.param(0.02, 257, 127.0, id="0.02-257-127")])
    @pytest.mark.parametrize("w0", [0.0, 1.3])
    def test_same_bytes_as_csv_writer(self, tmp_path, gamma, n, r, w0):
        mesh = GradedMesh(n, r)
        values = np.random.default_rng(n).uniform(0.0, 3.0, n + 1)
        values[0] = w0
        w = WeightedGridFunction(mesh, gamma, values)
        cli._write_solution_csv(tmp_path / "rows.csv", w)
        _csv_writer_solution(tmp_path / "csv.csv", w)
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "csv.csv").read_bytes()


class TestBenchmarkTracer:
    """perfbench/tracer.py patches names in the package's modules; a run
    under it must still succeed and record a span for each of them."""

    LAYERS = {"solver.apply_delta", "fracops.rl_integral",
              "fracops.boundary_kernel_weights", "fracops.physical_integral",
              "fracops.hilfer_derivative", "verify.residual_check"}

    @staticmethod
    def _trace(tmp_path, *cli_args):
        root = Path(__file__).resolve().parents[1]
        trace = tmp_path / "trace.json"
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run([sys.executable, str(root / "perfbench" / "tracer.py"),
                               str(trace), *cli_args],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return {span["name"] for span in json.loads(trace.read_text())["spans"]}

    def test_solve(self, tmp_path):
        path, _ = write_config(tmp_path)
        names = self._trace(tmp_path, "solve", str(path))
        assert self.LAYERS | {"solver.boundary_identity_gap"} <= names

    def test_sweep(self, tmp_path):
        path, _ = _sweep_config(tmp_path)
        names = self._trace(tmp_path, "sweep", str(path))
        assert self.LAYERS | {"cli._sweep_cell"} <= names
