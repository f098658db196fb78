import csv
import math

import numpy as np
import pytest

from hilferbvp import config, fracops, solver
from hilferbvp.cli import (
    EXIT_CERTIFICATE,
    EXIT_CONFIG,
    EXIT_NOT_CONVERGED,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_SINGULAR,
    main,
)

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
        assert main(["solve", str(path)]) == EXIT_SINGULAR
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

    def test_rhs_failure_exit_without_traceback(self, tmp_path, capsys):
        # a = 400 drives the iterates to overflow, so f turns non-finite.
        path, _ = write_config(tmp_path, rhs="kind = linear\na = 400\nb = 0.25")
        assert main(["solve", str(path)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "non-finite" in err
        assert "Traceback" not in err

    def test_mesh_too_large_exit(self, tmp_path, capsys, monkeypatch):
        # Less than the SOE tables of one operator on the n = 64 mesh, whose
        # two near-field blocks alone take 8 * 2 * 64 * 65 bytes.
        monkeypatch.setattr(fracops, "_physical_memory", lambda: 8 * 64 ** 2)
        path, _ = write_config(tmp_path)
        assert main(["solve", str(path)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "physical memory" in err

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
        path, out = write_config(tmp_path)
        sweep = path.read_text() + (
            "\n[sweep]\naxis1 = lambda\naxis1_start = 0.0\n"
            "axis1_stop = 0.2\naxis1_steps = 2\n")
        path.write_text(sweep, encoding="utf-8")
        assert main(["sweep", str(path)]) == EXIT_OK
        rows = read_csv(out / "sweep.csv")
        assert [r[-1] for r in rows[1:]] == ["failed:MeshTooLarge"] * 2

    def test_workers_deterministic(self, tmp_path):
        path, out = write_config(tmp_path)
        sweep = path.read_text() + (
            "\n[sweep]\naxis1 = alpha\naxis1_start = 0.3\n"
            "axis1_stop = 0.9\naxis1_steps = 4\n")
        path.write_text(sweep, encoding="utf-8")
        assert main(["sweep", str(path), "--workers", "1"]) == EXIT_OK
        serial = (out / "sweep.csv").read_text()
        assert main(["sweep", str(path), "--workers", "4"]) == EXIT_OK
        assert (out / "sweep.csv").read_text() == serial


class TestVerify:
    def test_round_trip(self, tmp_path, capsys):
        path, out = write_config(tmp_path)
        assert main(["solve", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["verify", str(path), str(out / "solution.csv")]) == EXIT_OK
        text = capsys.readouterr().out
        assert "interior residual" in text
        assert "boundary residual" in text

    def test_mesh_mismatch_detected(self, tmp_path, capsys):
        path, out = write_config(tmp_path)
        assert main(["solve", str(path)]) == EXIT_OK
        assert main(["verify", str(path), str(out / "solution.csv"),
                     "--mesh-n", "32"]) == EXIT_CONFIG
