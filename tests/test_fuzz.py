"""A seeded fuzz of the command line, in process.

Random expression-rhs configs go through ``solve`` and ``certify``, and the
solution of every solve that exits 0 through ``verify``.  Every run must end
in a documented exit code, print exactly one ``error:`` line when it exits
nonzero (certify's exit 4 prints none: its verdicts are the certificate
rows), let no exception escape and raise no warning.

A second case list runs small ``sweep`` configs over random axes, among
them out-of-domain ranges and a repeated axis.  A sweep must exit 0 with a
status in every cell of ``sweep.csv``, or exit 1 with exactly one
``error:`` line, again with no exception and no warning.

The seeds and the case lists are fixed; a failing case is mended in the
program, not drawn away.
"""

import csv
import math
import random
import warnings

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

SEED = 12
COUNT = 240
SWEEP_SEED = 22
SWEEP_COUNT = 60

# Each command's documented exit codes (see the hilferbvp.cli docstring).
EXITS = {
    "solve": {EXIT_OK, EXIT_CONFIG, EXIT_NOT_CONVERGED, EXIT_SINGULAR,
              EXIT_NUMERICAL, EXIT_RESIDUAL},
    "certify": {EXIT_OK, EXIT_CONFIG, EXIT_SINGULAR, EXIT_CERTIFICATE, EXIT_NUMERICAL},
    "verify": {EXIT_OK, EXIT_CONFIG, EXIT_SINGULAR, EXIT_NUMERICAL, EXIT_RESIDUAL},
}

# Smooth, growing, overflowing, negative and singular right-hand sides.
EXPRESSIONS = [
    "0.25*y + 0.25",
    "0.8*y + 0.3 + 0.1*sin(y)",
    "exp(y - 1000)",
    "exp(y)",
    "y^2 + 1",
    "2*y",
    "1/(1 + y^2)",
    "t^(-0.5) + y/4",
    "sin(t)^2 + cos(y)^2",
    "1/y",
    "y - 1",
    "-y",
    "0",
]


def _cases():
    rng = random.Random(SEED)
    cases = []
    for _ in range(COUNT):
        rhs = [f"expr = {rng.choice(EXPRESSIONS)}"]
        if rng.random() < 0.5:
            rhs.append(f"lipschitz = {rng.uniform(0.0, 2.0)!r}")
        cases.append(dict(
            alpha=rng.uniform(0.02, 1.0), beta=rng.uniform(0.0, 1.0),
            lam=rng.uniform(0.0, 5.0), d=rng.choice(["0", "1e-300", "1", "1e300"]),
            rhs="\n".join(rhs), n=rng.randint(4, 1100),
            r=rng.choice(["auto", "1", "40", "100"])))
    return cases


CASES = _cases()


def _sweep_cases():
    """Small sweeps (n <= 128, 2 or 3 steps an axis) over one or two random
    axes whose endpoints fall in, on the edge of and outside the domains."""
    rng = random.Random(SWEEP_SEED)
    parameters = ("alpha", "beta", "lambda", "d", "lipschitz")
    cases = []
    for _ in range(SWEEP_COUNT):
        names = [rng.choice(parameters)]
        if rng.random() < 0.7:
            # One second axis in six repeats the first.
            names.append(names[0] if rng.random() < 1 / 6 else rng.choice(parameters))
        axes = [(name, *(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
                                     rng.uniform(0.0, 1.0), rng.uniform(-0.5, 0.0),
                                     rng.uniform(1.0, 3.0)])
                         for _ in range(2)), rng.randint(2, 3))
                for name in names]
        cases.append(dict(
            alpha=rng.uniform(0.02, 1.0), beta=rng.uniform(0.0, 1.0),
            lam=rng.uniform(0.0, 3.0), d=rng.choice(["0", "1", "1e300"]),
            rhs=f"expr = {rng.choice(EXPRESSIONS)}", n=rng.randint(4, 128),
            r=rng.choice(["auto", "1", "40"]), axes=axes))
    return cases


SWEEP_CASES = _sweep_cases()


def _config(case, out):
    return (f"[problem]\nalpha = {case['alpha']!r}\nbeta = {case['beta']!r}\n"
            f"lambda = {case['lam']!r}\nd = {case['d']}\n\n"
            f"[rhs]\nkind = expression\n{case['rhs']}\n\n"
            f"[mesh]\nn = {case['n']}\nr = {case['r']}\n\n"
            f"[picard]\ntol = 1e-10\nmax_iter = 60\n\n[output]\ndir = {out}\n")


def _sweep_config(case, out):
    lines = ["", "[sweep]"]
    for k, (name, start, stop, steps) in enumerate(case["axes"], start=1):
        lines += [f"axis{k} = {name}", f"axis{k}_start = {start!r}",
                  f"axis{k}_stop = {stop!r}", f"axis{k}_steps = {steps}"]
    return _config(case, out) + "\n".join(lines) + "\n"


def _run(capsys, args):
    """Exit code, stderr and recorded warnings of main(args), or the
    exception that escaped it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(args)
        except Exception as exc:            # reported as a failure below
            code = exc
    return code, capsys.readouterr().err, caught


def test_every_config_ends_in_a_documented_outcome(tmp_path, capsys):
    failures = []
    seen = {command: set() for command in EXITS}
    for k, case in enumerate(CASES):
        out = tmp_path / f"case{k}"
        path = tmp_path / f"case{k}.cfg"
        path.write_text(_config(case, out), encoding="utf-8")
        runs = [["solve", str(path)], ["certify", str(path)]]
        for args in runs:
            code, err, caught = _run(capsys, args)
            command = args[0]
            if isinstance(code, Exception):
                failures.append(f"case {k} {command}: raised {code!r}")
                continue
            seen[command].add(code)
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            quiet = code == EXIT_OK or (command == "certify" and code == EXIT_CERTIFICATE)
            if code not in EXITS[command]:
                failures.append(f"case {k} {command}: undocumented exit {code}")
            if len(errors) != (0 if quiet else 1):
                failures.append(f"case {k} {command}: exit {code} printed "
                                f"{len(errors)} error lines: {err!r}")
            if caught:
                failures.append(f"case {k} {command}: warned "
                                f"{[str(w.message) for w in caught]}")
            if command == "solve" and code == EXIT_OK:
                runs.append(["verify", str(path), str(out / "solution.csv")])
    assert not failures, f"{len(failures)} failures:\n" + "\n".join(failures[:20])
    # The draw reaches the failure exits, not only success.
    assert {EXIT_NOT_CONVERGED, EXIT_SINGULAR, EXIT_NUMERICAL} <= seen["solve"]
    assert {EXIT_SINGULAR, EXIT_CERTIFICATE} <= seen["certify"]
    assert EXIT_OK in seen["verify"]


def test_every_sweep_ends_in_a_documented_outcome(tmp_path, capsys):
    failures = []
    seen = set()
    for k, case in enumerate(SWEEP_CASES):
        out = tmp_path / f"sweep{k}"
        path = tmp_path / f"sweep{k}.cfg"
        path.write_text(_sweep_config(case, out), encoding="utf-8")
        code, err, caught = _run(capsys, ["sweep", str(path)])
        if isinstance(code, Exception):
            failures.append(f"sweep {k}: raised {code!r}")
            continue
        seen.add(code)
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        if code == EXIT_OK:
            with (out / "sweep.csv").open(newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))
            cells = math.prod(axis[3] for axis in case["axes"])
            statuses = [row[-1] for row in rows[1:]]
            if len(statuses) != cells or not all(
                    status in ("ok", "singular") or status.startswith("failed:")
                    for status in statuses):
                failures.append(f"sweep {k}: statuses {statuses} for {cells} cells")
            if errors:
                failures.append(f"sweep {k}: exit 0 printed {err!r}")
        elif code != EXIT_CONFIG or len(errors) != 1:
            failures.append(f"sweep {k}: exit {code} printed "
                            f"{len(errors)} error lines: {err!r}")
        if caught:
            failures.append(f"sweep {k}: warned {[str(w.message) for w in caught]}")
    assert not failures, f"{len(failures)} failures:\n" + "\n".join(failures[:20])
    # The draw reaches both outcomes.
    assert seen == {EXIT_OK, EXIT_CONFIG}
