"""Benchmark of the hilferbvp command-line solver.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Workloads (see workloads.py and README.md):
solve-verify, sweep-lambda.

--trace 0 times each repetition of the workload's commands, every one a fresh
`python -m hilferbvp.cli` child with PYTHONPATH=src, as a CLI user runs them,
and reports the end-to-end metrics.  --trace 1 runs the same commands through
tracer.py and reports the per-layer metrics instead.  Repetitions continue
while the next one is expected to end within --seconds; timings are medians
over them.  Either way the
outputs are checked, and the last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every check passed, 1 when one failed, and 2 when the
program to measure is missing (then no result is printed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

import layers
import workloads
from workloads import Result

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("err_max", "1"),
    ("interior_residual", "1"),
    ("boundary_residual", "1"),
]

# Set-up probes per repetition: interpreter start, `import hilferbvp.cli` and
# the config parse, which every CLI command pays before its first numeric call.
PROBES_PER_REP = 2
PROBE = "import sys; from hilferbvp.cli import {parser}; {parser}(sys.argv[1])"

# Whole-run limit; a child still running when it is reached is killed.
RUN_DEADLINE_S = 170.0


class Runner:
    """Starts child interpreters in the work dir and waits for each to end."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv: List[str]) -> Tuple[Result, float, float]:
        """Result, wall seconds and peak RSS in MB of one child.  The RSS is
        the child's own getrusage record, returned by wait4."""
        timeout = max(self.deadline - time.monotonic(), 1.0)
        with open(self.workdir / ".stdout", "w+", encoding="utf-8") as out, \
                open(self.workdir / ".stderr", "w+", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, text=True,
                                    stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            result = Result(proc.returncode, out.read(), err.read())
        return result, seconds, usage.ru_maxrss / 1024.0

    def cli(self, args: List[str]) -> Result:
        return self.run([sys.executable, "-m", "hilferbvp.cli", *args])[0]


def _check_repeats(reps: List[workloads.Outputs]) -> List[str]:
    problems = [p for rep in reps for p in rep.problems]
    if any(rep.fingerprint != reps[0].fingerprint for rep in reps):
        problems.append("output files differ between repetitions")
    return problems


def _room_for_another(start: float, rep_seconds: List[float], seconds: float) -> bool:
    """Whether a repetition as long as the median so far still ends within
    the run's seconds, so a run does not overshoot by most of a repetition."""
    elapsed = time.perf_counter() - start
    return elapsed + statistics.median(rep_seconds) <= seconds


def timed_run(w: workloads.Workload, runner: Runner, seconds: float):
    probe = [sys.executable, "-c", PROBE.format(parser=w.setup_parser), w.setup_config]
    runner.run(probe)                   # untimed: fills the bytecode cache
    setups, walls, rss, reps, rep_seconds = [], [], [], [], []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        for _ in range(PROBES_PER_REP):
            result, secs, _ = runner.run(probe)
            if result.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {result.stderr[-300:]}")
            setups.append(secs)
        results, total, peak = [], 0.0, 0.0
        for command in w.commands:
            result, secs, mb = runner.run([sys.executable, "-m", "hilferbvp.cli", *command.args])
            results.append(result)
            total += secs
            peak = max(peak, mb)
        walls.append(total)
        rss.append(peak)
        reps.append(w.read_outputs(runner.workdir, results))
        rep_seconds.append(time.perf_counter() - rep_start)
        if not _room_for_another(start, rep_seconds, seconds):
            break
    setup_s = statistics.median(setups)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(t - len(w.commands) * setup_s for t in walls),
        "peak_rss_mb": statistics.median(rss),
        "interior_residual": reps[-1].interior_residual,
        "boundary_residual": reps[-1].boundary_residual,
    }
    notes = [f"{len(setups)} set-up probes",
             "repetition walls " + " ".join(f"{t:.3f}" for t in walls) + " s"]
    return metrics, reps, notes


def traced_run(w: workloads.Workload, runner: Runner, seconds: float):
    per_rep: List[Dict[str, float]] = []
    reps, rep_seconds = [], []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        results, traces, csv_bytes = [], [], 0
        for i, command in enumerate(w.commands):
            trace_path = runner.workdir / f"trace{i}.json"
            result, _, _ = runner.run([sys.executable, str(HERE / "tracer.py"),
                                    str(trace_path), *command.args])
            results.append(result)
            if not trace_path.exists():
                raise RuntimeError(f"traced {command.args[0]} wrote no trace: "
                                   f"{result.stderr[-300:]}")
            traces.append(json.loads(trace_path.read_text(encoding="utf-8")))
            trace_path.unlink()
            if command.csv_name:
                csv_bytes += (runner.workdir / command.csv_name).stat().st_size
        out = w.read_outputs(runner.workdir, results)
        reps.append(out)
        per_rep.append(layers.rep_metrics(traces, csv_bytes, out.failed / out.attempted))
        rep_seconds.append(time.perf_counter() - rep_start)
        if not _room_for_another(start, rep_seconds, seconds):
            break
    metrics = {name: statistics.median(rep[name] for rep in per_rep)
               for name, _, _ in layers.PER_LAYER}
    notes = [f"{len(reps)} traced repetitions"]
    return metrics, reps, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hilferbvp" / "cli.py").is_file():
        print(f"error: the hilferbvp package is missing under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    w = workloads.WORKLOADS[args.workload](args.seed)
    workdir = ROOT / ".bench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for name, text in w.configs.items():
            (workdir / name).write_text(text, encoding="utf-8")
        runner = Runner(workdir, deadline)
        run = traced_run if args.trace else timed_run
        metrics, reps, notes = run(w, runner, args.seconds)
        err_max, problems = w.check(workdir, runner.cli)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass                        # another run is still using it

    problems = _check_repeats(reps) + problems
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    if args.trace:
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        units = dict(END_TO_END)
        metrics["err_max"] = err_max
    for name in units:
        if not math.isfinite(metrics[name]):
            problems.append(f"{name} is not a finite number")
            metrics[name] = None

    print(f"{w.name} seed {args.seed}: " + "; ".join(notes))
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]!r} {unit}")
    # Not a JSON metric: it is 0 on a healthy run, so it is carried by the
    # attempted and failed counts of the result line instead.
    print(f"  {'failed_share':34s} {failed / attempted!r} ratio ({failed} of {attempted} ops)")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
