"""Run one hilferbvp CLI command in this process with spans around each layer.

    PYTHONPATH=src python perfbench/tracer.py <trace.json> <cli args...>

Spans are recorded at the names the package looks up at call time (the
import sites), so nothing under src/ changes.  Each span carries its name,
start, end, the id of the span that caused it and, inside a sweep, the id of
its cell.  Spans stay in memory and are written to <trace.json> when the
command returns, together with the operator-cache counters and the rhs
evaluation count and time.  tracemalloc runs only while a convolution matrix
is being assembled.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
import tracemalloc

from hilferbvp import analysis, cli, config, fracops, solver, verify


class Tracer:
    def __init__(self):
        self.spans = []
        self.root = None                     # parent of spans in worker threads
        self._ids = itertools.count()
        self._cells = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._rhs = []                       # one [evals, seconds] per thread
        self._tracing_allocs = 0

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.cell, local.rhs = [], None, [0, 0.0]
            with self._lock:
                self._rhs.append(local.rhs)
        return local

    def wrap(self, name, fn, record=None):
        """fn with a span; record(span, args, result) may add fields."""
        def traced(*args, **kwargs):
            local = self._state()
            span = {"name": name, "id": next(self._ids),
                    "parent": local.stack[-1] if local.stack else self.root,
                    "cell": local.cell}
            local.stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                local.stack.pop()
                self.spans.append(span)
            if record is not None:
                record(span, args, result)
            return result
        return traced

    def wrap_cell(self, fn):
        """A sweep cell: every span below it carries the cell id."""
        inner = self.wrap("cli._sweep_cell", fn)

        def cell(*args, **kwargs):
            local = self._state()
            local.cell = next(self._cells)
            try:
                return inner(*args, **kwargs)
            finally:
                local.cell = None
        return cell

    def wrap_assembly(self, fn):
        """Matrix assembly (an operator-cache miss) with its tracemalloc peak.
        Concurrent assemblies share one tracing window, so the peak is that
        of the process while any assembly runs."""
        def assemble(*args, **kwargs):
            with self._lock:
                if self._tracing_allocs == 0:
                    tracemalloc.start()
                self._tracing_allocs += 1
            try:
                return fn(*args, **kwargs)
            finally:
                with self._lock:
                    self._local.alloc_peak = tracemalloc.get_traced_memory()[1]
                    self._tracing_allocs -= 1
                    if self._tracing_allocs == 0:
                        tracemalloc.stop()

        def record(span, args, result):
            span["alloc_peak"] = self._local.alloc_peak
        return self.wrap("fracops.assemble", assemble, record)

    def wrap_rhs_build(self, build):
        """RhsSpec.build returning a callable that counts and times evaluations."""
        tracer = self

        def traced_build(spec):
            f = build(spec)

            def rhs(t, y):
                acc = tracer._state().rhs
                start = time.perf_counter()
                try:
                    return f(t, y)
                finally:
                    acc[1] += time.perf_counter() - start
                    acc[0] += 1
            return rhs
        return traced_build


def _samples_n(span, args, result):
    span["n"] = len(args[1]) - 1            # rl_integral(order, samples, rule)


def _iterations(span, args, result):
    span["iterations"] = result.iterations
    span["converged"] = result.converged


def install(tracer: Tracer) -> None:
    w = tracer.wrap
    cli.parse_run_file = w("config.parse", cli.parse_run_file)
    cli.parse_sweep_file = w("config.parse", cli.parse_sweep_file)
    cli._sweep_cell = tracer.wrap_cell(cli._sweep_cell)
    analysis.hypothesis_report = w("analysis.hypothesis_report", analysis.hypothesis_report)
    solver.solve_picard = w("solver.solve_picard", solver.solve_picard, _iterations)
    solver.apply_delta = w("solver.apply_delta", solver.apply_delta)
    solver.boundary_identity_gap = w("solver.boundary_identity_gap",
                                     solver.boundary_identity_gap)
    solver.rl_integral = w("fracops.rl_integral", solver.rl_integral, _samples_n)
    solver.boundary_kernel_weights = w("fracops.boundary_kernel_weights",
                                       solver.boundary_kernel_weights)
    verify.residual_check = w("verify.residual_check", verify.residual_check)
    verify.hilfer_derivative = w("fracops.hilfer_derivative", verify.hilfer_derivative)
    verify.physical_integral = w("fracops.physical_integral", verify.physical_integral)
    # hilfer_derivative reaches rl_integral through the fracops namespace.
    fracops.rl_integral = w("fracops.rl_integral", fracops.rl_integral, _samples_n)
    fracops._convolution_matrix = tracer.wrap_assembly(fracops._convolution_matrix)
    config.RhsSpec.build = tracer.wrap_rhs_build(config.RhsSpec.build)


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)

    def command(args):
        tracer.root = 0             # the command is the first span: worker threads report to it
        return cli.main(args)
    code = tracer.wrap("cli.command", command)(cli_args)
    info = fracops._cached_convolution_matrix.cache_info()
    record = {
        "argv": cli_args,
        "exit": code,
        "spans": tracer.spans,
        "conv_cache": {"hits": info.hits, "misses": info.misses, "currsize": info.currsize},
        "rhs": {"evals": sum(acc[0] for acc in tracer._rhs),
                "s": sum(acc[1] for acc in tracer._rhs)},
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
