"""Per-layer metrics from the span records tracer.py writes.

A layer is a package module.  A span's self time is its duration minus the
part of that interval its child spans cover.  Byte counts marked "computed"
follow from array sizes (8 bytes per float64 entry), not from a hardware
counter.  MB is 2**20 bytes and GB 2**30 bytes.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List

# (name, unit, better); BENCHMARK.json lists the same metrics.
PER_LAYER = [
    ("config.parse_s", "s", "lower"),
    ("fracops.rl_integral.calls", "count", "lower"),
    ("fracops.rl_integral.assemble_s", "s", "lower"),
    ("fracops.rl_integral.apply_s", "s", "lower"),
    ("fracops.conv_cache.hit_ratio", "ratio", "higher"),
    ("fracops.conv_cache.misses", "count", "lower"),
    ("fracops.conv_cache.mb", "MB", "lower"),
    ("fracops.assemble_peak_mb", "MB", "lower"),
    ("fracops.apply_gb", "GB", "lower"),
    ("fracops.hilfer_derivative_s", "s", "lower"),
    ("fracops.physical_integral_s", "s", "lower"),
    ("fracops.boundary_kernel_weights_s", "s", "lower"),
    ("solver.solve_picard_s", "s", "lower"),
    ("solver.apply_delta_s", "s", "lower"),
    ("solver.apply_delta.self_s", "s", "lower"),
    ("solver.iterations", "count", "lower"),
    ("solver.iterations.cell_p50", "count", "lower"),
    ("solver.boundary_identity_gap_s", "s", "lower"),
    ("rhs.evals", "count", "lower"),
    ("rhs.s", "s", "lower"),
    ("verify.residual_check_s", "s", "lower"),
    ("verify.residual_check.self_s", "s", "lower"),
    ("analysis.hypothesis_report_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.csv_bytes", "B", "lower"),
    ("cli.failed_share", "ratio", "lower"),
    ("cli.sweep.cell_p50_s", "s", "lower"),
    ("cli.sweep.cell_p75_s", "s", "lower"),
    ("cli.sweep.parallel_eff", "ratio", "higher"),
    ("trace.wall_s", "s", "lower"),
]

_MB = 2.0 ** 20
_GB = 2.0 ** 30


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _workers(argv: List[str]) -> int:
    return int(argv[argv.index("--workers") + 1]) if "--workers" in argv else 1


def rep_metrics(traces: List[dict], csv_bytes: int, failed_share: float) -> Dict[str, float]:
    """Every PER_LAYER metric for one repetition (one trace per command)."""
    time_in = defaultdict(float)        # summed span durations by name
    self_in = defaultdict(float)        # summed self times by name
    m = defaultdict(float)
    iterations, cells = [], []
    hits = misses = 0
    sweep_capacity = 0.0
    for trace in traces:
        spans = trace["spans"]
        children = defaultdict(list)
        for span in spans:
            children[span["parent"]].append(span)
        n_max = 0
        for span in spans:
            name, dur = span["name"], span["end"] - span["start"]
            kids = children[span["id"]]
            time_in[name] += dur
            self_in[name] += dur - _covered([(k["start"], k["end"]) for k in kids],
                                            span["start"], span["end"])
            if name == "fracops.rl_integral":
                m["fracops.rl_integral.calls"] += 1
                m["fracops.apply_gb"] += 8.0 * (span["n"] + 1) ** 2 / _GB
                n_max = max(n_max, span["n"])
                assembled = any(k["name"] == "fracops.assemble" for k in kids)
                m["fracops.rl_integral.assemble_s" if assembled
                  else "fracops.rl_integral.apply_s"] += dur
            elif name == "fracops.assemble":
                m["fracops.assemble_peak_mb"] = max(m["fracops.assemble_peak_mb"],
                                                    span["alloc_peak"] / _MB)
            elif name == "solver.solve_picard":
                iterations.append(span["iterations"])
            elif name == "cli._sweep_cell":
                cells.append(dur)
            elif name == "cli.command" and trace["argv"][0] == "sweep":
                sweep_capacity += dur * _workers(trace["argv"])
        cache = trace["conv_cache"]
        hits += cache["hits"]
        misses += cache["misses"]
        m["fracops.conv_cache.mb"] = max(m["fracops.conv_cache.mb"],
                                         cache["currsize"] * 8.0 * (n_max + 1) ** 2 / _MB)
        m["rhs.evals"] += trace["rhs"]["evals"]
        m["rhs.s"] += trace["rhs"]["s"]

    m["config.parse_s"] = time_in["config.parse"]
    m["fracops.conv_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["fracops.conv_cache.misses"] = misses
    for layer in ("hilfer_derivative", "physical_integral", "boundary_kernel_weights"):
        m[f"fracops.{layer}_s"] = time_in[f"fracops.{layer}"]
    for layer in ("solve_picard", "apply_delta", "boundary_identity_gap"):
        m[f"solver.{layer}_s"] = time_in[f"solver.{layer}"]
    m["solver.apply_delta.self_s"] = self_in["solver.apply_delta"]
    m["solver.iterations"] = sum(iterations)
    m["solver.iterations.cell_p50"] = statistics.median(iterations) if iterations else 0
    m["verify.residual_check_s"] = time_in["verify.residual_check"]
    m["verify.residual_check.self_s"] = self_in["verify.residual_check"]
    m["analysis.hypothesis_report_s"] = time_in["analysis.hypothesis_report"]
    m["cli.self_s"] = self_in["cli.command"]
    m["cli.csv_bytes"] = csv_bytes
    m["cli.failed_share"] = failed_share
    if len(cells) >= 2:
        quartiles = statistics.quantiles(cells, n=4)
        m["cli.sweep.cell_p50_s"] = quartiles[1]
        m["cli.sweep.cell_p75_s"] = quartiles[2]
    m["cli.sweep.parallel_eff"] = sum(cells) / sweep_capacity if sweep_capacity else 0.0
    m["trace.wall_s"] = time_in["cli.command"] - time_in["config.parse"]
    return {name: float(m[name]) for name, _, _ in PER_LAYER}
