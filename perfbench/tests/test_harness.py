"""Failure accounting, workload generation and span aggregation."""

import json
from pathlib import Path

from hilferbvp import cli
from hilferbvp.config import parse_run_text, parse_sweep_text

import layers
import run
import workloads

ROOT = Path(__file__).resolve().parents[2]


def test_non_converged_cell_counts_as_failed_despite_status_ok(tmp_path):
    # The CLI writes status ok for a cell that stops at max_iter; the
    # benchmark must still count it as failed.
    config = tmp_path / "sweep.cfg"
    config.write_text(workloads.run_config(
        0.5, 0.5, 0.0, 1.0, ["kind = linear", "a = 0.25", "b = 0.25"], 16,
        out=str(tmp_path / "out"),
        sweep_lines=["axis1 = lambda", "axis1_start = 0.0", "axis1_stop = 0.3",
                     "axis1_steps = 2"]).replace("max_iter = 200", "max_iter = 2"))
    assert cli.main(["sweep", str(config)]) == 0
    text = (tmp_path / "out" / "sweep.csv").read_text()
    assert ",False,2," in text and ",True," not in text
    assert all(line.endswith(",ok") for line in text.splitlines()[1:])
    outputs = workloads.read_sweep(text, expected_rows=2)
    assert (outputs.attempted, outputs.failed) == (2, 2)


def test_missing_rows_count_as_failed():
    header = "lambda,mu,contraction,converged,iterations,interior_residual,boundary_residual,status\n"
    row = "0,1,0.5,True,10,1e-05,1e-09,ok\n"
    outputs = workloads.read_sweep(header + row, expected_rows=3)
    assert (outputs.attempted, outputs.failed) == (3, 2)
    assert outputs.problems and outputs.interior_residual == 1e-05


def test_workload_configs_parse_and_follow_the_seed():
    for make in workloads.WORKLOADS.values():
        first, again, other = make(1), make(1), make(2)
        assert first.configs == again.configs
        assert first.configs != other.configs
        for name, text in first.configs.items():
            parse = parse_sweep_text if "[sweep]" in text else parse_run_text
            parse(text, name)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _span(name, id_, parent, start, end, **extra):
    return dict(name=name, id=id_, parent=parent, cell=None, start=start, end=end, **extra)


def test_self_time_subtracts_the_union_of_children():
    trace = {
        "argv": ["solve", "run.cfg"],
        "conv_cache": {"hits": 1, "misses": 1, "currsize": 1},
        "rhs": {"evals": 5, "s": 0.5},
        "spans": [
            _span("cli.command", 0, None, 0.0, 10.0),
            _span("solver.solve_picard", 1, 0, 1.0, 6.0, iterations=3, converged=True),
            _span("solver.apply_delta", 2, 1, 1.0, 4.0),
            _span("fracops.rl_integral", 3, 2, 1.0, 3.0, n=3),
            _span("fracops.assemble", 4, 3, 1.0, 2.5, alloc_peak=2 ** 20),
            _span("fracops.boundary_kernel_weights", 5, 2, 2.5, 3.5),
        ],
    }
    m = layers.rep_metrics([trace], csv_bytes=10, failed_share=0.0)
    assert m["solver.apply_delta.self_s"] == 3.0 - 2.5      # children cover [1, 3.5]
    assert m["cli.self_s"] == 10.0 - 5.0
    assert m["fracops.rl_integral.assemble_s"] == 2.0
    assert m["fracops.rl_integral.apply_s"] == 0.0
    assert m["fracops.assemble_peak_mb"] == 1.0
    assert m["fracops.conv_cache.hit_ratio"] == 0.5
    assert m["fracops.apply_gb"] == 8 * 16 / 2 ** 30
    assert m["solver.iterations"] == 3
    assert m["trace.wall_s"] == 10.0
