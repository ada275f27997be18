"""Tests of the benchmark itself: quick runs, output checks, span arithmetic.

Every workload runs at quick size through the real command; a tampered row
must be caught by the workload's output checks; and the per-layer self
times of a traced run plus ``trace.unattributed_s`` must add up to the
traced time.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import spans  # noqa: E402
from perfbench.common import Phase  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, seconds: float = 1.0) -> dict:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", str(seconds),
         "--trace", str(trace), "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr.decode()[-2000:]
    return json.loads(completed.stdout.decode().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_quick_run_reports_every_end_to_end_metric(workload):
    result = _run(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    for metric in BENCHMARK["end_to_end"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
        assert metrics[metric["name"]]["value"] > 0


def test_traced_run_adds_up_to_the_traced_time():
    metrics = {
        name: entry["value"] for name, entry in _run("table1", trace=1)["metrics"].items()
    }
    assert set(metrics) == {metric["name"] for metric in BENCHMARK["per_layer"]}
    layers = sum(metrics[name] for name in spans.SELF_METRICS)
    assert layers == pytest.approx(metrics["trace.attributed_s"], abs=1e-9)
    total = layers + metrics["trace.unattributed_s"]
    assert total == pytest.approx(metrics["trace.track_s"], abs=1e-6)
    # One thread, one process: the tracks are the traced wall clock.
    assert metrics["trace.track_s"] == pytest.approx(metrics["trace.wall_s"], rel=0.01)
    assert metrics["kernel.s"] > 0 and metrics["cpu.fire_s"] > 0
    assert metrics["steady.extrapolated_ratio"] == 0.0


def test_span_self_time_subtracts_children_and_leaves():
    files = [{
        "pid": 1, "role": "main",
        "spans": [
            # id, parent, name, start, end, thread, attrs, leaves
            [2, 1, "kernel.fast", 10, 70, 0, {"cycles": 6}, {"cpu.fire": [3, 15]}],
            [3, 1, "static.bound", 80, 90, 0, None, None],
            [1, 0, "trace.main", 0, 100, 0, None, None],
        ],
        "top_leaves": [],
    }]
    metrics = spans.analyse(files, wall_s=1e-7)
    assert metrics["kernel.s"] == pytest.approx(45e-9)
    assert metrics["cpu.fire_s"] == pytest.approx(15e-9)
    assert metrics["static.bound_s"] == pytest.approx(10e-9)
    assert metrics["trace.unattributed_s"] == pytest.approx(30e-9)
    assert metrics["trace.residual_s"] == pytest.approx(0.0, abs=1e-15)
    assert metrics["kernel.runs.fast"] == 1 and metrics["cpu.firings"] == 3


def test_tampered_table1_row_raises_the_error_rate():
    from perfbench.wl_table1 import Table1

    workload = Table1(seed=3, quick=True)
    result = workload._run()
    ideal = result["sort"].rows[0]
    result["sort"].rows[0] = replace(ideal, wp1_throughput=0.9)
    workload._run = lambda: result
    phase = workload.measure(0.0, min_requests=1)
    assert phase.failed > 0 and phase.failed / phase.attempted > 0


def test_tampered_sampled_row_fails_the_reference_kernel_check():
    from perfbench.wl_table1 import Table1

    workload = Table1(seed=3, quick=True)
    phase = workload.measure(0.0, min_requests=1)
    workload.check(phase)
    assert phase.failed == 0
    (section, row), = workload._sampled_rows(1)
    rows = workload.first[section].rows
    rows[rows.index(row)] = replace(row, wp2_cycles=row.wp2_cycles + 1)
    workload.check(phase)
    assert phase.failed > 0


def test_tampered_zoo_row_is_caught():
    from perfbench.wl_zoo import ZooSweep

    workload = ZooSweep(seed=3, quick=True)
    rows = workload._sweep()
    assert ZooSweep.row_failures(rows) == 0
    layout, wrapper, index, result, bound = next(
        row for row in rows if row[1] == "wp1" and row[0].kind == "ring"
    )
    tampered = replace(result, cycles=result.cycles // 2)
    assert ZooSweep.row_failures([(layout, wrapper, index, tampered, bound)]) == 1


def test_phase_error_rate_counts_rows_and_requests():
    phase = Phase(rows=8, requests=2, failed_requests=1, wrong_rows=1)
    assert (phase.attempted, phase.failed) == (10, 2)
