"""Topology-zoo benchmark: generated netlists through the whole stack.

Three measurements anchor the topology-general engine (DESIGN.md §9):

* **chain floor** — the original chain-shaped path must not pay for the
  generality: the fast kernel's speedup over the reference kernel on a
  generated chain is recorded and gated by ``check_perf_floor.py
  --topology-floor`` in CI, so an index-layout regression that slows the
  chain shows up at PR time;
* **zoo sweep** — :func:`repro.experiments.topology_sweep` over a ring and
  a torus, asserting the simulated WP1 throughput of the ring sits on its
  static m/(m+n) bound (the cheap end-to-end correctness smoke) and
  recording the throughput series;
* **graph-workload sweep** — a PageRank PE ring swept over relay-station
  depths under the fast and lockstep kernels, asserting cycle-identical
  rows (the lockstep path takes the vector route: PageRank declares a pure
  firing-count done threshold) and recording both wall-clocks.

Every run appends a timestamped record to ``BENCH_topology.json`` at the
repository root (a JSON list, oldest first), following the
``BENCH_kernel.json`` convention.  Quick mode (``REPRO_BENCH_QUICK=1``)
shrinks every workload.
"""

from __future__ import annotations

import json
import os
import platform
import time
from datetime import datetime, timezone
from pathlib import Path

import pytest

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_topology.json"

CHAIN_STAGES = 6 if QUICK else 10
CHAIN_LIMIT = 400 if QUICK else 2_000
SWEEP_HORIZON = 600 if QUICK else 3_000
PAGERANK_ROUNDS = 6 if QUICK else 20
PAGERANK_DEPTHS = 4 if QUICK else 8


def _append_history(record) -> None:
    history = []
    if RECORD_PATH.exists():
        try:
            existing = json.loads(RECORD_PATH.read_text())
        except ValueError:
            existing = []
        if isinstance(existing, list):
            history = existing
        elif isinstance(existing, dict):
            history = [existing]
    history.append(record)
    RECORD_PATH.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def topology_record():
    record = {
        "benchmark": "topology",
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "quick": QUICK,
        "python": platform.python_version(),
    }
    yield record
    _append_history(record)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_chain_path_keeps_its_fast_kernel_floor(topology_record):
    """Generality must be free on the chain: fast >> reference still holds."""
    from repro.core import run_lid
    from repro.topology import chain_topology

    topology = chain_topology(stages=CHAIN_STAGES, source_limit=CHAIN_LIMIT)
    kwargs = dict(
        rs_counts=topology.rs_counts,
        record_trace=False,
        stop_process=topology.stop_process,
        max_cycles=10**9,
    )

    reference, reference_seconds = _timed(
        lambda: run_lid(topology.netlist, kernel="reference", **kwargs)
    )
    fast, fast_seconds = _timed(
        lambda: run_lid(topology.netlist, kernel="fast", **kwargs)
    )
    assert fast.cycles == reference.cycles
    assert fast.firings == reference.firings

    topology_record["chain"] = {
        "stages": CHAIN_STAGES,
        "source_limit": CHAIN_LIMIT,
        "cycles": fast.cycles,
        "reference_seconds": reference_seconds,
        "fast_seconds": fast_seconds,
        "fast_vs_reference": reference_seconds / fast_seconds,
    }


def test_zoo_sweep_matches_static_bounds(topology_record):
    """Ring/torus sweeps end to end; the ring sits on its m/(m+n) bound."""
    from repro.experiments import topology_sweep
    from repro.topology import make_topology

    sweeps = {}
    for kind, params in (
        ("ring", {"stages": 5, "rs_total": 0}),
        ("torus", {"rows": 2, "cols": 3}),
    ):
        topology = make_topology(kind, **params)
        result, seconds = _timed(
            lambda topology=topology: topology_sweep(
                topology=topology, depths=(0, 1, 2), horizon=SWEEP_HORIZON,
            )
        )
        sweeps[kind] = {
            "seconds": seconds,
            "points": [
                {
                    "depth": point.parameter,
                    "wp1": point.wp1_throughput,
                    "wp2": point.wp2_throughput,
                    "static_bound": point.detail["static_bound"],
                }
                for point in result.points
            ],
        }
    for point in sweeps["ring"]["points"]:
        assert point["wp1"] == pytest.approx(point["static_bound"], abs=5e-3)
    topology_record["zoo_sweep"] = {"horizon": SWEEP_HORIZON, **sweeps}


def test_pagerank_ring_lockstep_matches_fast(topology_record):
    """RS sweep of a PageRank PE ring: lockstep rows == fast rows."""
    pytest.importorskip("numpy")
    from repro.engine.batch import BatchRunner
    from repro.workloads import make_pagerank_workload

    edges = [(u, (u * 3 + 1) % 12) for u in range(12)] + [
        (u, (u + 1) % 12) for u in range(12)
    ]
    workload = make_pagerank_workload(edges, n_pe=3, n_rounds=PAGERANK_ROUNDS)
    rows = [
        {name: depth for name in workload.rs_counts}
        for depth in range(PAGERANK_DEPTHS)
    ]
    kwargs = dict(
        stop_process=workload.stop_process,
        max_cycles=10**9,
    )

    seconds = {}
    outcomes = {}
    for kernel in ("fast", "lockstep"):
        runner = BatchRunner(workload.netlist, kernel=kernel)
        results, seconds[kernel] = _timed(
            lambda runner=runner: runner.run_many(rows, **kwargs)
        )
        outcomes[kernel] = [(r.cycles, r.firings, r.halted) for r in results]
    assert outcomes["fast"] == outcomes["lockstep"]

    cycles = [row[0] for row in outcomes["fast"]]
    assert cycles == sorted(cycles)  # deeper rings are monotonically slower
    topology_record["pagerank_ring"] = {
        "n_pe": 3,
        "rounds": PAGERANK_ROUNDS,
        "depths": PAGERANK_DEPTHS,
        "fast_seconds": seconds["fast"],
        "lockstep_seconds": seconds["lockstep"],
        "lockstep_vs_fast": seconds["fast"] / seconds["lockstep"],
        "cycles": cycles,
    }
