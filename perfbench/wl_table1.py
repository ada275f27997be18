"""Workloads ``table1`` and ``table1_horizon``: the paper's Table 1, end to end.

``table1`` regenerates both sections of Table 1 (extraction sort, 13 rows;
matrix multiply, 25 rows; each under WP1 and WP2) with ``run_table1()`` at
the paper's sizes on the default kernel, serially, each row running until
the control unit halts.  ``table1_horizon`` runs the same rows on the
looped programs with ``run_table1(horizon=300_000, workers=2)``, so every
row goes through certified steady-state detection and the supervised pool.

One *request* is one full Table 1 pass.  Passes alternate between the
run's own seed (the first pass, then repeats of it) and a new data seed
(fresh), so fresh samples are taken over the whole run, not only at its
start.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from .common import Phase, log

#: Tolerances the repository's own tests use (tests/test_experiments.py).
BOUND_TOLERANCE = 0.03
PAPER_TOLERANCE = 0.02
#: The one value of the paper's Table 1 the repository holds: WP1
#: throughput of the "Only CU-IC" row.
PAPER_CU_IC_WP1 = 0.5


def row_failures(section_rows, horizon: Optional[int]) -> int:
    """Wrong result rows in one Table 1 section (two rows per configuration).

    Done-stop tables: WP1 within the static bound, WP2 at least WP1, the
    ideal row at 1.0 and "Only CU-IC" WP1 at the paper's 0.5.  Horizon
    tables: every row ran exactly ``horizon`` cycles.
    """
    wrong = 0
    for row in section_rows:
        if horizon is not None:
            wrong += (row.wp1_cycles != horizon) + (row.wp2_cycles != horizon)
            continue
        wp1_ok = row.wp1_throughput <= row.static_bound + BOUND_TOLERANCE
        wp2_ok = row.wp2_throughput >= row.wp1_throughput
        if row.label.startswith("All 0"):
            wp1_ok &= abs(row.wp1_throughput - 1.0) <= PAPER_TOLERANCE
            wp2_ok &= abs(row.wp2_throughput - 1.0) <= PAPER_TOLERANCE
        if row.label == "Only CU-IC":
            wp1_ok &= abs(row.wp1_throughput - PAPER_CU_IC_WP1) <= PAPER_TOLERANCE
        wrong += (not wp1_ok) + (not wp2_ok)
    return wrong


def _row_key(row) -> Tuple:
    return (
        row.label, row.golden_cycles, row.wp1_cycles, row.wp2_cycles,
        row.wp1_throughput, row.wp2_throughput, row.static_bound,
    )


class Table1:
    """``run_table1()`` at the paper's sizes, done-stop rows, serial."""

    name = "table1"
    horizon: Optional[int] = None
    workers = 1

    def __init__(self, seed: int, quick: bool = False) -> None:
        from repro.experiments import table1

        self.table1 = table1
        self.seed = seed
        self.quick = quick
        self.sort_length, self.matmul_size = (6, 3) if quick else (16, 5)
        if quick and self.horizon is not None:
            self.horizon = 30_000
        #: First pass: {section: Table1Result}; later passes must equal it.
        self.first: Optional[Dict] = None
        self.first_keys: Optional[List[Tuple]] = None
        #: Draws the data seeds of the fresh passes.
        self.fresh_rng = random.Random(f"table1-fresh-{seed}")

    def start(self, trace_dir=None) -> None:
        """Nothing to start: the inputs are generated inside each request."""

    def close(self) -> None:
        pass

    def _run(self, seed: Optional[int] = None):
        return self.table1.run_table1(
            sort_length=self.sort_length, matmul_size=self.matmul_size,
            seed=self.seed if seed is None else seed,
            horizon=self.horizon, workers=self.workers,
        )

    def measure(self, seconds: float, tracer=None, min_requests: int = 2) -> Phase:
        phase = Phase()
        start = time.perf_counter()
        with tracer.span("trace.main") if tracer else nullcontext():
            while True:
                first_pass = self.first is None
                new_data = not first_pass and phase.requests % 2 == 0
                data_seed = self.fresh_rng.randrange(10**9) if new_data else None
                begin = time.perf_counter()
                result = self._run(data_seed) if new_data else self._run()
                latency = time.perf_counter() - begin
                phase.requests += 1
                rows = [row for section in result.values() for row in section.rows]
                phase.rows += 2 * len(rows)
                phase.rate_samples.append(2 * len(rows) / latency)
                keys = [_row_key(row) for row in rows]
                if first_pass or new_data:
                    # Rows arrive together when the call returns.
                    phase.fresh_first_row.append(latency)
                    phase.wrong_rows += sum(
                        row_failures(section.rows, self.horizon)
                        for section in result.values()
                    )
                    if first_pass:
                        self.first, self.first_keys = result, keys
                else:
                    phase.repeat_latency.append(latency)
                    phase.wrong_rows += 2 * sum(
                        a != b for a, b in zip(keys, self.first_keys)
                    )
                elapsed = time.perf_counter() - start
                if phase.requests >= min_requests and (
                    self.quick or elapsed + latency > seconds
                ):
                    break
        phase.seconds = time.perf_counter() - start
        return phase

    # -- re-simulating checks (outside the timed region) ----------------------
    def _sampled_rows(self, count: int):
        rng = random.Random(self.seed)
        rows = [
            (section, row)
            for section, table in sorted(self.first.items())
            for row in table.rows
        ]
        return rng.sample(rows, count)

    def _cpu(self, section: str):
        from repro.cpu import build_pipelined_cpu, make_extraction_sort, make_matrix_multiply

        if section == "sort":
            workload = make_extraction_sort(length=self.sort_length, seed=self.seed)
        else:
            workload = make_matrix_multiply(size=self.matmul_size, seed=self.seed)
        if self.horizon is not None:
            workload = workload.looped()
        return build_pipelined_cpu(workload.program)

    def check(self, phase: Phase) -> None:
        """A seeded sample of rows must match the ``reference`` kernel bit for bit."""
        for section, row in self._sampled_rows(1 if self.quick else 2):
            cpu = self._cpu(section)
            golden = cpu.run_golden(record_trace=False)
            again = self.table1.evaluate_configuration(
                cpu, row.configuration, golden, kernel="reference"
            )
            if _row_key(again) != _row_key(row):
                log(f"table1: {section} row {row.label!r} differs from the reference kernel")
                phase.wrong_rows += 2


class Table1Horizon(Table1):
    """The same rows on the looped programs, 300k-cycle horizon, 2 workers."""

    name = "table1_horizon"
    horizon = 300_000
    workers = 2

    def check(self, phase: Phase) -> None:
        """A sampled row must match a full run with steady state off."""
        (section, row), = self._sampled_rows(1)
        relaxed = random.Random(self.seed).random() < 0.5
        expected = (
            (row.wp2_cycles, row.wp2_throughput) if relaxed
            else (row.wp1_cycles, row.wp1_throughput)
        )
        full = self._cpu(section).run_wire_pipelined(
            configuration=row.configuration, relaxed=relaxed,
            record_trace=False, horizon=self.horizon, steady_state=False,
        )
        if (full.cycles, full.throughput()) != expected:
            log(
                f"table1_horizon: {section} row {row.label!r} "
                f"({'WP2' if relaxed else 'WP1'}) differs from a full run"
            )
            phase.wrong_rows += 1
