"""Table 1 harness: throughput of WP1 and WP2 across relay-station configurations.

The paper's Table 1 reports, for the pipelined processor and both workloads
(Extraction Sort rows 1-13, Matrix Multiply rows 1-25):

* the relay-station configuration of the row ("All 0 (ideal)", "Only CU-RF",
  "All 1 (no CU-IC)", "All 1 and 2 RF-DC", "Optimal 1/2 (no CU-IC)", ...);
* the cycle count of the WP2 system;
* the throughput of WP1 and WP2 (golden cycles / WP cycles);
* the relative WP2-vs-WP1 improvement.

:func:`run_table1` regenerates the same rows for this reproduction's
processor.  The row list mirrors the paper's; the "Optimal" rows are produced
by the configuration optimiser (see :func:`optimal_configuration` for the
interpretation).

A golden run leaves its firing trace on the CPU's netlist, and that trace
answers every unit's oracle and done flag: the batched rows of
:func:`evaluate_rows` replay it (DESIGN.md §3).  Done-stop rows replay the
one-shot program's trace; horizon rows replay the looped program's, whose
golden run stops at its loop (DESIGN.md §5).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.config import RSConfiguration
from ..core.equivalence import n_equivalent
from ..core.golden import GoldenResult
from ..core.optimizer import SearchSpace, annealing_search, exhaustive_search
from ..core.static_analysis import make_link_bound_evaluator, throughput_bound
from ..cpu.machine import CaseStudyCpu, build_multicycle_cpu, build_pipelined_cpu
from ..cpu.topology import LINK_CU_IC, TABLE1_LINK_ORDER
from ..cpu.workloads import Workload, make_extraction_sort, make_matrix_multiply


@dataclass
class Table1Row:
    """One evaluated row of Table 1."""

    index: int
    label: str
    configuration: RSConfiguration
    golden_cycles: int
    wp1_cycles: int
    wp2_cycles: int
    wp1_throughput: float
    wp2_throughput: float
    static_bound: float
    #: N-equivalence of both wrapped runs to the golden trace; None when the
    #: row was evaluated without the check (the batched, trace-free path).
    equivalent: Optional[bool]

    @property
    def improvement_percent(self) -> float:
        """WP2 vs WP1 relative gain (the table's last column)."""
        if self.wp1_throughput == 0:
            return 0.0
        return 100.0 * (self.wp2_throughput - self.wp1_throughput) / self.wp1_throughput

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "label": self.label,
            "golden_cycles": self.golden_cycles,
            "wp1_cycles": self.wp1_cycles,
            "wp2_cycles": self.wp2_cycles,
            "wp1_throughput": self.wp1_throughput,
            "wp2_throughput": self.wp2_throughput,
            "static_bound": self.static_bound,
            "improvement_percent": self.improvement_percent,
            "equivalent": self.equivalent,
        }


@dataclass
class Table1Result:
    """All rows of one workload's Table 1 section."""

    workload: str
    control_style: str
    golden_cycles: int
    rows: List[Table1Row] = field(default_factory=list)

    def row(self, label: str) -> Table1Row:
        """Find a row by its configuration label."""
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(f"no row labelled {label!r}")

    def format(self) -> str:
        """Render the rows in the same layout as the paper's table."""
        header = (
            f"{'#':>3} {'RS Configuration':<28} {'Cycles':>8} "
            f"{'Th WP1':>8} {'Th WP2':>8} {'WP2 vs WP1':>11}"
        )
        lines = [f"{self.workload} ({self.control_style} case, golden = {self.golden_cycles} cycles)",
                 header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.index:>3} {row.label:<28} {row.wp2_cycles:>8} "
                f"{row.wp1_throughput:>8.3f} {row.wp2_throughput:>8.3f} "
                f"{row.improvement_percent:>+10.0f}%"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Row definitions
# ---------------------------------------------------------------------------

def single_link_rows(count: int = 1) -> List[RSConfiguration]:
    """Rows 2-11: one relay station on a single link, in the table's order."""
    return [RSConfiguration.only(link, count=count) for link in TABLE1_LINK_ORDER]


def optimal_configuration(
    cpu: CaseStudyCpu,
    per_link_max: int,
    exclude: Sequence[str] = (LINK_CU_IC,),
    label: Optional[str] = None,
    exhaustive_limit: int = 300_000,
) -> RSConfiguration:
    """The "Optimal k (no CU-IC)" rows.

    Interpretation (see ROADMAP.md, item 4): keep the same total amount
    of wire pipelining as the corresponding "All k (no CU-IC)" row, but let an
    optimiser redistribute the relay stations over the links — a link may
    carry between 0 and ``k + 1`` stations, excluded links stay at 0 — so
    that the static loop bound (the WP1 throughput) is maximised.  Moving one
    station off a tight two-block loop onto a longer loop reproduces exactly
    the paper's "Optimal 1" (2/3 instead of 1/2) and "Optimal 2" (2/5 instead
    of 1/3) WP1 values.  The paper does not spell out its own procedure; this
    is the natural methodology-level reading.
    """
    links = cpu.netlist.link_names()
    uniform = RSConfiguration.uniform(per_link_max, exclude=exclude)
    total = sum(uniform.per_link(links).values())
    space = SearchSpace.bounded(
        links,
        maximum=per_link_max + 1,
        minimum=0,
        total=total,
        fixed={link: 0 for link in exclude},
    )
    evaluator = make_link_bound_evaluator(cpu.netlist)
    objective = lambda assignment: evaluator(assignment)  # noqa: E731 - thin adapter
    if space.size() <= exhaustive_limit:
        result = exhaustive_search(space, objective)
    else:
        result = annealing_search(space, objective, iterations=4000, seed=1)
    row_label = label or f"Optimal {per_link_max} (no {', '.join(exclude)})"
    return result.as_configuration(label=row_label)


def sort_row_configurations(cpu: CaseStudyCpu) -> List[RSConfiguration]:
    """The 13 Extraction Sort rows of Table 1."""
    rows: List[RSConfiguration] = [RSConfiguration.ideal()]
    rows.extend(single_link_rows(count=1))
    rows.append(RSConfiguration.uniform(1, exclude=(LINK_CU_IC,)))
    rows.append(optimal_configuration(cpu, per_link_max=1))
    return rows


def matmul_row_configurations(cpu: CaseStudyCpu) -> List[RSConfiguration]:
    """The 25 Matrix Multiply rows of Table 1."""
    rows: List[RSConfiguration] = [RSConfiguration.ideal()]
    rows.extend(single_link_rows(count=1))
    all_one = RSConfiguration.uniform(1, exclude=(LINK_CU_IC,))
    rows.append(all_one)
    # Rows 13-22: "All 1 and 2 <link>".
    for link in TABLE1_LINK_ORDER:
        rows.append(
            RSConfiguration.uniform_plus(
                1,
                {link: 2},
                label=f"All 1 and 2 {link}",
            )
        )
    rows.append(optimal_configuration(cpu, per_link_max=2))
    rows.append(RSConfiguration.uniform(2, exclude=(LINK_CU_IC,)))
    rows.append(
        RSConfiguration.uniform_plus(
            2,
            {"CU-RF": 1},
            exclude=(LINK_CU_IC,),
            label="All 2 and 1 CU-RF",
        )
    )
    return rows


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate_rows(
    workload: Workload,
    configurations: Sequence[RSConfiguration],
    pipelined: bool = True,
    check_equivalence: bool = False,
    max_cycles: int = 5_000_000,
    progress: Optional[Callable[[str], None]] = None,
    kernel: Optional[str] = None,
    workers: int = 1,
    horizon: Optional[int] = None,
    steady_state: bool = True,
    service=None,
) -> Table1Result:
    """Run golden + WP1 + WP2 for every configuration and collect the rows.

    Without equivalence checking the rows only need cycle counts, so both
    wrapper flavours are evaluated through one sharded
    :class:`~repro.engine.batch.MultiNetlistRunner` pool (one shared layout
    per flavour, uninstrumented runs, ``workers`` processes); equivalence
    checking needs full traces and keeps the per-row path.  Rows evaluated
    without the check report ``equivalent=None``.

    Batched rows on the compiled kernel are **replayed**: they run on a
    golden-run netlist, which carries its
    :class:`~repro.core.golden.FiringTrace`, so the kernel's replay layout
    times the row without calling any unit's ``fire`` (DESIGN.md §3).  A
    row the trace cannot answer runs in full; the rows are identical either
    way.  Equivalence-checked rows and the other kernels simulate in full.

    With *service* (an :class:`~repro.service.EvaluationService`) the rows
    are submitted through its scheduler instead: completed rows stream to
    *progress* as they land, and a re-run of the same table — same workload,
    rows and controls — is served from the content-addressed result cache
    without simulating anything.

    With *horizon* each row runs the **looped** variant of the workload
    (:meth:`~repro.cpu.workloads.common.Workload.looped`) for exactly that
    many cycles and reports the asymptotic system throughput (minimum
    firings per cycle) — the long-horizon form of the paper's RS-insertion
    objective.  The looped program's golden run stops at the first
    recurrence of the machine's complete state, so its trace answers every
    firing; the rows replay it, and the replay detects its own period over
    trace positions and extrapolates with counts bit-identical to full
    simulation (DESIGN.md §5).  *steady_state* switches that detection off
    when False (the rows are identical either way).  ``golden_cycles``
    still comes from the one-shot program.
    """
    builder = build_pipelined_cpu if pipelined else build_multicycle_cpu
    cpu = builder(workload.program)
    golden = cpu.run_golden(record_trace=check_equivalence, max_cycles=max_cycles)
    result = Table1Result(
        workload=workload.name,
        control_style="Pipelined" if pipelined else "Multicycle",
        golden_cycles=golden.cycles,
    )
    if not check_equivalence:
        row_cpu = cpu
        if horizon is not None and not workload.looping:
            # Horizon rows measure asymptotic throughput: run the looping
            # variant (the one-shot programs halt long before a meaningful
            # horizon, and the loop is what makes the schedule periodic).
            row_cpu = builder(workload.looped().program)
            row_cpu.run_golden(record_trace=False, max_cycles=max_cycles)
        result.rows.extend(
            _evaluate_rows_batched(
                row_cpu, configurations, golden,
                max_cycles=max_cycles, kernel=kernel, workers=workers,
                progress=progress, horizon=horizon, steady_state=steady_state,
                service=service,
            )
        )
        return result
    for index, configuration in enumerate(configurations, start=1):
        if progress is not None:
            progress(f"row {index}/{len(configurations)}: {configuration.label}")
        row = evaluate_configuration(
            cpu,
            configuration,
            golden,
            index=index,
            check_equivalence=check_equivalence,
            max_cycles=max_cycles,
            kernel=kernel,
        )
        result.rows.append(row)
    return result


def _evaluate_rows_batched(
    cpu: CaseStudyCpu,
    configurations: Sequence[RSConfiguration],
    golden: GoldenResult,
    max_cycles: int,
    kernel: Optional[str],
    workers: int,
    progress: Optional[Callable[[str], None]] = None,
    horizon: Optional[int] = None,
    steady_state: bool = True,
    service=None,
) -> List[Table1Row]:
    from ..engine.evaluator import BatchEvaluator

    on_result = None
    if progress is not None:
        progress(
            f"evaluating {len(configurations)} rows "
            f"(batched, workers={workers}"
            f"{', via service' if service is not None else ''})"
        )
        done_count = itertools.count(1)
        on_result = lambda job: progress(  # noqa: E731 - local observer
            f"row done ({next(done_count)}/{2 * len(configurations)}): "
            f"{job.layout} {job.label}"
            f"{' [cached]' if job.cached else ''}"
        )
    # Both wrapper flavours share one scheduler (and one worker pool): WP1
    # and WP2 rows interleave in a single tagged batch.  One CPU loop
    # iteration spans thousands of cycles, so horizon rows let the replay's
    # detector search all the way to the horizon.
    evaluator = BatchEvaluator.wrappers(
        cpu.netlist, "table1", kernel=kernel, workers=workers,
        service=service, on_result=on_result,
    )
    wp1_results, wp2_results = evaluator.run_wrappers(
        configurations, stop_process=cpu.control_unit.name,
        max_cycles=max_cycles, horizon=horizon, steady_state=steady_state,
        steady_state_window=horizon,
    )

    def row_throughput(summary) -> float:
        if not summary.cycles:
            return 0.0
        if horizon is not None and summary.cycles >= horizon:
            # Cut at the horizon: report the asymptotic system throughput.
            return summary.throughput()
        return golden.cycles / summary.cycles

    rows = []
    for index, (configuration, wp1, wp2) in enumerate(
        zip(configurations, wp1_results, wp2_results), start=1
    ):
        bound = throughput_bound(
            cpu.netlist, configuration=configuration
        ).bound_float
        rows.append(
            Table1Row(
                index=index,
                label=configuration.label,
                configuration=configuration,
                golden_cycles=golden.cycles,
                wp1_cycles=wp1.cycles,
                wp2_cycles=wp2.cycles,
                wp1_throughput=row_throughput(wp1),
                wp2_throughput=row_throughput(wp2),
                static_bound=bound,
                equivalent=None,
            )
        )
    return rows


def evaluate_configuration(
    cpu: CaseStudyCpu,
    configuration: RSConfiguration,
    golden: GoldenResult,
    index: int = 0,
    check_equivalence: bool = False,
    max_cycles: int = 5_000_000,
    kernel: Optional[str] = None,
) -> Table1Row:
    """Evaluate one configuration under both wrappers against a golden run.

    The row's ``equivalent`` is None unless *check_equivalence* ran the check.
    """
    wp1 = cpu.run_wire_pipelined(
        configuration=configuration,
        relaxed=False,
        record_trace=check_equivalence,
        max_cycles=max_cycles,
        kernel=kernel,
    )
    wp2 = cpu.run_wire_pipelined(
        configuration=configuration,
        relaxed=True,
        record_trace=check_equivalence,
        max_cycles=max_cycles,
        kernel=kernel,
    )
    equivalent = None
    if check_equivalence:
        equivalent = (
            n_equivalent(golden.trace, wp1.trace).equivalent
            and n_equivalent(golden.trace, wp2.trace).equivalent
        )
    bound = throughput_bound(cpu.netlist, configuration=configuration).bound_float
    return Table1Row(
        index=index,
        label=configuration.label,
        configuration=configuration,
        golden_cycles=golden.cycles,
        wp1_cycles=wp1.cycles,
        wp2_cycles=wp2.cycles,
        wp1_throughput=golden.cycles / wp1.cycles if wp1.cycles else 0.0,
        wp2_throughput=golden.cycles / wp2.cycles if wp2.cycles else 0.0,
        static_bound=bound,
        equivalent=equivalent,
    )


def run_table1_sort(
    length: int = 16,
    seed: int = 2005,
    pipelined: bool = True,
    check_equivalence: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    kernel: Optional[str] = None,
    workers: int = 1,
    horizon: Optional[int] = None,
    steady_state: bool = True,
    service=None,
) -> Table1Result:
    """Regenerate the Extraction Sort section of Table 1."""
    workload = make_extraction_sort(length=length, seed=seed)
    cpu = build_pipelined_cpu(workload.program) if pipelined else build_multicycle_cpu(workload.program)
    configurations = sort_row_configurations(cpu)
    return evaluate_rows(
        workload,
        configurations,
        pipelined=pipelined,
        check_equivalence=check_equivalence,
        progress=progress,
        kernel=kernel,
        workers=workers,
        horizon=horizon,
        steady_state=steady_state,
        service=service,
    )


def run_table1_matmul(
    size: int = 5,
    seed: int = 2005,
    pipelined: bool = True,
    check_equivalence: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    kernel: Optional[str] = None,
    workers: int = 1,
    horizon: Optional[int] = None,
    steady_state: bool = True,
    service=None,
) -> Table1Result:
    """Regenerate the Matrix Multiply section of Table 1."""
    workload = make_matrix_multiply(size=size, seed=seed)
    cpu = build_pipelined_cpu(workload.program) if pipelined else build_multicycle_cpu(workload.program)
    configurations = matmul_row_configurations(cpu)
    return evaluate_rows(
        workload,
        configurations,
        pipelined=pipelined,
        check_equivalence=check_equivalence,
        progress=progress,
        kernel=kernel,
        workers=workers,
        horizon=horizon,
        steady_state=steady_state,
        service=service,
    )


def run_table1(
    sort_length: int = 16,
    matmul_size: int = 5,
    seed: int = 2005,
    pipelined: bool = True,
    check_equivalence: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    kernel: Optional[str] = None,
    workers: int = 1,
    horizon: Optional[int] = None,
    steady_state: bool = True,
    service=None,
) -> Dict[str, Table1Result]:
    """Regenerate both sections of Table 1 (keys: ``"sort"``, ``"matmul"``)."""
    return {
        "sort": run_table1_sort(
            length=sort_length,
            seed=seed,
            pipelined=pipelined,
            check_equivalence=check_equivalence,
            progress=progress,
            kernel=kernel,
            workers=workers,
            horizon=horizon,
            steady_state=steady_state,
            service=service,
        ),
        "matmul": run_table1_matmul(
            size=matmul_size,
            seed=seed,
            pipelined=pipelined,
            check_equivalence=check_equivalence,
            progress=progress,
            kernel=kernel,
            workers=workers,
            horizon=horizon,
            steady_state=steady_state,
            service=service,
        ),
    }
