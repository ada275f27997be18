"""Ablation and methodology sweeps (not in the paper, called out in DESIGN.md).

Three sweeps support the design-choice discussion of this reproduction:

* :func:`queue_capacity_sweep` — sensitivity of WP1/WP2 throughput to the
  wrapper FIFO depth (the paper reasons with semi-infinite FIFOs made finite;
  this quantifies how small "finite" can be before back-pressure bites);
* :func:`uniform_depth_sweep` — throughput as wires get deeper pipelining
  ("All k" for increasing k), the scaling trend behind the paper's motivation;
* :func:`clock_frequency_sweep` — the methodology flow end to end: a
  floorplan fixes wire lengths, the target clock fixes relay-station counts,
  the simulator reports the throughput the wrapped system sustains, and the
  effective performance (clock × throughput) exposes the optimum operating
  point;
* :func:`mixed_workload_sweep` — several workloads (sort + matmul) swept in
  **one batch through one scheduler**: the multi-netlist
  :class:`~repro.engine.batch.MultiNetlistRunner` serves every layout (both
  wrapper flavours of every processor) from a single persistent worker pool;
* :func:`topology_sweep` — the same WP1/WP2 depth sweep over a *generated*
  topology (:mod:`repro.topology`): ring, mesh, random DAG, ... — the probe
  process' firing rate against the static m/(m+n) bound.

Every sweep evaluates its rows through one
:class:`~repro.engine.evaluator.BatchEvaluator` call: a private
:class:`~repro.engine.batch.MultiNetlistRunner` pool by default, or with
``service=`` (an :class:`~repro.service.EvaluationService`) one job set
through the service's scheduler — rows stream back as they complete
(``on_result`` fires per row), identical rows submitted by anyone else
deduplicate in flight, and re-running a sweep is served from the
content-addressed result cache instead of simulating again.

Every sweep also accepts ``kernel=`` (CLI ``--kernel``). Passing
``"lockstep"`` opts the sweep into the structure-of-arrays kernel: the batch
layer groups same-layout rows and advances them together, one masked vector
step per cycle (DESIGN.md §7); rows a vector step cannot represent fall back
to the scalar compiled kernel per item automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.config import RSConfiguration
from ..core.floorplan import Floorplan, row_pack, spread_floorplan
from ..core.insertion import floorplan_insertion
from ..core.timing import ClockPlan, WireModel
from ..engine.evaluator import BatchEvaluator
from ..engine.kernel import FREE_RUNNING_HORIZON
from ..cpu.machine import CaseStudyCpu, build_pipelined_cpu
from ..cpu.topology import DEFAULT_BLOCK_SIZES_MM, LINK_CU_IC
from ..cpu.workloads import (
    Workload,
    make_extraction_sort,
    make_matrix_multiply,
)


@dataclass
class SweepPoint:
    """One point of a throughput sweep."""

    parameter: float
    wp1_throughput: float
    wp2_throughput: float
    detail: Dict[str, float] = field(default_factory=dict)


@dataclass
class SweepResult:
    """A named series of sweep points."""

    name: str
    parameter_name: str
    points: List[SweepPoint] = field(default_factory=list)

    def parameters(self) -> List[float]:
        return [point.parameter for point in self.points]

    def wp2_series(self) -> List[float]:
        return [point.wp2_throughput for point in self.points]

    def wp1_series(self) -> List[float]:
        return [point.wp1_throughput for point in self.points]

    def format(self) -> str:
        lines = [f"{self.name} (x = {self.parameter_name})"]
        lines.append(f"{self.parameter_name:>12} {'Th WP1':>8} {'Th WP2':>8}")
        for point in self.points:
            lines.append(
                f"{point.parameter:>12.3f} {point.wp1_throughput:>8.3f} "
                f"{point.wp2_throughput:>8.3f}"
            )
        return "\n".join(lines)


def _cpu_throughputs(
    cpu: CaseStudyCpu,
    items: Sequence,
    kernel: Optional[str],
    workers: int,
    steady_state: bool,
    service,
    on_result,
) -> List[Tuple[float, float]]:
    """WP1/WP2 golden-relative throughputs of *items* on *cpu*, one batch.

    *items* are :class:`~repro.engine.batch.BatchRunner` batch items
    (configurations, optionally with per-item ``queue_capacity``
    overrides); both wrapper flavours of every item go through one
    :class:`~repro.engine.evaluator.BatchEvaluator` call — a private pool,
    or *service* when given.  Runs are uninstrumented: the sweeps only
    consume cycle counts.
    """
    golden = cpu.run_golden(record_trace=False).cycles
    evaluator = BatchEvaluator.wrappers(
        cpu.netlist, "sweep", kernel=kernel, workers=workers,
        service=service, on_result=on_result,
    )
    wp1, wp2 = evaluator.run_wrappers(
        items, queue_capacity=4, stop_process=cpu.control_unit.name,
        steady_state=steady_state,
    )
    return [(golden / r1.cycles, golden / r2.cycles) for r1, r2 in zip(wp1, wp2)]


def queue_capacity_sweep(
    workload: Optional[Workload] = None,
    capacities: Sequence[int] = (2, 3, 4, 6, 8),
    configuration: Optional[RSConfiguration] = None,
    kernel: Optional[str] = None,
    workers: int = 1,
    steady_state: bool = True,
    service=None,
    on_result=None,
) -> SweepResult:
    """WP1/WP2 throughput versus wrapper input-FIFO depth."""
    if workload is None:
        workload = make_extraction_sort(length=10)
    if configuration is None:
        configuration = RSConfiguration.uniform(1, exclude=(LINK_CU_IC,))
    cpu = build_pipelined_cpu(workload.program)
    result = SweepResult(
        name=f"Wrapper FIFO depth sweep — {workload.name}",
        parameter_name="fifo depth",
    )
    items = [
        (configuration, {"queue_capacity": capacity}) for capacity in capacities
    ]
    throughputs = _cpu_throughputs(
        cpu, items, kernel, workers, steady_state, service, on_result
    )
    for capacity, (wp1, wp2) in zip(capacities, throughputs):
        result.points.append(SweepPoint(parameter=float(capacity), wp1_throughput=wp1, wp2_throughput=wp2))
    return result


def uniform_depth_sweep(
    workload: Optional[Workload] = None,
    depths: Sequence[int] = (0, 1, 2, 3),
    exclude: Sequence[str] = (LINK_CU_IC,),
    kernel: Optional[str] = None,
    workers: int = 1,
    steady_state: bool = True,
    service=None,
    on_result=None,
) -> SweepResult:
    """Throughput versus uniform relay-station depth ("All k" scaling)."""
    if workload is None:
        workload = make_extraction_sort(length=10)
    cpu = build_pipelined_cpu(workload.program)
    result = SweepResult(
        name=f"Uniform pipelining depth sweep — {workload.name}",
        parameter_name="RS per link",
    )
    configurations = [
        RSConfiguration.uniform(depth, exclude=exclude) for depth in depths
    ]
    throughputs = _cpu_throughputs(
        cpu, configurations, kernel, workers, steady_state, service, on_result
    )
    for depth, (wp1, wp2) in zip(depths, throughputs):
        result.points.append(SweepPoint(parameter=float(depth), wp1_throughput=wp1, wp2_throughput=wp2))
    return result


def default_floorplan(spread: float = 1.0) -> Floorplan:
    """A row-packed floorplan of the five case-study blocks."""
    plan = row_pack(DEFAULT_BLOCK_SIZES_MM, row_width_mm=6.0)
    if spread != 1.0:
        plan = spread_floorplan(plan, spread)
    return plan


def clock_frequency_sweep(
    workload: Optional[Workload] = None,
    frequencies_ghz: Sequence[float] = (0.4, 0.6, 0.8, 1.0, 1.2, 1.5, 2.0),
    floorplan: Optional[Floorplan] = None,
    wire_model: Optional[WireModel] = None,
    kernel: Optional[str] = None,
    workers: int = 1,
    steady_state: bool = True,
    service=None,
    on_result=None,
) -> SweepResult:
    """The methodology flow: clock target → relay stations → sustained throughput.

    ``detail`` of each point carries the total relay-station count and the
    *effective* performance (frequency × throughput), whose maximum is the
    operating point the methodology is meant to find.
    """
    if workload is None:
        workload = make_extraction_sort(length=10)
    if floorplan is None:
        floorplan = default_floorplan(spread=2.0)
    model = wire_model if wire_model is not None else WireModel()
    cpu = build_pipelined_cpu(workload.program)
    result = SweepResult(
        name=f"Clock-frequency sweep — {workload.name}",
        parameter_name="clock (GHz)",
    )
    configurations = []
    for frequency in frequencies_ghz:
        clock = ClockPlan.from_frequency_ghz(frequency)
        configurations.append(
            floorplan_insertion(cpu.netlist, floorplan, clock, model)
        )
    throughputs = _cpu_throughputs(
        cpu, configurations, kernel, workers, steady_state, service, on_result
    )
    for frequency, configuration, (wp1, wp2) in zip(
        frequencies_ghz, configurations, throughputs
    ):
        total_rs = configuration.total_relay_stations(cpu.netlist)
        result.points.append(
            SweepPoint(
                parameter=frequency,
                wp1_throughput=wp1,
                wp2_throughput=wp2,
                detail={
                    "total_relay_stations": float(total_rs),
                    "effective_wp1_ghz": frequency * wp1,
                    "effective_wp2_ghz": frequency * wp2,
                },
            )
        )
    return result


def mixed_workload_sweep(
    workloads: Optional[Mapping[str, Workload]] = None,
    depths: Sequence[int] = (0, 1, 2, 3),
    exclude: Sequence[str] = (LINK_CU_IC,),
    kernel: Optional[str] = None,
    workers: int = 1,
    max_cycles: int = 5_000_000,
    steady_state: bool = True,
    configurations: Optional[Sequence[RSConfiguration]] = None,
    queue_capacities: Sequence[int] = (4,),
    service=None,
    on_result=None,
) -> Dict[str, SweepResult]:
    """Uniform-depth sweep of several workloads through **one** scheduler.

    Every workload's processor contributes two layouts (WP1 and WP2) to a
    single :class:`~repro.engine.batch.MultiNetlistRunner`; the whole sweep —
    all workloads, both wrapper flavours, every depth — is one tagged batch
    served by one persistent worker pool, so workers amortise their per-layout
    elaboration and generated code across the mix.
    Returns one :class:`SweepResult` per workload name.

    *configurations* overrides the uniform-depth row list; *queue_capacities*
    crosses every configuration with several wrapper FIFO depths (the
    service benchmark uses both to build wide mixed batches).

    With *service* the batch goes through an
    :class:`~repro.service.EvaluationService` instead: rows stream back as
    they complete (*on_result* fires per row with the
    :class:`~repro.service.Job`), identical rows deduplicate against
    anything else in flight, and re-running the sweep — same workloads,
    depths and controls — is answered from the content-addressed result
    cache without simulating (the layouts are content-addressed too, so a
    freshly rebuilt equal netlist still hits).
    """
    if workloads is None:
        workloads = {
            "extraction_sort": make_extraction_sort(length=10),
            "matrix_multiply": make_matrix_multiply(size=3),
        }
    cpus = {name: build_pipelined_cpu(w.program) for name, w in workloads.items()}
    golden = {
        name: cpu.run_golden(record_trace=False).cycles
        for name, cpu in cpus.items()
    }
    default_rows = configurations is None
    if configurations is None:
        configurations = [
            RSConfiguration.uniform(depth, exclude=exclude) for depth in depths
        ]
    layouts = {
        f"{name}/{flavour}": (cpu.netlist, flavour == "wp2")
        for name, cpu in cpus.items()
        for flavour in ("wp1", "wp2")
    }
    evaluator = BatchEvaluator(
        layouts, "mixed sweep", kernel=kernel, workers=workers,
        service=service, on_result=on_result,
    )
    items = [
        (key, (configuration, {"queue_capacity": capacity}))
        for key in layouts
        for configuration in configurations
        for capacity in queue_capacities
    ]
    results = evaluator.run(
        items, stop_process=next(iter(cpus.values())).control_unit.name,
        max_cycles=max_cycles, steady_state=steady_state,
    )

    by_key: Dict[str, List] = {}
    for (key, _), result in zip(items, results):
        by_key.setdefault(key, []).append(result)
    # One row per (configuration, capacity) pair; the default single-capacity
    # uniform sweep keeps the depth as the x parameter, custom row lists fall
    # back to the row index.
    n_rows = len(configurations) * len(queue_capacities)
    if default_rows and len(queue_capacities) == 1:
        parameters = [float(depth) for depth in depths]
    else:
        parameters = [float(i) for i in range(n_rows)]
    sweeps: Dict[str, SweepResult] = {}
    for name, workload in workloads.items():
        sweep = SweepResult(
            name=f"Mixed-workload depth sweep — {workload.name}",
            parameter_name="RS per link",
        )
        for parameter, wp1, wp2 in zip(
            parameters, by_key[f"{name}/wp1"], by_key[f"{name}/wp2"]
        ):
            sweep.points.append(
                SweepPoint(
                    parameter=parameter,
                    wp1_throughput=golden[name] / wp1.cycles,
                    wp2_throughput=golden[name] / wp2.cycles,
                )
            )
        sweeps[name] = sweep
    return sweeps


def topology_sweep(
    kind: str = "ring",
    depths: Sequence[int] = (0, 1, 2, 3),
    params: Optional[Mapping[str, object]] = None,
    kernel: Optional[str] = None,
    workers: int = 1,
    horizon: int = FREE_RUNNING_HORIZON,
    max_cycles: int = 5_000_000,
    steady_state: bool = True,
    service=None,
    on_result=None,
    topology=None,
) -> SweepResult:
    """WP1/WP2 sustained throughput of a generated topology versus RS depth.

    Unlike the CPU sweeps there is no golden run to normalise against, so the
    y axis is the probe process' firing rate (firings per cycle): on a
    strongly-connected topology that is exactly the m/(m+n) loop throughput
    the static analysis bounds, and each point's ``detail`` carries that
    ``static_bound`` for comparison.  Terminating topologies (a source with a
    token limit) run to their stop process; free-running ones run to
    *horizon* cycles, where steady-state extrapolation makes long horizons
    cheap.

    *kind*/*params* name a generator from
    :data:`repro.topology.TOPOLOGY_KINDS` (pass a prebuilt
    :class:`~repro.topology.GeneratedTopology` via *topology* to skip
    generation).  Both wrapper flavours of every depth go through one tagged
    batch — one :class:`~repro.engine.batch.MultiNetlistRunner` pool, or one
    :class:`~repro.service.EvaluationService` job set when *service* is
    given (*on_result* streams completed jobs).
    """
    from ..core.static_analysis import throughput_bound
    from ..topology import make_topology

    if topology is None:
        topology = make_topology(kind, **dict(params or {}))
    netlist = topology.netlist
    probe = topology.probe_process
    stop = topology.stop_process
    run_kwargs: Dict[str, object] = {"max_cycles": max_cycles}
    if stop is not None:
        run_kwargs["stop_process"] = stop
    else:
        run_kwargs["horizon"] = horizon

    rows = [topology.counts_with_depth(depth) for depth in depths]
    evaluator = BatchEvaluator.wrappers(
        netlist, "topology sweep", kernel=kernel, workers=workers,
        service=service, on_result=on_result,
    )
    wp1, wp2 = evaluator.run_wrappers(
        rows, steady_state=steady_state, **run_kwargs
    )

    sweep = SweepResult(
        name=f"Topology depth sweep — {topology.info.name}",
        parameter_name="extra RS per link",
    )
    for depth, row, r1, r2 in zip(depths, rows, wp1, wp2):
        bound = throughput_bound(netlist, row).bound
        sweep.points.append(
            SweepPoint(
                parameter=float(depth),
                wp1_throughput=r1.firings[probe] / r1.cycles,
                wp2_throughput=r2.firings[probe] / r2.cycles,
                detail={"static_bound": float(bound)},
            )
        )
    return sweep
