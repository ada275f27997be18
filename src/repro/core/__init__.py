"""Core latency-insensitive wire-pipelining framework.

This subpackage implements both the substrate the paper builds on (Carloni's
latency-insensitive design: relay stations, strict wrappers, the tagged-signal
equivalence framework) and the paper's contribution (the relaxed WP2 wrapper
driven by a per-block oracle), together with the analysis and methodology
tooling: static loop-throughput bounds, floorplan/wire-delay driven
relay-station insertion, configuration optimisation and area models.

The most commonly used entry points are re-exported here; see the individual
modules for the full API.
"""

from .area import (
    AreaEstimate,
    OverheadReport,
    estimate_overhead,
    relay_station_area,
    wrapper_area,
)
from .channel import Channel, channel
from .config import RSConfiguration
from .equivalence import (
    EquivalenceReport,
    Mismatch,
    assert_equivalent,
    compare_value_sequences,
    latency_profile,
    n_equivalent,
)
from .exceptions import (
    AssemblerError,
    ConfigurationError,
    DeadlockError,
    EquivalenceError,
    NetlistError,
    OptimizationError,
    ProgramError,
    ProtocolError,
    ReproError,
    SimulationError,
)
from .floorplan import Block, Floorplan, row_pack, spread_floorplan
from .golden import (
    FiringTrace,
    GoldenResult,
    GoldenSimulator,
    replays_loop,
    run_golden,
)
from .insertion import (
    all_single_link_insertions,
    floorplan_insertion,
    incremental_insertions,
    single_link_insertion,
    uniform_insertion,
)
from .netlist import Netlist, ring_netlist
from .optimizer import (
    LinkRange,
    OptimizationResult,
    SearchSpace,
    annealing_search,
    exhaustive_search,
    greedy_search,
    optimize_configuration,
    simulated_throughput_objective,
    simulation_objective,
    static_objective,
)
from .process import (
    SCHEDULE_INERT,
    CounterSource,
    FunctionProcess,
    PassthroughProcess,
    Process,
    SinkProcess,
)
from .relay_station import RelayStation, TokenQueue, build_relay_chain
from .shell import (
    DEFAULT_QUEUE_CAPACITY,
    FiringPlan,
    RelaxedShell,
    Shell,
    ShellStats,
    StrictShell,
    make_shell,
)
from .simulator import ChannelPipeline, LidResult, LidSimulator, run_lid
from ..engine import (
    BatchResult,
    BatchRunner,
    FastKernel,
    InstrumentSet,
    ReferenceKernel,
    SimKernel,
)
from .static_analysis import (
    Loop,
    ThroughputReport,
    critical_links,
    enumerate_loops,
    maximum_cycle_mean,
    maximum_cycle_ratio,
    per_link_sensitivity,
    throughput_bound,
    throughput_bound_mcm,
)
from .timing import ClockPlan, WireModel, clock_scaling_sweep, relay_stations_for_lengths
from .tokens import VOID, Token, is_token, is_void
from .traces import ChannelTrace, SystemTrace, interleave_voids, trace_from_values
from .verification import (
    ComparisonRow,
    VerificationResult,
    compare_wrappers,
    verify_configuration,
)

__all__ = [
    # tokens / traces / equivalence
    "Token", "VOID", "is_token", "is_void",
    "ChannelTrace", "SystemTrace", "trace_from_values", "interleave_voids",
    "EquivalenceReport", "Mismatch", "n_equivalent", "assert_equivalent",
    "compare_value_sequences", "latency_profile",
    # processes / channels / netlists
    "Process", "FunctionProcess", "PassthroughProcess", "CounterSource", "SinkProcess",
    "SCHEDULE_INERT",
    "Channel", "channel", "Netlist", "ring_netlist",
    # protocol elements
    "RelayStation", "TokenQueue", "build_relay_chain",
    "Shell", "StrictShell", "RelaxedShell", "FiringPlan", "ShellStats",
    "make_shell", "DEFAULT_QUEUE_CAPACITY",
    # simulators
    "FiringTrace", "GoldenSimulator", "GoldenResult", "run_golden", "replays_loop",
    "LidSimulator", "LidResult", "ChannelPipeline", "run_lid",
    # engine (layered simulation stack; see repro.engine for the full API)
    "SimKernel", "ReferenceKernel", "FastKernel", "InstrumentSet",
    "BatchRunner", "BatchResult",
    # configuration / insertion / analysis
    "RSConfiguration",
    "uniform_insertion", "single_link_insertion", "all_single_link_insertions",
    "incremental_insertions", "floorplan_insertion",
    "Loop", "ThroughputReport", "enumerate_loops", "throughput_bound",
    "throughput_bound_mcm", "maximum_cycle_mean", "maximum_cycle_ratio",
    "critical_links", "per_link_sensitivity",
    # methodology: floorplan / timing / optimiser / area
    "Block", "Floorplan", "row_pack", "spread_floorplan",
    "WireModel", "ClockPlan", "relay_stations_for_lengths", "clock_scaling_sweep",
    "SearchSpace", "LinkRange", "OptimizationResult",
    "exhaustive_search", "greedy_search", "annealing_search",
    "optimize_configuration", "static_objective", "simulation_objective",
    "simulated_throughput_objective",
    "AreaEstimate", "OverheadReport", "wrapper_area", "relay_station_area",
    "estimate_overhead",
    # verification
    "VerificationResult", "ComparisonRow", "verify_configuration", "compare_wrappers",
    # exceptions
    "ReproError", "NetlistError", "ConfigurationError", "SimulationError",
    "ProtocolError", "EquivalenceError", "DeadlockError", "AssemblerError",
    "ProgramError", "OptimizationError",
]
