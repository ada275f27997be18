"""Cycle-accurate simulator of the wire-pipelined (latency-insensitive) system.

The simulator takes a :class:`~repro.core.netlist.Netlist`, a per-channel
relay-station count and a wrapper flavour (WP1 strict / WP2 relaxed) and runs
the resulting latency-insensitive system:

* every process is enclosed in a shell with one bounded FIFO per input port;
* every channel is a chain of relay stations ending in the destination FIFO;
* all back-pressure (*stop*) is computed from occupancies registered at the
  beginning of the cycle, so no combinational loops can arise and no token can
  ever be dropped (see DESIGN.md for the capacity argument);
* a shell that cannot fire emits τ on all of its output channels.

The run terminates when a designated process reports completion (or after a
target number of valid firings), and the result carries everything the
experiments need: cycle count, per-process firings, throughput, recorded
traces and per-shell stall statistics.

:class:`LidSimulator` is a thin facade over the layered engine in
:mod:`repro.engine` (see DESIGN.md): elaboration compiles the netlist +
configuration into a flat model, a selectable kernel executes it
(``kernel="compiled"`` is the default codegen-specialized hot path,
``"fast"`` the interpreting array kernel, ``"reference"`` the original
object-based machinery; the ``REPRO_KERNEL`` environment variable
overrides the default), and instrumentation passes opt in to traces, shell statistics and
occupancy tracking.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional

from ..engine.elaboration import Elaborator, resolve_rs_counts
from ..engine.instrumentation import InstrumentSet
from ..engine.kernel import RunControls, make_kernel, resolve_kernel_name
from ..engine.reference import ChannelPipeline, ReferenceKernel
from ..engine.result import LidResult
from .config import RSConfiguration
from .netlist import Netlist
from .relay_station import RelayStation
from .shell import DEFAULT_QUEUE_CAPACITY

__all__ = ["ChannelPipeline", "LidResult", "LidSimulator", "run_lid"]


class LidSimulator:
    """Builds and runs the latency-insensitive version of a netlist."""

    def __init__(
        self,
        netlist: Netlist,
        rs_counts: Optional[Mapping[str, int]] = None,
        configuration: Optional[RSConfiguration] = None,
        relaxed: bool = False,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        rs_capacity: int = RelayStation.RS_CAPACITY,
        record_trace: bool = True,
        kernel: Optional[str] = None,
        instruments: Optional[InstrumentSet] = None,
    ) -> None:
        """Create a simulator instance.

        Exactly one of *rs_counts* (per-channel counts) or *configuration*
        (per-link :class:`RSConfiguration`) may be given; omitting both means
        zero relay stations everywhere.

        *kernel* selects the execution engine (``"compiled"``, ``"fast"``,
        ``"reference"`` or ``"lockstep"``; ``None`` consults the ``REPRO_KERNEL`` environment
        variable, then :data:`repro.engine.DEFAULT_KERNEL`).  *instruments*
        selects the observation passes; the default keeps the historical
        always-on behaviour (stats + occupancy, trace per *record_trace*).
        """
        self.netlist = netlist
        self.rs_counts, self.configuration_label = resolve_rs_counts(
            netlist, rs_counts=rs_counts, configuration=configuration
        )
        self.relaxed = relaxed
        self.queue_capacity = queue_capacity
        self.rs_capacity = rs_capacity
        self.record_trace = record_trace
        self.kernel_name = resolve_kernel_name(kernel)
        self.instruments = (
            instruments
            if instruments is not None
            else InstrumentSet(trace=record_trace, shell_stats=True, occupancy=True)
        )
        self.model = Elaborator(netlist).bind(
            rs_counts=self.rs_counts,
            relaxed=relaxed,
            queue_capacity=queue_capacity,
            rs_capacity=rs_capacity,
            label=self.configuration_label,
        )
        self._kernel = make_kernel(self.model, self.kernel_name)
        # The object-based runtime view (shells, channel pipelines) only
        # exists under the reference kernel; the other kernels keep their run
        # state private to each run.
        if isinstance(self._kernel, ReferenceKernel):
            self.shells = self._kernel.shells
            self.pipelines = self._kernel.pipelines
        else:
            self.shells = {}
            self.pipelines = {}

    @property
    def kernel(self):
        """The kernel instance executing this simulator's model."""
        return self._kernel

    def reset(self) -> None:
        """Reset processes (and, under the reference kernel, shells and RS)."""
        self._kernel.reset()

    # -- simulation ---------------------------------------------------------------
    def run(
        self,
        max_cycles: int = 5_000_000,
        stop_process: Optional[str] = None,
        target_firings: Optional[Mapping[str, int]] = None,
        extra_cycles: int = 0,
        deadlock_limit: int = 10_000,
        on_cycle: Optional[Callable[[int, Dict[str, bool]], None]] = None,
        horizon: Optional[int] = None,
        steady_state: bool = True,
        steady_state_window: Optional[int] = None,
    ) -> LidResult:
        """Run the latency-insensitive system.

        Parameters
        ----------
        max_cycles:
            Hard bound on simulated cycles (a :class:`SimulationError` is
            raised if it is hit before the stop condition).
        stop_process:
            Process whose ``is_done()`` terminates the run.  When omitted the
            first process reporting done stops the run, unless
            *target_firings* is given.
        target_firings:
            Alternative stop condition: mapping ``process -> firings``; the
            run stops once every listed process has completed at least that
            many valid firings.
        extra_cycles:
            Cycles simulated after the stop condition (drain window).
        deadlock_limit:
            Raise :class:`DeadlockError` after this many consecutive cycles
            with no firing anywhere in the system.
        on_cycle:
            Optional observer called as ``on_cycle(cycle, fired_map)``.
        horizon:
            Run exactly this many cycles unless a stop condition fires
            earlier; reaching the horizon is a normal halt, not a timeout.
        steady_state:
            Steady-state period detection switch (on by default).
        steady_state_window:
            Cycles to search for a state recurrence before disarming.
        """
        controls = RunControls(
            max_cycles=max_cycles,
            stop_process=stop_process,
            target_firings=target_firings,
            extra_cycles=extra_cycles,
            deadlock_limit=deadlock_limit,
            on_cycle=on_cycle,
            horizon=horizon,
            steady_state=steady_state,
            steady_state_window=steady_state_window,
        )
        return self._kernel.run(controls, self.instruments)


def run_lid(
    netlist: Netlist,
    rs_counts: Optional[Mapping[str, int]] = None,
    configuration: Optional[RSConfiguration] = None,
    relaxed: bool = False,
    queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
    record_trace: bool = True,
    kernel: Optional[str] = None,
    **run_kwargs: Any,
) -> LidResult:
    """Build a :class:`LidSimulator` and run it in one call."""
    simulator = LidSimulator(
        netlist,
        rs_counts=rs_counts,
        configuration=configuration,
        relaxed=relaxed,
        queue_capacity=queue_capacity,
        record_trace=record_trace,
        kernel=kernel,
    )
    return simulator.run(**run_kwargs)
