"""Golden (reference) simulator: the synchronous system with zero relay stations.

Every process fires exactly once per clock cycle.  The value produced by the
driver of a channel during cycle ``t`` is consumed by the destination during
cycle ``t + 1``; at reset the channel holds its declared initial value.  The
golden run provides (a) the reference cycle count used to normalise the
throughput of the wire-pipelined systems (the paper's "the throughput without
WP is of course 1.0"), (b) the reference τ-filtered traces for the
N-equivalence checks, and (c) the :class:`FiringTrace` of every process'
oracle answers and done flags by firing index, left on the netlist as
``Netlist.firing_trace``: its batch rows replay it (DESIGN.md §3).

A netlist that can never stop (no process can report done) and whose every
process summarises its complete state (``schedule_complete``) — the CPU
running a looped program — is periodic: the golden run searches for a
recurrence of its full state and stops there, so its trace answers every
firing index, however large (DESIGN.md §5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from .exceptions import SimulationError
from .netlist import Netlist
from .process import overrides_hook
from .tokens import Token
from .traces import SystemTrace


@dataclass(frozen=True)
class FiringTrace:
    """Every process' control answers by firing index, from one golden run.

    Firing *k* of a shell-wrapped process consumes the *k*-th valid token of
    every input whatever the relay stations (:mod:`repro.core.process`), so
    the process' state after *k* firings, and with it its WP2 oracle answer
    and its done flag, is the same under every relay-station vector and
    both wrappers.  Only the timing differs.  The compiled kernel's replay
    layout (:mod:`repro.engine.codegen`) therefore times a batch row of the
    traced netlist from this trace alone, without calling ``fire``.

    Oracle answers are interned as bitmasks over the process' input ports
    (bit *i* set: ``input_ports[i]`` is required; ``None`` answers are every
    bit), validated against the ports when recorded.
    """

    #: :attr:`~repro.core.netlist.Netlist.identity` of the netlist the trace
    #: was recorded on; a layout replays only a trace of its own netlist.
    #: Per-process fields below are in that netlist's process order.
    netlist_identity: str
    #: Firings the trace covers: every process' firings in the golden run
    #: (one per cycle), or on a looped trace the loop start plus the period.
    firings: int
    #: Per process: the oracle answer before firing ``k`` at index ``k``,
    #: for ``k`` in ``0..firings`` (the last one after the final firing), or
    #: None when the process does not override ``required_ports``.
    oracle: Tuple[Optional[Union[bytes, Tuple[int, ...]]], ...]
    #: Per process: the firing count at which ``is_done()`` first held, or
    #: None when it did not hold within the trace (or is never overridden).
    done_at: Tuple[Optional[int], ...]
    #: The loop start ``L`` when the golden run's state recurred with period
    #: ``C = firings - L``: every oracle answer from index ``L`` on repeats
    #: with period ``C`` forever.  ``L`` marks where the *answers* repeat,
    #: the smallest such index (never below a recorded ``done_at``), not
    #: where the state does: the golden run found its state recurring at
    #: Brent's power-of-two save point, at or after ``L``, and the trace is
    #: cut to ``L + C`` firings.  None when the trace ends where the run
    #: stopped.
    loop_start: Optional[int] = None

    def position(self, firing: int) -> int:
        """The recorded index that answers firing index *firing*.

        ``L + (k - L) mod C`` for ``k >= L`` on a looped trace (``C`` the
        period), *firing* itself otherwise.
        """
        start = self.loop_start
        if start is None or firing < start:
            return firing
        return start + (firing - start) % (self.firings - start)


class _FiringRecorder:
    """Collects a :class:`FiringTrace` while the golden loop runs.

    The trace is dropped (:meth:`result` returns None) when an oracle names
    a port the process does not have, or a done flag turns false again:
    rows then simulate in full, which reports the first and tolerates the
    second exactly as before.
    """

    def __init__(self, netlist: Netlist) -> None:
        processes = list(netlist.processes.values())
        self.identity = netlist.identity
        self.valid = True
        #: Per process index: (process, {answer: mask}, answers) for the
        #: processes with an oracle, None for the others.
        self.oracles: List[Optional[Tuple[Any, Dict, List[int]]]] = [
            (process, {None: (1 << len(process.input_ports)) - 1}, [])
            if overrides_hook(process, "required_ports")
            else None
            for process in processes
        ]
        self.done_procs = [
            (index, process)
            for index, process in enumerate(processes)
            if overrides_hook(process, "is_done")
        ]
        self.done_at: List[Optional[int]] = [None] * len(processes)
        self.observe_done(0)

    def answer(self, index: int) -> None:
        """Record the oracle answer of process *index* before its next firing."""
        process, masks, answers = self.oracles[index]
        answer = process.required_ports()
        if answer is not None and answer.__class__ is not frozenset:
            answer = frozenset(answer)
        mask = masks.get(answer)
        if mask is None:
            ports = process.input_ports
            if not answer <= set(ports):
                self.valid = False
            mask = masks[answer] = sum(
                1 << i for i, port in enumerate(ports) if port in answer
            )
        answers.append(mask)

    def observe_done(self, firings: int) -> None:
        """Record the done flags after every process fired *firings* times."""
        done_at = self.done_at
        for index, process in self.done_procs:
            if process.is_done():
                if done_at[index] is None:
                    done_at[index] = firings
            elif done_at[index] is not None:
                self.valid = False  # the flag turned false again

    def result(
        self, firings: int, loop_start: Optional[int] = None
    ) -> Optional[FiringTrace]:
        """The trace of *firings* firings; with *loop_start*, a looped one.

        The state after *firings* firings equals the state after
        *loop_start*, so every answer sequence repeats with period ``C =
        firings - loop_start`` from there.  The trace's loop start is moved
        back to the smallest index from which all of them repeat with ``C``
        (never below a recorded ``done_at``), and the trace keeps ``loop
        start + C`` firings.
        """
        sequences = []
        for index, entry in enumerate(self.oracles):
            if entry is not None:
                self.answer(index)  # the answer after the last firing
                sequences.append(entry[2])
        if not self.valid:
            return None
        if loop_start is not None:
            period = firings - loop_start
            floor = max((at for at in self.done_at if at is not None), default=0)
            while loop_start > floor and all(
                answers[loop_start - 1] == answers[loop_start - 1 + period]
                for answers in sequences
            ):
                loop_start -= 1
            firings = loop_start + period
        oracle: List[Optional[Union[bytes, Tuple[int, ...]]]] = []
        for entry in self.oracles:
            if entry is None:
                oracle.append(None)
                continue
            process, _, answers = entry
            del answers[firings + 1:]
            narrow = len(process.input_ports) <= 8
            oracle.append(bytes(answers) if narrow else tuple(answers))
        return FiringTrace(
            netlist_identity=self.identity,
            firings=firings,
            oracle=tuple(oracle),
            done_at=tuple(self.done_at),
            loop_start=loop_start,
        )


def replays_loop(netlist: Netlist) -> bool:
    """Whether *netlist* carries a looped trace of its own golden run.

    Its compiled batch rows then replay the loop and may extrapolate where
    an untraced twin of the same identity simulates in full, so the rows'
    ``period``/``extrapolated`` differ: result and runner caches keep the
    two apart.
    """
    trace = netlist.firing_trace
    return (
        trace is not None
        and trace.loop_start is not None
        and trace.netlist_identity == netlist.identity
    )


def _searches_loop(netlist: Netlist, stop_process: Optional[str]) -> bool:
    """Whether a golden run of *netlist* searches for its loop.

    Only when the run can never stop — the stop process, or with none every
    process, declares ``done_threshold() == math.inf`` — and every process
    declares ``schedule_complete``: equal summaries plus equal channel
    registers then mean equal full states.  A done-stop run computes no
    summary.
    """
    processes = list(netlist.processes.values())
    if not all(process.schedule_complete for process in processes):
        return False
    stoppers = processes if stop_process is None else [netlist.process(stop_process)]
    return all(process.done_threshold() == math.inf for process in stoppers)


@dataclass
class GoldenResult:
    """Outcome of a golden simulation run."""

    cycles: int
    firings: Dict[str, int]
    trace: SystemTrace
    halted: bool
    final_values: Dict[str, Any] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Always 1.0 by construction (kept for report symmetry)."""
        return 1.0 if self.cycles else 0.0


class GoldenSimulator:
    """Cycle-accurate simulator of the un-pipelined synchronous netlist."""

    def __init__(self, netlist: Netlist, record_trace: bool = True) -> None:
        self.netlist = netlist
        self.record_trace = record_trace

    def run(
        self,
        max_cycles: int = 1_000_000,
        stop_process: Optional[str] = None,
        extra_cycles: int = 0,
    ) -> GoldenResult:
        """Simulate until the stop process reports done (or *max_cycles*).

        Parameters
        ----------
        max_cycles:
            Hard bound on the number of simulated cycles.
        stop_process:
            Name of the process whose :meth:`~repro.core.process.Process.is_done`
            flag terminates the run.  When omitted, the first process that
            reports done stops the simulation; if none ever does, the run ends
            at *max_cycles*.
        extra_cycles:
            Additional cycles simulated after the stop condition fires (lets
            in-flight results drain, e.g. a final store reaching memory).

        A run that can never stop searches for its loop (module docstring)
        with Brent's method: the full state — every process'
        ``schedule_state()`` plus the channel registers — is saved at cycle
        0 and at every power of two, and the run ends at the first cycle
        whose state equals the saved one.  Every process fires once per
        cycle, so the firing-relative tags in the summaries compare as they
        are.  The period found is the minimal one; the trace loops from
        the first index at which every answer repeats with it
        (:attr:`FiringTrace.loop_start`), and ``cycles`` stays the cycle
        the search stopped at.
        """
        netlist = self.netlist
        netlist.reset()
        if stop_process is not None and stop_process not in netlist.processes:
            raise SimulationError(f"unknown stop process {stop_process!r}")

        # Current registered value of every channel (what the destination
        # will consume next cycle).
        channel_values: Dict[str, Any] = {
            name: chan.initial for name, chan in netlist.channels.items()
        }
        trace = SystemTrace(netlist.channels)
        input_map = {
            name: netlist.input_channels(name) for name in netlist.processes
        }
        output_map = {
            name: netlist.output_channels(name) for name in netlist.processes
        }

        # Oracle answers and done flags by firing index (FiringTrace).
        recorder = _FiringRecorder(netlist)
        oracles = recorder.oracles

        processes = list(netlist.processes.values())
        search = _searches_loop(netlist, stop_process)
        saved_summaries: Tuple = ()
        saved_channels: Tuple = ()
        saved_at = 0
        loop_start: Optional[int] = None

        cycles = 0
        halted = False
        drain_remaining: Optional[int] = None
        while cycles < max_cycles:
            # Between save points no summary tuple is built: the channel
            # registers (one cheap tuple that differs on most cycles) are
            # compared first, then the summaries one at a time, so a cycle
            # stops at its first difference.
            if (
                search
                and cycles
                and tuple(channel_values.values()) == saved_channels
                and all(
                    process.schedule_state() == summary
                    for process, summary in zip(processes, saved_summaries)
                )
            ):
                loop_start = saved_at
                break
            if search and not cycles & (cycles - 1):  # 0 or a power of two
                saved_summaries = tuple(
                    process.schedule_state() for process in processes
                )
                saved_channels = tuple(channel_values.values())
                saved_at = cycles
            # Gather inputs for every process from the channel registers.
            next_values: Dict[str, Any] = {}
            for index, (name, process) in enumerate(netlist.processes.items()):
                if oracles[index] is not None:
                    recorder.answer(index)
                inputs = {
                    port: channel_values[chan.name]
                    for port, chan in input_map[name].items()
                }
                outputs = process.step(inputs)
                for port, value in outputs.items():
                    for chan in output_map[name].get(port, []):
                        next_values[chan.name] = value
                        if self.record_trace:
                            trace.record(chan.name, Token(value=value, tag=cycles + 1))

            # Channels not driven this cycle (dangling outputs never happen,
            # but undriven source ports of processes with no outputs do not
            # appear) keep their previous value.
            for chan_name, value in next_values.items():
                channel_values[chan_name] = value
            cycles += 1
            recorder.observe_done(cycles)

            if drain_remaining is None:
                done = self._stop_condition(stop_process)
                if done:
                    halted = True
                    drain_remaining = extra_cycles
            if drain_remaining is not None:
                if drain_remaining == 0:
                    break
                drain_remaining -= 1

        firings = {name: process.firings for name, process in netlist.processes.items()}
        netlist.firing_trace = recorder.result(cycles, loop_start)
        return GoldenResult(
            cycles=cycles,
            firings=firings,
            trace=trace,
            halted=halted,
            final_values=dict(channel_values),
        )

    def _stop_condition(self, stop_process: Optional[str]) -> bool:
        if stop_process is not None:
            return self.netlist.process(stop_process).is_done()
        return any(process.is_done() for process in self.netlist)


def run_golden(
    netlist: Netlist,
    max_cycles: int = 1_000_000,
    stop_process: Optional[str] = None,
    extra_cycles: int = 0,
    record_trace: bool = True,
) -> GoldenResult:
    """Convenience wrapper around :class:`GoldenSimulator`."""
    simulator = GoldenSimulator(netlist, record_trace=record_trace)
    return simulator.run(
        max_cycles=max_cycles, stop_process=stop_process, extra_cycles=extra_cycles
    )
