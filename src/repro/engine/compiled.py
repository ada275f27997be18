"""The compiled kernel, the default: executes codegen-specialized run functions.

Instead of interpreting the elaborated model each cycle, this kernel runs a
generated Python function (see :mod:`repro.engine.codegen`).  The function
is specialized on the netlist's *shape* — graph, ports, hook flags, wrapper,
instruments, stop mode, steady-state and horizon plumbing — and receives the
relay-station vector, the element capacities and the initial channel values
as runtime data (:func:`~repro.engine.codegen.run_binding`).  Generated code
lives in one process-wide cache, so every configuration of a layout, and
every fresh layout of an already-seen shape, pays the generation cost once.

Steady-state period detection (see :mod:`repro.engine.steady_state`) is
compiled straight into the generated loop whenever the run is eligible: the
per-cycle snapshot is one tuple of the integers the loop already maintains
(plus summaries, and queued values under a certified plan), and the
analytic jump over the detected period's repetitions happens inside the
generated frame.

Offered a golden run's :class:`~repro.core.golden.FiringTrace` (*replay*:
:class:`~repro.engine.batch.BatchRunner` offers it on every batch row of a
traced netlist), the kernel times the row with the **replay layout**: no
process is fired, the oracle answers and done flags come from the trace by
firing index (the paper's equivalence argument makes them
schedule-independent, DESIGN.md §3).  The replay of a looped trace answers
every firing and detects its own recurrence over trace positions, so it
extrapolates where the model itself has no sound plan (the CPU).  A row the
trace cannot answer runs in full; ``LidResult.kernel`` says ``"replay"`` or
``"compiled"`` and ``LidResult.fallback`` why.  The run classifies its model
for steady-state detection once: the plan's certification keys the code
cache.

Semantics are pinned to the reference kernel by the property suites in
``tests/test_engine.py`` and ``tests/test_steady_state.py``: cycles,
firings, traces, stall statistics, occupancies and extrapolated counts are
cycle-for-cycle identical.

One deliberate exception: the generic ``on_cycle`` observer (a per-cycle
Python callback, a debugging aid) is served by delegating the run to the
reference kernel — keeping the compiled hot loop free of observer plumbing
is the point of this kernel.  The two kernels are equivalence-pinned, so
the delegation is unobservable.
"""

from __future__ import annotations

from typing import Optional

from ..core.golden import FiringTrace
from ..core.shell import ShellStats
from ..core.traces import SystemTrace
from .codegen import (
    REPLAY_LOOPED,
    compiled_run_fn,
    replay_binding,
    resolve_stop,
    run_binding,
)
from .instrumentation import InstrumentSet, trace_from_lists
from .kernel import RunControls, SimKernel
from .result import LidResult
from .steady_state import DEFAULT_DETECTION_WINDOW, detection_plan


class CompiledKernel(SimKernel):
    """Specialized-codegen kernel over the integer-indexed elaborated model."""

    name = "compiled"

    def run(self, controls: RunControls, instruments: InstrumentSet,
            replay: Optional[FiringTrace] = None) -> LidResult:
        model = self.model
        controls.validate(model)
        if controls.on_cycle is not None:
            from .reference import ReferenceKernel

            return ReferenceKernel(model).run(controls, instruments)

        layout = model.layout
        proc_names = layout.proc_names
        stop_mode, stop_arg = resolve_stop(controls, proc_names)

        plan = detection_plan(
            model, instruments, controls.steady_state,
            controls.steady_state_window, controls.on_cycle,
        )
        fir = outcome = fallback = None
        if replay is not None:
            fir, outcome, fallback = self._replay(
                replay, controls, instruments, plan, stop_mode, stop_arg
            )
        kernel = "compiled" if outcome is None else "replay"
        if outcome is None:
            run_fn = compiled_run_fn(
                model, instruments, stop_mode,
                steady=plan is not None,
                horizon=controls.horizon is not None,
                # One classification per run: the plan already holds it.
                certification=plan.certification if plan is not None else None,
            )
            fir, outcome = self._call(
                run_fn, controls, stop_mode, stop_arg,
                plan.window if plan is not None else 0,
            )
        cycles, halted, chan_items, stats, maxocc, period, warmup, extrapolated = (
            outcome
        )

        n_procs = len(proc_names)
        firings = {proc_names[p]: fir[p] for p in range(n_procs)}
        if stats is not None:
            st_missing, st_blocked, st_done, st_disc, st_dp, st_mp = stats
            shell_stats = {
                proc_names[p]: ShellStats(
                    cycles=cycles,
                    firings=fir[p],
                    stalls_missing_input=st_missing[p],
                    stalls_output_blocked=st_blocked[p],
                    stalls_done=st_done[p],
                    discarded_tokens=st_disc[p],
                    discarded_by_port=dict(st_dp[p]),
                    missing_by_port=dict(st_mp[p]),
                )
                for p in range(n_procs)
            }
        else:
            shell_stats = {}
        if chan_items is not None:
            trace = trace_from_lists(layout.chan_names, chan_items)
        else:
            trace = SystemTrace(layout.chan_names)
        max_occupancy = (
            {model.queue_names[q]: maxocc[q] for q in range(len(maxocc))}
            if maxocc is not None
            else {}
        )
        return LidResult(
            cycles=cycles,
            firings=firings,
            trace=trace,
            halted=halted,
            wrapper_kind=model.wrapper_kind,
            configuration_label=model.configuration_label,
            rs_counts=dict(model.rs_counts),
            shell_stats=shell_stats,
            max_queue_occupancy=max_occupancy,
            period=period or None,
            warmup_cycles=warmup if period else None,
            extrapolated=extrapolated,
            kernel=kernel,
            fallback=fallback,
        )

    def _call(self, run_fn, controls: RunControls, stop_mode, stop_arg,
              window: int, replay=None):
        """Call a generated run function: ``(firing counters, outcome)``."""
        model = self.model
        fir = [0] * len(model.layout.proc_names)
        outcome = run_fn(
            model.layout.processes,
            fir,
            model.configuration_label,
            controls.max_cycles,
            controls.deadlock_limit,
            controls.extra_cycles,
            stop_mode,
            stop_arg,
            controls.horizon if controls.horizon is not None else 0,
            window,
            run_binding(model),
            replay,
        )
        return fir, outcome

    def _replay(self, trace: FiringTrace, controls: RunControls,
                instruments: InstrumentSet, plan, stop_mode, stop_arg):
        """Time the row from *trace* with the replay layout.

        Returns ``(firing counters, outcome, None)``, or ``(None, None,
        reason)`` when the row must run in full: the run needs what the
        trace lacks (token values, schedule samples of a trace that ends, a
        firing past the trace's end) or the trace was recorded on another
        netlist.  A looped trace detects over trace positions whenever the
        run allows detection at all (DESIGN.md §3).
        """
        if instruments.trace:
            return None, None, "value trace requested"
        looped = trace.loop_start is not None
        if plan is not None and not looped:
            return None, None, "steady-state detection armed"
        data = replay_binding(self.model, trace)
        if data is None:
            return None, None, "trace recorded on another netlist"
        window = controls.steady_state_window
        if window is None:
            window = DEFAULT_DETECTION_WINDOW
        steady = looped and controls.steady_state and window > 0
        run_fn = compiled_run_fn(
            self.model, instruments, stop_mode, steady=steady,
            horizon=controls.horizon is not None,
            replay=REPLAY_LOOPED if looped else True,
        )
        try:
            fir, outcome = self._call(
                run_fn, controls, stop_mode, stop_arg, window if steady else 0,
                data,
            )
        except IndexError:  # TraceExhausted, or an oracle read past the end
            return None, None, "trace exhausted"
        if not looped and max(fir, default=0) > trace.firings:
            # A firing the golden run never made: its outputs were never
            # checked against the declared ports.
            return None, None, "trace exhausted"
        return fir, outcome, None
