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
per-cycle snapshot is one tuple of integers the loop already maintains
(certified plans compare exact checkpoints only when it recurs), and the
analytic jump over the detected period's repetitions happens inside the
generated frame.

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

from ..core.shell import ShellStats
from ..core.traces import SystemTrace
from .codegen import compiled_run_fn, resolve_stop, run_binding
from .instrumentation import InstrumentSet, trace_from_lists
from .kernel import RunControls, SimKernel
from .result import LidResult
from .steady_state import detection_plan


class CompiledKernel(SimKernel):
    """Specialized-codegen kernel over the integer-indexed elaborated model."""

    name = "compiled"

    def run(self, controls: RunControls, instruments: InstrumentSet) -> LidResult:
        model = self.model
        controls.validate(model)
        if controls.on_cycle is not None:
            from .reference import ReferenceKernel

            return ReferenceKernel(model).run(controls, instruments)

        layout = model.layout
        proc_names = layout.proc_names
        n_procs = len(proc_names)
        fir = [0] * n_procs

        stop_mode, stop_arg = resolve_stop(controls, proc_names)

        plan = detection_plan(
            model, instruments, controls.steady_state,
            controls.steady_state_window, controls.on_cycle,
            asymptotic=controls.asymptotic(),
        )
        run_fn = compiled_run_fn(
            model, instruments, stop_mode,
            steady=plan is not None,
            horizon=controls.horizon is not None,
        )
        cycles, halted, chan_items, stats, maxocc, period, warmup, extrapolated = (
            run_fn(
                layout.processes,
                fir,
                model.configuration_label,
                controls.max_cycles,
                controls.deadlock_limit,
                controls.extra_cycles,
                stop_mode,
                stop_arg,
                controls.horizon if controls.horizon is not None else 0,
                plan.window if plan is not None else 0,
                run_binding(model),
            )
        )

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
        )
