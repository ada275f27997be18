"""Steady-state period detection and analytic extrapolation.

A latency-insensitive system is a marked graph: whether a shell fires depends
only on token *presence* (queue occupancies, back-pressure) and on the
process-level control hooks (``is_done`` / ``required_ports``), never on token
values.  Its control schedule therefore evolves over a finite state space and
must eventually become periodic; once one period has been observed, the
remaining cycles of a long-horizon run contribute nothing new — cycle counts,
firing totals, stall statistics and occupancy maxima all extrapolate
analytically (see DESIGN.md §4 for the full argument).

This module holds everything the kernels share:

* the canonical snapshot *plan* — which queues, tag offsets, done flags and
  per-process :meth:`~repro.core.process.Process.schedule_state` samples make
  up the per-cycle snapshot key, and when detection is sound at all
  (:func:`detection_plan`), including the **value-inclusive** key for
  netlists of :attr:`~repro.core.process.Process.schedule_complete`
  processes with no control hooks (:func:`certify_model`, DESIGN.md §5);
* the extrapolation arithmetic — how many whole periods a run may skip
  without overshooting its stop condition (:func:`periods_to_skip`), and
  the looped replay's finish from its firing history
  (:func:`finish_from_history`).

Whether a run detects, and what it finds, depends only on that run's model,
controls and instruments: every run searches ``steady_state_window`` cycles
(default :data:`DEFAULT_DETECTION_WINDOW`), whatever ran before it.

The hot-path work (building the snapshot key each cycle, the recurrence
dictionary) lives inside each kernel — interpreted in
:class:`~repro.engine.fast.FastKernel`, compiled into the generated loop by
:mod:`repro.engine.codegen`, whose replay layout keys trace positions
instead of process summaries (DESIGN.md §3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.process import SCHEDULE_INERT, overrides_hook
from .elaboration import ElaboratedModel
from .instrumentation import InstrumentSet

#: Default number of cycles the detector searches for a recurrence before
#: disarming (bounds the snapshot dictionary).
DEFAULT_DETECTION_WINDOW = 16_384


@dataclass
class DetectionPlan:
    """What one run's canonical snapshot consists of.

    The snapshot taken at the top of every cycle is the tuple of

    * the occupancy of every storage element (shell FIFOs and relay
      stations) — all tokens live in queues at that point, so the occupancy
      vector *is* the in-flight state;
    * under WP2, one relative tag offset ``firings(src) - firings(dest)`` per
      channel: FIFO tags are gapless, so together with the occupancies this
      pins every queued token's tag relative to its consumer (what the
      stale-token discard of an oracle shell reads);
    * the ``is_done()`` flag and the :meth:`~repro.core.process.Process.
      schedule_state` sample of every process whose control hooks can change.

    Token values are absent from the *plain* plan: they never gate a firing,
    and the ``schedule_state`` contract guarantees the sampled control state
    evolves independently of them.  A **certified** plan (every process
    declares :attr:`~repro.core.process.Process.schedule_complete`) adds the
    queued token values of every storage element to the key, as exact
    tuples: equal keys then mean equal full states (see DESIGN.md §5).
    """

    #: ``(proc_index, bound schedule_state)`` for every dynamic process.
    sig_fns: List[Tuple[int, Callable]]
    #: Process indices whose ``is_done`` flag belongs in the snapshot.
    done_procs: List[int]
    #: Per-channel ``(src_proc, dest_proc)`` index pairs (WP2 only, deduped).
    offset_pairs: List[Tuple[int, int]]
    #: Cycles to search for a recurrence before disarming.
    window: int
    #: Certified (value-inclusive) mode: the key also holds the complete
    #: summaries and the queued token values.
    certified: bool = False

    @property
    def certification(self) -> Tuple[List[int], bool]:
        """The :func:`certify_model` answer this plan was built from."""
        return [p for p, _ in self.sig_fns], self.certified


def certify_model(model: ElaboratedModel) -> Optional[Tuple[List[int], bool]]:
    """Classify one elaborated netlist for steady-state detection.

    Returns ``(dynamic process indices, certified)`` or ``None`` when
    detection must stay off.  A process is *dynamic* when its
    ``schedule_state()`` returns a real value (re-sampled every cycle),
    *inert* when it returns :data:`~repro.core.process.SCHEDULE_INERT`, and
    *unsupported* when it returns ``None``.  The certification decision:

    * **plain** (``certified=False``): every process honours the
      value-independent base contract (no ``schedule_complete`` declaration
      anywhere) — token values cannot gate the schedule and stay out of the
      snapshot;
    * **certified** (``certified=True``): every process declares
      :attr:`~repro.core.process.Process.schedule_complete` and none
      overrides ``is_done`` or ``required_ports``.  The key then holds the
      complete summaries and the queued token values, so a recurrence is
      one of the full state;
    * ``None``: some process returns ``None``; complete and
      value-independent summaries are mixed (a complete process' output
      values may depend on state an incomplete neighbour does not expose);
      or a complete process has a control hook — its answers follow the
      data (the CPU), and its long runs are replays of a looped golden run
      instead (DESIGN.md §5).  Full simulation is always sound, so ``None``
      simply disables detection.
    """
    dynamic: List[int] = []
    any_complete = False
    all_complete = True
    hooked = False
    for index, process in enumerate(model.layout.processes):
        state = process.schedule_state()
        if state is None:
            return None
        if process.schedule_complete:
            any_complete = True
        else:
            all_complete = False
        hooked = hooked or overrides_hook(process, "is_done") or overrides_hook(
            process, "required_ports"
        )
        if state is not SCHEDULE_INERT:
            dynamic.append(index)
    if any_complete and (hooked or not all_complete):
        return None
    return dynamic, any_complete


def channel_offset_pairs(model: ElaboratedModel) -> List[Tuple[int, int]]:
    """Deduplicated ``(src_proc, dest_proc)`` pairs, one per WP2-relevant channel."""
    layout = model.layout
    proc_index = {name: i for i, name in enumerate(layout.proc_names)}
    pairs = {
        (proc_index[chan.source], proc_index[chan.dest])
        for chan in model.netlist.channels.values()
    }
    return sorted(pair for pair in pairs if pair[0] != pair[1])


def detection_plan(
    model: ElaboratedModel,
    instruments: InstrumentSet,
    steady_state: bool = True,
    window: Optional[int] = None,
    on_cycle: Optional[object] = None,
) -> Optional[DetectionPlan]:
    """The snapshot plan for one run, or None when detection must stay off.

    Detection is disabled when the run switches it off (*steady_state*
    False), when the trace instrument records per-cycle channel emissions
    (an extrapolated run cannot reproduce the skipped cycles' values — see
    DESIGN.md §4), when a per-cycle ``on_cycle`` observer is installed, or
    when :func:`certify_model` finds no sound key for the netlist.
    """
    if not steady_state:
        return None
    if instruments.trace or on_cycle is not None:
        return None
    effective_window = DEFAULT_DETECTION_WINDOW if window is None else window
    if effective_window <= 0:
        return None
    certification = certify_model(model)
    if certification is None:
        return None
    dynamic, certified = certification
    processes = model.layout.processes
    done_procs = [p for p in dynamic if overrides_hook(processes[p], "is_done")]
    return DetectionPlan(
        sig_fns=[(p, processes[p].schedule_state) for p in dynamic],
        done_procs=done_procs,
        offset_pairs=channel_offset_pairs(model) if model.relaxed else [],
        window=effective_window,
        certified=certified,
    )


def finish_from_history(
    history: List[Tuple[int, ...]],
    start: int,
    bound: int,
    idle: int,
    deadlock_limit: int,
) -> Optional[Tuple[Tuple[int, ...], bool]]:
    """The firing counters at *bound* of a run whose schedule has recurred.

    *history* holds the firing counters at the top of every searched cycle,
    indexed from the first one; the state at its last index equals the
    state at *start*, so from *start* on the schedule repeats with period
    ``P = len(history) - 1 - start`` and *bound* (relative to the same
    first cycle) reads as ``start + k·P + r``.  Returns the counters at
    *bound*, ``history[start + r] + k·Δ`` with ``Δ`` one period's
    firings, and whether whole periods were skipped past the recurrence
    (``k > 1``).  No measuring period is needed, and nothing after the
    jump is simulated.

    Returns None, and the run keeps simulating, when the period holds no
    firing or when the idle run across a period boundary — *idle*, the
    run's idle cycles so far, plus the period's leading idle cycles —
    reaches *deadlock_limit*: the full run may then raise, which only
    simulation reproduces.  Idle runs inside the period were simulated
    already.  Done-based stop modes need no check: a recurrence proves no
    done flag flips again (see :func:`periods_to_skip`).
    """
    period = len(history) - 1 - start
    deltas = [last - begin for begin, last in zip(history[start], history[-1])]
    if not any(deltas):
        return None
    lead = 0
    while history[start + lead + 1] == history[start + lead]:
        lead += 1
    if idle + lead >= deadlock_limit:
        return None
    periods, rest = divmod(bound - start, period)
    base = history[start + rest]
    return (
        tuple(count + periods * delta for count, delta in zip(base, deltas)),
        periods > 1,
    )


def periods_to_skip(
    cycles: int,
    period: int,
    bound: int,
    stop_mode: int,
    stop_arg,
    fir: Sequence[int],
    deltas: Sequence[int],
) -> int:
    """How many whole periods the run may skip without overshooting.

    Called at a period boundary (``cycles`` is a snapshot-recurrence phase
    point) with the per-period firing *deltas* measured over one concrete
    period.  This measured jump serves every detecting run except an
    uninstrumented looped replay with a done-based stop, which finishes
    from its firing history instead (:func:`finish_from_history`).  The
    skip must leave the true stop cycle outside the skipped region, so the
    resumed concrete simulation finds it exactly:

    * ``bound`` (the horizon or ``max_cycles`` loop bound) is never crossed;
    * under firing targets (``stop_mode == 1``), the run stops only once
      *every* target is met, so it is safe to skip while at least one target
      remains strictly unmet — the binding target is the slowest one.  A
      target whose process gains no firings per period can never be met and
      the run provably times out: skip straight to the bound;
    * under done-based stop modes, a recurrence proves no ``is_done`` flag
      will ever flip again (a pending flip would be counting down inside some
      process' sampled ``schedule_state`` and the snapshot could not have
      recurred), so the run times out at the bound as well.
    """
    j = (bound - cycles) // period
    if j <= 0:
        return 0
    if stop_mode == 1:  # codegen.STOP_TARGET (kept literal: no import cycle)
        slowest = 0
        for index, count in stop_arg:
            deficit = count - fir[index]
            if deficit > 0:
                delta = deltas[index]
                if delta <= 0:
                    return j  # unreachable target: run times out at the bound
                needed = (deficit - 1) // delta
                if needed > slowest:
                    slowest = needed
        if slowest < j:
            j = slowest
    return j


def scale_counts(target: Dict, base: Dict, factor: int) -> None:
    """Add ``factor`` × the per-period delta of every counter in *target*.

    ``target`` holds cumulative per-port counters at the end of the measured
    period, ``base`` a copy from its start; the difference is one period's
    contribution, which the skipped periods repeat verbatim.
    """
    for key, value in target.items():
        delta = value - base.get(key, 0)
        if delta:
            target[key] = value + factor * delta


def stats_jump(
    skip: int,
    base: Tuple,
    st_missing: List[int],
    st_blocked: List[int],
    st_done: List[int],
    st_disc: List[int],
    st_dp: List[Dict],
    st_mp: List[Dict],
) -> None:
    """Advance shell-stat counters by *skip* periods' worth of deltas.

    *base* holds copies of all six counter structures taken at the start of
    the measured period; the compiled kernel's generated jump block calls
    this once (cold path), the fast kernel inlines the equivalent.
    """
    b_missing, b_blocked, b_done, b_disc, b_dp, b_mp = base
    for p in range(len(st_missing)):
        st_missing[p] += skip * (st_missing[p] - b_missing[p])
        st_blocked[p] += skip * (st_blocked[p] - b_blocked[p])
        st_done[p] += skip * (st_done[p] - b_done[p])
        st_disc[p] += skip * (st_disc[p] - b_disc[p])
        scale_counts(st_dp[p], b_dp[p], skip)
        scale_counts(st_mp[p], b_mp[p], skip)
