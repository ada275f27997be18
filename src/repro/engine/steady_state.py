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
  (:func:`detection_plan`), including the **certified** value-inclusive mode
  for netlists of :attr:`~repro.core.process.Process.schedule_complete`
  processes whose control is data-dependent (:func:`certify_model`,
  DESIGN.md §5);
* the extrapolation arithmetic — how many whole periods a run may skip
  without overshooting its stop condition (:func:`periods_to_skip`).

Whether a run detects, and what it finds, depends only on that run's model,
controls and instruments: every run searches ``steady_state_window`` cycles
(default :data:`DEFAULT_DETECTION_WINDOW`; the certified checkpoint search
one checkpoint spacing more), whatever ran before it.

The hot-path work (building the snapshot key each cycle, the recurrence
dictionary) lives inside each kernel — interpreted in
:class:`~repro.engine.fast.FastKernel`, compiled into the generated loop by
:mod:`repro.engine.codegen`.  The compiled kernel's certified search keeps
exact checkpoints on a geometric grid; its cold-path thinning
(:func:`thin_checkpoints`, bounded by :data:`CHECKPOINT_CAP`) lives here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.process import SCHEDULE_INERT, overrides_hook
from .elaboration import ElaboratedModel
from .instrumentation import InstrumentSet

#: Default number of cycles the detector searches for a recurrence before
#: disarming (bounds the plain plan's snapshot dictionary).
DEFAULT_DETECTION_WINDOW = 16_384

#: Most exact checkpoints the compiled kernel's certified search keeps at
#: once; past it :func:`thin_checkpoints` doubles the checkpoint spacing.
CHECKPOINT_CAP = 64


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
    evolves independently of them.  Under the **certified** plan (every
    process declares :attr:`~repro.core.process.Process.schedule_complete`,
    so control *is* data-dependent) a period is only trusted once the exact
    state recurred: the summaries, the queued token values of every storage
    element and the :attr:`verify_fns` states.  The compiled kernel compares
    that state against exact checkpoints probed by the integer part of the
    snapshot (calling only the verify hooks a process overrides); the fast
    kernel hashes the full key and re-checks both ends of one measured
    period (see DESIGN.md §5).
    """

    #: ``(proc_index, bound schedule_state)`` for every dynamic process.
    sig_fns: List[Tuple[int, Callable]]
    #: Process indices whose ``is_done`` flag belongs in the snapshot.
    done_procs: List[int]
    #: Per-channel ``(src_proc, dest_proc)`` index pairs (WP2 only, deduped).
    offset_pairs: List[Tuple[int, int]]
    #: Cycles to search for a recurrence before disarming.
    window: int
    #: Certified (value-inclusive) mode: a period is only trusted once the
    #: exact state, queued token values included, recurred.
    certified: bool = False
    #: ``(proc_index, bound schedule_verify_state)`` for the exact-state
    #: comparison (certified mode only).
    verify_fns: List[Tuple[int, Callable]] = field(default_factory=list)

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
      :attr:`~repro.core.process.Process.schedule_complete`, i.e. each
      summary captures the complete behavioural state.  Then full-state
      recurrence — summaries plus the queued token values the plan also
      keys — implies true periodicity even though control is data-dependent;
    * ``None``: some process returns ``None``, or complete and
      value-independent summaries are mixed (a complete process' output
      values may depend on state an incomplete neighbour does not expose, so
      the combined snapshot would be unsound).  Full simulation is always
      sound, so ``None`` simply disables detection.
    """
    dynamic: List[int] = []
    any_complete = False
    all_complete = True
    for index, process in enumerate(model.layout.processes):
        state = process.schedule_state()
        if state is None:
            return None
        if process.schedule_complete:
            any_complete = True
        else:
            all_complete = False
        if state is not SCHEDULE_INERT:
            dynamic.append(index)
    if any_complete and not all_complete:
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
    asymptotic: bool = True,
) -> Optional[DetectionPlan]:
    """The snapshot plan for one run, or None when detection must stay off.

    Detection is disabled when the run switches it off (*steady_state*
    False), when the trace instrument records per-cycle channel emissions
    (an extrapolated run cannot reproduce the skipped cycles' values — see
    DESIGN.md §4), when a per-cycle ``on_cycle`` observer is installed, or
    when any process cannot summarise its schedule-relevant state.

    *asymptotic* tells the planner whether the run is bounded by a horizon
    or firing targets (kernels pass ``RunControls.asymptotic()``).  Certified
    plans only arm on such runs: a complete-state recurrence can never
    precede a done-based stop (it would prove the program loops forever), so
    on terminating programs the value-inclusive search would be pure
    per-cycle overhead.  Plain plans are unaffected — their snapshots are a
    few integers and done-mode recurrences still prove timeouts early.
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
    if certified and not asymptotic:
        return None
    processes = model.layout.processes
    done_procs = [p for p in dynamic if overrides_hook(processes[p], "is_done")]
    return DetectionPlan(
        sig_fns=[(p, processes[p].schedule_state) for p in dynamic],
        done_procs=done_procs,
        offset_pairs=channel_offset_pairs(model) if model.relaxed else [],
        window=effective_window,
        certified=certified,
        verify_fns=(
            [(p, processes[p].schedule_verify_state) for p in dynamic]
            if certified
            else []
        ),
    )


def thin_checkpoints(store: Dict, mask: int) -> Tuple[int, int]:
    """Coarsen the certified search's checkpoint grid (cold path).

    *store* maps probe keys to lists of checkpoints, each a tuple whose
    first item is the cycle it was taken at; a cycle is on the grid of
    spacing ``mask + 1`` (a power of two) when ``cycle & mask`` is zero.
    The spacing doubles until at most :data:`CHECKPOINT_CAP` checkpoints
    remain, and every checkpoint off the new grid is dropped (keys left
    without one too).  Returns ``(new mask, checkpoints kept)``.

    A kept checkpoint stays on every later grid, so it has been stored
    since the cycle it was taken at: the first exact recurrence found
    against the store is always one minimal period long (DESIGN.md §5).
    """
    count = CHECKPOINT_CAP + 1
    while count > CHECKPOINT_CAP:
        mask = 2 * mask + 1
        count = 0
        for key in list(store):
            kept = [checkpoint for checkpoint in store[key] if not checkpoint[0] & mask]
            if kept:
                store[key] = kept
                count += len(kept)
            else:
                del store[key]
    return mask, count


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
    period.  The skip must leave the true stop cycle outside the skipped
    region, so the resumed concrete simulation finds it exactly:

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
