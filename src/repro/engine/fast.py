"""The fast kernel: flat, index-based execution of an elaborated model.

Where the reference kernel manipulates Shell/RelayStation/Token objects and
dictionaries keyed by name, this kernel works on structures prepared once by
the elaboration layer:

* every storage element (shell FIFO or relay station) is a plain ``deque`` of
  ``(value, tag)`` pairs — token movement is a C-level ``popleft``/``append``
  and a moving token is never re-allocated;
* back-pressure is one latched occupancy snapshot (``list(map(len, ...))``)
  per cycle instead of a ``latch()`` method call per queue;
* relay-station forwarding decides *and* commits every hop in one pass over
  precomputed (source, destination) pairs after the shell phase — legal
  because every hop decision reads only the latched snapshot, each element
  sees at most one push and one pop per cycle, and push/pop commute on a
  FIFO.  The per-cycle global ``sorted(forwards, ...)`` of the old simulator
  disappears entirely;
* :class:`~repro.core.tokens.Token` objects are only materialised when the
  trace instrument is enabled, and stall bookkeeping is only done when the
  shell-stats instrument is enabled — an uninstrumented stall costs one
  early-exit scan.

The scheduling semantics are identical to the reference kernel by
construction: every decision is made against start-of-cycle state, shells
fire, then relay-station moves and producer launches commit.  The property
suite in ``tests/test_engine.py`` pins equality of cycles, firings, traces,
stall statistics and occupancies across kernels.

When a run is eligible (see :mod:`repro.engine.steady_state` and DESIGN.md
§4), the kernel additionally runs the steady-state detector: the
top-of-cycle state is canonicalised into a snapshot key, the first
recurrence yields the period, one more period is simulated concretely to
measure per-period deltas, and the remaining whole periods are skipped
analytically — cycles, firings, stall statistics and queued token tags all
advance to exactly the values full simulation would have produced
(``tests/test_steady_state.py`` pins this).
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Dict, List, Optional, Tuple

from ..core.exceptions import (
    DeadlockError,
    ProtocolError,
    SimulationError,
)
from ..core.shell import ShellStats
from ..core.tokens import Token, VOID
from ..core.traces import SystemTrace
from .instrumentation import InstrumentSet, trace_from_lists
from .kernel import RunControls, SimKernel, raise_output_mismatch
from .result import LidResult
from .steady_state import detection_plan, periods_to_skip, stats_jump


class FastKernel(SimKernel):
    """Array/deque-based kernel over the integer-indexed elaborated model."""

    name = "fast"

    def run(self, controls: RunControls, instruments: InstrumentSet) -> LidResult:
        model = self.model
        layout = model.layout
        controls.validate(model)

        procs = layout.processes
        proc_names = layout.proc_names
        n_procs = len(procs)
        chan_names = layout.chan_names
        n_chans = len(chan_names)
        caps = model.queue_caps
        n_queues = len(caps)
        relaxed = model.relaxed

        track_occ = instruments.occupancy
        track_stats = instruments.shell_stats
        tracing = instruments.trace

        # -- run state ---------------------------------------------------------
        queues: List[deque] = [deque() for _ in range(n_queues)]
        maxocc = [0] * n_queues
        for process in procs:
            process.reset()
        fir = [0] * n_procs

        # Initial channel values live in the destination FIFOs with tag 0.
        for cid in range(n_chans):
            qid = layout.chan_dest_qid[cid]
            queues[qid].append((layout.chan_initial[cid], 0))
            if track_occ:
                maxocc[qid] = 1

        # -- precomputed per-shell records ------------------------------------
        # (process, name, ((port, queue), ...), ports, ((first_qid, cap), ...),
        #  ((port, ((cid, qid, queue), ...)), ...), portset)
        shell_recs = []
        for p in range(n_procs):
            in_items = tuple(
                (port, queues[qid])
                for port, qid in zip(layout.in_ports[p], layout.in_qids[p])
            )
            out_first_pairs = tuple(
                (qid, caps[qid]) for qid in model.out_first[p]
            )
            out_entries = tuple(
                (
                    port,
                    tuple(
                        (cid, model.chan_first[cid], queues[model.chan_first[cid]])
                        for cid in cids
                    ),
                )
                for port, cids in layout.out_ports[p]
            )
            shell_recs.append(
                (
                    procs[p],
                    proc_names[p],
                    in_items,
                    layout.in_ports[p],
                    out_first_pairs,
                    out_entries,
                    frozenset(layout.in_ports[p]),
                    frozenset(procs[p].output_ports),
                )
            )

        # Forwarding hops.  A hop moves the oldest token of a relay station to
        # the next element when the station held data at the start of the
        # cycle and the next element was not asserting (registered) stop —
        # both facts live in the latched snapshot, so every hop decision and
        # move can be committed in a single pass after the shell phase: each
        # element sees at most one push and one pop per cycle, and push/pop
        # commute on a FIFO.
        hops = [
            (
                queues[chain[i]],
                queues[chain[i + 1]],
                chain[i],
                chain[i + 1],
                caps[chain[i + 1]],
            )
            for chain in model.chan_chain
            for i in range(len(chain) - 1)
        ]

        if track_stats:
            st_missing = [0] * n_procs
            st_blocked = [0] * n_procs
            st_done = [0] * n_procs
            st_discarded = [0] * n_procs
            st_discard_port: List[Dict[str, int]] = [
                defaultdict(int) for _ in range(n_procs)
            ]
            st_missing_port: List[Dict[str, int]] = [
                defaultdict(int) for _ in range(n_procs)
            ]

        chan_items: List[List[Any]] = [[] for _ in range(n_chans)]

        # -- stop-condition plumbing ------------------------------------------
        stop_process = controls.stop_process
        target_firings = controls.target_firings
        target_list: Optional[List[Tuple[int, int]]] = None
        stop_proc = None
        if target_firings is not None:
            proc_index = {name: i for i, name in enumerate(proc_names)}
            target_list = [
                (proc_index[name], count) for name, count in target_firings.items()
            ]
        elif stop_process is not None:
            stop_proc = procs[proc_names.index(stop_process)]
        on_cycle = controls.on_cycle

        max_cycles = controls.max_cycles
        horizon = controls.horizon
        bound = controls.loop_bound()
        deadlock_limit = controls.deadlock_limit
        cycles = 0
        idle_streak = 0
        halted = False
        drain_remaining: Optional[int] = None

        # -- steady-state detection ---------------------------------------------
        # Snapshot plan (None when detection is off or unsound for this run);
        # see repro.engine.steady_state and DESIGN.md §4.  ss_phase: 0 = off,
        # 1 = searching for a recurrence, 2 = measuring one concrete period.
        plan = detection_plan(
            model, instruments, controls.steady_state,
            controls.steady_state_window, on_cycle,
        )
        ss_phase = 1 if plan is not None else 0
        ss_period: Optional[int] = None
        ss_warmup: Optional[int] = None
        ss_end = -1
        extrapolated = False
        if ss_phase:
            ss_seen: Optional[Dict[Any, int]] = {}
            ss_window = plan.window
            ss_sig_fns = [fn for _, fn in plan.sig_fns]
            ss_done_procs = [procs[p] for p in plan.done_procs]
            ss_offsets = plan.offset_pairs
            ss_stop_mode = 1 if target_list is not None else 0
            ss_certified = plan.certified

            def ss_make_key(latched):
                key = (
                    tuple(latched),
                    tuple(fir[s] - fir[d] for s, d in ss_offsets),
                    tuple(fn() for fn in ss_sig_fns),
                    tuple(p.is_done() for p in ss_done_procs),
                )
                if ss_certified:
                    # Certified plan: the queued token values join the key.
                    key += (
                        tuple(
                            tuple(item[0] for item in queue) for queue in queues
                        ),
                    )
                return key

            # Producer process of every storage element (for the tag rewrite
            # applied when whole periods are skipped).
            chan_src = [0] * n_chans
            for p, entries in enumerate(layout.out_ports):
                for _port, cids in entries:
                    for cid in cids:
                        chan_src[cid] = p
            queue_src: Dict[int, int] = {}
            for cid, chain in enumerate(model.chan_chain):
                for qid in chain:
                    queue_src[qid] = chan_src[cid]

        while cycles < bound:
            # Phase 1: latch occupancies (registered back-pressure).
            latched = list(map(len, queues))

            # Steady-state detection: the top-of-cycle state (all tokens
            # committed, nothing in flight) is canonicalised into a snapshot
            # key; the first recurrence yields the period, one more period is
            # simulated concretely to measure per-period deltas, and the
            # remaining whole periods are then skipped analytically.
            if ss_phase:
                if ss_phase == 1:
                    ss_key = ss_make_key(latched)
                    prev = ss_seen.get(ss_key)
                    if prev is None:
                        ss_seen[ss_key] = cycles
                        if cycles >= ss_window:
                            ss_phase = 0
                            ss_seen = None
                    else:
                        ss_warmup = prev
                        ss_period = cycles - prev
                        ss_end = cycles + ss_period
                        ss_phase = 2
                        ss_seen = None
                        ss_base_fir = fir.copy()
                        if track_stats:
                            ss_base_stats = (
                                st_missing.copy(), st_blocked.copy(),
                                st_done.copy(), st_discarded.copy(),
                                [dict(d) for d in st_discard_port],
                                [dict(d) for d in st_missing_port],
                            )
                elif cycles == ss_end:
                    ss_phase = 0
                    deltas = [fir[p] - ss_base_fir[p] for p in range(n_procs)]
                    skip = periods_to_skip(
                        cycles, ss_period, bound, ss_stop_mode,
                        target_list or (), fir, deltas,
                    )
                    # A period with zero firings must not be skipped: the
                    # deadlock counter (not part of the snapshot) keeps
                    # advancing through it.
                    if skip > 0 and any(deltas):
                        cycles += skip * ss_period
                        for p in range(n_procs):
                            jump = skip * deltas[p]
                            if jump:
                                fir[p] += jump
                                procs[p].firings = fir[p]
                        # Queued token tags advance by the producer's
                        # skipped firings, exactly as full simulation
                        # would have stamped them.
                        for qid, queue in enumerate(queues):
                            src = queue_src.get(qid)
                            if src is None or not queue:
                                continue
                            jump = skip * deltas[src]
                            if jump:
                                for i in range(len(queue)):
                                    value, tag = queue[i]
                                    queue[i] = (value, tag + jump)
                        if track_stats:
                            stats_jump(
                                skip, ss_base_stats, st_missing,
                                st_blocked, st_done, st_discarded,
                                st_discard_port, st_missing_port,
                            )
                        extrapolated = True
                        if cycles >= bound:
                            # Loop condition re-check routes into the
                            # while-else (horizon halt or timeout), as
                            # full simulation would.
                            continue

            # WP2 stale-token discarding is folded into each shell's own scan
            # below: a shell's discards only touch its own input FIFOs, which
            # no forwarding decision and no other shell's plan reads, so
            # deferring them from the reference kernel's begin_cycle to the
            # owning shell's planning step is unobservable.

            # Phase 2: shell firing decisions and execution.
            fired_any = False
            fired_map: Optional[Dict[str, bool]] = {} if on_cycle else None
            launches: List[Tuple[deque, int, Tuple[Any, int]]] = []
            emis: Optional[List[Any]] = [VOID] * n_chans if tracing else None
            for p, (process, name, in_items, ports, out_first_pairs, out_entries, portset, out_portset) in enumerate(shell_recs):
                fired = False
                if process.is_done():
                    if relaxed:
                        # Stale tokens still arrive after completion; keep
                        # discarding them exactly like the reference wrapper.
                        tag = fir[p]
                        for port, queue in in_items:
                            while queue and queue[0][1] < tag:
                                queue.popleft()
                                if track_stats:
                                    st_discarded[p] += 1
                                    st_discard_port[p][port] += 1
                    if track_stats:
                        st_done[p] += 1
                else:
                    tag = fir[p]
                    missing = False
                    if relaxed:
                        required = process.required_ports()
                        if required is None:
                            required = portset
                        else:
                            unknown = required - portset
                            if unknown:
                                raise ProtocolError(
                                    f"oracle of process {name!r} required "
                                    f"unknown ports {sorted(unknown)}"
                                )
                        # Every port is scanned (never break early): the
                        # stale-discard below must run on all FIFOs so the
                        # occupancies latched next cycle match the reference.
                        for port, queue in in_items:
                            while queue:
                                head_tag = queue[0][1]
                                if head_tag == tag:
                                    break
                                if head_tag > tag:
                                    raise ProtocolError(
                                        f"shell {name!r}: head token on port "
                                        f"{port!r} has future tag {head_tag} "
                                        f"(current {tag}); a token was lost"
                                    )
                                queue.popleft()
                                if track_stats:
                                    st_discarded[p] += 1
                                    st_discard_port[p][port] += 1
                            else:
                                if port in required:
                                    missing = True
                                    if track_stats:
                                        st_missing_port[p][port] += 1
                    else:
                        for port, queue in in_items:
                            if queue:
                                head_tag = queue[0][1]
                                if head_tag == tag:
                                    continue
                                if head_tag > tag:
                                    raise ProtocolError(
                                        f"shell {name!r}: head token on port "
                                        f"{port!r} has future tag {head_tag} "
                                        f"(current {tag}); a token was lost"
                                    )
                            missing = True
                            if track_stats:
                                st_missing_port[p][port] += 1
                            else:
                                break
                    if missing:
                        if track_stats:
                            st_missing[p] += 1
                    else:
                        blocked = False
                        for qid, cap in out_first_pairs:
                            if latched[qid] >= cap:
                                blocked = True
                                break
                        if blocked:
                            if track_stats:
                                st_blocked[p] += 1
                        else:
                            # Fire.  WP1 consumes every port (all are ready
                            # here); WP2 consumes the required ports plus any
                            # port whose current-tag token already arrived —
                            # exactly the ports whose head holds the current
                            # tag right now.
                            if relaxed:
                                inputs: Dict[str, Any] = dict.fromkeys(ports)
                                for port, queue in in_items:
                                    if queue and queue[0][1] == tag:
                                        inputs[port] = queue.popleft()[0]
                            else:
                                inputs = {}
                                for port, queue in in_items:
                                    inputs[port] = queue.popleft()[0]
                            # fire() is called directly (not through step());
                            # the firing counter is maintained here, and the
                            # step() output validation is replaced by one
                            # C-level key-set comparison raising the same
                            # NetlistError on mismatch.
                            outputs = process.fire(inputs)
                            if outputs.keys() != out_portset:
                                raise_output_mismatch(process, outputs)
                            process.firings = fir[p] = out_tag = tag + 1
                            for port, targets in out_entries:
                                value = outputs[port]
                                item = (value, out_tag)
                                if tracing:
                                    token = Token(value=value, tag=out_tag)
                                    for cid, qid, queue in targets:
                                        emis[cid] = token
                                        launches.append((queue, qid, item))
                                else:
                                    for cid, qid, queue in targets:
                                        launches.append((queue, qid, item))
                            fired = fired_any = True
                if fired_map is not None:
                    fired_map[name] = fired

            # Phase 3: commit relay-station moves, then producer launches.
            # Decisions guaranteed space from latched occupancies and each
            # element receives at most one token per cycle, so no overflow
            # check is needed (see DESIGN.md).  A hop destination whose own
            # pop commits later in this pass may transiently hold one extra
            # token, so hop-side occupancy is sampled at the end of the cycle
            # (matching the reference commit, where every pop of a queue
            # precedes its push).
            if track_occ:
                occ_pending: List[Tuple[deque, int]] = []
                for src_q, dst_q, src_qid, dst_qid, dst_cap in hops:
                    if latched[src_qid] and latched[dst_qid] < dst_cap:
                        dst_q.append(src_q.popleft())
                        occ_pending.append((dst_q, dst_qid))
                for queue, qid, item in launches:
                    queue.append(item)
                    if len(queue) > maxocc[qid]:
                        maxocc[qid] = len(queue)
                for queue, qid in occ_pending:
                    if len(queue) > maxocc[qid]:
                        maxocc[qid] = len(queue)
            else:
                for src_q, dst_q, src_qid, dst_qid, dst_cap in hops:
                    if latched[src_qid] and latched[dst_qid] < dst_cap:
                        dst_q.append(src_q.popleft())
                for queue, qid, item in launches:
                    queue.append(item)

            if tracing:
                for cid in range(n_chans):
                    chan_items[cid].append(emis[cid])
            cycles += 1

            if on_cycle is not None:
                on_cycle(cycles, fired_map)

            if fired_any:
                idle_streak = 0
            else:
                idle_streak += 1
                if idle_streak >= deadlock_limit:
                    # A sustained stall needs a dependency cycle; point at the
                    # loop-closing channels of this (arbitrary-shape) netlist.
                    hint = layout.topology().deadlock_hint(layout.chan_names)
                    raise DeadlockError(
                        f"no process fired for {idle_streak} consecutive cycles "
                        f"(cycle {cycles}, configuration "
                        f"{model.configuration_label!r}){hint}"
                    )

            if drain_remaining is None:
                if target_list is not None:
                    stop = all(fir[i] >= count for i, count in target_list)
                elif stop_proc is not None:
                    stop = stop_proc.is_done()
                else:
                    stop = any(process.is_done() for process in procs)
                if stop:
                    halted = True
                    drain_remaining = controls.extra_cycles
                    ss_phase = 0  # at most extra_cycles left: nothing to skip
            if drain_remaining is not None:
                if drain_remaining == 0:
                    break
                drain_remaining -= 1
        else:
            if horizon is not None and cycles >= horizon:
                halted = True  # reaching the horizon is a normal halt
            else:
                raise SimulationError(
                    f"simulation did not terminate within {max_cycles} cycles "
                    f"(configuration {model.configuration_label!r})"
                )

        # -- result assembly ---------------------------------------------------
        firings = {proc_names[p]: fir[p] for p in range(n_procs)}
        if track_stats:
            shell_stats = {
                proc_names[p]: ShellStats(
                    cycles=cycles,
                    firings=fir[p],
                    stalls_missing_input=st_missing[p],
                    stalls_output_blocked=st_blocked[p],
                    stalls_done=st_done[p],
                    discarded_tokens=st_discarded[p],
                    discarded_by_port=dict(st_discard_port[p]),
                    missing_by_port=dict(st_missing_port[p]),
                )
                for p in range(n_procs)
            }
        else:
            shell_stats = {}
        if tracing:
            trace = trace_from_lists(chan_names, chan_items)
        else:
            trace = SystemTrace(chan_names)
        max_occupancy = (
            {model.queue_names[q]: maxocc[q] for q in range(n_queues)}
            if track_occ
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
            period=ss_period,
            warmup_cycles=ss_warmup,
            extrapolated=extrapolated,
            kernel=self.name,
        )

