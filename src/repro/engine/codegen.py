"""Code generation for the compiled kernel: netlist shape -> specialized Python.

The compiled kernel runs a generated Python function instead of
interpreting the elaborated model each cycle.  The generated code is
specialized on what decides the loop's **control flow** — the
process/channel graph, port names, process order, each process' hook
flags, the wrapper flavour, the instrument flags, the stop mode and the
steady-state/horizon plumbing — and reads everything a relay-station
vector changes as **runtime data** bound at the top of each call.  One
function therefore serves every RS vector and every element capacity of one
netlist shape, and every fresh layout of an already-seen shape (DESIGN.md
§3):

* every shell input FIFO becomes a local ``deque`` (``q7``, with its
  ``append``/``popleft`` pre-bound) plus an integer occupancy counter
  (``n7``) maintained at each push/pop site, and a capacity local (``c7``)
  bound from the binding; no ``len()`` call runs on the hot path;
* queues hold **raw values, not (value, tag) pairs**: on a correct channel
  tokens arrive in strictly increasing, gapless tag order, so the head tag
  of a shell FIFO is simply the number of tokens ever popped from it.  WP1
  consumes one token per port per firing, which makes the head tag always
  equal to the consumer's firing counter — the per-port tag checks vanish
  and a WP1 shell's whole firing guard folds into one ``and`` chain.  WP2
  keeps one integer counter per oracle shell FIFO (``g7``), incremented on
  every pop, against which stale-token discarding compares.  No tuple is
  ever allocated for a moving token;
* each channel's relay stations — however many, zero included — are one
  ``deque`` (``R3``) holding every token in flight on the chain, oldest
  first, plus one integer state (``s3``) encoding the per-station
  occupancies.  At the top of the cycle one lookup in the chain's
  transition table (``T3``, see :func:`chain_table`) yields ``x3``: the
  state delta of this cycle's forwarding moves, whether the oldest token
  enters the destination FIFO, and whether the channel's entry element has
  room for a launch (the producer's back-pressure guard, ``x3 & 1``).  A
  launch appends to ``R3`` and adds the binding's push increment to ``x3``
  (one more token in the first station, or — on a channel without relay
  stations — a token that enters the destination FIFO this cycle).  The
  commit phase applies ``x3`` after the shells.  Every decision reads
  start-of-cycle state, exactly as in the interpreting kernels;
* hooks the processes do not override are folded away: a process that never
  overrides ``is_done`` loses its per-cycle done guard (the base method is
  the constant ``False``); one that declares
  :attr:`~repro.core.process.Process.done_attribute` has the guard read
  that attribute instead of calling the method; and a WP2 process without a
  ``required_ports`` override skips the oracle call and the unknown-port
  validation;
* instrumentation (trace / shell stats / occupancy) is **compiled in only
  when the corresponding pass is enabled** — the uninstrumented objective
  path contains no counters beyond the occupancy integers the guards need,
  no ``Token`` objects and no occupancy samples at all;
* when the run is eligible for **steady-state detection** (see
  :mod:`repro.engine.steady_state` and DESIGN.md §4), the canonical
  snapshot is compiled into the loop as one tuple of the pre-maintained
  integers — FIFO counters, chain states, firing-counter differences, done
  flags — plus the sampled ``schedule_state()`` of the few dynamic
  processes, keyed into a plain dict; a certified plan adds the queued token
  values as exact tuples (DESIGN.md §5).  After the first recurrence the
  loop measures one more period, and the generated jump block then advances
  cycles, firing counters, ``g`` counters and stall statistics
  analytically;
* the **replay layout** (the ``replay`` shape flag, DESIGN.md §3) is the
  same loop with every process and value removed: no ``fire`` call, no
  ``q``/``R`` deques, no ``reset()``.  A firing only moves the ``n``/``g``
  counters and launches into the chain states; the oracle answer is
  ``O7[f7]``, a bitmask read by firing index from a golden run's
  :class:`~repro.core.golden.FiringTrace` (:func:`replay_binding`), and the
  done guard and stop test compare the firing counter with the trace's
  done index.  Any question the trace cannot answer raises
  ``IndexError`` (:class:`TraceExhausted`), and the kernel runs the row
  again in full.  The replay of a looped trace (:data:`REPLAY_LOOPED`)
  reads each process' answers at a trace position ``o7`` that wraps at the
  loop; its steady-state key holds those positions in place of process
  summaries, it keys nothing until every position is inside the loop, and
  without stat instruments or firing targets it ends at the first
  recurrence, reading the counters at the bound from the searched cycles'
  firing history (:func:`~repro.engine.steady_state.finish_from_history`).

The generated function is an entire run loop (not a per-cycle callable): the
stop condition, drain window and deadlock detection are cheap per-cycle
scalar checks, and keeping them inside the generated frame means the hot
locals never cross a call boundary.  The stop condition is only re-evaluated
after a cycle in which something fired (process state — and therefore
``is_done`` and firing counts — cannot change on an idle cycle).

Scheduling semantics match :class:`~repro.engine.reference.ReferenceKernel`
cycle for cycle; the property suites in ``tests/test_engine.py`` and
``tests/test_steady_state.py`` pin the equality across kernels.

Compiled functions live in one bounded, process-wide LRU
(:data:`CODE_CACHE_SIZE` entries) keyed by :func:`model_signature`: the
layout's structural shape (computed once per layout) plus the wrapper,
instrument, stop-mode, steady-state and horizon flags.  The generated
namespace holds only structural constants (port-name sets and helper
functions), so a cached function never keeps a layout, a process or a
netlist alive.  The per-binding runtime data (:func:`run_binding`) is
computed once per elaborated model.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict, defaultdict, deque
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

from ..core.exceptions import (
    DeadlockError,
    ProtocolError,
    SimulationError,
)
from ..core.process import overrides_hook
from ..core.tokens import Token, VOID
from .elaboration import ElaboratedModel, NetlistLayout
from .instrumentation import InstrumentSet
from .kernel import raise_output_mismatch
from .steady_state import (
    certify_model,
    channel_offset_pairs,
    finish_from_history,
    periods_to_skip,
    stats_jump,
)

#: Name of the generated entry point inside the compiled namespace.
ENTRY_POINT = "__lid_run"

#: Most compiled run functions the process-wide cache keeps (least recently
#: used evicted first).  One netlist shape needs one entry per wrapper and
#: loop variant (stop mode, steady-state, horizon, instruments).
CODE_CACHE_SIZE = 256

#: Most relay-chain transition tables kept (one per tuple of station
#: capacities; every chain of that tuple shares it).
CHAIN_TABLE_CACHE_SIZE = 128

#: The replay layout of a looped trace (the value of ``replay``; ``True``
#: is the replay of a trace that ends where its golden run stopped).
REPLAY_LOOPED = 2

#: Stop-condition modes a run loop can be specialized for.
STOP_ANY_DONE = 0      #: stop when any process reports done
STOP_TARGET = 1        #: stop once per-process firing targets are met
STOP_PROCESS = 2       #: stop when one designated process reports done

#: Push increments added to a channel's ``x`` by a launch: on a channel
#: with relay stations the token enters the first station (chain state
#: +1, i.e. +2 in the doubled encoding, shifted past the two flag bits);
#: on a channel without, it enters the destination FIFO at commit.
_PUSH_TO_STATION = 8
_PUSH_TO_FIFO = 2

#: Per-layout attribute holding the layout's :class:`_Shape`.
_SHAPE_ATTR = "_codegen_shape"
#: Per-model attribute holding the model's :func:`run_binding`.
_BINDING_ATTR = "_codegen_binding"


def resolve_stop(controls, proc_names):
    """Resolve run controls to an integer-indexed ``(stop_mode, stop_arg)``.

    ``stop_arg`` is ``[(proc_index, count), ...]`` for :data:`STOP_TARGET`,
    the designated process index for :data:`STOP_PROCESS`, and ``None`` for
    :data:`STOP_ANY_DONE`.  Shared by the compiled and lockstep kernels so
    both stop conditions resolve against the same layout ordering.  The
    *controls* argument is duck-typed (``target_firings`` / ``stop_process``
    attributes) to keep this module import-light.
    """
    if controls.target_firings is not None:
        index = {name: i for i, name in enumerate(proc_names)}
        return STOP_TARGET, [
            (index[name], count)
            for name, count in controls.target_firings.items()
        ]
    if controls.stop_process is not None:
        return STOP_PROCESS, proc_names.index(controls.stop_process)
    return STOP_ANY_DONE, None


def _raise_unknown_ports(name: str, required, portset) -> None:
    raise ProtocolError(
        f"oracle of process {name!r} required unknown ports "
        f"{sorted(required - portset)}"
    )


def _raise_deadlock(idle: int, cycles: int, label, layout: NetlistLayout) -> None:
    # A sustained stall needs a dependency cycle; point at the loop-closing
    # channels of this (arbitrary-shape) netlist.
    hint = layout.topology().deadlock_hint(layout.chan_names)
    raise DeadlockError(
        f"no process fired for {idle} consecutive cycles "
        f"(cycle {cycles}, configuration {label!r}){hint}"
    )


def _sample_chain(mo: List[int], stations: Tuple, state: int) -> None:
    """Fold the per-station occupancies of one chain state into *mo*."""
    state >>= 1
    for qid, base in stations:
        count = state % base
        state //= base
        if count > mo[qid]:
            mo[qid] = count


def _tuple_expr(parts: List[str]) -> str:
    """Source of a tuple display over *parts* (one item keeps its comma)."""
    return f"({', '.join(parts)}{',' if len(parts) == 1 else ''})"


#: Source copying the six stall-counter structures (the base a jump scales
#: the per-period deltas from, see :func:`~.steady_state.stats_jump`).
_STATS_COPY = (
    "([*st_missing], [*st_blocked], [*st_done], [*st_disc], "
    "[dict(_x) for _x in st_dp], [dict(_x) for _x in st_mp])"
)


# -- relay chains ---------------------------------------------------------------

class _ChainTable(dict):
    """Transition table of one relay chain, filled on first use per entry.

    A chain of ``k`` stations with capacities ``caps`` is in state
    ``sum(count_i * weight_i)`` (mixed radix, station 0 — the one a launch
    enters — least significant).  The table is indexed by ``2 * state +
    room``, ``room`` being whether the destination FIFO had space at the top
    of the cycle, and holds ``(2 * delta) << 2 | enters << 1 | entry_room``:
    ``delta`` is the state change of this cycle's forwarding moves, every
    station forwarding its oldest token when it held one at the top of the
    cycle and the next element had space then; ``enters`` says the last
    station forwards into the destination FIFO; ``entry_room`` says the
    first station can take a launch.  With no stations the entry element
    *is* the destination FIFO, so the entry is just ``room``.  Entries are
    computed on demand: only states a run visits are ever built, so a long
    chain costs nothing up front.
    """

    __slots__ = ("caps", "weights")

    def __init__(self, caps: Tuple[int, ...]) -> None:
        super().__init__()
        self.caps = caps
        weights = []
        weight = 1
        for cap in caps:
            weights.append(weight)
            weight *= cap + 1
        self.weights = tuple(weights)

    def __missing__(self, index: int) -> int:
        caps = self.caps
        room = index & 1
        if not caps:
            self[index] = room
            return room
        state = index >> 1
        counts = []
        for cap in caps:
            counts.append(state % (cap + 1))
            state //= cap + 1
        last = len(caps) - 1
        delta = 0
        enters = 0
        for i, count in enumerate(counts):
            if not count:
                continue
            if i < last:
                if counts[i + 1] < caps[i + 1]:
                    delta += self.weights[i + 1] - self.weights[i]
            elif room:
                delta -= self.weights[i]
                enters = 1
        entry = (2 * delta) << 2 | enters << 1 | (counts[0] < caps[0])
        self[index] = entry
        return entry


@lru_cache(maxsize=CHAIN_TABLE_CACHE_SIZE)
def chain_table(caps: Tuple[int, ...]) -> _ChainTable:
    """The shared transition table of relay chains with station *caps*."""
    return _ChainTable(caps)


def run_binding(model: ElaboratedModel) -> Tuple:
    """The runtime data one call of a generated run function reads.

    ``(fifo capacities, per-channel transition tables, per-channel push
    increments, per-channel initial values, per-channel station plans
    (qid, radix) for the occupancy instrument, element count, layout)``.
    Computed once per elaborated model and kept on it.
    """
    binding = model.__dict__.get(_BINDING_ATTR)
    if binding is None:
        layout = model.layout
        caps = model.queue_caps
        tables = []
        pushes = []
        stations = []
        for chain in model.chan_chain:
            relays = chain[:-1]
            tables.append(chain_table(tuple(caps[q] for q in relays)))
            pushes.append(_PUSH_TO_STATION if relays else _PUSH_TO_FIFO)
            stations.append(tuple((q, caps[q] + 1) for q in relays))
        binding = (
            caps[: layout.n_shell_queues],
            tables,
            pushes,
            list(layout.chan_initial),
            stations,
            len(caps),
            layout,
        )
        setattr(model, _BINDING_ATTR, binding)
    return binding


# -- cache keys -------------------------------------------------------------------

class _Shape:
    """A layout's structural signature with its hash computed once."""

    __slots__ = ("key", "_hash")

    def __init__(self, key: Tuple) -> None:
        self.key = key
        self._hash = hash(key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, _Shape)
            and self._hash == other._hash
            and self.key == other.key
        )

    def __reduce__(self):
        # String hashes differ between interpreters: rehash on unpickling.
        return _Shape, (self.key,)


def layout_shape(layout: NetlistLayout) -> _Shape:
    """What generated code depends on in *layout*, computed once per layout.

    The port names of every process (inputs in FIFO order, declared
    outputs), which channels each connected output port drives, every
    channel's destination FIFO, and each process' hook flags: ``is_done`` /
    ``required_ports`` overrides and its ``done_attribute``.  Process and
    channel names, relay stations, capacities and initial values are not
    part of it.
    """
    shape = layout.__dict__.get(_SHAPE_ATTR)
    if shape is None:
        procs = layout.processes
        shape = _Shape(
            (
                tuple(layout.in_ports),
                tuple(tuple(p.output_ports) for p in procs),
                tuple(
                    tuple((port, tuple(cids)) for port, cids in ports)
                    for ports in layout.out_ports
                ),
                tuple(layout.chan_dest_qid),
                tuple(
                    (
                        overrides_hook(p, "is_done"),
                        p.done_attribute,
                        overrides_hook(p, "required_ports"),
                    )
                    for p in procs
                ),
            )
        )
        setattr(layout, _SHAPE_ATTR, shape)
    return shape


def model_signature(
    model: ElaboratedModel,
    instruments: InstrumentSet,
    stop_mode: int = STOP_PROCESS,
    steady: bool = False,
    horizon: bool = False,
    certification: Optional[Tuple[List[int], bool]] = None,
    replay: int = False,
) -> Tuple:
    """The code-cache key of one bound model + instrument selection.

    Two runs share compiled code iff their layouts have the same
    :func:`layout_shape` and they agree on the wrapper flavour, the
    instrument flags, the stop-condition mode, the horizon specialization,
    the replay layout (of a trace that ends, or of a looped one) and — when
    the steady-state detector is compiled in — the detector's plan (which
    processes are sampled, plain or certified;
    *certification* is the model's :func:`certify_model` answer when the
    caller already has it).  Relay stations, capacities, initial token
    values, labels, stop targets, horizon and window values and the replayed
    trace are runtime data.
    """
    steady_key = False
    if steady and replay:
        steady_key = True  # the replay key holds trace positions, no summary
    elif steady and not instruments.trace:
        if certification is None:
            certification = certify_model(model)
        if certification is not None:
            steady_key = (tuple(certification[0]), certification[1])
    return (
        layout_shape(model.layout),
        model.relaxed,
        instruments.trace,
        instruments.shell_stats,
        instruments.occupancy,
        stop_mode,
        steady_key,
        horizon,
        replay,
    )


# -- source generation --------------------------------------------------------

class _Writer:
    """Tiny indentation-aware line emitter."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.depth = 0

    def emit(self, line: str = "") -> None:
        self.lines.append("    " * self.depth + line if line else "")

    def push(self) -> None:
        self.depth += 1

    def pop(self) -> None:
        self.depth -= 1

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class _Block:
    def __init__(self, writer: _Writer) -> None:
        self.writer = writer

    def __enter__(self) -> None:
        self.writer.push()

    def __exit__(self, *exc) -> None:
        self.writer.pop()


class _Generator:
    """Builds the shape-specialized run-loop source for one bound model.

    Only the layout's structure and the model's wrapper flavour are read;
    the relay stations and capacities of *model* never reach the source.

    With *replay* it builds the replay layout instead: the same loop over
    occupancy counters and chain states, with no process object touched
    (no ``fire``, no value queues) and the oracle answers and done flags
    read by firing index from the replayed trace (:func:`replay_binding`).
    With ``replay=REPLAY_LOOPED`` they are read at trace positions that
    wrap at the trace's loop, and only then may *steady* be set.
    """

    def __init__(
        self,
        model: ElaboratedModel,
        instruments: InstrumentSet,
        stop_mode: int = STOP_PROCESS,
        steady: bool = False,
        horizon: bool = False,
        certification: Optional[Tuple[List[int], bool]] = None,
        replay: int = False,
    ) -> None:
        layout = model.layout
        self.layout = layout
        self.stop_mode = stop_mode
        self.relaxed = model.relaxed
        self.tracing = instruments.trace
        self.stats = instruments.shell_stats
        self.occ = instruments.occupancy
        self.horizon = horizon
        self.steady = steady and not instruments.trace
        self.replay = bool(replay)
        self.looped = replay == REPLAY_LOOPED
        assert not (replay and self.tracing), (
            "the replay layout carries no token values"
        )
        assert not (self.steady and replay and not self.looped), (
            "only a looped trace's positions recur"
        )
        self.n_procs = len(layout.processes)
        self.n_chans = len(layout.chan_names)
        self.n_fifos = layout.n_shell_queues
        self.chan_dest = layout.chan_dest_qid
        # Every process fact the source depends on is read from the shape,
        # so layouts sharing a cache entry cannot differ in one.
        hooks = layout_shape(layout).key[-1]
        self.done_ovr = [hook[0] for hook in hooks]
        # A declared boolean done-attribute lets the guard read an attribute
        # instead of calling is_done() every cycle (see Process.done_attribute).
        self.done_attr = [hook[1] for hook in hooks]
        self.req_ovr = [hook[2] for hook in hooks]
        # Looped replay: the processes whose trace answers the loop reads,
        # each with its own trace position o{p}.
        self.pos_procs = [
            p
            for p in range(len(hooks))
            if self.looped and (self.done_ovr[p] or (self.relaxed and self.req_ovr[p]))
        ]
        # An uninstrumented looped replay with a done-based stop finishes
        # from the searched cycles' firing history at its first recurrence
        # (finish_from_history); the others measure one more period and jump.
        self.finish = (
            self.steady
            and self.looped
            and not (self.stats or self.occ)
            and stop_mode != STOP_TARGET
        )
        # Steady-state snapshot plan (processes to sample, tag offsets, the
        # per-FIFO pop counters a jump must advance; certified mode also
        # keys the queued token values).  The replay key samples no process:
        # its trace positions stand for them.
        if self.steady:
            if self.replay:
                certification = ([], False)
            elif certification is None:
                certification = certify_model(model)
            assert certification is not None, "steady codegen on an unsupported model"
            dynamic, self.ss_certified = certification
            self.ss_sig_procs = dynamic
            self.ss_done_procs = [p for p in dynamic if self.done_ovr[p]]
            self.ss_offsets = channel_offset_pairs(model) if self.relaxed else []
            self.ss_g_queues = [
                qid
                for p in range(self.n_procs)
                if self.relaxed and self.req_ovr[p]
                for qid in layout.in_qids[p]
            ]
        self.w = _Writer()

    # -- expression helpers -----------------------------------------------------
    def _done_expr(self, p: int) -> str:
        if self.replay:
            return f"{self._pos(p)} >= D{p}"
        attr = self.done_attr[p]
        return f"p{p}.{attr}" if attr else f"p{p}_done()"

    def _pos(self, p: int) -> str:
        """Replay only: the trace index that answers *p*'s next firing."""
        return f"o{p}" if self.looped else f"f{p}"

    def _check_known(self, p: int) -> None:
        """Replay only: leave the row when *p*'s done flag is past the trace.

        Emitted where the done expression just held.  ``D{p}`` of a flag the
        trace never saw hold is one past the trace's firings, so reaching it
        means the trace cannot answer.
        """
        if self.replay:
            self.w.emit(f"if not K{p}:")
            with _Block(self.w):
                self.w.emit("_miss()")

    def generate(self) -> str:
        w = self.w
        layout = self.layout
        w.emit(
            f"def {ENTRY_POINT}(procs, fir, label, max_cycles, deadlock_limit, "
            "extra_cycles, stop_mode, stop_arg, horizon, ss_window, binding, "
            "replay=None):"
        )
        w.push()

        # -- prologue: hoist process methods, bind runtime data ---------------
        w.emit("_caps, _tabs, _push, _init, _stations, _n_elems, _layout = binding")
        if self.replay:
            # No process object is touched: the trace answers for them.
            w.emit("_oracles, _done, _known, _loop, _end = replay")
            for p in range(self.n_procs):
                if self.relaxed and self.req_ovr[p]:
                    w.emit(f"O{p} = _oracles[{p}]")
                if self.done_ovr[p]:
                    w.emit(f"D{p} = _done[{p}]")
                    w.emit(f"K{p} = _known[{p}]")
        else:
            for p in range(self.n_procs):
                w.emit(f"p{p} = procs[{p}]")
                w.emit(f"p{p}_fire = p{p}.fire")
                if self.done_ovr[p] and not self.done_attr[p]:
                    w.emit(f"p{p}_done = p{p}.is_done")
                if self.relaxed and self.req_ovr[p]:
                    w.emit(f"p{p}_req = p{p}.required_ports")
            w.emit("for _proc in procs:")
            with _Block(w):
                w.emit("_proc.reset()")
        for q in range(self.n_fifos):
            if not self.replay:
                w.emit(f"q{q} = deque()")
                w.emit(f"q{q}_pop = q{q}.popleft")
                w.emit(f"q{q}_ap = q{q}.append")
            w.emit(f"n{q} = 0")
            w.emit(f"c{q} = _caps[{q}]")
        for c in range(self.n_chans):
            if not self.replay:
                w.emit(f"R{c} = deque()")
                w.emit(f"R{c}_ap = R{c}.append")
                w.emit(f"R{c}_pop = R{c}.popleft")
            w.emit(f"s{c} = 0")
            w.emit(f"T{c} = _tabs[{c}]")
            w.emit(f"P{c} = _push[{c}]")
        for p in range(self.n_procs):
            w.emit(f"f{p} = 0")
        for p in self.pos_procs:
            w.emit(f"o{p} = 0")
        if self.relaxed:
            # Per-FIFO head-tag counters (tags are implicit, see module doc).
            # Only oracle-bearing shells can leave stale tokens behind; an
            # all-required shell consumes every port on every firing, so its
            # head tags provably equal its firing counter and need no counter.
            for p in range(self.n_procs):
                if self.req_ovr[p]:
                    for q in layout.in_qids[p]:
                        w.emit(f"g{q} = 0")
        if self.occ:
            w.emit("mo = [0] * _n_elems")
        for c in range(self.n_chans):
            qid = self.chan_dest[c]
            if not self.replay:
                w.emit(f"q{qid}_ap(_init[{c}])")
            w.emit(f"n{qid} = 1")
            if self.occ:
                w.emit(f"mo[{qid}] = 1")
        if self.stats:
            w.emit(f"st_missing = [0] * {self.n_procs}")
            w.emit(f"st_blocked = [0] * {self.n_procs}")
            w.emit(f"st_done = [0] * {self.n_procs}")
            w.emit(f"st_disc = [0] * {self.n_procs}")
            w.emit(f"st_dp = [_dd(int) for _ in range({self.n_procs})]")
            w.emit(f"st_mp = [_dd(int) for _ in range({self.n_procs})]")
        if self.tracing:
            w.emit(f"chan_items = [[] for _ in range({self.n_chans})]")
        w.emit("cycles = 0")
        w.emit("idle = 0")
        w.emit("halted = False")
        w.emit("drain = None")
        if self.horizon:
            w.emit("_bound = horizon if horizon < max_cycles else max_cycles")
        else:
            w.emit("_bound = max_cycles")
        if self.steady:
            # Steady-state detector state: 1 = searching, 2 = measuring one
            # concrete period, 0 = off; a looped replay starts at 3, waiting
            # until every trace position is inside the loop.
            w.emit(f"_ss = {3 if self.pos_procs else 1}")
            w.emit("_ss_seen = {}")
            w.emit("_ss_p = 0")
            w.emit("_ss_w = 0")
            if self.finish:
                # Firing counters of every searched cycle since cycle _ss_g.
                w.emit("_ss_h = []")
                w.emit("_ss_g = 0")
            else:
                w.emit("_ss_end = -1")
            w.emit("_extrap = False")
            for p in self.ss_sig_procs:
                w.emit(f"p{p}_ss = p{p}.schedule_state")
        if self.stop_mode == STOP_PROCESS:
            if self.replay:
                w.emit("_stop_at = _done[stop_arg]")
                w.emit("_stop_known = _known[stop_arg]")
            else:
                w.emit("_stop_done = procs[stop_arg].is_done")

        # -- main loop --------------------------------------------------------
        w.emit("while cycles < _bound:")
        w.push()
        if self.steady:
            self._steady_block()
        # Phase 1: every channel's forwarding moves and entry room, decided
        # against start-of-cycle state (chain state, destination counter).
        for c in range(self.n_chans):
            d = self.chan_dest[c]
            w.emit(f"x{c} = T{c}[s{c} + (n{d} < c{d})]")
        w.emit("fired_any = False")
        if self.tracing:
            w.emit(f"_e = [VOID] * {self.n_chans}")

        # Phase 2: shells, in process order.
        for p in range(self.n_procs):
            self._shell(p)

        # Phase 3: commit each channel's moves (at most one token enters a
        # destination FIFO per cycle), then sample the occupancy maxima from
        # the end-of-cycle counters.
        for c in range(self.n_chans):
            d = self.chan_dest[c]
            w.emit(f"if x{c} & 2:")
            with _Block(w):
                if not self.replay:
                    w.emit(f"q{d}_ap(R{c}_pop())")
                w.emit(f"n{d} += 1")
            w.emit(f"s{c} += x{c} >> 2")
        if self.occ:
            for q in range(self.n_fifos):
                w.emit(f"if n{q} > mo[{q}]:")
                with _Block(w):
                    w.emit(f"mo[{q}] = n{q}")
            for c in range(self.n_chans):
                w.emit(f"if s{c}:")
                with _Block(w):
                    w.emit(f"_sample_chain(mo, _stations[{c}], s{c})")

        if self.tracing:
            w.emit("for _cl, _cv in zip(chan_items, _e):")
            with _Block(w):
                w.emit("_cl.append(_cv)")
        w.emit("cycles += 1")
        w.emit("if fired_any:")
        with _Block(w):
            w.emit("idle = 0")
        w.emit("else:")
        with _Block(w):
            w.emit("idle += 1")
            w.emit("if idle >= deadlock_limit:")
            with _Block(w):
                w.emit("_deadlock(idle, cycles, label, _layout)")
        # Process state is only mutated by firings, so the stop condition can
        # only change after a firing (or on the very first evaluation).
        w.emit("if drain is None and (fired_any or cycles == 1):")
        with _Block(w):
            if self.stop_mode == STOP_TARGET:
                w.emit("_stop = True")
                w.emit("for _si, _sc in stop_arg:")
                with _Block(w):
                    w.emit("if fir[_si] < _sc:")
                    with _Block(w):
                        w.emit("_stop = False")
                        w.emit("break")
            elif self.stop_mode == STOP_PROCESS and self.replay:
                self._replay_stop_test()
            elif self.stop_mode == STOP_PROCESS:
                w.emit("_stop = _stop_done()")
            else:
                candidates = [
                    self._done_expr(p)
                    for p in range(self.n_procs)
                    if self.done_ovr[p]
                ]
                w.emit(f"_stop = {' or '.join(candidates) if candidates else 'False'}")
            w.emit("if _stop:")
            with _Block(w):
                if self.replay and self.stop_mode == STOP_ANY_DONE:
                    for p in range(self.n_procs):
                        if self.done_ovr[p]:
                            w.emit(f"if {self._done_expr(p)}:")
                            with _Block(w):
                                self._check_known(p)
                w.emit("halted = True")
                w.emit("drain = extra_cycles")
                if self.steady:
                    w.emit("_ss = 0  # at most extra_cycles left: nothing to skip")
        w.emit("if drain is not None:")
        with _Block(w):
            w.emit("if drain == 0:")
            with _Block(w):
                w.emit("break")
            w.emit("drain -= 1")
        w.pop()  # while
        w.emit("else:")
        with _Block(w):
            if self.horizon:
                w.emit("if cycles < horizon:")
                with _Block(w):
                    w.emit(
                        "raise SimulationError('simulation did not terminate "
                        "within %d cycles (configuration %r)' % "
                        "(max_cycles, label))"
                    )
                w.emit("halted = True  # reaching the horizon is a normal halt")
            else:
                w.emit(
                    "raise SimulationError('simulation did not terminate within "
                    "%d cycles (configuration %r)' % (max_cycles, label))"
                )

        # -- epilogue ----------------------------------------------------------
        for p in range(self.n_procs):
            w.emit(f"fir[{p}] = f{p}")
        trace_out = "chan_items" if self.tracing else "None"
        stats_out = (
            "(st_missing, st_blocked, st_done, st_disc, st_dp, st_mp)"
            if self.stats
            else "None"
        )
        occ_out = "mo" if self.occ else "None"
        if self.steady:
            ss_out = "_ss_p, _ss_w, _extrap"
        else:
            ss_out = "0, 0, False"
        w.emit(
            f"return (cycles, halted, {trace_out}, {stats_out}, {occ_out}, "
            f"{ss_out})"
        )
        w.pop()
        return w.source()

    def _replay_stop_test(self) -> None:
        """The designated process' done test, read from the trace.

        The stop process is runtime data, so one branch per process that
        can report done picks its firing counter; any other stop process
        never reports done.
        """
        w = self.w
        branches = [p for p in range(self.n_procs) if self.done_ovr[p]]
        for index, p in enumerate(branches):
            w.emit(f"{'if' if index == 0 else 'elif'} stop_arg == {p}:")
            with _Block(w):
                w.emit(f"_stop = {self._pos(p)} >= _stop_at")
        if branches:
            w.emit("else:")
            w.push()
        w.emit("_stop = False")
        if branches:
            w.pop()
        w.emit("if _stop and not _stop_known:")
        with _Block(w):
            w.emit("_miss()")

    # -- steady-state detection ------------------------------------------------
    def _key_expr(self) -> str:
        """The snapshot key.

        Integers the loop already maintains: FIFO counters and chain states
        (for one binding, a chain state is in one-to-one correspondence with
        its per-station occupancies), WP2 tag offsets, then the dynamic
        ``schedule_state()`` samples and done flags.  A certified key adds
        the queued token values of every FIFO and relay chain; a looped
        replay's key adds its trace positions instead, which also fix the
        done flags.
        """
        parts = [f"n{q}" for q in range(self.n_fifos)]
        parts += [f"s{c}" for c in range(self.n_chans)]
        parts += [f"f{s} - f{d}" for s, d in self.ss_offsets]
        parts += [f"p{p}_ss()" for p in self.ss_sig_procs]
        parts += [self._done_expr(p) for p in self.ss_done_procs]
        parts += [f"o{p}" for p in self.pos_procs]
        if self.ss_certified:
            parts += [f"tuple(q{q})" for q in range(self.n_fifos)]
            parts += [f"tuple(R{c})" for c in range(self.n_chans)]
        return _tuple_expr(parts)

    def _steady_block(self) -> None:
        """Snapshot / measure / jump logic at the top of every cycle.

        Every searched cycle is keyed by one tuple (:meth:`_key_expr`); the
        first recurrence gives the period, one more concrete period gives
        the per-period deltas, and the jump follows.

        A looped replay searches only once every trace position is inside
        the loop: before that a position below the loop start still equals
        its firing counter, and a key holding it can recur only if that
        process never fires again, which leaves no firing to extrapolate in
        a connected netlist.  Without stat instruments or firing targets it
        keeps the firing counters of every searched cycle and finishes at
        the first recurrence (:func:`~.steady_state.finish_from_history`).
        """
        w = self.w
        fs = _tuple_expr([f"f{p}" for p in range(self.n_procs)])
        if self.pos_procs:
            inside = " and ".join(f"o{p} >= _loop" for p in self.pos_procs)
            w.emit(f"if _ss == 3 and {inside}:")
            with _Block(w):
                w.emit("_ss = 1")
                if self.finish:
                    w.emit("_ss_g = cycles")
        w.emit("if _ss == 1:")
        with _Block(w):
            w.emit(f"_sk = {self._key_expr()}")
            w.emit("_pv = _ss_seen.get(_sk)")
            w.emit("if _pv is None:")
            with _Block(w):
                w.emit("_ss_seen[_sk] = cycles")
                if self.finish:
                    w.emit(f"_ss_h.append({fs})")
                w.emit("if cycles >= ss_window:")
                with _Block(w):
                    w.emit("_ss = 0")
                    w.emit("_ss_seen = None")
                    if self.finish:
                        w.emit("_ss_h = None")
            w.emit("else:")
            with _Block(w):
                if self.finish:
                    self._steady_finish(fs)
                else:
                    w.emit("_ss = 2")
                    w.emit("_ss_w = _pv")
                    w.emit("_ss_p = cycles - _pv")
                    w.emit("_ss_end = cycles + _ss_p")
                    w.emit("_ss_seen = None")
                    w.emit(f"_ss_bf = {fs}")
                    if self.ss_g_queues:
                        w.emit(f"_ss_bg = {self._g_expr()}")
                    if self.stats:
                        w.emit(f"_ss_bs = {_STATS_COPY}")
        if not self.finish:
            w.emit("elif _ss == 2 and cycles == _ss_end:")
            with _Block(w):
                self._steady_jump()

    def _steady_finish(self, fs: str) -> None:
        """End the run at its bound from the firing history, if sound."""
        w = self.w
        w.emit("_ss = 0")
        w.emit("_ss_w = _pv")
        w.emit("_ss_p = cycles - _pv")
        w.emit("_ss_seen = None")
        w.emit(f"_ss_h.append({fs})")
        w.emit(
            "_fin = _ss_fin(_ss_h, _pv - _ss_g, _bound - _ss_g, idle, "
            "deadlock_limit)"
        )
        w.emit("_ss_h = None")
        w.emit("if _fin is not None:")
        with _Block(w):
            w.emit(f"{fs}, _extrap = _fin")
            w.emit("cycles = _bound")
            w.emit("continue  # the loop condition ends the run: horizon/timeout")

    def _g_expr(self) -> str:
        return _tuple_expr([f"g{q}" for q in self.ss_g_queues])

    def _steady_jump(self) -> None:
        """The analytic jump over every whole period the run may skip."""
        w = self.w
        w.emit("_ss = 0")
        deltas = ", ".join(
            f"f{p} - _ss_bf[{p}]" for p in range(self.n_procs)
        )
        w.emit(f"_df = [{deltas}]")
        w.emit(
            "_skip = _ss_skip(cycles, _ss_p, _bound, stop_mode, stop_arg, "
            "fir, _df)"
        )
        # A period with zero firings must not be skipped: the deadlock
        # counter (not part of the snapshot) keeps advancing through it.
        w.emit("if _skip > 0 and any(_df):")
        with _Block(w):
            w.emit("cycles += _skip * _ss_p")
            for p in range(self.n_procs):
                w.emit(f"if _df[{p}]:")
                with _Block(w):
                    w.emit(f"f{p} += _skip * _df[{p}]")
                    if not self.replay:
                        w.emit(f"p{p}.firings = f{p}")
                    if self.stop_mode == STOP_TARGET:
                        w.emit(f"fir[{p}] = f{p}")
            for index, q in enumerate(self.ss_g_queues):
                w.emit(f"g{q} += _skip * (g{q} - _ss_bg[{index}])")
            if self.stats:
                w.emit(
                    "_ss_sj(_skip, _ss_bs, st_missing, st_blocked, "
                    "st_done, st_disc, st_dp, st_mp)"
                )
            w.emit("_extrap = True")
            w.emit("if cycles >= _bound:")
            with _Block(w):
                w.emit("continue  # loop-condition re-check: horizon/timeout")

    # -- shells ----------------------------------------------------------------
    def _shell(self, p: int) -> None:
        """Unrolled firing logic of one shell, in process order."""
        w = self.w
        layout = self.layout
        ports = layout.in_ports[p]
        qids = layout.in_qids[p]

        w.emit(f"# shell {p}")
        if not self.done_ovr[p]:
            # is_done is the base-class constant False: no done guard at all.
            self._shell_body(p)
            return
        if self.relaxed:
            w.emit(f"if {self._done_expr(p)}:")
            with _Block(w):
                self._check_known(p)
                # Stale tokens still arrive after completion; keep discarding
                # them exactly like the reference wrapper.  An all-required
                # shell consumed every tag it ever fired on, so nothing stale
                # can be waiting and the discard scan folds away.
                scan = ports and self.req_ovr[p]
                if scan:
                    w.emit(f"_t = f{p}")
                    for port, qid in zip(ports, qids):
                        self._discard_stale(p, port, qid)
                if self.stats:
                    w.emit(f"st_done[{p}] += 1")
                elif not scan and not self.replay:
                    w.emit("pass")
            w.emit("else:")
            with _Block(w):
                self._shell_body(p)
        elif self.stats:
            w.emit(f"if {self._done_expr(p)}:")
            with _Block(w):
                self._check_known(p)
                w.emit(f"st_done[{p}] += 1")
            w.emit("else:")
            with _Block(w):
                self._shell_body(p)
        else:
            w.emit(f"if not {self._done_expr(p)}:")
            with _Block(w):
                self._shell_body(p)
            if self.replay:
                w.emit("else:")
                with _Block(w):
                    self._check_known(p)

    def _discard_stale(self, p: int, port: str, qid: int) -> None:
        """Drop the tokens of FIFO *qid* older than the current tag ``_t``."""
        w = self.w
        w.emit(f"while n{qid} and g{qid} < _t:")
        with _Block(w):
            if not self.replay:
                w.emit(f"q{qid}_pop()")
            w.emit(f"g{qid} += 1")
            w.emit(f"n{qid} -= 1")
            if self.stats:
                w.emit(f"st_disc[{p}] += 1")
                w.emit(f"st_dp[{p}][{port!r}] += 1")

    def _shell_body(self, p: int) -> None:
        # A relaxed shell without an oracle override requires every port, so
        # it fires exactly like a strict one (and can never see a stale
        # token); its body is the plain WP1 guard.
        if self.relaxed and self.req_ovr[p]:
            self._body_wp2(p)
        elif self.stats:
            self._body_wp1_stats(p)
        else:
            self._body_wp1(p)

    def _free_expr(self, p: int) -> str:
        """Whether every output channel of *p* can take a launch."""
        return " and ".join(f"x{c} & 1" for c in self.layout.out_chans[p])

    def _body_wp1(self, p: int) -> None:
        """WP1 uninstrumented: the whole guard is one ``and`` chain.

        A WP1 shell pops one token per port per firing, so a non-empty FIFO's
        head always carries the current tag — availability is truthiness.
        """
        w = self.w
        conds = [f"n{qid}" for qid in self.layout.in_qids[p]]
        conds += [f"x{c} & 1" for c in self.layout.out_chans[p]]
        if conds:
            w.emit(f"if {' and '.join(conds)}:")
            with _Block(w):
                self._fire(p)
        else:
            self._fire(p)

    def _body_wp1_stats(self, p: int) -> None:
        """WP1 instrumented: per-port missing counters, then blocked, then fire."""
        w = self.w
        layout = self.layout
        ports = layout.in_ports[p]
        qids = layout.in_qids[p]
        outs = self.layout.out_chans[p]

        if ports:
            w.emit("_m = False")
            for port, qid in zip(ports, qids):
                w.emit(f"if not n{qid}:")
                with _Block(w):
                    w.emit("_m = True")
                    w.emit(f"st_mp[{p}][{port!r}] += 1")
            w.emit("if _m:")
            with _Block(w):
                w.emit(f"st_missing[{p}] += 1")
            if outs:
                w.emit(f"elif not ({self._free_expr(p)}):")
                with _Block(w):
                    w.emit(f"st_blocked[{p}] += 1")
            w.emit("else:")
            with _Block(w):
                self._fire(p)
        elif outs:
            w.emit(f"if not ({self._free_expr(p)}):")
            with _Block(w):
                w.emit(f"st_blocked[{p}] += 1")
            w.emit("else:")
            with _Block(w):
                self._fire(p)
        else:
            self._fire(p)

    def _body_wp2(self, p: int) -> None:
        """WP2: oracle consultation, stale discard on every FIFO, then fire."""
        w = self.w
        layout = self.layout
        ports = layout.in_ports[p]
        qids = layout.in_qids[p]
        stats = self.stats

        w.emit(f"_t = f{p}")
        if self.replay:
            # The trace's bitmask over the input ports, validated when it
            # was recorded; indexing past its end leaves the row.
            w.emit(f"_req = O{p}[{self._pos(p)}]")
        else:
            w.emit(f"_req = p{p}_req()")
        if ports:
            if not self.replay:
                w.emit("if _req is None:")
                with _Block(w):
                    w.emit(f"_req = PORTS{p}")
                w.emit(f"elif not (_req <= PORTS{p}):")
                with _Block(w):
                    w.emit(f"_unknown(p{p}.name, _req, PORTS{p})")
            w.emit("_m = False")
            for bit, (port, qid) in enumerate(zip(ports, qids)):
                # The scan runs on every FIFO (never stops early) so the
                # occupancies latched next cycle match the reference.
                self._discard_stale(p, port, qid)
                w.emit(f"if not n{qid}:")
                with _Block(w):
                    if self.replay:
                        w.emit(f"if _req & {1 << bit}:")
                    else:
                        w.emit(f"if {port!r} in _req:")
                    with _Block(w):
                        w.emit("_m = True")
                        if stats:
                            w.emit(f"st_mp[{p}][{port!r}] += 1")
            w.emit("if _m:")
            with _Block(w):
                w.emit(f"st_missing[{p}] += 1" if stats else "pass")
            w.emit("else:")
            with _Block(w):
                self._blocked_and_fire(p)
        else:
            if not self.replay:
                w.emit(f"if _req is not None and not (_req <= PORTS{p}):")
                with _Block(w):
                    w.emit(f"_unknown(p{p}.name, _req, PORTS{p})")
            self._blocked_and_fire(p)

    def _blocked_and_fire(self, p: int) -> None:
        w = self.w
        if not self.layout.out_chans[p]:
            self._fire(p)
            return
        if self.stats:
            w.emit(f"if not ({self._free_expr(p)}):")
            with _Block(w):
                w.emit(f"st_blocked[{p}] += 1")
            w.emit("else:")
        else:
            w.emit(f"if {self._free_expr(p)}:")
        with _Block(w):
            self._fire(p)

    def _fire(self, p: int) -> None:
        if self.replay:
            self._replay_fire(p)
            return
        w = self.w
        layout = self.layout
        ports = layout.in_ports[p]
        qids = layout.in_qids[p]

        if self.relaxed and self.req_ovr[p]:
            # WP2 consumes the ports whose current-tag token already arrived:
            # after the stale scan a non-empty FIFO's head holds exactly the
            # current tag.
            items = ", ".join(f"{port!r}: None" for port in ports)
            w.emit(f"_in = {{{items}}}")
            for port, qid in zip(ports, qids):
                w.emit(f"if n{qid}:")
                with _Block(w):
                    w.emit(f"_in[{port!r}] = q{qid}_pop()")
                    w.emit(f"g{qid} += 1")
                    w.emit(f"n{qid} -= 1")
            w.emit(f"_out = p{p}_fire(_in)")
        else:
            # WP1 consumes every port (all verified ready by the guards above).
            items = ", ".join(
                f"{port!r}: q{qid}_pop()" for port, qid in zip(ports, qids)
            )
            w.emit(f"_out = p{p}_fire({{{items}}})")
            for qid in qids:
                w.emit(f"n{qid} -= 1")
        w.emit(f"if _out.keys() != OUT{p}:")
        with _Block(w):
            w.emit(f"_mismatch(p{p}, _out)")
        w.emit(f"f{p} = _nt = f{p} + 1")
        if self.stop_mode == STOP_TARGET:
            w.emit(f"fir[{p}] = _nt")
        w.emit(f"p{p}.firings = _nt")
        for port, cids in layout.out_ports[p]:
            w.emit(f"_v = _out[{port!r}]")
            if self.tracing:
                w.emit("_tok = Token(value=_v, tag=_nt)")
            for c in cids:
                if self.tracing:
                    w.emit(f"_e[{c}] = _tok")
                w.emit(f"R{c}_ap(_v)")
                w.emit(f"x{c} += P{c}")
        w.emit("fired_any = True")

    def _replay_fire(self, p: int) -> None:
        """A replayed firing: counters and chain launches, no values.

        The consumed tokens and the launches are the full firing's (see
        :meth:`_fire`); only ``fire`` itself and the values it would have
        read and produced are gone.
        """
        w = self.w
        qids = self.layout.in_qids[p]
        if self.relaxed and self.req_ovr[p]:
            for qid in qids:
                w.emit(f"if n{qid}:")
                with _Block(w):
                    w.emit(f"g{qid} += 1")
                    w.emit(f"n{qid} -= 1")
        else:
            for qid in qids:
                w.emit(f"n{qid} -= 1")
        w.emit(f"f{p} += 1")
        if p in self.pos_procs:
            w.emit(f"o{p} += 1")
            w.emit(f"if o{p} == _end:")
            with _Block(w):
                w.emit(f"o{p} = _loop")
        if self.stop_mode == STOP_TARGET:
            w.emit(f"fir[{p}] = f{p}")
        for c in self.layout.out_chans[p]:
            w.emit(f"x{c} += P{c}")
        w.emit("fired_any = True")


def generate_run_source(
    model: ElaboratedModel,
    instruments: InstrumentSet,
    stop_mode: int = STOP_PROCESS,
    steady: bool = False,
    horizon: bool = False,
    certification: Optional[Tuple[List[int], bool]] = None,
    replay: int = False,
) -> str:
    """Emit the source of the shape-specialized run function for *model*."""
    return _Generator(
        model, instruments, stop_mode, steady, horizon, certification, replay
    ).generate()


# -- replay ---------------------------------------------------------------------

class TraceExhausted(IndexError):
    """A replayed row needed an answer past the end of its firing trace.

    An ``IndexError`` because reading an oracle answer past the trace's end
    raises one too: the compiled kernel catches both and runs the row again
    in full.
    """


def _trace_exhausted() -> None:
    raise TraceExhausted("the firing trace ended before the row did")


def replay_binding(model: ElaboratedModel, trace) -> Optional[Tuple]:
    """The per-run data a replay-layout run reads from *trace*.

    ``(oracle answers, done thresholds, done known, loop start, loop end)``:
    per process the trace's interned oracle answers by trace index; the
    index at which the process is done (one past the trace's firings when
    the trace never saw it done, with *known* False, so reaching it leaves
    the row); and whether that index is known.  A looped trace's positions
    wrap from ``loop end`` (its firings) back to ``loop start``, so they
    never reach an unknown done index; a trace that ends has no loop (both
    None).  *trace* is a :class:`~repro.core.golden.FiringTrace`.  Returns
    None when the trace was recorded on another netlist: its
    :attr:`~repro.core.netlist.Netlist.identity` differs from this model's.
    """
    if trace.netlist_identity != model.netlist.identity:
        return None
    hooks = layout_shape(model.layout).key[-1]
    looped = trace.loop_start is not None
    done: List[int] = []
    known: List[bool] = []
    for p, (done_ovr, _, _) in enumerate(hooks):
        at = trace.done_at[p]
        # Without an is_done override the flag is constantly False (the
        # generated code never reads its threshold).
        done.append(trace.firings + 1 if at is None else at)
        known.append(at is not None or not done_ovr or looped)
    end = trace.firings if looped else None
    return trace.oracle, done, known, trace.loop_start, end


def _base_namespace(shape: _Shape) -> dict:
    """Structural constants and helpers the generated code closes over."""
    namespace = {
        "__builtins__": __builtins__,
        "deque": deque,
        "_dd": defaultdict,
        "Token": Token,
        "VOID": VOID,
        "SimulationError": SimulationError,
        "_mismatch": raise_output_mismatch,
        "_unknown": _raise_unknown_ports,
        "_deadlock": _raise_deadlock,
        "_sample_chain": _sample_chain,
        "_ss_skip": periods_to_skip,
        "_ss_sj": stats_jump,
        "_ss_fin": finish_from_history,
        "_miss": _trace_exhausted,
    }
    in_ports, out_ports = shape.key[:2]
    for p, (ports, outputs) in enumerate(zip(in_ports, out_ports)):
        namespace[f"OUT{p}"] = frozenset(outputs)
        namespace[f"PORTS{p}"] = frozenset(ports)
    return namespace


_code_cache: "OrderedDict[Tuple, Callable]" = OrderedDict()
_code_lock = threading.Lock()


def _reset_lock_after_fork() -> None:
    # A fork taken while another thread held the lock must not leave the
    # child's cache locked forever.
    global _code_lock
    _code_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_lock_after_fork)


def code_cache_size() -> int:
    """Number of compiled run functions currently cached."""
    with _code_lock:
        return len(_code_cache)


def clear_code_cache() -> None:
    """Drop every cached run function (the next runs compile again)."""
    with _code_lock:
        _code_cache.clear()


def compiled_run_fn(
    model: ElaboratedModel,
    instruments: InstrumentSet,
    stop_mode: int = STOP_PROCESS,
    steady: bool = False,
    horizon: bool = False,
    certification: Optional[Tuple[List[int], bool]] = None,
    replay: int = False,
) -> Callable:
    """The compiled run function for *model*, generated and cached on demand.

    The cache is process-wide and keyed by :func:`model_signature`, so every
    RS vector, capacity and fresh layout of one netlist shape shares one
    function; call it with :func:`run_binding` of the model (and, for the
    *replay* layout, :func:`replay_binding` of the replayed trace).  A
    caller that already classified the model passes *certification* (its
    :func:`certify_model` answer) so the processes' ``schedule_state()``
    is not sampled again.  Two threads missing on the same key may both
    compile; the first insert wins.
    """
    key = model_signature(
        model, instruments, stop_mode, steady, horizon, certification, replay
    )
    with _code_lock:
        fn = _code_cache.get(key)
        if fn is not None:
            _code_cache.move_to_end(key)
            return fn
    source = generate_run_source(
        model, instruments, stop_mode, steady, horizon,
        certification=certification, replay=replay,
    )
    code = compile(source, "<lid-codegen>", "exec")
    namespace = _base_namespace(layout_shape(model.layout))
    exec(code, namespace)
    fn = namespace[ENTRY_POINT]
    fn.__lid_source__ = source  # kept for tests and debugging
    with _code_lock:
        fn = _code_cache.setdefault(key, fn)
        _code_cache.move_to_end(key)
        while len(_code_cache) > CODE_CACHE_SIZE:
            _code_cache.popitem(last=False)
    return fn
