"""Generators for the netlist topology zoo.

Every generator returns a :class:`GeneratedTopology`.  Two rules keep the
generated netlists first-class citizens of the whole stack:

* **Everything is picklable.**  Process transitions are module-level
  callable classes (no closures), so a generated netlist can ride the
  spawn-safe batch pool, the evaluation service's content-addressed cache
  and the distributed worker protocol exactly like the CPU case study.
* **Every channel carries an initial token.**  A marked graph is live iff
  every cycle holds at least one token; giving each channel its reset
  value (the registered-wire semantics of the golden system) guarantees
  liveness for any generated shape, cyclic or not.

Generators are sized for block-level netlists (tens of processes): the
attached :class:`TopologyInfo` enumerates simple cycles for the loop
bound, which is exponential on large dense graphs.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from fractions import Fraction
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.channel import Channel
from ..core.exceptions import NetlistError
from ..core.netlist import Netlist
from ..core.process import (
    CounterSource,
    FunctionProcess,
    Process,
    SinkProcess,
)
from ..core.static_analysis import GraphMetrics, graph_metrics, throughput_bound

_MOD = 1000003
_OUT_MOD = 65521


class _Mix:
    """Deterministic integer state machine mixing all inputs into all outputs.

    A module-level callable class (not a closure) so function processes
    built from it pickle cleanly into worker pools.  ``salt`` makes every
    process of a topology behave differently; outputs differ per port.
    """

    def __init__(self, salt: int, out_ports: Sequence[str]) -> None:
        self.salt = int(salt)
        self.out_ports = tuple(out_ports)

    def __call__(self, state, inputs):
        acc = ((0 if state is None else int(state)) * 31 + self.salt) % _MOD
        for port in sorted(inputs):
            value = inputs[port]
            acc = (acc * 17 + (0 if value is None else int(value) + 1)) % _MOD
        return acc, {
            port: (acc + index) % _OUT_MOD
            for index, port in enumerate(self.out_ports)
        }


class _RotatingOracle:
    """WP2 oracle releasing a rotating subset of the input ports.

    Mirrors the property-test oracle, but reads only the firing step (the
    first element of a :class:`_RotatingMix` state), never the mixed
    value, so the schedule evolves independently of token values as
    :class:`FunctionProcess` requires of its ``schedule_state``.
    """

    def __init__(self, ports: Sequence[str], period: int) -> None:
        self.ports = tuple(ports)
        self.period = int(period)

    def required(self, step: int) -> FrozenSet[str]:
        return frozenset(
            port
            for index, port in enumerate(self.ports)
            if (step + index) % self.period != 0
        )

    def __call__(self, state):
        return self.required(state[0])


class _RotatingMix:
    """:class:`_Mix` behind a :class:`_RotatingOracle`.

    The state is ``(step, acc)``: ``step`` counts firings modulo the oracle
    period and alone decides the required ports; ``acc`` folds only those
    ports, the only ones whose tokens a WP2 shell must deliver, so every
    firing sees the inputs it saw in the golden system.
    """

    def __init__(self, mix: _Mix, oracle: _RotatingOracle) -> None:
        self.mix = mix
        self.oracle = oracle

    def __call__(self, state, inputs):
        step, acc = state
        required = self.oracle.required(step)
        acc, outputs = self.mix(
            acc, {port: value for port, value in inputs.items() if port in required}
        )
        return ((step + 1) % self.oracle.period, acc), outputs


def _schedule_step(state):
    """Schedule-state projection for oracle processes: the firing step."""
    return state[0]


def _mix_process(
    name: str,
    salt: int,
    inputs: Sequence[str],
    outputs: Sequence[str],
    oracle: Optional[_RotatingOracle] = None,
) -> FunctionProcess:
    if oracle is None:
        transition, initial_state, schedule_state = _Mix(salt, outputs), salt, None
    else:
        transition = _RotatingMix(_Mix(salt, outputs), oracle)
        initial_state, schedule_state = (0, salt), _schedule_step
    return FunctionProcess(
        name=name,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        transition=transition,
        initial_state=initial_state,
        oracle=oracle,
        schedule_state=schedule_state,
    )


# ---------------------------------------------------------------------------
# Result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TopologyInfo:
    """Graph-theoretic metadata attached to every generated topology."""

    name: str
    kind: str
    metrics: GraphMetrics
    #: Static WP1 throughput bound ``min over loops of m/(m+n)`` under the
    #: generated relay-station assignment (``1`` for loop-free shapes).
    loop_bound: Fraction
    #: Generator parameters, in stable order (reproducibility record).
    params: Tuple[Tuple[str, Any], ...] = ()

    def describe(self) -> str:
        bound = self.loop_bound
        lines = [
            f"topology {self.name!r} (kind {self.kind}): {self.metrics.describe()}",
            f"  loop bound: {bound.numerator}/{bound.denominator}"
            f" = {float(bound):.4f}",
        ]
        if self.params:
            rendered = ", ".join(f"{key}={value!r}" for key, value in self.params)
            lines.append(f"  params: {rendered}")
        return "\n".join(lines)


@dataclass
class GeneratedTopology:
    """A ready-to-elaborate netlist plus its relay stations and metadata."""

    netlist: Netlist
    rs_counts: Dict[str, int]
    info: TopologyInfo
    #: Process whose ``is_done`` terminates a run, when the shape has one
    #: (chains/DAG shapes driven by a limited source).  ``None`` means runs
    #: are bounded by ``horizon`` / ``max_cycles`` instead.
    stop_process: Optional[str] = None
    #: Representative process whose firings/cycle is the shape's throughput.
    probe_process: str = ""

    def describe(self) -> str:
        return "\n".join([self.info.describe(), self.netlist.describe()])

    def counts_with_depth(self, depth: int) -> Dict[str, int]:
        """The baseline RS counts plus *depth* on every channel of every link."""
        counts = dict(self.rs_counts)
        for link in self.netlist.link_names():
            for chan in self.netlist.channels_of_link(link):
                counts[chan.name] = counts.get(chan.name, 0) + depth
        return counts


def _finish(
    kind: str,
    name: str,
    netlist: Netlist,
    rs_counts: Dict[str, int],
    stop_process: Optional[str],
    probe_process: str,
    params: Dict[str, Any],
) -> GeneratedTopology:
    info = TopologyInfo(
        name=name,
        kind=kind,
        metrics=graph_metrics(netlist),
        loop_bound=throughput_bound(netlist, rs_counts=rs_counts).bound,
        params=tuple(sorted(params.items())),
    )
    return GeneratedTopology(
        netlist=netlist,
        rs_counts=rs_counts,
        info=info,
        stop_process=stop_process,
        probe_process=probe_process,
    )


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def chain_topology(
    stages: int = 4,
    rs_per_hop: int = 1,
    source_limit: Optional[int] = 64,
    name: Optional[str] = None,
) -> GeneratedTopology:
    """A linear relay chain: limited counter source → mixers → sink."""
    if stages < 1:
        raise NetlistError("a chain needs at least one stage")
    processes: List[Process] = [CounterSource("src", limit=source_limit)]
    processes += [
        _mix_process(f"s{index}", salt=index + 1, inputs=("in",), outputs=("out",))
        for index in range(1, stages + 1)
    ]
    processes.append(SinkProcess("sink"))
    hops = ["src"] + [f"s{index}" for index in range(1, stages + 1)] + ["sink"]
    channels = [
        Channel(
            name=f"c{index}",
            source=hops[index],
            source_port="out",
            dest=hops[index + 1],
            dest_port="in",
            initial=0,
        )
        for index in range(len(hops) - 1)
    ]
    rs_counts = {chan.name: int(rs_per_hop) for chan in channels}
    return _finish(
        "chain",
        name or f"chain-{stages}",
        Netlist(processes, channels, name=name or f"chain-{stages}"),
        rs_counts,
        stop_process="src" if source_limit is not None else None,
        probe_process="sink",
        params={
            "stages": stages,
            "rs_per_hop": rs_per_hop,
            "source_limit": source_limit,
        },
    )


def ring_topology(
    stages: int = 6,
    rs_total: int = 2,
    name: Optional[str] = None,
) -> GeneratedTopology:
    """A single loop of mixers: the pure ``m/(m+n)`` throughput shape."""
    if stages < 1:
        raise NetlistError("a ring needs at least one stage")
    processes: List[Process] = [
        _mix_process(f"stage{index}", salt=index, inputs=("in",), outputs=("out",))
        for index in range(stages)
    ]
    channels: List[Channel] = []
    rs_counts: Dict[str, int] = {}
    base, extra = divmod(int(rs_total), stages)
    for index in range(stages):
        nxt = (index + 1) % stages
        chan = Channel(
            name=f"c{index}_{nxt}",
            source=f"stage{index}",
            source_port="out",
            dest=f"stage{nxt}",
            dest_port="in",
            initial=0,
        )
        channels.append(chan)
        rs_counts[chan.name] = base + (1 if index < extra else 0)
    return _finish(
        "ring",
        name or f"ring-{stages}",
        Netlist(processes, channels, name=name or f"ring-{stages}"),
        rs_counts,
        stop_process=None,
        probe_process="stage0",
        params={"stages": stages, "rs_total": rs_total},
    )


def dag_topology(
    width: int = 3,
    depth: int = 2,
    rs_per_hop: int = 1,
    source_limit: Optional[int] = 64,
    name: Optional[str] = None,
) -> GeneratedTopology:
    """Fan-out / fan-in DAG: one split port feeding *width* parallel branches.

    The split drives every branch head from a **single output port** (true
    output fan-out, one port, many channels); the combiner joins *width*
    input ports back into one stream.  Each branch is *depth* mixers deep
    with branch-distinct salts, so the combiner sees genuinely different
    token streams.
    """
    if width < 1 or depth < 1:
        raise NetlistError("a DAG needs width >= 1 and depth >= 1")
    processes: List[Process] = [CounterSource("src", limit=source_limit)]
    processes.append(
        _mix_process("split", salt=1, inputs=("in",), outputs=("out",))
    )
    channels = [
        Channel(
            name="c_src_split",
            source="src",
            source_port="out",
            dest="split",
            dest_port="in",
            initial=0,
        )
    ]
    combiner_inputs = tuple(f"i{branch}" for branch in range(width))
    for branch in range(width):
        previous, prev_port = "split", "out"
        for step in range(depth):
            node = f"b{branch}_{step}"
            processes.append(
                _mix_process(
                    node,
                    salt=10 + branch * depth + step,
                    inputs=("in",),
                    outputs=("out",),
                )
            )
            channels.append(
                Channel(
                    name=f"c_{previous}_{node}",
                    source=previous,
                    source_port=prev_port,
                    dest=node,
                    dest_port="in",
                    initial=0,
                )
            )
            previous, prev_port = node, "out"
        channels.append(
            Channel(
                name=f"c_{previous}_join",
                source=previous,
                source_port="out",
                dest="join",
                dest_port=f"i{branch}",
                initial=0,
            )
        )
    processes.append(
        _mix_process("join", salt=5, inputs=combiner_inputs, outputs=("out",))
    )
    processes.append(SinkProcess("sink"))
    channels.append(
        Channel(
            name="c_join_sink",
            source="join",
            source_port="out",
            dest="sink",
            dest_port="in",
            initial=0,
        )
    )
    rs_counts = {chan.name: int(rs_per_hop) for chan in channels}
    return _finish(
        "dag",
        name or f"dag-{width}x{depth}",
        Netlist(processes, channels, name=name or f"dag-{width}x{depth}"),
        rs_counts,
        stop_process="src" if source_limit is not None else None,
        probe_process="sink",
        params={
            "width": width,
            "depth": depth,
            "rs_per_hop": rs_per_hop,
            "source_limit": source_limit,
        },
    )


def mesh_topology(
    rows: int = 3,
    cols: int = 3,
    torus: bool = False,
    rs_per_hop: int = 0,
    source_limit: Optional[int] = 64,
    name: Optional[str] = None,
) -> GeneratedTopology:
    """A 2D NoC-style nearest-neighbour mesh, acyclic or wrapped to a torus.

    *Acyclic mesh*: node ``(r, c)`` receives from its north and west
    neighbours and drives east and south; the origin is a limited counter
    source (its one port fans out east **and** south) and the far corner
    drains into a sink.  The shape is a DAG — every loop bound is 1.

    *Torus* (``torus=True``): every node is a 2-in/2-out mixer and every
    row and column wraps around, putting each node on many overlapping
    loops — the stress shape for SCC-aware layouts and steady-state
    snapshots.  Runs are bounded by ``horizon``/``max_cycles``.
    """
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise NetlistError("a mesh needs at least two nodes")
    if torus and (rows < 2 or cols < 2):
        raise NetlistError("a torus needs rows >= 2 and cols >= 2")

    def node(r: int, c: int) -> str:
        return f"n{r}_{c}"

    processes: List[Process] = []
    channels: List[Channel] = []
    if torus:
        for r in range(rows):
            for c in range(cols):
                processes.append(
                    _mix_process(
                        node(r, c),
                        salt=r * cols + c,
                        inputs=("w", "n"),
                        outputs=("e", "s"),
                    )
                )
        for r in range(rows):
            for c in range(cols):
                channels.append(
                    Channel(
                        name=f"e_{r}_{c}",
                        source=node(r, c),
                        source_port="e",
                        dest=node(r, (c + 1) % cols),
                        dest_port="w",
                        initial=0,
                    )
                )
                channels.append(
                    Channel(
                        name=f"s_{r}_{c}",
                        source=node(r, c),
                        source_port="s",
                        dest=node((r + 1) % rows, c),
                        dest_port="n",
                        initial=0,
                    )
                )
        stop: Optional[str] = None
        probe = node(0, 0)
    else:
        for r in range(rows):
            for c in range(cols):
                if r == 0 and c == 0:
                    processes.append(CounterSource(node(0, 0), limit=source_limit))
                    continue
                inputs = [p for p, ok in (("n", r > 0), ("w", c > 0)) if ok]
                outputs = [
                    p for p, ok in (("e", c < cols - 1), ("s", r < rows - 1)) if ok
                ]
                if r == rows - 1 and c == cols - 1:
                    outputs.append("out")
                processes.append(
                    _mix_process(
                        node(r, c), salt=r * cols + c, inputs=inputs, outputs=outputs
                    )
                )
        processes.append(SinkProcess("sink"))
        for r in range(rows):
            for c in range(cols):
                src_port_e = "out" if (r, c) == (0, 0) else "e"
                src_port_s = "out" if (r, c) == (0, 0) else "s"
                if c < cols - 1:
                    channels.append(
                        Channel(
                            name=f"e_{r}_{c}",
                            source=node(r, c),
                            source_port=src_port_e,
                            dest=node(r, c + 1),
                            dest_port="w",
                            initial=0,
                        )
                    )
                if r < rows - 1:
                    channels.append(
                        Channel(
                            name=f"s_{r}_{c}",
                            source=node(r, c),
                            source_port=src_port_s,
                            dest=node(r + 1, c),
                            dest_port="n",
                            initial=0,
                        )
                    )
        channels.append(
            Channel(
                name="c_drain",
                source=node(rows - 1, cols - 1),
                source_port="out",
                dest="sink",
                dest_port="in",
                initial=0,
            )
        )
        stop = node(0, 0) if source_limit is not None else None
        probe = "sink"

    rs_counts = {chan.name: int(rs_per_hop) for chan in channels}
    kind = "torus" if torus else "mesh"
    default_name = f"{kind}-{rows}x{cols}"
    return _finish(
        kind,
        name or default_name,
        Netlist(processes, channels, name=name or default_name),
        rs_counts,
        stop_process=stop,
        probe_process=probe,
        params={
            "rows": rows,
            "cols": cols,
            "torus": torus,
            "rs_per_hop": rs_per_hop,
            "source_limit": source_limit,
        },
    )


def marked_graph_topology(
    loop_lengths: Sequence[int] = (3, 4),
    rs_per_loop: Union[int, Sequence[int]] = 1,
    name: Optional[str] = None,
) -> GeneratedTopology:
    """Several loops of chosen lengths sharing one hub process.

    The minimal "loops interact" cyclic marked graph: the hub fires only
    when **every** loop returns a token, so the slowest loop (smallest
    ``m/(m+n)``) throttles all of them — the paper's system bound as a
    direct experiment.  Loop *i*'s relay stations all sit on its first
    channel (placement inside a loop does not change the bound).
    """
    lengths = [int(length) for length in loop_lengths]
    if not lengths or any(length < 1 for length in lengths):
        raise NetlistError("loop_lengths must be non-empty positive integers")
    if isinstance(rs_per_loop, int):
        rs_list = [rs_per_loop] * len(lengths)
    else:
        rs_list = [int(count) for count in rs_per_loop]
        if len(rs_list) != len(lengths):
            raise NetlistError("rs_per_loop must match loop_lengths in length")

    hub_inputs = tuple(f"ret{index}" for index in range(len(lengths)))
    hub_outputs = tuple(f"go{index}" for index in range(len(lengths)))
    processes: List[Process] = [
        _mix_process("hub", salt=0, inputs=hub_inputs, outputs=hub_outputs)
    ]
    channels: List[Channel] = []
    rs_counts: Dict[str, int] = {}
    for index, length in enumerate(lengths):
        previous, prev_port = "hub", f"go{index}"
        for step in range(length - 1):
            stage = f"l{index}_{step}"
            processes.append(
                _mix_process(
                    stage,
                    salt=100 + index * 50 + step,
                    inputs=("in",),
                    outputs=("out",),
                )
            )
            chan = Channel(
                name=f"c_{previous}_{stage}",
                source=previous,
                source_port=prev_port,
                dest=stage,
                dest_port="in",
                initial=0,
            )
            channels.append(chan)
            rs_counts[chan.name] = rs_list[index] if step == 0 else 0
            previous, prev_port = stage, "out"
        back = Channel(
            name=f"c_{previous}_hub{index}",
            source=previous,
            source_port=prev_port,
            dest="hub",
            dest_port=f"ret{index}",
            initial=0,
        )
        channels.append(back)
        # A length-1 loop is the hub's self-loop: its RS land here instead.
        rs_counts[back.name] = rs_list[index] if length == 1 else 0

    default_name = "marked-" + "x".join(str(length) for length in lengths)
    return _finish(
        "marked",
        name or default_name,
        Netlist(processes, channels, name=name or default_name),
        rs_counts,
        stop_process=None,
        probe_process="hub",
        params={
            "loop_lengths": tuple(lengths),
            "rs_per_loop": tuple(rs_list),
        },
    )


def random_topology(
    seed: int = 0,
    n_processes: int = 6,
    extra_channels: int = 2,
    allow_cycles: bool = True,
    with_oracles: bool = False,
    rs_limit: int = 3,
    name: Optional[str] = None,
) -> GeneratedTopology:
    """A seeded random netlist mixing fan-out, fan-in and optional cycles.

    A spanning backbone guarantees weak connectivity (process ``k > 0``
    draws its first input from an earlier process); ``extra_channels``
    additional input ports land on random processes with sources drawn
    from anywhere (``allow_cycles``) or strictly earlier (DAG mode).
    ``with_oracles`` sprinkles rotating-subset WP2 oracles over multi-input
    processes.  Identical seeds reproduce identical topologies.
    """
    if n_processes < 1:
        raise NetlistError("need at least one process")
    rng = _random.Random(int(seed))
    n_outs = [rng.randint(1, 2) for _ in range(n_processes)]
    in_ports: List[List[str]] = [[] for _ in range(n_processes)]
    edges: List[Tuple[int, int, str, str]] = []  # (src, dest, src_port, dest_port)

    for dest in range(1, n_processes):
        src = rng.randrange(dest)
        port = f"i{len(in_ports[dest])}"
        in_ports[dest].append(port)
        edges.append((src, dest, f"o{rng.randrange(n_outs[src])}", port))
    for _ in range(max(0, int(extra_channels))):
        dest = rng.randrange(n_processes)
        if allow_cycles:
            src = rng.randrange(n_processes)
        else:
            if dest == 0:
                continue  # DAG mode: process 0 accepts no inputs
            src = rng.randrange(dest)
        port = f"i{len(in_ports[dest])}"
        in_ports[dest].append(port)
        edges.append((src, dest, f"o{rng.randrange(n_outs[src])}", port))

    processes: List[Process] = []
    for index in range(n_processes):
        ports = tuple(in_ports[index])
        oracle = None
        if with_oracles and ports and rng.random() < 0.5:
            oracle = _RotatingOracle(ports, period=rng.randint(2, 3))
        processes.append(
            _mix_process(
                f"p{index}",
                salt=index,
                inputs=ports,
                outputs=tuple(f"o{k}" for k in range(n_outs[index])),
                oracle=oracle,
            )
        )
    channels: List[Channel] = []
    rs_counts: Dict[str, int] = {}
    for cid, (src, dest, src_port, dest_port) in enumerate(edges):
        chan = Channel(
            name=f"c{cid}",
            source=f"p{src}",
            source_port=src_port,
            dest=f"p{dest}",
            dest_port=dest_port,
            initial=rng.randint(0, 5),
        )
        channels.append(chan)
        rs_counts[chan.name] = rng.randint(0, max(0, int(rs_limit)))

    default_name = f"random-{seed}"
    return _finish(
        "random",
        name or default_name,
        Netlist(processes, channels, name=name or default_name),
        rs_counts,
        stop_process=None,
        probe_process="p0",
        params={
            "seed": seed,
            "n_processes": n_processes,
            "extra_channels": extra_channels,
            "allow_cycles": allow_cycles,
            "with_oracles": with_oracles,
            "rs_limit": rs_limit,
        },
    )


#: Kind name → generator, the registry behind ``make_topology`` and the CLI.
TOPOLOGY_KINDS: Dict[str, Callable[..., GeneratedTopology]] = {
    "chain": chain_topology,
    "ring": ring_topology,
    "dag": dag_topology,
    "mesh": mesh_topology,
    "torus": lambda **kwargs: mesh_topology(torus=True, **kwargs),
    "marked": marked_graph_topology,
    "random": random_topology,
}


def make_topology(kind: str, **params: Any) -> GeneratedTopology:
    """Build a topology by kind name (the CLI / sweep dispatcher)."""
    try:
        generator = TOPOLOGY_KINDS[kind]
    except KeyError:
        known = ", ".join(sorted(TOPOLOGY_KINDS))
        raise NetlistError(f"unknown topology kind {kind!r} (known: {known})") from None
    return generator(**params)
