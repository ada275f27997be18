"""Block-level netlists: processes plus the channels that connect them.

The :class:`Netlist` is the central structural object of the library.  It is
shared by the golden simulator, the latency-insensitive simulator, the static
throughput analysis, the relay-station optimiser and the area model, so it
performs fairly strict validation on construction:

* process names are unique;
* every channel endpoint references an existing process and a declared port;
* every input port of every process is driven by exactly one channel
  (outputs may fan out to multiple channels, or be left dangling — a dangling
  output is legal and simply unobserved).
"""

from __future__ import annotations

import hashlib
import itertools
import pickle
from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import networkx as nx

from .channel import Channel
from .exceptions import NetlistError
from .process import Process


#: Tokens for netlists that cannot be pickled: unique per object, never reused.
_OBJECT_TOKENS = itertools.count()


def _port_channel_map() -> "defaultdict[str, List[Channel]]":
    """Module-level factory so netlists stay picklable (no lambda closures).

    Spawn-safe batch evaluation (:mod:`repro.engine.batch`) ships whole
    netlists to worker processes by pickle; a ``defaultdict(lambda: ...)``
    default factory would make every netlist unpicklable.
    """
    return defaultdict(list)


def canonical_cycle(cycle: List[str]) -> List[str]:
    """*cycle* rotated to start at its smallest process name.

    networkx's ``simple_cycles`` picks each cycle's rotation by set
    iteration order, which moves with the hash seed.
    """
    first = cycle.index(min(cycle))
    return cycle[first:] + cycle[:first]


class Netlist:
    """A set of processes connected by point-to-point channels.

    ``identity`` names the netlist as it was built (:meth:`_identify`):
    build a new netlist rather than edit a process' initial state, program
    or memory image in place after construction.
    """

    #: The :class:`~repro.core.golden.FiringTrace` its latest golden run left
    #: (None: no run yet, or unrecordable); not part of ``identity`` (DESIGN.md §3).
    firing_trace = None

    def __init__(
        self,
        processes: Iterable[Process],
        channels: Iterable[Channel],
        name: str = "netlist",
    ) -> None:
        self.name = name
        self._processes: Dict[str, Process] = {}
        for process in processes:
            if process.name in self._processes:
                raise NetlistError(f"duplicate process name {process.name!r}")
            self._processes[process.name] = process

        self._channels: Dict[str, Channel] = {}
        for chan in channels:
            if chan.name in self._channels:
                raise NetlistError(f"duplicate channel name {chan.name!r}")
            self._channels[chan.name] = chan

        self._inputs_of: Dict[str, Dict[str, Channel]] = defaultdict(dict)
        self._outputs_of: Dict[str, Dict[str, List[Channel]]] = defaultdict(
            _port_channel_map
        )
        self._validate()
        self.identity, self.content_addressed = self._identify()

    # -- construction helpers ------------------------------------------------
    def _identify(self) -> Tuple[str, bool]:
        """The netlist's one identity, fixed once it is built.

        For a netlist that pickles, the sha256 of that pickle: it covers
        every process with its program and initial state, the channels and
        their initial tokens, so a rebuilt twin gets the same identity.
        Runs never change it, although they mutate the processes.  Result
        cache keys, service layout names, the worker agents' runner cache
        and every :class:`~repro.core.golden.FiringTrace` read it.  A
        netlist that cannot be pickled (closure processes) gets a token
        unique to this object instead, and ``content_addressed`` is False:
        it never aliases another netlist and is never cached.
        """
        try:
            return hashlib.sha256(pickle.dumps(self)).hexdigest(), True
        except Exception:  # whatever a process' pickling raises, build on
            return f"id{next(_OBJECT_TOKENS):010x}", False

    def _validate(self) -> None:
        for chan in self._channels.values():
            if chan.source not in self._processes:
                raise NetlistError(
                    f"channel {chan.name!r} sources unknown process {chan.source!r}"
                )
            if chan.dest not in self._processes:
                raise NetlistError(
                    f"channel {chan.name!r} targets unknown process {chan.dest!r}"
                )
            src = self._processes[chan.source]
            dst = self._processes[chan.dest]
            if chan.source_port not in src.output_ports:
                raise NetlistError(
                    f"channel {chan.name!r}: process {src.name!r} has no output "
                    f"port {chan.source_port!r} (has {list(src.output_ports)})"
                )
            if chan.dest_port not in dst.input_ports:
                raise NetlistError(
                    f"channel {chan.name!r}: process {dst.name!r} has no input "
                    f"port {chan.dest_port!r} (has {list(dst.input_ports)})"
                )
            if chan.dest_port in self._inputs_of[chan.dest]:
                other = self._inputs_of[chan.dest][chan.dest_port]
                raise NetlistError(
                    f"input port {chan.dest!r}.{chan.dest_port!r} driven by both "
                    f"{other.name!r} and {chan.name!r}"
                )
            self._inputs_of[chan.dest][chan.dest_port] = chan
            self._outputs_of[chan.source][chan.source_port].append(chan)

        for process in self._processes.values():
            for port in process.input_ports:
                if port not in self._inputs_of[process.name]:
                    raise NetlistError(
                        f"input port {process.name!r}.{port!r} is not driven by any channel"
                    )

    # -- accessors -------------------------------------------------------------
    @property
    def processes(self) -> Mapping[str, Process]:
        """Mapping of process name to process object."""
        return dict(self._processes)

    @property
    def channels(self) -> Mapping[str, Channel]:
        """Mapping of channel name to channel object."""
        return dict(self._channels)

    def process(self, name: str) -> Process:
        """Return the process called *name*."""
        try:
            return self._processes[name]
        except KeyError:
            raise NetlistError(f"no process named {name!r}") from None

    def channel(self, name: str) -> Channel:
        """Return the channel called *name*."""
        try:
            return self._channels[name]
        except KeyError:
            raise NetlistError(f"no channel named {name!r}") from None

    def channel_names(self) -> List[str]:
        """Sorted list of channel names."""
        return sorted(self._channels)

    def process_names(self) -> List[str]:
        """Sorted list of process names."""
        return sorted(self._processes)

    def input_channels(self, process_name: str) -> Dict[str, Channel]:
        """Mapping ``input port -> channel`` for one process."""
        return dict(self._inputs_of.get(process_name, {}))

    def output_channels(self, process_name: str) -> Dict[str, List[Channel]]:
        """Mapping ``output port -> channels`` (fan-out list) for one process."""
        return {
            port: list(chans)
            for port, chans in self._outputs_of.get(process_name, {}).items()
        }

    def links(self) -> Dict[str, List[Channel]]:
        """Group channels by physical link label."""
        grouped: Dict[str, List[Channel]] = defaultdict(list)
        for chan in self._channels.values():
            grouped[chan.link_name].append(chan)
        return dict(grouped)

    def link_names(self) -> List[str]:
        """Sorted list of physical link labels."""
        return sorted(self.links())

    def channels_of_link(self, link: str) -> List[Channel]:
        """All channels belonging to one physical link label."""
        found = [c for c in self._channels.values() if c.link_name == link]
        if not found:
            raise NetlistError(f"no channel belongs to link {link!r}")
        return found

    def __iter__(self) -> Iterator[Process]:
        return iter(self._processes.values())

    def __contains__(self, name: str) -> bool:
        return name in self._processes or name in self._channels

    # -- graph views ------------------------------------------------------------
    def process_graph(
        self, rs_counts: Optional[Mapping[str, int]] = None
    ) -> nx.MultiDiGraph:
        """Directed multigraph with one node per process and one edge per channel.

        Edge attributes: ``channel`` (name), ``link``, ``rs`` (relay-station
        count, 0 when *rs_counts* is omitted or does not mention the channel).
        The static throughput analysis and the optimiser both operate on this
        view.
        """
        graph = nx.MultiDiGraph(name=self.name)
        graph.add_nodes_from(self._processes)
        for chan in self._channels.values():
            count = 0
            if rs_counts is not None:
                count = int(rs_counts.get(chan.name, 0))
            graph.add_edge(
                chan.source,
                chan.dest,
                key=chan.name,
                channel=chan.name,
                link=chan.link_name,
                rs=count,
            )
        return graph

    def simple_loops(self) -> List[List[str]]:
        """All simple cycles of the process graph (lists of process names).

        The figure 1 discussion ("the responsible of performance pitfalls are
        the netlist loops") is exactly this enumeration.  Each loop starts at
        its smallest process name (:func:`canonical_cycle`).
        """
        graph = nx.DiGraph()
        graph.add_nodes_from(self._processes)
        for chan in self._channels.values():
            graph.add_edge(chan.source, chan.dest)
        return [canonical_cycle(cycle) for cycle in nx.simple_cycles(graph)]

    #: Loops rendered by :meth:`describe` before eliding (dense cyclic shapes
    #: such as tori have combinatorially many simple cycles).
    DESCRIBE_LOOP_LIMIT = 12

    def describe(self) -> str:
        """Multi-line summary rendering the graph as it is: adjacency + loops.

        A netlist is an arbitrary directed (multi)graph, so the description
        shows each process' successor set (with fan-out grouped per output
        port) and enumerates the simple loops — it deliberately implies no
        linear stage ordering.  Channel one-liners follow for the physical
        details (ports, links, widths).
        """
        lines = [f"netlist {self.name!r}: "
                 f"{len(self._processes)} processes, {len(self._channels)} channels"]
        lines.append("  adjacency:")
        for name in self.process_names():
            outputs = self._outputs_of.get(name, {})
            targets = [
                f"{chan.dest}.{chan.dest_port}"
                for port in sorted(outputs)
                for chan in outputs[port]
            ]
            feeders = sorted(
                {chan.source for chan in self._inputs_of.get(name, {}).values()}
            )
            arrow = " -> " + ", ".join(targets) if targets else " (no outputs)"
            origin = f" [from {', '.join(feeders)}]" if feeders else " [source]"
            lines.append(f"    {name}{arrow}{origin}")
        loops = sorted(self.simple_loops(), key=lambda loop: (len(loop), loop))
        if loops:
            lines.append(f"  loops ({len(loops)}):")
            for loop in loops[: self.DESCRIBE_LOOP_LIMIT]:
                lines.append("    " + " -> ".join([*loop, loop[0]]))
            hidden = len(loops) - self.DESCRIBE_LOOP_LIMIT
            if hidden > 0:
                lines.append(f"    ... and {hidden} more")
        else:
            lines.append("  loops: none (acyclic)")
        lines.append("  channels:")
        for name in self.channel_names():
            lines.append("    " + self._channels[name].describe())
        return "\n".join(lines)

    # -- lifecycle ----------------------------------------------------------------
    def reset(self) -> None:
        """Reset every process in the netlist."""
        for process in self._processes.values():
            process.reset()


def ring_netlist(
    stages: int,
    rs_total: int = 0,
    name: str = "ring",
) -> Tuple[Netlist, Dict[str, int]]:
    """Build a synthetic ring of pass-through stages plus an RS assignment.

    The ring contains ``stages`` processes (``stages >= 1``); stage ``i``
    feeds stage ``(i+1) % stages``.  Stage 0 increments the value it receives
    so the circulating token changes over time (useful for equivalence
    checks).  ``rs_total`` relay stations are spread as evenly as possible
    over the ``stages`` channels.

    Returns the netlist and the ``channel -> rs count`` mapping.  The loop
    throughput of the WP1 system on this ring is ``stages / (stages +
    rs_total)``, the formula of Section 2 of the paper.
    """
    from .process import FunctionProcess

    if stages < 1:
        raise NetlistError("a ring needs at least one stage")

    def increment(state, inputs):
        return state, {"out": inputs["in"] + 1}

    def forward(state, inputs):
        return state, {"out": inputs["in"]}

    processes: List[Process] = []
    for index in range(stages):
        transition = increment if index == 0 else forward
        processes.append(
            FunctionProcess(
                name=f"stage{index}",
                inputs=("in",),
                outputs=("out",),
                transition=transition,
            )
        )

    channels: List[Channel] = []
    rs_counts: Dict[str, int] = {}
    base, extra = divmod(rs_total, stages)
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

    return Netlist(processes, channels, name=name), rs_counts
