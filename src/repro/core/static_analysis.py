"""Static throughput analysis of wire-pipelined netlists.

Section 2 of the paper states the key structural fact: a netlist loop
containing ``m`` processes and ``n`` relay stations sustains a throughput of
at most ``m / (m + n)`` under the strict (WP1) wrapper, and the worst loop
dominates the whole system.  This module computes that bound in two ways:

* by explicit enumeration of the simple cycles of the process graph
  (exact, fine for block-level netlists with a handful of IPs);
* by a maximum cycle mean / maximum cycle ratio computation (Karp's algorithm
  and a Lawler-style binary search with Bellman-Ford feasibility), which
  scales to large graphs and is cross-checked against the enumeration in the
  property tests.

It also produces the "netlist loops" report of Figure 1: every loop, its
member processes, its channels and its per-configuration throughput bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import networkx as nx

from .config import RSConfiguration
from .exceptions import ConfigurationError
from .netlist import Netlist, canonical_cycle


@dataclass(frozen=True)
class Loop:
    """A simple cycle of the process graph with its relay-station load."""

    processes: Tuple[str, ...]
    channels: Tuple[str, ...]
    relay_stations: int

    @property
    def length(self) -> int:
        """Number of processes (= number of channels) in the loop."""
        return len(self.processes)

    @property
    def throughput_bound(self) -> Fraction:
        """The paper's bound m / (m + n) for this loop."""
        m = self.length
        n = self.relay_stations
        return Fraction(m, m + n)

    def describe(self) -> str:
        """Readable one-liner, e.g. ``CU -> ALU -> CU [1 RS, Th <= 2/3]``."""
        path = " -> ".join([*self.processes, self.processes[0]])
        bound = self.throughput_bound
        return f"{path} [{self.relay_stations} RS, Th <= {bound.numerator}/{bound.denominator}]"


@dataclass
class ThroughputReport:
    """Result of the static analysis for one relay-station configuration."""

    loops: List[Loop]
    bound: Fraction
    critical_loops: List[Loop] = field(default_factory=list)

    @property
    def bound_float(self) -> float:
        """The system throughput bound as a float (1.0 when loop-free)."""
        return float(self.bound)

    def describe(self) -> str:
        """Multi-line report listing every loop and flagging the critical ones."""
        lines = [f"system throughput bound: {float(self.bound):.4f}"]
        critical = {loop.channels for loop in self.critical_loops}
        for loop in sorted(self.loops, key=lambda item: (item.throughput_bound, item.length)):
            marker = "*" if loop.channels in critical else " "
            lines.append(f" {marker} {loop.describe()}")
        return "\n".join(lines)


def _resolve_rs_counts(
    netlist: Netlist,
    rs_counts: Optional[Mapping[str, int]] = None,
    configuration: Optional[RSConfiguration] = None,
) -> Dict[str, int]:
    if rs_counts is not None and configuration is not None:
        raise ConfigurationError("pass either rs_counts or configuration, not both")
    if configuration is not None:
        return configuration.per_channel(netlist)
    counts = dict(rs_counts or {})
    return {name: int(counts.get(name, 0)) for name in netlist.channels}


def enumerate_loops(
    netlist: Netlist,
    rs_counts: Optional[Mapping[str, int]] = None,
    configuration: Optional[RSConfiguration] = None,
) -> List[Loop]:
    """Enumerate every simple cycle of the process graph.

    Each loop starts at its smallest process name and the list is sorted by
    the loops' process tuples, so the answer does not depend on the hash
    seed.

    Parallel channels between the same ordered pair of processes are collapsed
    to the *minimum* relay-station count among them when computing a loop's
    load: the loop constraint is set by the fastest wire closing it, and under
    a per-link configuration all parallel channels carry the same count
    anyway.
    """
    counts = _resolve_rs_counts(netlist, rs_counts, configuration)

    # Collapse parallel channels: keep, per (src, dst), the channel with the
    # fewest relay stations.
    best_edge: Dict[Tuple[str, str], Tuple[str, int]] = {}
    for name, chan in netlist.channels.items():
        key = (chan.source, chan.dest)
        count = counts[name]
        if key not in best_edge or count < best_edge[key][1]:
            best_edge[key] = (name, count)

    graph = nx.DiGraph()
    graph.add_nodes_from(netlist.processes)
    for (src, dst), (name, count) in best_edge.items():
        graph.add_edge(src, dst, channel=name, rs=count)

    loops: List[Loop] = []
    for cycle in nx.simple_cycles(graph):
        cycle = canonical_cycle(cycle)
        channel_names: List[str] = []
        rs_total = 0
        for position, node in enumerate(cycle):
            succ = cycle[(position + 1) % len(cycle)]
            data = graph.edges[node, succ]
            channel_names.append(data["channel"])
            rs_total += data["rs"]
        loops.append(
            Loop(
                processes=tuple(cycle),
                channels=tuple(channel_names),
                relay_stations=rs_total,
            )
        )
    loops.sort(key=lambda loop: loop.processes)
    return loops


def throughput_bound(
    netlist: Netlist,
    rs_counts: Optional[Mapping[str, int]] = None,
    configuration: Optional[RSConfiguration] = None,
) -> ThroughputReport:
    """Compute the WP1 throughput bound min over loops of m / (m + n)."""
    loops = enumerate_loops(netlist, rs_counts, configuration)
    if not loops:
        return ThroughputReport(loops=[], bound=Fraction(1, 1), critical_loops=[])
    bound = min(loop.throughput_bound for loop in loops)
    critical = [loop for loop in loops if loop.throughput_bound == bound]
    return ThroughputReport(loops=loops, bound=bound, critical_loops=critical)


# ---------------------------------------------------------------------------
# Maximum cycle mean / maximum cycle ratio
# ---------------------------------------------------------------------------

def maximum_cycle_mean(graph: nx.DiGraph, weight: str = "weight") -> float:
    """Karp's maximum cycle mean of a weighted digraph.

    Returns ``-inf`` for acyclic graphs.  Runs Karp's algorithm independently
    on every strongly connected component so disconnected or dag-like parts do
    not disturb the result.
    """
    best = -math.inf
    for component in nx.strongly_connected_components(graph):
        nodes = list(component)
        if len(nodes) == 1:
            node = nodes[0]
            if not graph.has_edge(node, node):
                continue
        sub = graph.subgraph(nodes)
        best = max(best, _karp_component(sub, weight))
    return best


def _karp_component(graph: nx.DiGraph, weight: str) -> float:
    nodes = list(graph.nodes)
    index = {node: position for position, node in enumerate(nodes)}
    count = len(nodes)
    # dist[k][v] = maximum weight of a k-edge walk ending at v (from any start).
    dist = [[-math.inf] * count for _ in range(count + 1)]
    for position in range(count):
        dist[0][position] = 0.0
    for k in range(1, count + 1):
        for u, v, data in graph.edges(data=True):
            iu, iv = index[u], index[v]
            if dist[k - 1][iu] == -math.inf:
                continue
            candidate = dist[k - 1][iu] + float(data.get(weight, 0.0))
            if candidate > dist[k][iv]:
                dist[k][iv] = candidate
    best = -math.inf
    for v in range(count):
        if dist[count][v] == -math.inf:
            continue
        worst: float = math.inf
        for k in range(count):
            if dist[k][v] == -math.inf:
                ratio = math.inf
            else:
                ratio = (dist[count][v] - dist[k][v]) / (count - k)
            worst = min(worst, ratio)
        best = max(best, worst)
    return best


def maximum_cycle_ratio(
    graph: nx.DiGraph,
    cost: str = "cost",
    time: str = "time",
    tolerance: float = 1e-9,
) -> float:
    """Maximum over cycles of (sum of *cost*) / (sum of *time*).

    Uses a Lawler-style binary search: a ratio λ is feasible (some cycle has a
    larger ratio) iff the graph with edge weights ``cost − λ·time`` contains a
    positive cycle.  Edge *time* must be strictly positive on every edge.
    Returns ``-inf`` for acyclic graphs.
    """
    if not any(True for _ in nx.simple_cycles(graph)):
        return -math.inf
    for _, _, data in graph.edges(data=True):
        if float(data.get(time, 0.0)) <= 0:
            raise ConfigurationError("maximum_cycle_ratio requires positive edge times")

    low = min(
        float(data.get(cost, 0.0)) / float(data.get(time, 1.0))
        for _, _, data in graph.edges(data=True)
    )
    high = max(
        float(data.get(cost, 0.0)) / float(data.get(time, 1.0))
        for _, _, data in graph.edges(data=True)
    )
    low -= 1.0
    high += 1.0

    def has_positive_cycle(lam: float) -> bool:
        weighted = nx.DiGraph()
        weighted.add_nodes_from(graph.nodes)
        for u, v, data in graph.edges(data=True):
            weighted.add_edge(
                u, v, weight=float(data.get(cost, 0.0)) - lam * float(data.get(time, 1.0))
            )
        return _has_positive_cycle(weighted)

    for _ in range(200):
        if high - low <= tolerance:
            break
        mid = (low + high) / 2.0
        if has_positive_cycle(mid):
            low = mid
        else:
            high = mid
    return (low + high) / 2.0


def _has_positive_cycle(graph: nx.DiGraph, weight: str = "weight") -> bool:
    """Bellman-Ford based detection of a cycle with positive total weight."""
    nodes = list(graph.nodes)
    if not nodes:
        return False
    dist = {node: 0.0 for node in nodes}
    for _ in range(len(nodes)):
        changed = False
        for u, v, data in graph.edges(data=True):
            candidate = dist[u] + float(data.get(weight, 0.0))
            if candidate > dist[v] + 1e-15:
                dist[v] = candidate
                changed = True
        if not changed:
            return False
    return True


def throughput_bound_mcm(
    netlist: Netlist,
    rs_counts: Optional[Mapping[str, int]] = None,
    configuration: Optional[RSConfiguration] = None,
) -> float:
    """Throughput bound via maximum cycle ratio (no loop enumeration).

    The bound is ``1 / (1 + r*)`` where ``r*`` is the maximum over cycles of
    (total relay stations) / (number of processes).  Returns 1.0 for acyclic
    netlists.  Agrees with :func:`throughput_bound` (property-tested).
    """
    counts = _resolve_rs_counts(netlist, rs_counts, configuration)

    best_edge: Dict[Tuple[str, str], int] = {}
    for name, chan in netlist.channels.items():
        key = (chan.source, chan.dest)
        count = counts[name]
        if key not in best_edge or count < best_edge[key]:
            best_edge[key] = count

    graph = nx.DiGraph()
    graph.add_nodes_from(netlist.processes)
    for (src, dst), count in best_edge.items():
        graph.add_edge(src, dst, cost=float(count), time=1.0)

    ratio = maximum_cycle_ratio(graph)
    if ratio == -math.inf:
        return 1.0
    return 1.0 / (1.0 + max(ratio, 0.0))


def make_link_bound_evaluator(netlist: Netlist):
    """Precompute the loop structure and return a fast per-link bound evaluator.

    The returned callable maps ``{link label -> relay-station count}`` to the
    system throughput bound ``min over loops of m / (m + n)`` as a float.
    Because the loop enumeration is done once, a single evaluation costs only
    a few dictionary lookups, which is what makes exhaustive configuration
    search practical (the optimiser may evaluate tens of thousands of
    assignments).
    """
    loops = enumerate_loops(netlist)
    loop_links: List[Tuple[int, List[str]]] = []
    for loop in loops:
        links = [netlist.channel(name).link_name for name in loop.channels]
        loop_links.append((loop.length, links))

    def evaluate(assignment: Mapping[str, int]) -> float:
        if not loop_links:
            return 1.0
        worst = 1.0
        for length, links in loop_links:
            total = sum(int(assignment.get(link, 0)) for link in links)
            bound = length / (length + total)
            if bound < worst:
                worst = bound
        return worst

    return evaluate


def critical_links(
    netlist: Netlist,
    rs_counts: Optional[Mapping[str, int]] = None,
    configuration: Optional[RSConfiguration] = None,
) -> List[str]:
    """Links that appear in at least one throughput-critical loop."""
    report = throughput_bound(netlist, rs_counts, configuration)
    channels = {name for loop in report.critical_loops for name in loop.channels}
    return sorted({netlist.channel(name).link_name for name in channels})


def per_link_sensitivity(
    netlist: Netlist,
    base: Optional[RSConfiguration] = None,
    extra: int = 1,
) -> Dict[str, Fraction]:
    """Throughput bound obtained by adding *extra* RS to each link in turn.

    This is the static counterpart of Table 1's "Only <link>" and
    "All k and k+1 <link>" rows: it ranks links by how much the loop bound
    degrades when that particular link gets deeper pipelining.
    """
    base_config = base if base is not None else RSConfiguration.ideal()
    sensitivities: Dict[str, Fraction] = {}
    for link in netlist.link_names():
        counts = dict(base_config.per_link(netlist.link_names()))
        counts[link] = counts.get(link, 0) + extra
        config = RSConfiguration.from_mapping(counts, label=f"{base_config.label} + {extra} {link}")
        sensitivities[link] = throughput_bound(netlist, configuration=config).bound
    return sensitivities


# ---------------------------------------------------------------------------
# Graph-shape metrics (topology generality)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphMetrics:
    """Shape facts of a netlist's process graph, independent of any run.

    The topology generators attach these to every generated netlist, the
    CLI renders them in ``topology describe``, and the engine's eligibility
    reporting uses them to explain *why* a netlist is (in)eligible for a
    given kernel from graph properties rather than from shape names.
    """

    n_processes: int
    n_channels: int
    #: True when the process graph has no directed cycle (no feedback loop).
    is_dag: bool
    #: Sizes of the strongly connected components, largest first.  A chain
    #: is all ones; a ring is a single component covering every process.
    scc_sizes: Tuple[int, ...]
    #: Number of simple cycles of the process graph.
    n_loops: int
    #: Directed diameter when the graph is strongly connected, otherwise the
    #: diameter of the undirected view when weakly connected, else ``None``.
    diameter: Optional[int]
    #: Longest directed path (in channels) when the graph is a DAG.
    longest_path: Optional[int]
    #: Processes with no input / no output channels.
    sources: Tuple[str, ...]
    sinks: Tuple[str, ...]

    def describe(self) -> str:
        """Readable one-liner, e.g. ``12 procs, 17 chans, 3 loops, diam 4``."""
        shape = "dag" if self.is_dag else f"cyclic (largest SCC {self.scc_sizes[0]})"
        parts = [
            f"{self.n_processes} procs",
            f"{self.n_channels} chans",
            shape,
            f"{self.n_loops} loops",
        ]
        if self.diameter is not None:
            parts.append(f"diam {self.diameter}")
        if self.longest_path is not None:
            parts.append(f"depth {self.longest_path}")
        return ", ".join(parts)


def graph_metrics(netlist: Netlist) -> GraphMetrics:
    """Compute the :class:`GraphMetrics` of a netlist's process graph.

    Parallel channels are collapsed for the shape questions (DAG-ness,
    diameter, SCCs are properties of the simple digraph); the channel count
    still reports the physical multigraph.
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(netlist.processes)
    for chan in netlist.channels.values():
        graph.add_edge(chan.source, chan.dest)

    is_dag = nx.is_directed_acyclic_graph(graph)
    scc_sizes = tuple(
        sorted((len(c) for c in nx.strongly_connected_components(graph)), reverse=True)
    )
    n_loops = sum(1 for _ in nx.simple_cycles(graph))

    diameter: Optional[int] = None
    if graph.number_of_nodes() > 0:
        if nx.is_strongly_connected(graph):
            diameter = nx.diameter(graph)
        elif nx.is_weakly_connected(graph):
            diameter = nx.diameter(graph.to_undirected())

    longest_path = nx.dag_longest_path_length(graph) if is_dag else None

    sources = tuple(sorted(n for n in graph if graph.in_degree(n) == 0))
    sinks = tuple(sorted(n for n in graph if graph.out_degree(n) == 0))
    return GraphMetrics(
        n_processes=len(netlist.processes),
        n_channels=len(netlist.channels),
        is_dag=is_dag,
        scc_sizes=scc_sizes,
        n_loops=n_loops,
        diameter=diameter,
        longest_path=longest_path,
        sources=sources,
        sinks=sinks,
    )
