"""Workload ``zoo_sweep``: many generated netlists, few rows each.

A seeded corpus from the topology generator zoo (ring, torus, mesh, marked
graph, DAG, random with cycles) plus PageRank and BFS processing-element
rings.  Each layout is swept over seeded per-channel relay-station vectors
(and, for ring/torus/marked, uniform-depth vectors) under WP1 and WP2
through ``MultiNetlistRunner.run_many`` on the default kernel, serially.
Free-running netlists (and BFS, which quiesces) run to a horizon,
terminating ones to their stop process.

One *request* is one layout's sweep: building its WP1 and WP2 runners
(elaboration), running its rows in one ``run_many`` call and computing each
vector's static throughput bound.  A *pass* issues every corpus layout's
request once (fresh the first time, repeats after), then the requests of
one newly generated unit (always fresh), so fresh samples are taken over
the whole run, not only in its first second.  Per-layout requests give
each run thousands of latency samples, so the percentiles reflect the
corpus, not a handful of host hiccups.  The corpus is generated once, at
set-up; the new units are generated between requests, untimed.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .common import Phase, log

#: Horizon of the free-running rows (the serving tier's topology default).
HORIZON = 4_000
#: A finite horizon rounds the last partial period up, so simulated WP1 may
#: sit a hair above the asymptotic bound (tests/test_topology.py allows 1e-3).
#: Short terminating runs may also spend their initial tokens (one per
#: channel) faster than the asymptotic rate, so the upper check allows
#: ``channels / cycles`` on top.
BOUND_TOLERANCE = 1e-3
#: Shapes whose WP1 throughput equals the static bound under uniform depth.
ON_BOUND_KINDS = ("ring", "torus", "marked")
WRAPPERS = ("wp1", "wp2")
#: Corpus size: each unit adds 12 layouts (192 rows).  Many small layouts
#: keep the per-seed amount of work close to the corpus average.
SCALE = 8
#: PageRank layouts per unit.  Their requests take about three times the
#: others', so two per unit (1/6 of the layouts) put ``repeat_p90_s``
#: inside the PageRank cluster; one per unit (1/11) put it on the cluster's
#: edge, where it jumped between the two groups from seed to seed.
PAGERANK_PER_UNIT = 2


@dataclass
class Layout:
    """One corpus netlist and the relay-station vectors it is swept over."""

    name: str
    kind: str
    netlist: Any
    controls: Dict[str, Any]
    vectors: List[Dict[str, int]]
    #: Indices of the uniform-depth vectors (on-bound and answer checks).
    uniform: List[int] = field(default_factory=list)
    #: Graph workloads: (GraphWorkload, reference answer).
    graph: Optional[Tuple[Any, Dict]] = None


def _random_edges(rng: random.Random, vertices: int) -> List[Tuple[int, int]]:
    """A connected directed graph: a Hamiltonian cycle plus random chords."""
    edges = [(v, (v + 1) % vertices) for v in range(vertices)]
    edges += [(v, rng.randrange(vertices)) for v in range(vertices)]
    return edges


def build_corpus(seed: int, quick: bool = False) -> List[Layout]:
    """The seeded corpus; sizes are fixed so every seed does similar work."""
    rng = random.Random(seed)
    return [layout for unit in range(1 if quick else SCALE) for layout in build_unit(rng, unit)]


def build_unit(rng: random.Random, unit: int) -> List[Layout]:
    """One unit of the corpus: 12 layouts, one or two of each kind.

    Shapes and sizes depend on *unit* only; *rng* draws the random wirings,
    the PageRank/BFS graphs and every relay-station vector.
    """
    from repro import topology as topo
    from repro import workloads as graph

    specs: List[Tuple[str, Dict[str, Any]]] = [
        ("ring", {"stages": 4 + unit % 5, "rs_total": 0}),
        ("ring", {"stages": 8 - unit % 5, "rs_total": 0}),
        ("marked", {"loop_lengths": (2 + unit % 3, 4, 3 + unit % 4), "rs_per_loop": 0}),
        ("marked", {"loop_lengths": (3, 5 - unit % 3), "rs_per_loop": 0}),
        ("random", {"seed": rng.randrange(10**6), "n_processes": 7, "extra_channels": 3}),
        ("random", {"seed": rng.randrange(10**6), "n_processes": 6, "extra_channels": 2}),
        ("torus", {"rows": 2, "cols": 2 + unit % 2}),
        ("mesh", {"rows": 2, "cols": 3 - unit % 2, "source_limit": 40}),
        ("dag", {"width": 2 + unit % 2, "depth": 2, "source_limit": 40}),
    ]

    layouts: List[Layout] = []
    for position, (kind, params) in enumerate(specs):
        generated = topo.make_topology(kind, **params)
        channels = list(generated.netlist.channels)
        vectors = [
            {c: generated.rs_counts[c] + rng.randint(0, 2) for c in channels}
            for _ in range(4)
        ]
        uniform: List[int] = []
        if kind in ON_BOUND_KINDS:
            uniform = list(range(len(vectors), len(vectors) + 3))
            vectors += [{c: depth for c in channels} for depth in range(3)]
        controls = (
            {"stop_process": generated.stop_process, "max_cycles": 10**6}
            if generated.stop_process is not None
            else {"horizon": HORIZON, "max_cycles": 10**6}
        )
        layouts.append(Layout(
            f"{kind}{unit}.{position}-{generated.netlist.name}", kind, generated.netlist,
            controls, vectors, uniform,
        ))

    for copy in range(PAGERANK_PER_UNIT):
        edges = _random_edges(rng, 14)
        pagerank = graph.make_pagerank_workload(edges, n_pe=3, n_rounds=6)
        layouts.append(_graph_layout(
            f"pagerank{unit}.{copy}", "pagerank", pagerank,
            {"stop_process": pagerank.stop_process, "max_cycles": 10**6},
            graph.pagerank_reference(edges, n_rounds=6), rng, 16,
        ))
    edges = _random_edges(rng, 14)
    bfs = graph.make_bfs_workload(edges, root=0, n_pe=3)
    layouts.append(_graph_layout(
        f"bfs{unit}", "bfs", bfs,
        {"horizon": max(HORIZON, bfs.max_cycles_hint), "max_cycles": 10**6},
        graph.bfs_reference(edges, root=0), rng, 4,
    ))
    return layouts


def _graph_layout(name, kind, workload, controls, reference, rng, count) -> Layout:
    """A PE-ring layout: seeded per-hop vectors plus uniform depths 0-2.

    The answers are checked on the uniform rows only, as the repository's
    tests do: PageRank stops when ``pe0`` finishes its rounds, and with
    unequal per-hop depths the other PEs can still be mid-round then.
    """
    channels = list(workload.rs_counts)
    vectors = [{c: rng.randint(0, 3) for c in channels} for _ in range(count)]
    uniform = list(range(len(vectors), len(vectors) + 3))
    vectors += [{c: depth for c in channels} for depth in range(3)]
    return Layout(name, kind, workload.netlist, controls, vectors, uniform,
                  graph=(workload, reference))


def _row_key(result) -> Tuple:
    return (result.cycles, tuple(sorted(result.firings.items())), result.halted,
            result.error)


class ZooSweep:
    name = "zoo_sweep"

    def __init__(self, seed: int, quick: bool = False) -> None:
        from repro import engine
        from repro.core import static_analysis

        self.engine = engine
        self.static = static_analysis
        self.seed = seed
        self.quick = quick
        self.units = 1 if quick else SCALE
        self.layouts = build_corpus(seed, quick)
        #: Draws the never-issued units measured after each pass.
        self.fresh_rng = random.Random(f"zoo-fresh-{seed}")
        self.first: Optional[List[Tuple]] = None
        self.first_rows: Dict[Tuple[str, str, int], Any] = {}

    def start(self, trace_dir=None) -> None:
        pass

    def close(self) -> None:
        pass

    def _request(self, layout: Layout) -> List[Tuple[Layout, str, int, Any, float]]:
        """One layout: elaborate both wrappers, run every row, bound every vector."""
        engine = self.engine
        multi = engine.MultiNetlistRunner({
            f"{layout.name}/{wrapper}": engine.BatchRunner(
                layout.netlist, relaxed=(wrapper == "wp2")
            )
            for wrapper in WRAPPERS
        })
        items = [
            (wrapper, index)
            for wrapper in WRAPPERS for index in range(len(layout.vectors))
        ]
        results = multi.run_many(
            [(f"{layout.name}/{wrapper}", layout.vectors[index]) for wrapper, index in items],
            **layout.controls,
        )
        bounds = [
            self.static.throughput_bound(layout.netlist, rs_counts=vector).bound_float
            for vector in layout.vectors
        ]
        return [
            (layout, wrapper, index, result, bounds[index])
            for (wrapper, index), result in zip(items, results)
        ]

    def _sweep(self) -> List[Tuple[Layout, str, int, Any, float]]:
        """One pass: every layout's request, in corpus order."""
        return [row for layout in self.layouts for row in self._request(layout)]

    @staticmethod
    def row_failures(rows) -> int:
        """WP1 within the bound everywhere, on it for uniform ring/torus/marked."""
        wrong = 0
        for layout, wrapper, index, result, bound in rows:
            ok = not result.failed
            if ok and wrapper == "wp1":
                throughput = result.throughput()
                transient = len(layout.netlist.channels) / result.cycles
                ok &= throughput <= bound + BOUND_TOLERANCE + transient
                if layout.kind in ON_BOUND_KINDS and index in layout.uniform:
                    ok &= abs(throughput - bound) <= BOUND_TOLERANCE
            wrong += not ok
        return wrong

    def _timed(self, layouts: List[Layout], latencies: List[float]):
        """Issue one request per layout; return the rows and the time spent."""
        rows = []
        spent = 0.0
        for layout in layouts:
            issued = time.perf_counter()
            rows += self._request(layout)
            # A layout's rows all arrive when run_many returns.
            latency = time.perf_counter() - issued
            latencies.append(latency)
            spent += latency
        return rows, spent

    def measure(self, seconds: float, tracer=None, min_requests: int = 2) -> Phase:
        """Whole passes until *seconds* are up; *min_requests* counts passes.

        A pass is the corpus (fresh the first time, repeats after) followed
        by one newly generated unit, so fresh samples span the whole run.
        """
        phase = Phase()
        passes = 0
        start = time.perf_counter()
        with tracer.span("trace.main") if tracer else nullcontext():
            while True:
                begin = time.perf_counter()
                first_pass = self.first is None
                rows, spent = self._timed(
                    self.layouts, phase.fresh_first_row if first_pass else phase.repeat_latency
                )
                unit = build_unit(self.fresh_rng, self.units + passes)
                unit_rows, unit_spent = self._timed(unit, phase.fresh_first_row)
                phase.wrong_rows += self.row_failures(unit_rows)
                latency = time.perf_counter() - begin
                passes += 1
                phase.requests += len(self.layouts) + len(unit)
                phase.rows += len(rows) + len(unit_rows)
                phase.rate_samples.append((len(rows) + len(unit_rows)) / (spent + unit_spent))
                keys = [_row_key(row[3]) for row in rows]
                if first_pass:
                    self.first = keys
                    self.first_rows = {
                        (layout.name, wrapper, index): result
                        for layout, wrapper, index, result, _bound in rows
                    }
                    phase.wrong_rows += self.row_failures(rows)
                else:
                    phase.wrong_rows += sum(a != b for a, b in zip(keys, self.first))
                elapsed = time.perf_counter() - start
                if passes >= min_requests and (
                    self.quick or elapsed + latency > seconds
                ):
                    break
        phase.seconds = time.perf_counter() - start
        return phase

    def check(self, phase: Phase) -> None:
        """PageRank/BFS answers equal the pure references (sampled uniform row)."""
        rng = random.Random(self.seed)
        for layout in self.layouts:
            if layout.graph is None:
                continue
            workload, reference = layout.graph
            index = rng.choice(layout.uniform)
            result = self.engine.BatchRunner(layout.netlist).run(
                rs_counts=layout.vectors[index], **layout.controls
            )
            row = self.first_rows[(layout.name, "wp1", index)]
            if workload.gather() != reference or result.cycles != row.cycles:
                log(f"zoo_sweep: {layout.name} vector {index} disagrees with the reference")
                phase.wrong_rows += 1
