"""The topology-general engine: generator zoo, graph workloads, end-to-end.

Three claims are pinned here (DESIGN.md §9):

* every generated topology — ring, DAG, mesh, torus, marked graph, seeded
  random — runs bit-identically under every kernel, and steady-state
  extrapolation is exact on non-chain (cyclic, multi-predecessor) shapes;
* the graph-algorithm workloads (BFS, PageRank) mapped onto LID PE rings
  compute exactly what their pure-Python references compute, for any
  relay-station pipelining of the ring, under scalar and lockstep kernels;
* generated netlists flow end to end through the evaluation stack: batch
  runner, sharded pools, evaluation service, static bounds, optimiser, CLI.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core import (
    DeadlockError,
    NetlistError,
    RSConfiguration,
    SearchSpace,
    greedy_search,
    run_lid,
)
from repro.core.static_analysis import graph_metrics, throughput_bound
from repro.engine import BatchRunner
from repro.engine.batch import MultiNetlistRunner
from repro.topology import (
    TOPOLOGY_KINDS,
    chain_topology,
    dag_topology,
    make_topology,
    marked_graph_topology,
    mesh_topology,
    random_topology,
    ring_topology,
)
from repro.workloads import (
    bfs_reference,
    make_bfs_workload,
    make_pagerank_workload,
    pagerank_reference,
)

ALL_KERNELS = ("reference", "fast", "compiled")

#: Small-instance parameters exercising every generator kind.
SMALL = {
    "chain": {"stages": 3, "source_limit": 12},
    "ring": {"stages": 4, "rs_total": 2},
    "dag": {"width": 2, "depth": 2, "source_limit": 12},
    "mesh": {"rows": 2, "cols": 3, "source_limit": 12},
    "torus": {"rows": 2, "cols": 2},
    "marked": {"loop_lengths": (2, 3)},
    "random": {"seed": 11, "n_processes": 5},
}


def _controls(topology, horizon=300):
    """Run keywords fitting the shape: stop at the source limit or a horizon."""
    if topology.stop_process is not None:
        return {"stop_process": topology.stop_process, "max_cycles": 100_000}
    return {"horizon": horizon, "max_cycles": 100_000}


def _identical(a, b):
    assert a.cycles == b.cycles
    assert a.firings == b.firings
    assert a.halted == b.halted
    assert a.max_queue_occupancy == b.max_queue_occupancy
    for name in a.trace:
        assert list(a.trace[name].items) == list(b.trace[name].items), name


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

class TestGenerators:
    @pytest.mark.parametrize("kind", sorted(TOPOLOGY_KINDS))
    def test_every_kind_builds_and_pickles(self, kind):
        topology = make_topology(kind, **SMALL[kind])
        assert topology.info.kind == kind
        assert topology.netlist.process_names()
        # Spawn pools / the service / remote agents all ship netlists by
        # pickle; every generated netlist must survive the trip.
        clone = pickle.loads(pickle.dumps(topology.netlist))
        assert clone.process_names() == topology.netlist.process_names()
        assert float(topology.info.loop_bound) > 0.0
        text = topology.describe()
        assert "adjacency:" in text and topology.info.name in text

    def test_unknown_kind_raises(self):
        with pytest.raises(NetlistError):
            make_topology("moebius")

    def test_chain_metrics(self):
        topology = chain_topology(stages=4)
        metrics = topology.info.metrics
        assert metrics.is_dag
        assert metrics.n_loops == 0
        assert metrics.longest_path == 5  # src -> s1..s4 -> sink
        assert metrics.sources == ("src",) and metrics.sinks == ("sink",)

    def test_ring_loop_bound_is_m_over_m_plus_n(self):
        topology = ring_topology(stages=4, rs_total=3)
        assert topology.info.loop_bound == pytest.approx(4 / 7)
        assert topology.info.metrics.scc_sizes[0] == 4

    def test_marked_graph_bound_is_tightest_loop(self):
        topology = marked_graph_topology(loop_lengths=(2, 5), rs_per_loop=(1, 0))
        # The 2-channel loop carries 2 tokens over 2+1 stations: 2/3; the
        # unpipelined 5-channel loop stays at 5/5 = 1.  Tightest loop wins.
        bound = float(topology.info.loop_bound)
        assert bound == pytest.approx(min(2 / 3, 1.0))

    def test_mesh_and_torus_shapes(self):
        mesh = mesh_topology(rows=2, cols=2)
        assert mesh.info.metrics.is_dag
        torus = mesh_topology(rows=2, cols=2, torus=True)
        assert not torus.info.metrics.is_dag
        assert torus.info.metrics.scc_sizes[0] == 4

    def test_random_is_deterministic_per_seed(self):
        a = random_topology(seed=5)
        b = random_topology(seed=5)
        assert pickle.dumps(a.netlist) == pickle.dumps(b.netlist)
        assert a.rs_counts == b.rs_counts
        c = random_topology(seed=6)
        assert pickle.dumps(c.netlist) != pickle.dumps(a.netlist)

    def test_dag_fan_out_and_join(self):
        topology = dag_topology(width=3, depth=1)
        netlist = topology.netlist
        split_outs = netlist.output_channels("split")
        # True port fan-out: one output port drives all branch heads.
        assert sum(len(chans) for chans in split_outs.values()) == 3
        assert len(netlist.input_channels("join")) == 3


# ---------------------------------------------------------------------------
# Netlist description (adjacency + loops)
# ---------------------------------------------------------------------------

class TestDescribe:
    def test_adjacency_and_loops_render(self):
        topology = ring_topology(stages=3)
        text = topology.netlist.describe()
        assert "adjacency:" in text
        assert "stage0 -> stage1.in" in text
        assert "loops (1):" in text
        [loop] = topology.netlist.simple_loops()
        assert " -> ".join([*loop, loop[0]]) in text

    def test_acyclic_says_so(self):
        text = chain_topology(stages=2).netlist.describe()
        assert "loops: none (acyclic)" in text
        assert "[source]" in text
        assert "(no outputs)" in text

    def test_dense_loop_sets_are_elided(self):
        netlist = mesh_topology(rows=3, cols=3, torus=True).netlist
        loops = netlist.simple_loops()
        assert len(loops) > netlist.DESCRIBE_LOOP_LIMIT
        text = netlist.describe()
        shown = text.count(" -> n")  # loop lines render process hops
        assert f"... and {len(loops) - netlist.DESCRIBE_LOOP_LIMIT} more" in text


# ---------------------------------------------------------------------------
# Kernel equivalence and steady state on generated topologies
# ---------------------------------------------------------------------------

class TestTopologyKernelEquivalence:
    @pytest.mark.parametrize("kind", sorted(TOPOLOGY_KINDS))
    @pytest.mark.parametrize("relaxed", [False, True])
    def test_all_kernels_agree(self, kind, relaxed):
        topology = make_topology(kind, **SMALL[kind])
        reference, *optimised = [
            run_lid(
                topology.netlist, rs_counts=topology.rs_counts,
                relaxed=relaxed, kernel=kernel, **_controls(topology),
            )
            for kernel in ALL_KERNELS
        ]
        for result in optimised:
            _identical(reference, result)

    @pytest.mark.parametrize("kind", sorted(TOPOLOGY_KINDS))
    def test_lockstep_matches_fast_over_rs_sweep(self, kind):
        topology = make_topology(kind, **SMALL[kind])
        rows = [
            {name: count + extra for name, count in topology.rs_counts.items()}
            for extra in range(3)
        ]
        outcomes = {}
        for kernel in ("fast", "lockstep"):
            runner = BatchRunner(topology.netlist, kernel=kernel)
            results = runner.run_many(rows, on_error="zero", **_controls(topology))
            outcomes[kernel] = [
                (r.failed, r.error, r.cycles, r.firings) for r in results
            ]
        assert outcomes["fast"] == outcomes["lockstep"]

    @pytest.mark.parametrize("kind", ["ring", "torus", "marked"])
    @pytest.mark.parametrize("kernel", ["fast", "compiled"])
    def test_steady_state_exact_on_non_chain_topologies(self, kind, kernel):
        """Acceptance: extrapolated long-horizon runs are bit-identical."""
        topology = make_topology(kind, **SMALL[kind])
        full, extrapolated = [
            run_lid(
                topology.netlist, rs_counts=topology.rs_counts, kernel=kernel,
                record_trace=False, horizon=20_000, max_cycles=10**9,
                steady_state=steady,
            )
            for steady in (False, True)
        ]
        assert extrapolated.extrapolated, "steady-state never engaged"
        assert extrapolated.period is not None
        assert full.cycles == extrapolated.cycles == 20_000
        assert full.firings == extrapolated.firings
        assert full.max_queue_occupancy == extrapolated.max_queue_occupancy


class TestDeadlockHints:
    def test_cyclic_deadlock_names_loop_closing_channels(self):
        # A strict wrapper around a self-feeding process with a depth-1 FIFO
        # wedges immediately; the report should point at the cycle.
        from repro.core import Channel, FunctionProcess, Netlist

        netlist = Netlist(
            [
                FunctionProcess(
                    name="p0", inputs=("i0",), outputs=("o0",),
                    transition=lambda state, inputs: (state, {"o0": 0}),
                )
            ],
            [
                Channel(
                    name="c0", source="p0", source_port="o0",
                    dest="p0", dest_port="i0", initial=0,
                )
            ],
        )
        with pytest.raises(DeadlockError) as excinfo:
            run_lid(
                netlist, queue_capacity=1, target_firings={"p0": 25},
                max_cycles=4_000, deadlock_limit=100,
            )
        assert "cycle-closing channels to inspect: c0" in str(excinfo.value)

    def test_acyclic_stall_has_no_cycle_hint(self):
        topology = chain_topology(stages=2, source_limit=5)
        with pytest.raises(DeadlockError) as excinfo:
            run_lid(
                topology.netlist, rs_counts=topology.rs_counts,
                target_firings={"sink": 1_000},
                max_cycles=50_000, deadlock_limit=100,
            )
        assert "cycle-closing" not in str(excinfo.value)


# ---------------------------------------------------------------------------
# Graph workloads
# ---------------------------------------------------------------------------

#: Directed test graph: two lobes joined by a bridge plus a cycle back.
EDGES = [
    (0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3), (2, 6),
]


class TestBfsWorkload:
    @pytest.mark.parametrize("n_pe", [1, 2, 3])
    @pytest.mark.parametrize("rs_per_hop", [0, 2])
    def test_matches_reference(self, n_pe, rs_per_hop):
        workload = make_bfs_workload(EDGES, root=0, n_pe=n_pe, rs_per_hop=rs_per_hop)
        run_lid(
            workload.netlist, rs_counts=workload.rs_counts,
            horizon=workload.max_cycles_hint, max_cycles=10**9,
        )
        assert workload.gather() == bfs_reference(EDGES, root=0)

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_kernels_agree_and_values_survive_extrapolation(self, kernel):
        workload = make_bfs_workload(EDGES, root=0, n_pe=2)
        result = run_lid(
            workload.netlist, rs_counts=workload.rs_counts, kernel=kernel,
            record_trace=False, horizon=50_000, max_cycles=10**9,
            steady_state=True,
        )
        # BfsPe declares schedule_complete: detection runs under the
        # *certified* plan and extrapolation is value-exact, so the gathered
        # answer survives the analytic skip.
        if kernel != "reference":
            assert result.extrapolated
        assert workload.gather() == bfs_reference(EDGES, root=0)

    def test_lockstep_fallback_parity(self):
        # Data-dependent quiescence => no done_threshold => the lockstep
        # batch falls back to the scalar kernel per item, with equal results.
        workload = make_bfs_workload(EDGES, root=0, n_pe=2)
        rows = [{name: d for name in workload.rs_counts} for d in range(3)]
        by_kernel = {}
        for kernel in ("fast", "lockstep"):
            results = BatchRunner(workload.netlist, kernel=kernel).run_many(
                rows, horizon=2_000, max_cycles=10**9,
            )
            by_kernel[kernel] = [(r.cycles, r.firings) for r in results]
        assert by_kernel["fast"] == by_kernel["lockstep"]


class TestPageRankWorkload:
    @pytest.mark.parametrize("n_pe", [1, 2, 4])
    @pytest.mark.parametrize("rs_per_hop", [0, 3])
    def test_matches_reference(self, n_pe, rs_per_hop):
        workload = make_pagerank_workload(
            EDGES, n_pe=n_pe, n_rounds=6, rs_per_hop=rs_per_hop
        )
        run_lid(
            workload.netlist, rs_counts=workload.rs_counts,
            stop_process=workload.stop_process,
            max_cycles=workload.max_cycles_hint,
        )
        assert workload.gather() == pagerank_reference(EDGES, n_rounds=6)

    def test_mass_is_conserved_approximately(self):
        reference = pagerank_reference(EDGES, n_rounds=8)
        total = sum(reference.values())
        n = len(reference)
        # Integer floor division only ever loses mass, never creates it.
        assert n * 10**6 * 0.97 < total <= n * 10**6

    @pytest.mark.parametrize("relaxed", [False, True])
    def test_kernels_agree(self, relaxed):
        workload = make_pagerank_workload(EDGES, n_pe=3, n_rounds=5)
        reference, *optimised = [
            run_lid(
                workload.netlist, rs_counts=workload.rs_counts,
                relaxed=relaxed, kernel=kernel,
                stop_process=workload.stop_process,
                max_cycles=workload.max_cycles_hint,
            )
            for kernel in ALL_KERNELS
        ]
        for result in optimised:
            _identical(reference, result)

    def test_lockstep_eligible_and_identical(self):
        # done_threshold == n_rounds * n_pe makes the ring a pure
        # firing-count workload: the SoA kernel sweeps it vectorially.
        workload = make_pagerank_workload(EDGES, n_pe=2, n_rounds=4)
        pe = workload.netlist.process("pe0")
        assert pe.done_threshold() == 8
        rows = [{name: d for name in workload.rs_counts} for d in range(4)]
        by_kernel = {}
        for kernel in ("fast", "lockstep"):
            results = BatchRunner(workload.netlist, kernel=kernel).run_many(
                rows, stop_process=workload.stop_process,
                max_cycles=workload.max_cycles_hint + 200,
            )
            by_kernel[kernel] = [(r.cycles, r.firings, r.halted) for r in results]
        assert by_kernel["fast"] == by_kernel["lockstep"]
        # Deeper ring pipelining must slow the ring monotonically.
        cycle_counts = [row[0] for row in by_kernel["fast"]]
        assert cycle_counts == sorted(cycle_counts)
        assert len(set(cycle_counts)) == len(cycle_counts)


# ---------------------------------------------------------------------------
# End-to-end: batch, service, bounds, optimiser, sweep, CLI
# ---------------------------------------------------------------------------

class TestEndToEnd:
    def test_sharded_batch_matches_serial_on_generated_mesh(self):
        topology = mesh_topology(rows=2, cols=3, source_limit=20)
        rows = [
            {name: extra for name in topology.rs_counts} for extra in range(4)
        ]
        runner = BatchRunner(topology.netlist)
        kwargs = dict(stop_process=topology.stop_process, max_cycles=100_000)
        serial = runner.run_many(rows, workers=1, **kwargs)
        sharded = runner.run_many(rows, workers=2, shards=4, **kwargs)
        assert [(r.cycles, r.firings) for r in serial] == [
            (r.cycles, r.firings) for r in sharded
        ]

    def test_static_bound_is_respected_by_simulation(self):
        topology = ring_topology(stages=5, rs_total=0)
        for extra in range(3):
            rs = {name: extra for name in topology.rs_counts}
            bound = throughput_bound(topology.netlist, rs_counts=rs).bound
            result = run_lid(
                topology.netlist, rs_counts=rs, record_trace=False,
                horizon=50_000, max_cycles=10**9, steady_state=True,
            )
            rate = result.firings[topology.probe_process] / result.cycles
            # Finite horizons round the last partial period up, so allow a
            # hair above the asymptotic bound; the ring sustains it exactly.
            assert rate <= float(bound) + 1e-3
            assert rate == pytest.approx(float(bound), abs=1e-3)

    def test_optimizer_runs_on_generated_topology(self):
        topology = marked_graph_topology(loop_lengths=(2, 4), rs_per_loop=0)
        netlist = topology.netlist
        objective = BatchRunner(netlist).objective(
            horizon=600, max_cycles=10**9,
        )
        space = SearchSpace.bounded(netlist.link_names(), maximum=1)
        outcome = greedy_search(space, objective)
        assert outcome.score > 0.0
        # Adding relay stations to a marked graph can only cut throughput;
        # greedy search must keep the all-zero assignment.
        assert all(v == 0 for v in outcome.assignment.values())

    def test_service_sweep_caches_and_matches_local(self, tmp_path):
        from repro.experiments import topology_sweep
        from repro.service import EvaluationService, ResultCache

        topology = ring_topology(stages=4, rs_total=1)
        local = topology_sweep(topology=topology, depths=(0, 1), horizon=400)

        def run_service():
            service = EvaluationService(
                cache=ResultCache(cache_dir=str(tmp_path))
            )
            try:
                sweep = topology_sweep(
                    topology=topology, depths=(0, 1), horizon=400,
                    service=service,
                )
                return sweep, service.stats()
            finally:
                service.close()

        first, stats1 = run_service()
        second, stats2 = run_service()
        for sweep in (first, second):
            assert [
                (p.wp1_throughput, p.wp2_throughput) for p in sweep.points
            ] == [(p.wp1_throughput, p.wp2_throughput) for p in local.points]
        assert stats2["cache"]["hits"] == stats2["submitted"]

    def test_graph_workloads_ride_the_multi_netlist_runner(self):
        bfs = make_bfs_workload(EDGES, root=0, n_pe=2)
        pagerank = make_pagerank_workload(EDGES, n_pe=2, n_rounds=4)
        multi = MultiNetlistRunner(
            {
                "bfs": BatchRunner(bfs.netlist),
                "pagerank": BatchRunner(pagerank.netlist),
            }
        )
        items = [
            ("bfs", bfs.rs_counts),
            ("pagerank", pagerank.rs_counts),
            ("pagerank", {name: 2 for name in pagerank.rs_counts}),
        ]
        results = multi.run_many(
            items, workers=2,
            target_firings={"pe0": pagerank.netlist.process("pe0").done_threshold()},
            max_cycles=10**9,
        )
        assert all(not r.failed for r in results)
        assert results[1].cycles < results[2].cycles


class TestCli:
    @pytest.mark.parametrize(
        "argv",
        [
            ["topology", "generate", "dag", "--param", "width=2"],
            ["topology", "describe", "marked", "--param", "loop_lengths=2,3"],
            [
                "topology", "sweep", "ring", "--param", "stages=4",
                "--depths", "0,1", "--horizon", "400",
            ],
        ],
    )
    def test_topology_commands_run(self, argv, capsys):
        from repro.__main__ import main

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.strip()

    def test_describe_reports_eligibility(self, capsys):
        from repro.__main__ import main

        assert main(["topology", "describe", "torus"]) == 0
        out = capsys.readouterr().out
        assert "eligibility:" in out
        assert "lockstep kernel: eligible" in out
        assert "steady-state detection: plain" in out

    def test_bad_param_is_a_usage_error(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["topology", "generate", "ring", "--param", "stages"])
