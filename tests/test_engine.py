"""Tests for the layered simulation engine (repro.engine).

The heart of this module is the kernel-equivalence property suite: the
array-based :class:`FastKernel` and the codegen-specialized
:class:`CompiledKernel` must match the object-based :class:`ReferenceKernel`
cycle-for-cycle — cycles, firings, traces, stall statistics and queue
occupancies — across randomly generated netlists, relay-station placements,
wrapper flavours and queue capacities.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    Channel,
    DeadlockError,
    FunctionProcess,
    Netlist,
    RSConfiguration,
    SimulationError,
    ring_netlist,
    run_lid,
)
from repro.core.simulator import LidResult, LidSimulator
from repro.cpu import build_pipelined_cpu
from repro.cpu.workloads import make_extraction_sort
from repro.engine import (
    BatchRunner,
    Elaborator,
    InstrumentSet,
    elaborate,
    generate_run_source,
    kernel_registry,
    make_kernel,
    resolve_kernel_name,
)
from repro.engine.codegen import STOP_ANY_DONE, STOP_TARGET, compiled_run_fn
from repro.engine.kernel import KERNEL_ENV_VAR, RunControls

ALL_KERNELS = ("reference", "fast", "compiled")
#: The optimised kernels pinned against the executable specification.
OPTIMISED_KERNELS = ("fast", "compiled")


# ---------------------------------------------------------------------------
# Random netlist generation
# ---------------------------------------------------------------------------

def _transition(proc_index, n_outs):
    """A deterministic state machine mixing its inputs into its outputs."""

    def transition(state, inputs):
        acc = state * 31 + proc_index
        for port in sorted(inputs):
            value = inputs[port]
            acc = (acc * 17 + (0 if value is None else int(value) + 1)) % 100003
        return acc, {f"o{k}": (acc + k) % 1009 for k in range(n_outs)}

    return transition


def _oracle(ports, period):
    """A WP2 oracle requiring a rotating subset of the input ports.

    Depends only on the process state (the paper's contract), so both
    kernels observe identical oracle answers.
    """

    def oracle(state):
        if period == 0:
            return None  # all ports required -> WP2 degenerates to WP1
        keep = [port for k, port in enumerate(ports) if (state + k) % period != 0]
        return frozenset(keep)

    return oracle


@st.composite
def random_netlists(draw):
    """Random strongly-connected-ish netlists with loops, fan-out and oracles."""
    n_procs = draw(st.integers(min_value=1, max_value=4))
    n_outs = [draw(st.integers(min_value=1, max_value=2)) for _ in range(n_procs)]
    n_ins = [draw(st.integers(min_value=0 if n_procs > 1 else 1, max_value=2))
             for _ in range(n_procs)]
    if all(n == 0 for n in n_ins):
        n_ins[0] = 1

    processes = []
    for p in range(n_procs):
        ports = tuple(f"i{k}" for k in range(n_ins[p]))
        period = draw(st.integers(min_value=0, max_value=3))
        processes.append(
            FunctionProcess(
                name=f"p{p}",
                inputs=ports,
                outputs=tuple(f"o{k}" for k in range(n_outs[p])),
                transition=_transition(p, n_outs[p]),
                initial_state=p,
                oracle=_oracle(ports, period) if ports else None,
            )
        )

    channels = []
    rs_counts = {}
    cid = 0
    for p in range(n_procs):
        for k in range(n_ins[p]):
            src = draw(st.integers(min_value=0, max_value=n_procs - 1))
            src_port = draw(st.integers(min_value=0, max_value=n_outs[src] - 1))
            name = f"c{cid}"
            channels.append(
                Channel(
                    name=name,
                    source=f"p{src}",
                    source_port=f"o{src_port}",
                    dest=f"p{p}",
                    dest_port=f"i{k}",
                    initial=draw(st.integers(min_value=0, max_value=5)),
                )
            )
            rs_counts[name] = draw(st.integers(min_value=0, max_value=3))
            cid += 1

    netlist = Netlist(processes, channels, name="random")
    relaxed = draw(st.booleans())
    queue_capacity = draw(st.integers(min_value=1, max_value=5))
    return netlist, rs_counts, relaxed, queue_capacity


def _run(netlist, rs_counts, relaxed, queue_capacity, kernel):
    """Run one kernel; normalise the (outcome kind, payload) for comparison."""
    try:
        result = run_lid(
            netlist,
            rs_counts=rs_counts,
            relaxed=relaxed,
            queue_capacity=queue_capacity,
            kernel=kernel,
            target_firings={netlist.process_names()[0]: 25},
            max_cycles=4_000,
            deadlock_limit=200,
        )
    except DeadlockError:
        return ("deadlock", None)
    except SimulationError:
        return ("timeout", None)
    return ("ok", result)


def _assert_identical(a: LidResult, b: LidResult) -> None:
    assert a.cycles == b.cycles
    assert a.firings == b.firings
    assert a.halted == b.halted
    assert a.wrapper_kind == b.wrapper_kind
    assert a.rs_counts == b.rs_counts
    assert a.shell_stats == b.shell_stats
    assert a.max_queue_occupancy == b.max_queue_occupancy
    assert set(a.trace) == set(b.trace)
    for name in a.trace:
        assert list(a.trace[name].items) == list(b.trace[name].items), name


@st.composite
def generated_topologies(draw):
    """Random parameterisations of the :mod:`repro.topology` generator zoo."""
    kind = draw(st.sampled_from(("ring", "dag", "mesh", "torus", "marked", "random")))
    if kind == "ring":
        params = {
            "stages": draw(st.integers(min_value=2, max_value=5)),
            "rs_total": draw(st.integers(min_value=0, max_value=4)),
        }
    elif kind == "dag":
        params = {
            "width": draw(st.integers(min_value=1, max_value=3)),
            "depth": draw(st.integers(min_value=1, max_value=2)),
            "source_limit": 10,
        }
    elif kind in ("mesh", "torus"):
        params = {
            "rows": draw(st.integers(min_value=2, max_value=3)),
            "cols": draw(st.integers(min_value=2, max_value=3)),
        }
        if kind == "mesh":
            params["source_limit"] = 10
    elif kind == "marked":
        params = {
            "loop_lengths": tuple(
                draw(st.lists(st.integers(min_value=1, max_value=4),
                              min_size=1, max_size=3))
            ),
        }
    else:
        params = {
            "seed": draw(st.integers(min_value=0, max_value=2**16)),
            "n_processes": draw(st.integers(min_value=2, max_value=6)),
            "extra_channels": draw(st.integers(min_value=0, max_value=3)),
            "allow_cycles": draw(st.booleans()),
            "with_oracles": draw(st.booleans()),
        }
    relaxed = draw(st.booleans())
    queue_capacity = draw(st.integers(min_value=1, max_value=4))
    return kind, params, relaxed, queue_capacity


class TestKernelEquivalence:
    @given(data=random_netlists())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_netlists(self, data):
        """All kernels agree on cycles, firings, traces, stats, occupancy."""
        netlist, rs_counts, relaxed, queue_capacity = data
        kind_ref, ref = _run(netlist, rs_counts, relaxed, queue_capacity, "reference")
        for kernel in OPTIMISED_KERNELS:
            kind, result = _run(netlist, rs_counts, relaxed, queue_capacity, kernel)
            assert kind_ref == kind, kernel
            if ref is not None:
                _assert_identical(ref, result)

    @given(data=generated_topologies())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_generated_topologies(self, data):
        """Full cross-kernel agreement on the topology generator zoo.

        Scalar kernels must stay bit-identical on every shape the zoo can
        produce (rings, fan-out DAGs, meshes, tori, marked graphs, seeded
        random graphs with WP2 oracles), and a lockstep batch over the same
        rows must match the fast kernel item for item — by taking the vector
        path where the shape is eligible and falling back where it is not.
        """
        from repro.topology import make_topology

        kind, params, relaxed, queue_capacity = data
        topology = make_topology(kind, **params)
        netlist, rs_counts = topology.netlist, topology.rs_counts
        kind_ref, ref = _run(netlist, rs_counts, relaxed, queue_capacity, "reference")
        for kernel in OPTIMISED_KERNELS:
            outcome, result = _run(netlist, rs_counts, relaxed, queue_capacity, kernel)
            assert kind_ref == outcome, kernel
            if ref is not None:
                _assert_identical(ref, result)
        rows = [
            dict(rs_counts),
            {name: count + 1 for name, count in rs_counts.items()},
        ]
        outcomes = {}
        for kernel in ("fast", "lockstep"):
            runner = BatchRunner(
                netlist, relaxed=relaxed,
                queue_capacity=queue_capacity, kernel=kernel,
            )
            results = runner.run_many(
                rows, on_error="zero",
                target_firings={netlist.process_names()[0]: 25},
                max_cycles=4_000, deadlock_limit=200,
            )
            outcomes[kernel] = [
                (r.failed, r.error, r.cycles, r.firings) for r in results
            ]
        assert outcomes["fast"] == outcomes["lockstep"]

    @pytest.mark.parametrize("stages,rs_total", [(1, 0), (2, 1), (3, 4), (5, 2)])
    @pytest.mark.parametrize("relaxed", [False, True])
    def test_rings(self, stages, rs_total, relaxed):
        netlist, rs_counts = ring_netlist(stages, rs_total=rs_total)
        reference, *optimised = [
            run_lid(
                netlist, rs_counts=rs_counts, relaxed=relaxed, kernel=kernel,
                target_firings={"stage0": 40}, max_cycles=10_000,
            )
            for kernel in ALL_KERNELS
        ]
        for result in optimised:
            _assert_identical(reference, result)

    @pytest.mark.parametrize("relaxed", [False, True])
    def test_case_study_cpu(self, relaxed):
        """Full equivalence on the Figure 1 processor, multi-RS chains included."""
        cpu = build_pipelined_cpu(make_extraction_sort(length=5, seed=11).program)
        config = RSConfiguration.uniform_plus(1, {"RF-DC": 2})
        reference, *optimised = [
            cpu.run_wire_pipelined(configuration=config, relaxed=relaxed, kernel=kernel)
            for kernel in ALL_KERNELS
        ]
        for result in optimised:
            _assert_identical(reference, result)


# ---------------------------------------------------------------------------
# Kernel selection and instrumentation
# ---------------------------------------------------------------------------

class TestKernelSelection:
    def test_default_kernel_is_compiled(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        assert resolve_kernel_name(None) == "compiled"

    def test_unknown_kernel_rejected(self):
        netlist, rs_counts = ring_netlist(2, rs_total=1)
        with pytest.raises(SimulationError):
            run_lid(netlist, rs_counts=rs_counts, kernel="warp", max_cycles=10)

    def test_registry_names(self):
        assert set(kernel_registry()) == {"reference", "fast", "compiled", "lockstep"}

    def test_reference_facade_exposes_object_view(self):
        netlist, rs_counts = ring_netlist(2, rs_total=1)
        simulator = LidSimulator(netlist, rs_counts=rs_counts, kernel="reference")
        assert set(simulator.shells) == {"stage0", "stage1"}
        assert set(simulator.pipelines) == {"c0_1", "c1_0"}

    @pytest.mark.parametrize("kernel", OPTIMISED_KERNELS)
    def test_fast_facade_has_no_object_view(self, kernel):
        netlist, rs_counts = ring_netlist(2, rs_total=1)
        simulator = LidSimulator(netlist, rs_counts=rs_counts, kernel=kernel)
        assert simulator.shells == {} and simulator.pipelines == {}

    def test_env_variable_selects_kernel(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "compiled")
        assert resolve_kernel_name(None) == "compiled"

    def test_explicit_kernel_beats_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "compiled")
        assert resolve_kernel_name("reference") == "reference"

    def test_empty_env_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "")
        assert resolve_kernel_name(None) == "compiled"

    def test_invalid_env_kernel_rejected(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "warp")
        with pytest.raises(SimulationError, match="REPRO_KERNEL"):
            resolve_kernel_name(None)


class TestInstrumentation:
    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_uninstrumented_run_carries_no_observations(self, kernel):
        netlist, rs_counts = ring_netlist(3, rs_total=2)
        model = elaborate(netlist, rs_counts=rs_counts)
        result = make_kernel(model, kernel).run(
            RunControls(target_firings={"stage0": 10}, max_cycles=500),
            InstrumentSet.none(),
        )
        assert result.shell_stats == {}
        assert result.max_queue_occupancy == {}
        assert all(result.trace[name].cycles == 0 for name in result.trace)
        assert result.cycles > 0 and result.firings["stage0"] >= 10

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_instrument_flags_do_not_change_schedule(self, kernel):
        netlist, rs_counts = ring_netlist(3, rs_total=2)
        model = elaborate(netlist, rs_counts=rs_counts)
        controls = RunControls(target_firings={"stage0": 20}, max_cycles=1000)
        bare = make_kernel(model, kernel).run(controls, InstrumentSet.none())
        full = make_kernel(model, kernel).run(controls, InstrumentSet.all())
        assert bare.cycles == full.cycles
        assert bare.firings == full.firings


# ---------------------------------------------------------------------------
# Elaboration
# ---------------------------------------------------------------------------

class TestElaboration:
    def test_layout_is_shared_across_bindings(self):
        netlist, _ = ring_netlist(4, rs_total=0)
        elaborator = Elaborator(netlist)
        light = elaborator.bind(rs_counts={"c0_1": 1})
        heavy = elaborator.bind(rs_counts={"c0_1": 3, "c2_3": 2})
        assert light.layout is heavy.layout
        assert len(light.queue_caps) == 4 + 1
        assert len(heavy.queue_caps) == 4 + 5

    def test_unknown_channel_rejected(self):
        netlist, _ = ring_netlist(2)
        with pytest.raises(SimulationError):
            elaborate(netlist, rs_counts={"ghost": 1})

    def test_negative_counts_rejected(self):
        netlist, _ = ring_netlist(2)
        with pytest.raises(SimulationError):
            elaborate(netlist, rs_counts={"c0_1": -2})

    def test_queue_names_match_reference_naming(self):
        netlist, rs_counts = ring_netlist(2, rs_total=2)
        model = elaborate(netlist, rs_counts=rs_counts)
        assert "stage0.in" in model.queue_names
        assert "c0_1.rs0" in model.queue_names


# ---------------------------------------------------------------------------
# Batch runner
# ---------------------------------------------------------------------------

def _sort_cpu():
    return build_pipelined_cpu(make_extraction_sort(length=4, seed=3).program)


class TestBatchRunner:
    def test_matches_individual_runs(self):
        cpu = _sort_cpu()
        configs = [
            RSConfiguration.ideal(),
            RSConfiguration.uniform(1, exclude=("CU-IC",)),
            RSConfiguration.only("CU-RF", 2),
        ]
        runner = BatchRunner(cpu.netlist, relaxed=True)
        batch = runner.run_many(configs, stop_process="CU")
        for config, summary in zip(configs, batch):
            direct = cpu.run_wire_pipelined(
                configuration=config, relaxed=True, record_trace=False
            )
            assert summary.cycles == direct.cycles
            assert summary.firings == direct.firings
            assert summary.label == config.label
            assert not summary.failed

    def test_accepts_raw_rs_counts(self):
        netlist, rs_counts = ring_netlist(3, rs_total=2)
        runner = BatchRunner(netlist)
        [summary] = runner.run_many(
            [rs_counts], target_firings={"stage0": 15}, max_cycles=1000
        )
        assert summary.cycles > 0
        assert summary.throughput() == pytest.approx(
            min(summary.firings.values()) / summary.cycles
        )

    def test_on_error_zero_scores_deadlocks(self):
        from repro.core import CounterSource, SinkProcess

        source = CounterSource("src", limit=0)
        sink = SinkProcess("sink")
        netlist = Netlist(
            [source, sink],
            [Channel("data", "src", "out", "sink", "in", initial=0)],
        )
        runner = BatchRunner(netlist)
        [summary] = runner.run_many(
            [RSConfiguration.ideal()],
            on_error="zero",
            target_firings={"sink": 10},
            max_cycles=10_000,
            deadlock_limit=50,
        )
        assert summary.failed
        assert summary.throughput() == 0.0

    def test_objective_feeds_optimizer(self):
        from repro.core import SearchSpace, greedy_search

        cpu = _sort_cpu()
        golden = cpu.run_golden(record_trace=False)
        runner = BatchRunner(cpu.netlist, relaxed=True)
        objective = runner.objective(
            golden_cycles=golden.cycles, stop_process="CU"
        )
        space = SearchSpace.bounded(
            cpu.netlist.link_names(), maximum=1, fixed={"CU-IC": 0}
        )
        result = greedy_search(space, objective)
        assert 0.0 < result.score <= 1.0

    def test_simulated_throughput_objective_helper(self):
        from repro.core import simulated_throughput_objective

        cpu = _sort_cpu()
        golden = cpu.run_golden(record_trace=False)
        objective = simulated_throughput_objective(
            cpu.netlist, relaxed=False,
            golden_cycles=golden.cycles, stop_process="CU",
        )
        ideal = objective({})
        pipelined = objective({"CU-RF": 1})
        assert ideal == pytest.approx(1.0)
        assert 0.0 < pipelined < ideal

    @pytest.mark.skipif(
        sys.platform == "win32", reason="process fan-out requires fork"
    )
    def test_parallel_fan_out_matches_serial(self):
        cpu = _sort_cpu()
        configs = [
            RSConfiguration.ideal(),
            RSConfiguration.uniform(1, exclude=("CU-IC",)),
            RSConfiguration.uniform(2, exclude=("CU-IC",)),
            RSConfiguration.only("RF-DC", 1),
        ]
        runner = BatchRunner(cpu.netlist)
        serial = runner.run_many(configs, stop_process="CU")
        parallel = runner.run_many(configs, workers=2, stop_process="CU")
        assert [s.cycles for s in serial] == [p.cycles for p in parallel]
        assert [s.firings for s in serial] == [p.firings for p in parallel]


# ---------------------------------------------------------------------------
# LidResult regression
# ---------------------------------------------------------------------------

class TestLidResultThroughput:
    def test_empty_firings_yield_zero(self):
        from repro.core.traces import SystemTrace

        result = LidResult(
            cycles=100,
            firings={},
            trace=SystemTrace(()),
            halted=True,
            wrapper_kind="WP1",
            configuration_label="empty",
            rs_counts={},
        )
        assert result.throughput() == 0.0

    def test_zero_cycles_yield_zero(self):
        from repro.core.traces import SystemTrace

        result = LidResult(
            cycles=0,
            firings={"p": 0},
            trace=SystemTrace(()),
            halted=False,
            wrapper_kind="WP1",
            configuration_label="empty",
            rs_counts={},
        )
        assert result.throughput() == 0.0


class TestOutputValidationParity:
    """Both kernels reject misbehaving processes with the same NetlistError."""

    @staticmethod
    def _netlist(transition):
        producer = FunctionProcess("p", ("in",), ("out",), transition)
        return Netlist(
            [producer], [Channel("loop", "p", "out", "p", "in", initial=0)]
        )

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_undeclared_output_port_rejected(self, kernel):
        from repro.core import NetlistError

        netlist = self._netlist(
            lambda state, inputs: (state, {"out": 1, "ghost": 2})
        )
        with pytest.raises(NetlistError, match="undeclared output ports"):
            run_lid(
                netlist, kernel=kernel,
                target_firings={"p": 3}, max_cycles=50,
            )

    @pytest.mark.parametrize("kernel", ALL_KERNELS)
    def test_undriven_output_port_rejected(self, kernel):
        from repro.core import NetlistError

        netlist = self._netlist(lambda state, inputs: (state, {}))
        with pytest.raises(NetlistError, match="did not drive output ports"):
            run_lid(
                netlist, kernel=kernel,
                target_firings={"p": 3}, max_cycles=50,
            )


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------

def _codegen_topologies():
    """Representative netlists: lines, rings (cyclic), fan-out, self-loops."""
    from repro.core import CounterSource, PassthroughProcess, SinkProcess

    ring3, ring3_rs = ring_netlist(3, rs_total=2)
    ring1, ring1_rs = ring_netlist(1, rs_total=1)  # single-process self-loop

    source = CounterSource("src", limit=20)
    mid = PassthroughProcess("mid")
    sink_a = SinkProcess("sink_a")
    sink_b = SinkProcess("sink_b")
    fanout = Netlist(
        [source, mid, sink_a, sink_b],
        [
            Channel("c_src", "src", "out", "mid", "in", initial=0),
            Channel("c_a", "mid", "out", "sink_a", "in", initial=0),
            Channel("c_b", "mid", "out", "sink_b", "in", initial=0),
        ],
        name="fanout",
    )
    cpu = build_pipelined_cpu(make_extraction_sort(length=4, seed=3).program)
    return [
        ("ring3", ring3, ring3_rs),
        ("self-loop", ring1, ring1_rs),
        ("fanout", fanout, {"c_src": 1}),
        ("cpu", cpu.netlist, {name: 1 for name in cpu.netlist.channels}),
    ]


class TestCodegen:
    @pytest.mark.parametrize("relaxed", [False, True])
    @pytest.mark.parametrize(
        "instruments",
        [InstrumentSet.none(), InstrumentSet.all(),
         InstrumentSet(trace=False, shell_stats=True, occupancy=False)],
        ids=["none", "all", "stats-only"],
    )
    def test_generated_source_round_trips_compile(self, relaxed, instruments):
        """The emitted source compiles for every topology, cyclic ones included."""
        from repro.engine.codegen import ENTRY_POINT

        for label, netlist, rs_counts in _codegen_topologies():
            model = elaborate(netlist, rs_counts=rs_counts, relaxed=relaxed)
            for stop_mode in (STOP_ANY_DONE, STOP_TARGET):
                source = generate_run_source(model, instruments, stop_mode)
                code = compile(source, f"<test:{label}>", "exec")
                namespace: dict = {}
                exec(code, namespace)  # placeholder globals; only check shape
                assert callable(namespace[ENTRY_POINT]), label

    def test_compiled_fn_cached_per_signature(self):
        netlist, rs_counts = ring_netlist(3, rs_total=2)
        elaborator = Elaborator(netlist)
        model_a = elaborator.bind(rs_counts=rs_counts)
        model_b = elaborator.bind(rs_counts=rs_counts)
        fn_a = compiled_run_fn(model_a, InstrumentSet.none())
        fn_b = compiled_run_fn(model_b, InstrumentSet.none())
        assert fn_a is fn_b  # same layout + same signature -> same code object

    def test_distinct_signatures_compile_separately(self):
        netlist, _ = ring_netlist(3, rs_total=0)
        elaborator = Elaborator(netlist)
        light = elaborator.bind(rs_counts={"c0_1": 1})
        heavy = elaborator.bind(rs_counts={"c0_1": 2})
        fn_light = compiled_run_fn(light, InstrumentSet.none())
        fn_heavy = compiled_run_fn(heavy, InstrumentSet.none())
        # Relay-chain lengths are runtime data: both chains share one function.
        assert fn_light is fn_heavy
        controls = RunControls(horizon=300)
        for model in (light, heavy):
            _assert_identical(
                make_kernel(model, "compiled").run(controls, InstrumentSet.all()),
                make_kernel(model, "reference").run(controls, InstrumentSet.all()),
            )

    def test_generated_source_attached_for_debugging(self):
        netlist, rs_counts = ring_netlist(2, rs_total=1)
        model = elaborate(netlist, rs_counts=rs_counts)
        fn = compiled_run_fn(model, InstrumentSet.none())
        assert "def __lid_run" in fn.__lid_source__

    def test_generation_is_deterministic(self):
        netlist, rs_counts = ring_netlist(4, rs_total=3)
        model = elaborate(netlist, rs_counts=rs_counts, relaxed=True)
        first = generate_run_source(model, InstrumentSet.all())
        second = generate_run_source(model, InstrumentSet.all())
        assert first == second


# ---------------------------------------------------------------------------
# Sharded batch fan-out (fork and spawn)
# ---------------------------------------------------------------------------

class TestShardedBatch:
    CONFIGS = staticmethod(lambda: [
        RSConfiguration.ideal(),
        RSConfiguration.uniform(1, exclude=("CU-IC",)),
        RSConfiguration.uniform(2, exclude=("CU-IC",)),
        RSConfiguration.only("RF-DC", 1),
        RSConfiguration.only("CU-RF", 2),
    ])

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pool_matches_serial_under_both_start_methods(self, start_method):
        import multiprocessing

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} not available")
        cpu = _sort_cpu()
        configs = self.CONFIGS()
        runner = BatchRunner(cpu.netlist)
        serial = runner.run_many(configs, stop_process="CU")
        pooled = runner.run_many(
            configs, workers=2, start_method=start_method, stop_process="CU"
        )
        assert [s.cycles for s in serial] == [p.cycles for p in pooled]
        assert [s.firings for s in serial] == [p.firings for p in pooled]
        assert [s.label for s in serial] == [p.label for p in pooled]

    def test_sharding_preserves_order(self):
        cpu = _sort_cpu()
        configs = self.CONFIGS()
        runner = BatchRunner(cpu.netlist)
        serial = runner.run_many(configs, stop_process="CU")
        sharded = runner.run_many(configs, workers=2, shards=5, stop_process="CU")
        assert [s.cycles for s in serial] == [p.cycles for p in sharded]

    def test_unpicklable_netlist_uses_fork_inheritance(self):
        if not sys.platform.startswith(("linux", "darwin")):
            pytest.skip("fork inheritance requires a fork platform")
        netlist, rs_counts = ring_netlist(3, rs_total=2)  # closure processes
        runner = BatchRunner(netlist)
        serial = runner.run_many(
            [rs_counts] * 4, target_firings={"stage0": 15}, max_cycles=1000
        )
        parallel = runner.run_many(
            [rs_counts] * 4, workers=2,
            target_firings={"stage0": 15}, max_cycles=1000,
        )
        assert [s.cycles for s in serial] == [p.cycles for p in parallel]

    def test_serial_fallback_warns_when_parallelism_unavailable(self, monkeypatch):
        from repro.engine import batch as batch_module

        netlist, rs_counts = ring_netlist(3, rs_total=2)  # unpicklable
        monkeypatch.setattr(batch_module, "_fork_available", lambda: False)
        runner = BatchRunner(netlist)
        with pytest.warns(RuntimeWarning, match="serially"):
            results = runner.run_many(
                [rs_counts] * 2, workers=2,
                target_firings={"stage0": 15}, max_cycles=1000,
            )
        assert len(results) == 2 and all(r.cycles > 0 for r in results)

    def test_per_item_queue_capacity_overrides(self):
        cpu = _sort_cpu()
        config = RSConfiguration.uniform(1, exclude=("CU-IC",))
        runner = BatchRunner(cpu.netlist)
        shallow, deep = runner.run_many(
            [(config, {"queue_capacity": 2}), (config, {"queue_capacity": 8})],
            stop_process="CU",
        )
        direct_shallow = runner.run(
            configuration=config, queue_capacity=2, stop_process="CU"
        )
        direct_deep = runner.run(
            configuration=config, queue_capacity=8, stop_process="CU"
        )
        assert shallow.cycles == direct_shallow.cycles
        assert deep.cycles == direct_deep.cycles

    def test_unknown_item_override_rejected(self):
        cpu = _sort_cpu()
        runner = BatchRunner(cpu.netlist)
        with pytest.raises(SimulationError, match="unknown batch item overrides"):
            runner.run_many(
                [(RSConfiguration.ideal(), {"warp": 9})], stop_process="CU"
            )

    def test_objective_many_matches_scalar(self):
        from repro.core import simulated_throughput_objective

        cpu = _sort_cpu()
        golden = cpu.run_golden(record_trace=False)
        objective = simulated_throughput_objective(
            cpu.netlist, golden_cycles=golden.cycles, stop_process="CU"
        )
        assignments = [{}, {"CU-RF": 1}, {"RF-DC": 2}]
        assert objective.many(assignments) == [
            objective(assignment) for assignment in assignments
        ]

    def test_exhaustive_search_uses_batch_objective(self):
        from repro.core import SearchSpace, exhaustive_search, simulated_throughput_objective

        cpu = _sort_cpu()
        golden = cpu.run_golden(record_trace=False)
        calls = {"many": 0}
        objective = simulated_throughput_objective(
            cpu.netlist, golden_cycles=golden.cycles, stop_process="CU"
        )
        inner_many = objective.many

        def counting_many(assignments):
            calls["many"] += 1
            return inner_many(assignments)

        objective.many = counting_many
        space = SearchSpace.bounded(
            cpu.netlist.link_names(), maximum=1, fixed={"CU-IC": 0}
        )
        result = exhaustive_search(space, objective)
        assert calls["many"] == 1
        assert 0.0 < result.score <= 1.0
        assert result.evaluations > 0
