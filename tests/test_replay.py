"""Trace once, time many: the golden run's firing trace and the replay layout.

Firing *k* of a shell-wrapped process consumes the *k*-th valid token of
every input whatever the relay stations, so its oracle answer and done flag
at firing *k* are the same in every run (the paper's latency-insensitivity
theorem).  The golden run records them as a
:class:`~repro.core.golden.FiringTrace`; the compiled kernel's replay layout
times done-stop rows from it without calling ``fire``.  This module pins:

* the theorem itself, as a property over random relay-station vectors,
  capacities and wrappers (CPU units, contract-abiding random netlists and
  the PageRank ring);
* replayed rows against full ``compiled`` and ``reference`` rows;
* the fallback: a row the trace cannot answer runs in full;
* the replay source, its cache key, the Table 1 plumbing and the result
  provenance fields.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    Channel, FiringTrace, FunctionProcess, Netlist, RSConfiguration, run_golden,
)
from repro.core.exceptions import DeadlockError, SimulationError
from repro.core.process import SCHEDULE_INERT, PassthroughProcess, overrides_hook
from repro.cpu import build_pipelined_cpu
from repro.cpu.workloads import make_extraction_sort, make_matrix_multiply
from repro.engine import BatchRunner, InstrumentSet, MultiNetlistRunner, elaborate
from repro.engine.batch import BatchResult
from repro.engine.codegen import compiled_run_fn, model_signature
from repro.engine.compiled import CompiledKernel
from repro.engine.kernel import RunControls
from repro.topology.generators import random_topology
from repro.workloads.graph import make_pagerank_workload

_CPUS = {}


def _program(workload: str):
    return (
        make_extraction_sort(length=6, seed=7)
        if workload == "sort"
        else make_matrix_multiply(size=2, seed=7)
    ).program


def _cpu(workload: str):
    """One small pipelined CPU per workload, golden-run (so its netlist
    carries its firing trace), shared by the examples."""
    if workload not in _CPUS:
        cpu = build_pipelined_cpu(_program(workload))
        cpu.run_golden(record_trace=False)
        _CPUS[workload] = (cpu, cpu.netlist.firing_trace)
    return _CPUS[workload]


def _twin(workload: str) -> Netlist:
    """A freshly built twin of ``_cpu(workload)``'s netlist: same identity,
    no golden run, so its rows simulate in full."""
    return build_pipelined_cpu(_program(workload)).netlist


def _mask(process, answer) -> int:
    """An oracle answer interned the way the trace interns it."""
    ports = process.input_ports
    if answer is None:
        return (1 << len(ports)) - 1
    return sum(1 << i for i, port in enumerate(ports) if port in answer)


class _RecordedOracles:
    """Records every oracle answer right before each ``fire`` of a netlist."""

    def __init__(self, netlist: Netlist) -> None:
        self.processes = list(netlist.processes.values())
        self.answers = {}
        for index, process in enumerate(self.processes):
            if not overrides_hook(process, "required_ports"):
                continue
            answers = self.answers[index] = []
            fire = process.fire

            def recording(inputs, process=process, fire=fire, answers=answers):
                answers.append(_mask(process, process.required_ports()))
                return fire(inputs)

            process.fire = recording

    def __enter__(self) -> "_RecordedOracles":
        return self

    def __exit__(self, *exc) -> None:
        for process in self.processes:
            process.__dict__.pop("fire", None)

    def assert_matches(self, trace: FiringTrace) -> None:
        """Every recorded answer equals the trace's at its firing index."""
        for index, answers in self.answers.items():
            recorded = trace.oracle[index]
            assert len(answers) <= len(recorded), "run fired past the trace"
            assert bytes(answers) == bytes(recorded[: len(answers)])


def _rs_vector(draw, netlist, limit=2):
    return {
        name: draw(st.integers(min_value=0, max_value=limit))
        for name in netlist.channels
    }


def _abiding_transition(index, n_outs, oracle):
    """Mixes only the ports its oracle requires: the paper's contract."""

    def transition(state, inputs):
        required = oracle(state) if oracle is not None else None
        acc = state * 31 + index
        for port in sorted(inputs):
            if required is not None and port not in required:
                continue
            acc = (acc * 17 + int(inputs[port]) + 1) % 100003
        return acc, {f"o{k}": (acc + k) % 1009 for k in range(n_outs)}

    return transition


def _rotating_oracle(ports, period):
    def oracle(state):
        return frozenset(
            port for k, port in enumerate(ports) if (state + k) % period != 0
        )

    return oracle


@st.composite
def abiding_netlists(draw):
    """Random netlists (loops, fan-out) whose oracles honour the contract."""
    n_procs = draw(st.integers(min_value=2, max_value=4))
    n_ins = [draw(st.integers(min_value=1, max_value=3)) for _ in range(n_procs)]
    processes = []
    for p in range(n_procs):
        ports = tuple(f"i{k}" for k in range(n_ins[p]))
        period = draw(st.integers(min_value=0, max_value=3))
        oracle = _rotating_oracle(ports, period) if period else None
        processes.append(
            FunctionProcess(
                name=f"p{p}",
                inputs=ports,
                outputs=("o0", "o1"),
                transition=_abiding_transition(p, 2, oracle),
                initial_state=p,
                oracle=oracle,
            )
        )
    channels = [
        Channel(
            name=f"c{p}_{k}",
            source=f"p{draw(st.integers(min_value=0, max_value=n_procs - 1))}",
            source_port=f"o{draw(st.integers(min_value=0, max_value=1))}",
            dest=f"p{p}",
            dest_port=f"i{k}",
            initial=draw(st.integers(min_value=0, max_value=5)),
        )
        for p in range(n_procs)
        for k in range(n_ins[p])
    ]
    return Netlist(processes, channels, name="abiding")


class TestFiringTrace:
    def test_recorded_without_a_knob(self):
        cpu, _ = _cpu("sort")
        golden = cpu.run_golden(record_trace=False)
        trace = cpu.netlist.firing_trace
        assert trace.netlist_identity == cpu.netlist.identity
        assert trace.firings == golden.cycles
        cu = list(cpu.netlist.processes).index(cpu.control_unit.name)
        assert trace.done_at[cu] == golden.cycles
        for index, process in enumerate(cpu.netlist.processes.values()):
            if overrides_hook(process, "required_ports"):
                assert len(trace.oracle[index]) == golden.cycles + 1
            else:
                assert trace.oracle[index] is None

    def test_trace_pickles_small(self):
        _, trace = _cpu("matmul")
        assert pickle.loads(pickle.dumps(trace)) == trace
        assert len(pickle.dumps(trace)) < 16_384

    def _pair(self, oracle=None, done_after=None):
        """A two-process ring; ``b``'s hooks are the test's, ``a`` stops it."""

        class Sink(PassthroughProcess):
            def required_ports(self):
                return oracle(self.firings) if oracle else None

            def is_done(self):
                return done_after(self.firings) if done_after else False

        netlist = Netlist(
            [PassthroughProcess("a"), Sink("b")],
            [
                Channel("ab", "a", "out", "b", "in", initial=0),
                Channel("ba", "b", "out", "a", "in", initial=0),
            ],
        )
        run_golden(netlist, max_cycles=10, stop_process="a")
        return netlist.firing_trace

    def test_unknown_oracle_port_drops_the_trace(self):
        assert self._pair(oracle=lambda k: frozenset({"in"})) is not None
        assert self._pair(oracle=lambda k: frozenset({"nope"})) is None

    def test_done_flag_turning_false_drops_the_trace(self):
        trace = self._pair(done_after=lambda k: k >= 3)
        assert trace.done_at == (None, 3)
        assert self._pair(done_after=lambda k: k == 3) is None

    def test_answers_are_interned_bitmasks(self):
        trace = self._pair(oracle=lambda k: frozenset() if k % 2 else None)
        assert list(trace.oracle[1]) == [1, 0] * 5 + [1]


class TestTheorem:
    """Oracle answers and done flags by firing index are schedule-independent."""

    @settings(
        max_examples=24, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        workload=st.sampled_from(["sort", "matmul"]),
        relaxed=st.booleans(),
        # Capacity-1 FIFOs can deadlock the CPU; the theorem is about the
        # firings a run makes, so the test wants runs that finish.
        capacity=st.integers(min_value=2, max_value=4),
        data=st.data(),
    )
    def test_cpu_units(self, workload, relaxed, capacity, data):
        cpu, trace = _cpu(workload)
        rs = _rs_vector(data.draw, cpu.netlist)
        runner = BatchRunner(
            cpu.netlist, relaxed=relaxed, queue_capacity=capacity, kernel="compiled"
        )
        with _RecordedOracles(cpu.netlist) as recorded:
            result = runner.run(rs_counts=rs, stop_process=cpu.control_unit.name)
        recorded.assert_matches(trace)
        cu = list(cpu.netlist.processes).index(cpu.control_unit.name)
        assert result.firings[cpu.control_unit.name] == trace.done_at[cu]

    @settings(max_examples=30, deadline=None)
    @given(netlist=abiding_netlists(), relaxed=st.booleans(), data=st.data())
    def test_contract_abiding_random_netlists(self, netlist, relaxed, data):
        run_golden(netlist, max_cycles=200)
        trace = netlist.firing_trace
        rs = _rs_vector(data.draw, netlist, limit=3)
        capacity = data.draw(st.integers(min_value=1, max_value=3))
        with _RecordedOracles(netlist) as recorded:
            try:
                BatchRunner(netlist, relaxed=relaxed, queue_capacity=capacity).run(
                    rs_counts=rs, horizon=150, deadlock_limit=100
                )
            except DeadlockError:
                pass  # the firings made before the deadlock still count
        recorded.assert_matches(trace)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=50), data=st.data())
    def test_zoo_oracle_states_under_wp1(self, seed, data):
        netlist = random_topology(seed=seed, with_oracles=True).netlist
        run_golden(netlist, max_cycles=200)
        trace = netlist.firing_trace
        with _RecordedOracles(netlist) as recorded:
            BatchRunner(netlist).run(
                rs_counts=_rs_vector(data.draw, netlist, limit=3), horizon=150
            )
        recorded.assert_matches(trace)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=50), data=st.data())
    def test_zoo_oracle_states_under_wp2(self, seed, data):
        # The zoo's mixing processes fold only the ports their oracle
        # requires, so WP2 (which may feed None on the others) reproduces
        # the golden states too.
        netlist = random_topology(seed=seed, with_oracles=True).netlist
        run_golden(netlist, max_cycles=200)
        trace = netlist.firing_trace
        capacity = data.draw(st.integers(min_value=1, max_value=3))
        with _RecordedOracles(netlist) as recorded:
            try:
                BatchRunner(netlist, relaxed=True, queue_capacity=capacity).run(
                    rs_counts=_rs_vector(data.draw, netlist, limit=3),
                    horizon=150, deadlock_limit=100,
                )
            except DeadlockError:
                pass  # the firings made before the deadlock still count
        recorded.assert_matches(trace)

    @settings(max_examples=10, deadline=None)
    @given(relaxed=st.booleans(), data=st.data())
    def test_pagerank_done_index(self, relaxed, data):
        workload = make_pagerank_workload(
            [(0, 1), (1, 2), (2, 0), (0, 2), (3, 1)], n_pe=3, n_rounds=3
        )
        netlist = workload.netlist
        run_golden(netlist, stop_process=workload.stop_process, max_cycles=5_000)
        trace = netlist.firing_trace
        rs = _rs_vector(data.draw, netlist, limit=3)
        result = BatchRunner(netlist, relaxed=relaxed).run(
            rs_counts=rs, stop_process=workload.stop_process
        )
        stop = list(netlist.processes).index(workload.stop_process)
        assert result.firings[workload.stop_process] == trace.done_at[stop]


def _row(netlist, kernel, relaxed, rs, **controls):
    try:
        return BatchRunner(netlist, relaxed=relaxed, kernel=kernel).run_many(
            [rs], **controls
        )[0]
    except (DeadlockError, SimulationError) as exc:
        return type(exc).__name__


class TestReplayedRows:
    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        workload=st.sampled_from(["sort", "matmul"]),
        relaxed=st.booleans(),
        data=st.data(),
    )
    def test_cpu_rows_equal_full_and_reference(self, workload, relaxed, data):
        cpu, _ = _cpu(workload)
        rs = _rs_vector(data.draw, cpu.netlist)
        stop = cpu.control_unit.name
        replayed = _row(cpu.netlist, "compiled", relaxed, rs, stop_process=stop)
        assert replayed.kernel == "replay" and replayed.fallback is None
        for netlist, kernel in ((_twin(workload), "compiled"),
                                (cpu.netlist, "reference")):
            full = _row(netlist, kernel, relaxed, rs, stop_process=stop)
            assert full.kernel == kernel
            assert (replayed.cycles, replayed.firings, replayed.halted) == (
                full.cycles, full.firings, full.halted
            )
            assert replayed == full

    @settings(max_examples=30, deadline=None)
    @given(netlist=abiding_netlists(), relaxed=st.booleans(), data=st.data())
    def test_random_rows_equal_reference(self, netlist, relaxed, data):
        # Firing targets stop the row; a target past the trace falls back.
        run_golden(netlist, max_cycles=60)
        assert netlist.firing_trace is not None
        rs = _rs_vector(data.draw, netlist, limit=3)
        target = {"p0": data.draw(st.integers(min_value=1, max_value=80))}
        controls = dict(
            target_firings=target, max_cycles=2_000, deadlock_limit=300,
            steady_state=False,  # a detector would take the row instead
        )
        replayed = _row(netlist, "compiled", relaxed, rs, **controls)
        full = _row(netlist, "reference", relaxed, rs, **controls)
        assert replayed == full
        if isinstance(replayed, BatchResult) and replayed.kernel == "compiled":
            assert replayed.fallback == "trace exhausted"

    @pytest.mark.parametrize("stop", ["pe0", None], ids=["stop-process", "any-done"])
    def test_pagerank_rows_equal_reference(self, stop):
        workload = make_pagerank_workload(
            [(0, 1), (1, 2), (2, 0), (0, 2), (3, 1)], n_pe=3, n_rounds=3
        )
        netlist = workload.netlist
        run_golden(netlist, stop_process=stop, max_cycles=5_000)
        # The PE summaries arm a plain plan, which would take the row first.
        controls = dict(stop_process=stop, steady_state=False)
        for relaxed in (False, True):
            for rs in ({}, {name: 2 for name in netlist.channels}):
                replayed = _row(netlist, "compiled", relaxed, rs, **controls)
                assert replayed.kernel == "replay"
                assert replayed == _row(netlist, "reference", relaxed, rs, **controls)

    def test_truncated_trace_runs_in_full(self):
        cpu, trace = _cpu("matmul")
        half = trace.firings // 2
        truncated = _twin("matmul")
        truncated.firing_trace = dataclasses.replace(
            trace,
            firings=half,
            oracle=tuple(None if o is None else o[: half + 1] for o in trace.oracle),
            done_at=tuple(None for _ in trace.done_at),
        )
        stop = cpu.control_unit.name
        for relaxed in (False, True):
            replayed = _row(truncated, "compiled", relaxed, {}, stop_process=stop)
            full = _row(_twin("matmul"), "compiled", relaxed, {}, stop_process=stop)
            assert replayed == full
            assert replayed.kernel == "compiled"
            assert replayed.fallback == "trace exhausted"

    def test_foreign_trace_is_not_replayed(self):
        # Every CPU program has the same process names: only the netlist
        # identity tells the matmul golden trace from the sort one.
        cpu, _ = _cpu("sort")
        _, foreign = _cpu("matmul")
        netlist = _twin("sort")
        netlist.firing_trace = foreign
        stop = cpu.control_unit.name
        for relaxed in (False, True):
            row = _row(netlist, "compiled", relaxed, {}, stop_process=stop)
            assert row == _row(_twin("sort"), "compiled", relaxed, {},
                               stop_process=stop)
            assert row.kernel == "compiled"
            assert row.fallback == "trace recorded on another netlist"

    def test_pool_shards_replay(self):
        cpu, _ = _cpu("sort")
        items = [{name: k % 3 for name in cpu.netlist.channels} for k in range(4)]
        stop = cpu.control_unit.name
        pooled = BatchRunner(cpu.netlist, relaxed=True).run_many(
            items, workers=2, stop_process=stop
        )
        serial = BatchRunner(_twin("sort"), relaxed=True).run_many(
            items, stop_process=stop
        )
        assert pooled == serial
        assert [row.kernel for row in pooled] == ["replay"] * 4
        assert [row.kernel for row in serial] == ["compiled"] * 4


class TestReplaySource:
    def test_source_has_no_fire_and_no_value_traffic(self):
        cpu, _ = _cpu("sort")
        for relaxed in (False, True):
            model = elaborate(cpu.netlist, relaxed=relaxed)
            source = compiled_run_fn(
                model, InstrumentSet.none(), replay=True
            ).__lid_source__
            assert "_fire(" not in source
            assert "_ap(" not in source
            assert "deque" not in source
            full = compiled_run_fn(model, InstrumentSet.none()).__lid_source__
            assert "_fire(" in full and "_ap(" in full

    def test_replay_layout_has_its_own_cache_key(self):
        cpu, _ = _cpu("sort")
        model = elaborate(cpu.netlist, relaxed=True)
        none = InstrumentSet.none()
        assert model_signature(model, none, replay=True) != model_signature(model, none)
        assert compiled_run_fn(model, none, replay=True) is not compiled_run_fn(
            model, none
        )


class TestReplayIsDerived:
    """A golden run leaves its trace on its netlist: every batch row of that
    netlist replays, whoever evaluates it; single runs never do."""

    @pytest.mark.parametrize(
        "workers, start_method",
        [(1, None), (2, "fork"), (2, "spawn")],
        ids=["serial", "fork", "spawn"],
    )
    def test_multi_netlist_rows_replay(self, workers, start_method):
        sort, _ = _cpu("sort")
        matmul, _ = _cpu("matmul")
        netlists = {"sort": sort.netlist, "matmul": matmul.netlist}
        per_layout = {"matmul": {"relaxed": True}}
        items = [
            (name, {chan: k % 3 for chan in netlist.channels})
            for name, netlist in netlists.items()
            for k in range(2)
        ]
        stop = sort.control_unit.name
        rows = MultiNetlistRunner.from_netlists(netlists, per_layout).run_many(
            items, workers=workers, start_method=start_method, stop_process=stop
        )
        reference = MultiNetlistRunner.from_netlists(
            netlists, per_layout, kernel="reference"
        ).run_many(items, stop_process=stop)
        assert [row.kernel for row in rows] == ["replay"] * len(items)
        assert rows == reference

    def test_service_sweeps_deliver_replayed_rows(self):
        from repro.experiments import mixed_workload_sweep, queue_capacity_sweep
        from repro.service import EvaluationService

        sort = make_extraction_sort(length=4, seed=7)
        workloads = {"sort": sort, "matmul": make_matrix_multiply(size=2, seed=7)}
        sweeps = [
            lambda **kw: queue_capacity_sweep(
                workload=sort, capacities=(2, 4), **kw
            ).format(),
            lambda **kw: "\n".join(
                result.format()
                for result in mixed_workload_sweep(
                    workloads=workloads, depths=(0, 1), **kw
                ).values()
            ),
        ]
        for sweep in sweeps:
            jobs = []
            with EvaluationService() as service:
                text = sweep(service=service, on_result=jobs.append)
            assert jobs and all(not job.cached for job in jobs)
            assert {job.result.kernel for job in jobs} == {"replay"}
            assert text == sweep(kernel="reference")

    def test_objective_after_golden_run_scores_the_full_simulation(
        self, monkeypatch
    ):
        from repro.core.optimizer import simulated_throughput_objective
        from repro.cpu.topology import TABLE1_LINK_ORDER

        kernels = []
        original = CompiledKernel.run

        def spy(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            kernels.append(result.kernel)
            return result

        monkeypatch.setattr(CompiledKernel, "run", spy)
        cpu, trace = _cpu("sort")
        assignments = [
            {link: (k + i) % 3 for i, link in enumerate(TABLE1_LINK_ORDER)}
            for k in range(3)
        ]
        scores = {}
        for name, netlist in (("traced", cpu.netlist), ("twin", _twin("sort"))):
            objective = simulated_throughput_objective(
                netlist, relaxed=True, golden_cycles=trace.firings,
                stop_process=cpu.control_unit.name,
            )
            scores[name] = objective.many(assignments) + [objective(assignments[0])]
        assert scores["traced"] == scores["twin"]
        assert kernels == ["replay"] * 4 + ["compiled"] * 4

    def test_single_runs_fire_the_units(self):
        workload = make_extraction_sort(length=6, seed=4)
        cpu = build_pipelined_cpu(workload.program)
        cpu.run_golden(record_trace=False)
        assert cpu.netlist.firing_trace is not None
        cpu.netlist.reset()  # the data memory holds the unsorted image again
        assert cpu.check_memory(workload.expected_memory) != {}
        result = cpu.run_wire_pipelined(
            configuration=RSConfiguration.uniform(1, exclude=("CU-IC",)),
            relaxed=True,
            drain=True,
        )
        assert result.kernel == "compiled" and result.fallback is None
        assert cpu.check_memory(workload.expected_memory) == {}

    def test_trace_is_left_on_the_netlist_and_replaced(self):
        cpu = build_pipelined_cpu(_program("sort"))
        identity = cpu.netlist.identity
        assert cpu.netlist.firing_trace is None
        golden = cpu.run_golden(record_trace=False)
        full = cpu.netlist.firing_trace
        assert full.firings == golden.cycles
        assert pickle.loads(pickle.dumps(cpu.netlist)).firing_trace == full
        cpu.run_golden(record_trace=False, max_cycles=50)
        assert cpu.netlist.firing_trace.firings == 50
        assert cpu.netlist.identity == identity


class _CountingInert(PassthroughProcess):
    calls = 0

    def schedule_state(self):
        type(self).calls += 1
        return SCHEDULE_INERT


def test_schedule_state_sampled_once_per_run():
    netlist = Netlist(
        [_CountingInert("a"), _CountingInert("b")],
        [
            Channel("ab", "a", "out", "b", "in", initial=0),
            Channel("ba", "b", "out", "a", "in", initial=0),
        ],
    )
    model = elaborate(netlist, rs_counts={"ab": 1, "ba": 0})
    kernel = CompiledKernel(model)
    for _ in range(3):  # the first run compiles, the others hit the cache
        _CountingInert.calls = 0
        result = kernel.run(RunControls(horizon=500), InstrumentSet.none())
        assert result.cycles == 500
        assert _CountingInert.calls == 2  # once per process


class TestTable1Plumbing:
    def _kernels(self, monkeypatch, fallbacks=None, **kwargs):
        """The set of kernels that produced ``evaluate_rows``' batched rows.

        The rows' replay fallback reasons are added to *fallbacks*.
        """
        if fallbacks is None:
            fallbacks = set()
        from repro.engine.evaluator import BatchEvaluator
        from repro.experiments import table1

        seen = set()
        original = BatchEvaluator.run_wrappers

        def spy(self, items, **controls):
            results = original(self, items, **controls)
            seen.update(row.kernel for rows in results for row in rows)
            fallbacks.update(row.fallback for rows in results for row in rows)
            return results

        monkeypatch.setattr(BatchEvaluator, "run_wrappers", spy)
        workload = make_extraction_sort(length=4, seed=7)
        configurations = table1.single_link_rows()[:2]
        table1.evaluate_rows(workload, configurations, **kwargs)
        return seen

    def test_done_stop_rows_replay_the_golden_trace(self, monkeypatch):
        assert self._kernels(monkeypatch) == {"replay"}

    def test_horizon_rows_replay_the_looped_golden_trace(self, monkeypatch):
        fallbacks = set()
        kernels = self._kernels(monkeypatch, fallbacks, horizon=3_000)
        assert kernels == {"replay"} and fallbacks == {None}

    @pytest.mark.parametrize(
        "kwargs, kernel",
        [({"horizon": 3_000, "kernel": "fast"}, "fast"),
         ({"kernel": "reference"}, "reference"),
         ({"kernel": "fast"}, "fast")],
        ids=["horizon", "reference", "fast"],
    )
    def test_other_rows_simulate_in_full(self, monkeypatch, kwargs, kernel):
        assert self._kernels(monkeypatch, **kwargs) == {kernel}


class TestProvenance:
    def test_kernel_and_fallback_stay_out_of_equality_and_dict(self):
        row = BatchResult(label="x", cycles=5, firings={"a": 5}, halted=True,
                          wrapper_kind="WP1", kernel="replay")
        other = dataclasses.replace(row, kernel="compiled", fallback="trace exhausted")
        assert row == other
        assert "kernel" not in row.to_dict() and "fallback" not in row.to_dict()
        assert BatchResult.from_dict(row.to_dict()) == row
