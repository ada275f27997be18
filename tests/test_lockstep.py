"""Tests for the lockstep structure-of-arrays kernel (repro.engine.lockstep).

The heart of this module is the lane-equivalence property suite: every lane
of one vectorised :func:`run_lockstep_batch` call must be bit-identical to a
scalar :class:`CompiledKernel` run of the same configuration — cycles, firings,
halt flags, stall statistics, occupancy maxima, and failure outcomes
(deadlock / timeout) — across random same-layout relay-station and capacity
vectors, both wrapper flavours and every stop mode.  The remaining tests pin
the integration seams: scalar fallback for dynamic processes, batch grouping
in :class:`BatchRunner` / :class:`MultiNetlistRunner`, kernel selection via
``REPRO_KERNEL``, graceful degradation without NumPy, and the NumPy-scalar
coercion of the canonical result serialisations.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core import (
    Channel,
    RSConfiguration,
    DeadlockError,
    FunctionProcess,
    Netlist,
    SimulationError,
    ring_netlist,
)
from repro.core.process import CounterSource, PassthroughProcess, Process
from repro.cpu import build_pipelined_cpu, make_extraction_sort
from repro.engine import (
    BatchResult,
    BatchRunner,
    CompiledKernel,
    Elaborator,
    FastKernel,
    InstrumentSet,
    LidResult,
    LockstepKernel,
    MultiNetlistRunner,
    RunControls,
    kernel_registry,
    lockstep_reason,
    make_kernel,
    resolve_kernel_name,
    run_lockstep_batch,
)
from repro.engine import lockstep as lockstep_module
from repro.engine.kernel import KERNEL_ENV_VAR

#: Lockstep-eligible runs carry no traces, so the lane suite compares the
#: other two instruments at full strength.
LANE_INSTRUMENTS = InstrumentSet(trace=False, shell_stats=True, occupancy=True)


def _lane_outcome(kernel_factory, controls, instruments):
    """Normalised (kind, payload) of one scalar run, matching lane slots."""
    try:
        result = kernel_factory().run(controls, instruments)
    except DeadlockError as exc:
        return ("deadlock", str(exc))
    except SimulationError as exc:
        return ("timeout", str(exc))
    return ("ok", result)


def _assert_lanes_match_compiled(elaborator, bindings, controls, instruments):
    """Every lockstep lane equals the scalar CompiledKernel run bit for bit."""
    models = [elaborator.bind(**binding) for binding in bindings]
    assert lockstep_reason(models[0], controls, instruments) is None
    lanes = run_lockstep_batch(models, controls, instruments)
    assert len(lanes) == len(models)
    for binding, lane in zip(bindings, lanes):
        kind, payload = _lane_outcome(
            lambda: CompiledKernel(elaborator.bind(**binding)), controls, instruments
        )
        if isinstance(lane, DeadlockError):
            assert kind == "deadlock" and str(lane) == payload
        elif isinstance(lane, Exception):
            assert kind == "timeout" and str(lane) == payload
        else:
            assert kind == "ok"
            scalar = payload
            assert lane.cycles == scalar.cycles
            assert lane.firings == scalar.firings
            assert lane.halted == scalar.halted
            assert lane.wrapper_kind == scalar.wrapper_kind
            assert lane.rs_counts == scalar.rs_counts
            assert lane.shell_stats == scalar.shell_stats
            assert lane.max_queue_occupancy == scalar.max_queue_occupancy
            assert all(lane.trace[name].cycles == 0 for name in lane.trace)


# ---------------------------------------------------------------------------
# Random same-layout lane generation
# ---------------------------------------------------------------------------

@st.composite
def lockstep_cases(draw):
    """A random oracle-free netlist plus N same-layout lane configurations."""
    n_procs = draw(st.integers(min_value=1, max_value=4))
    n_outs = [draw(st.integers(min_value=1, max_value=2)) for _ in range(n_procs)]
    n_ins = [draw(st.integers(min_value=0 if n_procs > 1 else 1, max_value=2))
             for _ in range(n_procs)]
    if all(n == 0 for n in n_ins):
        n_ins[0] = 1

    processes = []
    for p in range(n_procs):
        ports = tuple(f"i{k}" for k in range(n_ins[p]))
        outs = tuple(f"o{k}" for k in range(n_outs[p]))

        def transition(state, inputs, _outs=outs):
            return state + 1, {port: state for port in _outs}

        processes.append(
            FunctionProcess(
                name=f"p{p}", inputs=ports, outputs=outs,
                transition=transition, initial_state=p,
            )
        )

    channels = []
    cid = 0
    for p in range(n_procs):
        for k in range(n_ins[p]):
            src = draw(st.integers(min_value=0, max_value=n_procs - 1))
            src_port = draw(st.integers(min_value=0, max_value=n_outs[src] - 1))
            channels.append(
                Channel(
                    name=f"c{cid}", source=f"p{src}", source_port=f"o{src_port}",
                    dest=f"p{p}", dest_port=f"i{k}", initial=0,
                )
            )
            cid += 1
    netlist = Netlist(processes, channels, name="lanes")

    relaxed = draw(st.booleans())
    n_lanes = draw(st.integers(min_value=1, max_value=6))
    bindings = [
        {
            "rs_counts": {
                chan.name: draw(st.integers(min_value=0, max_value=3))
                for chan in channels
            },
            "relaxed": relaxed,
            "queue_capacity": draw(st.integers(min_value=1, max_value=4)),
        }
        for _ in range(n_lanes)
    ]
    stop = draw(st.sampled_from(["target", "horizon"]))
    if stop == "target":
        controls = RunControls(
            target_firings={"p0": draw(st.integers(min_value=1, max_value=25))},
            extra_cycles=draw(st.integers(min_value=0, max_value=3)),
            max_cycles=3_000,
            deadlock_limit=150,
        )
    else:
        controls = RunControls(
            horizon=draw(st.integers(min_value=1, max_value=300)),
            max_cycles=3_000,
            deadlock_limit=150,
        )
    return netlist, bindings, controls


class TestLaneEquivalence:
    @given(case=lockstep_cases())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_lanes(self, case):
        """Random RS/capacity vectors: all lanes bit-identical to CompiledKernel."""
        netlist, bindings, controls = case
        _assert_lanes_match_compiled(
            Elaborator(netlist), bindings, controls, LANE_INSTRUMENTS
        )

    @pytest.mark.parametrize("relaxed", [False, True])
    @pytest.mark.parametrize(
        "controls",
        [
            RunControls(target_firings={"stage0": 40}, extra_cycles=2,
                        max_cycles=10_000, steady_state=False),
            RunControls(horizon=400, steady_state=False),
            RunControls(stop_process="stage0", max_cycles=600,
                        horizon=500, steady_state=False),
        ],
        ids=["target", "horizon", "stop-process-horizon"],
    )
    def test_ring_lanes(self, relaxed, controls):
        netlist, _default = ring_netlist(5)
        chans = list(netlist.channels)
        bindings = [
            {
                "rs_counts": {c: (i + j) % 3 for j, c in enumerate(chans)},
                "relaxed": relaxed,
            }
            for i in range(8)
        ]
        _assert_lanes_match_compiled(
            Elaborator(netlist), bindings, controls, LANE_INSTRUMENTS
        )

    def test_stop_any_done_via_counter_source(self):
        """STOP_ANY_DONE: a limited source's done flips at its firing count."""
        netlist = Netlist(
            [CounterSource("src", limit=17), PassthroughProcess("sink")],
            [Channel(name="c", source="src", source_port="out",
                     dest="sink", dest_port="in", initial=0)],
            name="counter",
        )
        controls = RunControls(extra_cycles=2, max_cycles=1_000)
        bindings = [{"rs_counts": {"c": rs}} for rs in range(4)]
        _assert_lanes_match_compiled(
            Elaborator(netlist), bindings, controls, LANE_INSTRUMENTS
        )

    def test_deadlocking_and_healthy_lanes_coexist(self):
        """A deadlocked lane freezes with its error; siblings complete."""
        netlist = Netlist(
            [CounterSource("src", limit=5), PassthroughProcess("sink")],
            [Channel(name="c", source="src", source_port="out",
                     dest="sink", dest_port="in", initial=0)],
            name="counter",
        )
        elaborator = Elaborator(netlist)
        # Lane 0 stops normally; the deadlock surfaces on an impossible
        # target over the done source.
        controls = RunControls(
            target_firings={"src": 50}, max_cycles=2_000, deadlock_limit=40
        )
        _assert_lanes_match_compiled(
            elaborator, [{"rs_counts": {"c": 1}}], controls, LANE_INSTRUMENTS
        )

    def test_timeout_lane_matches_compiled(self):
        netlist, _default = ring_netlist(3)
        controls = RunControls(
            target_firings={"stage0": 10_000}, max_cycles=50,
            deadlock_limit=1_000,
        )
        _assert_lanes_match_compiled(
            Elaborator(netlist), [{"rs_counts": {}}], controls, LANE_INSTRUMENTS
        )

    def test_uninstrumented_lanes(self):
        """The objective path (no instruments) agrees on counts alone."""
        netlist, _default = ring_netlist(4)
        chans = list(netlist.channels)
        bindings = [
            {"rs_counts": {c: (i * 7 + j) % 4 for j, c in enumerate(chans)}}
            for i in range(16)
        ]
        _assert_lanes_match_compiled(
            Elaborator(netlist), bindings,
            RunControls(horizon=300, steady_state=False),
            InstrumentSet.none(),
        )

    def test_mixed_layout_batch_rejected(self):
        netlist_a, _ = ring_netlist(2)
        netlist_b, _ = ring_netlist(3)
        model_a = Elaborator(netlist_a).bind()
        model_b = Elaborator(netlist_b).bind()
        with pytest.raises(SimulationError, match="sharing one NetlistLayout"):
            run_lockstep_batch(
                [model_a, model_b], RunControls(horizon=10), InstrumentSet.none()
            )


# ---------------------------------------------------------------------------
# Eligibility classification and scalar fallback
# ---------------------------------------------------------------------------

class _DataDependentDone(Process):
    """is_done depends on consumed values: inexpressible as a threshold."""

    input_ports = ("in",)
    output_ports = ("out",)

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.total = 0

    def reset(self) -> None:
        super().reset()
        self.total = 0

    def fire(self, inputs):
        self.total += int(inputs["in"])
        return {"out": self.total}

    def is_done(self) -> bool:
        return self.total > 100


def _loop_netlist(process: Process) -> Netlist:
    return Netlist(
        [process],
        [Channel(name="loop", source=process.name, source_port="out",
                 dest=process.name, dest_port="in", initial=1)],
        name="loop",
    )


class TestEligibility:
    def test_done_threshold_protocol(self):
        assert CounterSource("s").done_threshold() == math.inf
        assert CounterSource("s", limit=9).done_threshold() == 9
        assert PassthroughProcess("p").done_threshold() == math.inf
        assert _DataDependentDone("d").done_threshold() is None

    def test_eligible_ring(self):
        netlist, rs_counts = ring_netlist(3, rs_total=2)
        model = Elaborator(netlist).bind(rs_counts=rs_counts)
        assert lockstep_reason(
            model, RunControls(horizon=10), InstrumentSet.none()
        ) is None

    def test_trace_instrument_ineligible(self):
        netlist, _ = ring_netlist(2)
        model = Elaborator(netlist).bind()
        reason = lockstep_reason(
            model, RunControls(horizon=10), InstrumentSet.all()
        )
        assert reason is not None and "trace" in reason

    def test_on_cycle_ineligible(self):
        netlist, _ = ring_netlist(2)
        model = Elaborator(netlist).bind()
        reason = lockstep_reason(
            model,
            RunControls(horizon=10, on_cycle=lambda cycle, fired: None),
            InstrumentSet.none(),
        )
        assert reason is not None and "on_cycle" in reason

    def test_data_dependent_done_ineligible(self):
        model = Elaborator(_loop_netlist(_DataDependentDone("d"))).bind()
        reason = lockstep_reason(
            model, RunControls(horizon=10), InstrumentSet.none()
        )
        assert reason is not None and "done" in reason

    def test_wp2_oracle_ineligible_wp1_eligible(self):
        oracle_proc = FunctionProcess(
            name="p", inputs=("in",), outputs=("out",),
            transition=lambda state, inputs: (state + 1, {"out": state}),
            initial_state=0,
            oracle=lambda state: frozenset() if state % 2 else None,
        )
        netlist = _loop_netlist(oracle_proc)
        elaborator = Elaborator(netlist)
        controls = RunControls(horizon=10)
        assert lockstep_reason(
            elaborator.bind(relaxed=True), controls, InstrumentSet.none()
        ) is not None
        assert lockstep_reason(
            elaborator.bind(relaxed=False), controls, InstrumentSet.none()
        ) is None

    def test_ineligible_run_delegates_to_compiled(self):
        """LockstepKernel serves ineligible runs through CompiledKernel."""
        model = Elaborator(_loop_netlist(_DataDependentDone("d"))).bind()
        controls = RunControls(max_cycles=5_000)
        expected = CompiledKernel(model).run(controls, InstrumentSet.all())
        result = LockstepKernel(model).run(controls, InstrumentSet.all())
        assert result.cycles == expected.cycles
        assert result.firings == expected.firings
        assert result.halted == expected.halted
        for name in expected.trace:
            assert list(result.trace[name].items) == list(
                expected.trace[name].items
            )

    def test_cpu_netlist_falls_back_in_batch(self):
        """Dynamic CPU units route lockstep batches to the scalar path."""
        machine = build_pipelined_cpu(
            make_extraction_sort(length=4, seed=3).program
        )
        controls = dict(
            stop_process=machine.control_unit.name, max_cycles=200_000
        )
        configs = [RSConfiguration.uniform(0), RSConfiguration.uniform(1)]
        scalar = BatchRunner(machine.netlist, kernel="compiled").run_many(
            configs, **controls
        )
        lock = BatchRunner(machine.netlist, kernel="lockstep").run_many(
            configs, **controls
        )
        assert scalar == lock

    def test_single_run_via_make_kernel(self):
        netlist, rs_counts = ring_netlist(4, rs_total=3)
        model = Elaborator(netlist).bind(rs_counts=rs_counts)
        controls = RunControls(
            target_firings={"stage0": 30}, max_cycles=5_000, steady_state=False
        )
        fast = FastKernel(model).run(controls, LANE_INSTRUMENTS)
        lock = make_kernel(model, "lockstep").run(controls, LANE_INSTRUMENTS)
        assert (lock.cycles, lock.firings, lock.halted) == (
            fast.cycles, fast.firings, fast.halted
        )
        assert lock.shell_stats == fast.shell_stats
        assert lock.max_queue_occupancy == fast.max_queue_occupancy


# ---------------------------------------------------------------------------
# Batch / multi-netlist integration
# ---------------------------------------------------------------------------

class TestBatchIntegration:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_many_matches_fast(self, workers):
        netlist, _default = ring_netlist(5)
        chans = list(netlist.channels)
        configs = [
            {c: (i + j) % 3 for j, c in enumerate(chans)} for i in range(10)
        ]
        controls = dict(horizon=400, steady_state=False)
        fast = BatchRunner(netlist, kernel="fast").run_many(
            configs, workers=workers, **controls
        )
        lock = BatchRunner(netlist, kernel="lockstep").run_many(
            configs, workers=workers, **controls
        )
        assert fast == lock

    def test_per_item_capacity_overrides(self):
        netlist, _default = ring_netlist(4)
        configs = [
            ({}, {"queue_capacity": 1}),
            ({}, {"queue_capacity": 3}),
            {name: 1 for name in netlist.channels},
        ]
        controls = dict(horizon=300, steady_state=False)
        fast = BatchRunner(netlist, kernel="fast").run_many(configs, **controls)
        lock = BatchRunner(netlist, kernel="lockstep").run_many(configs, **controls)
        assert fast == lock

    def test_on_error_zero_converts_lane_failures(self):
        netlist = Netlist(
            [CounterSource("src", limit=5), PassthroughProcess("sink")],
            [Channel(name="c", source="src", source_port="out",
                     dest="sink", dest_port="in", initial=0)],
            name="counter",
        )
        configs = [{"c": 0}, {"c": 1}]
        controls = dict(
            target_firings={"src": 50}, max_cycles=2_000, deadlock_limit=40
        )
        fast = BatchRunner(netlist, kernel="fast").run_many(
            configs, on_error="zero", **controls
        )
        lock = BatchRunner(netlist, kernel="lockstep").run_many(
            configs, on_error="zero", **controls
        )
        assert fast == lock
        assert all(result.failed for result in lock)

    def test_on_error_raise_raises_lane_failure(self):
        netlist = Netlist(
            [CounterSource("src", limit=5), PassthroughProcess("sink")],
            [Channel(name="c", source="src", source_port="out",
                     dest="sink", dest_port="in", initial=0)],
            name="counter",
        )
        with pytest.raises(DeadlockError):
            BatchRunner(netlist, kernel="lockstep").run_many(
                [{"c": 0}], target_firings={"src": 50},
                max_cycles=2_000, deadlock_limit=40,
            )

    def test_multi_netlist_mixed_layouts(self):
        ring3, _unused3 = ring_netlist(3)
        ring4, _unused4 = ring_netlist(4)
        items = []
        for i in range(6):
            name = "r3" if i % 2 == 0 else "r4"
            netlist = ring3 if name == "r3" else ring4
            items.append(
                (name, {c: (i + j) % 2 for j, c in enumerate(netlist.channels)})
            )
        controls = dict(horizon=300, steady_state=False)
        fast = MultiNetlistRunner.from_netlists(
            {"r3": ring3, "r4": ring4}, kernel="fast"
        ).run_many(items, **controls)
        lock = MultiNetlistRunner.from_netlists(
            {"r3": ring3, "r4": ring4}, kernel="lockstep"
        ).run_many(items, **controls)
        assert fast == lock

    def test_objective_adapter_matches_fast(self):
        netlist, _default = ring_netlist(4)
        chans = list(netlist.channels)
        assignments = [
            {c: 0 for c in chans},
            {c: 1 for c in chans},
        ]

        def scores(kernel):
            objective = BatchRunner(netlist, kernel=kernel).objective(
                horizon=200, steady_state=False
            )
            return objective.many([dict(a) for a in assignments])

        assert scores("lockstep") == scores("fast")


# ---------------------------------------------------------------------------
# Kernel selection and NumPy-absence degradation
# ---------------------------------------------------------------------------

class TestSelectionAndDegradation:
    def test_registry_lists_lockstep(self):
        assert "lockstep" in kernel_registry()

    def test_env_variable_selects_lockstep(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "lockstep")
        assert resolve_kernel_name(None) == "lockstep"

    def test_explicit_kernel_beats_lockstep_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "lockstep")
        assert resolve_kernel_name("fast") == "fast"

    def test_explicit_lockstep_beats_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "compiled")
        assert resolve_kernel_name("lockstep") == "lockstep"

    def test_batch_runner_picks_up_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "lockstep")
        netlist, _default = ring_netlist(3)
        runner = BatchRunner(netlist)
        assert runner.kernel_name == "lockstep"
        results = runner.run_many(
            [{}, {c: 1 for c in netlist.channels}],
            horizon=100, steady_state=False,
        )
        expected = BatchRunner(netlist, kernel="fast").run_many(
            [{}, {c: 1 for c in netlist.channels}],
            horizon=100, steady_state=False,
        )
        assert results == expected

    def test_without_numpy_registry_still_lists_lockstep(self, monkeypatch):
        monkeypatch.setattr(lockstep_module, "np", None)
        assert "lockstep" in kernel_registry()
        assert resolve_kernel_name("lockstep") == "lockstep"

    def test_without_numpy_instantiation_raises_clearly(self, monkeypatch):
        monkeypatch.setattr(lockstep_module, "np", None)
        netlist, _default = ring_netlist(2)
        model = Elaborator(netlist).bind()
        with pytest.raises(SimulationError, match=r"repro\[fast\]"):
            LockstepKernel(model)

    def test_without_numpy_reason_reports_missing_dependency(self, monkeypatch):
        monkeypatch.setattr(lockstep_module, "np", None)
        netlist, _default = ring_netlist(2)
        model = Elaborator(netlist).bind()
        reason = lockstep_reason(
            model, RunControls(horizon=10), InstrumentSet.none()
        )
        assert reason is not None and "NumPy" in reason


# ---------------------------------------------------------------------------
# NumPy-scalar coercion in the canonical serialisations (satellite bugfix)
# ---------------------------------------------------------------------------

class TestNumpyScalarCoercion:
    def test_lid_result_to_dict_is_json_safe(self):
        netlist, rs_counts = ring_netlist(3, rs_total=2)
        model = Elaborator(netlist).bind(rs_counts=rs_counts)
        result = make_kernel(model, "lockstep").run(
            RunControls(horizon=100, steady_state=False), LANE_INSTRUMENTS
        )
        # Simulate a caller that sliced its own arrays into the result.
        result.cycles = np.int64(result.cycles)
        result.halted = np.bool_(result.halted)
        result.firings = {
            name: np.int64(count) for name, count in result.firings.items()
        }
        result.max_queue_occupancy = {
            name: np.int64(count)
            for name, count in result.max_queue_occupancy.items()
        }
        data = result.to_dict()
        encoded = json.dumps(data)  # must not raise
        rebuilt = LidResult.from_dict(json.loads(encoded))
        assert rebuilt.cycles == int(result.cycles)
        assert rebuilt.firings == {
            name: int(count) for name, count in result.firings.items()
        }
        assert rebuilt.halted == bool(result.halted)
        assert rebuilt.max_queue_occupancy == {
            name: int(count)
            for name, count in result.max_queue_occupancy.items()
        }

    def test_batch_result_to_dict_is_json_safe(self):
        result = BatchResult(
            label="lane",
            cycles=np.int64(42),
            firings={"p0": np.int64(7)},
            halted=np.bool_(True),
            wrapper_kind="WP1",
            rs_total=np.int64(3),
            period=np.int64(10),
            warmup_cycles=np.int64(2),
            extrapolated=np.bool_(False),
        )
        data = result.to_dict()
        encoded = json.dumps(data)  # must not raise
        rebuilt = BatchResult.from_dict(json.loads(encoded))
        assert rebuilt.cycles == 42 and type(rebuilt.cycles) is int
        assert rebuilt.firings == {"p0": 7}
        assert rebuilt.halted is True
        assert rebuilt.rs_total == 3
        assert rebuilt.period == 10 and rebuilt.warmup_cycles == 2
        assert rebuilt.extrapolated is False
