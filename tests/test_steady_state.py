"""Steady-state detection, analytic extrapolation, horizon mode, multi-netlist batch.

The heart of this module is the extrapolation property suite: on every
netlist that supports steady-state detection, a run with the detector armed
must produce results **identical** to full simulation — cycles, firings,
halted flag, stall statistics and occupancy maxima — across random
netlists, relay-station placements, wrapper flavours, queue capacities and
stop modes, on both kernels that implement detection (fast and compiled).
The reference kernel stays the executable specification and never
extrapolates.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    DEFAULT_QUEUE_CAPACITY,
    SCHEDULE_INERT,
    Channel,
    CounterSource,
    DeadlockError,
    FunctionProcess,
    Netlist,
    PassthroughProcess,
    RSConfiguration,
    SimulationError,
    SinkProcess,
    ring_netlist,
    run_lid,
)
from repro.core.simulator import LidResult
from repro.cpu import build_pipelined_cpu
from repro.cpu.workloads import make_extraction_sort
from repro.engine import (
    BatchRunner,
    Elaborator,
    InstrumentSet,
    MultiNetlistRunner,
    detection_plan,
    elaborate,
    make_kernel,
)
from repro.engine.codegen import (
    REPLAY_LOOPED,
    STOP_ANY_DONE,
    STOP_PROCESS,
    STOP_TARGET,
    compiled_run_fn,
    generate_run_source,
)
from repro.engine.kernel import RunControls
from repro.engine.steady_state import (
    certify_model,
    finish_from_history,
    periods_to_skip,
)

DETECTING_KERNELS = ("fast", "compiled")


# ---------------------------------------------------------------------------
# Random schedule-certifiable netlists
# ---------------------------------------------------------------------------

def _transition(proc_index, n_outs):
    """Mixes input values into the outputs; keeps a separate oracle counter.

    The state is ``(value_mix, firing_counter)``: the mix is data-dependent
    (so token values genuinely circulate and change), the counter advances by
    exactly one per firing (so the oracle below is value-independent, as the
    ``schedule_state`` contract requires).
    """

    def transition(state, inputs):
        mix, count = state
        acc = mix * 31 + proc_index
        for port in sorted(inputs):
            value = inputs[port]
            acc = (acc * 17 + (0 if value is None else int(value) + 1)) % 100003
        return (acc, count + 1), {f"o{k}": (acc + k) % 1009 for k in range(n_outs)}

    return transition


def _oracle(ports, period):
    """A WP2 oracle requiring a rotating subset driven by the firing counter."""

    def oracle(state):
        count = state[1]
        keep = [port for k, port in enumerate(ports) if (count + k) % period != 0]
        return frozenset(keep)

    return oracle


@st.composite
def certifiable_netlists(draw):
    """Random netlists whose every process supports steady-state detection."""
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
        oracle = _oracle(ports, period) if ports and period else None
        processes.append(
            FunctionProcess(
                name=f"p{p}",
                inputs=ports,
                outputs=tuple(f"o{k}" for k in range(n_outs[p])),
                transition=_transition(p, n_outs[p]),
                initial_state=(p, 0),
                oracle=oracle,
                # The oracle depends only on the firing counter mod its
                # rotation period: that residue is the complete
                # schedule-relevant state.
                schedule_state=(
                    (lambda state, m=period: state[1] % m) if oracle else None
                ),
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

    netlist = Netlist(processes, channels, name="certifiable")
    relaxed = draw(st.booleans())
    queue_capacity = draw(st.integers(min_value=1, max_value=5))
    stop = draw(st.sampled_from(["target", "horizon"]))
    return netlist, rs_counts, relaxed, queue_capacity, stop


def _outcome(netlist, rs_counts, relaxed, queue_capacity, kernel, steady, stop):
    """Run one kernel and normalise the outcome for comparison."""
    kwargs = dict(
        rs_counts=rs_counts,
        relaxed=relaxed,
        queue_capacity=queue_capacity,
        kernel=kernel,
        record_trace=False,  # stats + occupancy stay on
        steady_state=steady,
        max_cycles=50_000,
        deadlock_limit=200,
    )
    if stop == "target":
        kwargs["target_firings"] = {netlist.process_names()[0]: 4_000}
    else:
        kwargs["horizon"] = 15_000
    try:
        result = run_lid(netlist, **kwargs)
    except DeadlockError:
        return ("deadlock", None)
    except SimulationError:
        return ("timeout", None)
    return ("ok", result)


def _assert_matches_full(full: LidResult, got: LidResult) -> None:
    assert got.cycles == full.cycles
    assert got.firings == full.firings
    assert got.halted == full.halted
    assert got.shell_stats == full.shell_stats
    assert got.max_queue_occupancy == full.max_queue_occupancy


class TestExtrapolationEquivalence:
    @given(data=certifiable_netlists())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_extrapolated_equals_full_simulation(self, data):
        """Armed detector == full simulation on every supporting kernel."""
        netlist, rs_counts, relaxed, queue_capacity, stop = data
        kind_full, full = _outcome(
            netlist, rs_counts, relaxed, queue_capacity, "fast", False, stop
        )
        for kernel in DETECTING_KERNELS:
            kind, got = _outcome(
                netlist, rs_counts, relaxed, queue_capacity, kernel, True, stop
            )
            assert kind == kind_full, kernel
            if full is not None:
                _assert_matches_full(full, got)

    @pytest.mark.parametrize("kernel", DETECTING_KERNELS)
    @pytest.mark.parametrize("relaxed", [False, True])
    @pytest.mark.parametrize("stages,rs_total", [(1, 1), (3, 2), (5, 3)])
    def test_rings_extrapolate(self, kernel, relaxed, stages, rs_total):
        """Rings recur with period stages + rs_total and extrapolate exactly."""
        netlist, rs_counts = ring_netlist(stages, rs_total=rs_total)
        reference = run_lid(
            netlist, rs_counts=rs_counts, relaxed=relaxed, kernel="reference",
            record_trace=False, horizon=50_000,
        )
        got = run_lid(
            netlist, rs_counts=rs_counts, relaxed=relaxed, kernel=kernel,
            record_trace=False, horizon=50_000,
        )
        _assert_matches_full(reference, got)
        assert got.extrapolated
        assert got.period is not None and got.period % (stages + rs_total) == 0
        assert reference.period is None and not reference.extrapolated

    @pytest.mark.parametrize("kernel", DETECTING_KERNELS)
    def test_unreachable_target_times_out_fast(self, kernel):
        """An unreachable firing target still raises, without simulating it all."""
        source = CounterSource("src", limit=5)
        sink = SinkProcess("sink")
        netlist = Netlist(
            [source, sink],
            [Channel("data", "src", "out", "sink", "in", initial=0)],
        )
        for steady in (True, False):
            with pytest.raises(DeadlockError):
                run_lid(
                    netlist, kernel=kernel, record_trace=False,
                    target_firings={"sink": 100}, max_cycles=100_000,
                    deadlock_limit=500, steady_state=steady,
                )

    @pytest.mark.parametrize("kernel", DETECTING_KERNELS)
    def test_done_source_results_identical(self, kernel):
        """A limited source (monotone schedule state) never mis-extrapolates."""
        source = CounterSource("src", limit=30)
        mid = PassthroughProcess("mid")
        sink = SinkProcess("sink")
        netlist = Netlist(
            [source, mid, sink],
            [
                Channel("a", "src", "out", "mid", "in", initial=0),
                Channel("b", "mid", "out", "sink", "in", initial=0),
            ],
        )
        full = run_lid(
            netlist, rs_counts={"a": 2}, kernel=kernel, record_trace=False,
            steady_state=False, max_cycles=10_000,
        )
        got = run_lid(
            netlist, rs_counts={"a": 2}, kernel=kernel, record_trace=False,
            steady_state=True, max_cycles=10_000,
        )
        _assert_matches_full(full, got)

    def test_case_study_cpu_has_no_kernel_plan(self):
        """Complete summaries, but the CU overrides the oracle and done hooks.

        Its answers follow the data, so no kernel extrapolates the CPU: its
        long runs replay a looped golden run instead (DESIGN.md §5).
        """
        cpu = build_pipelined_cpu(
            make_extraction_sort(length=5, seed=11, repeat=True).program
        )
        assert all(p.schedule_complete for p in cpu.netlist.processes.values())
        config = RSConfiguration.uniform(1, exclude=("CU-IC",))
        for relaxed in (False, True):
            model = elaborate(
                cpu.netlist,
                rs_counts=config.per_channel(cpu.netlist),
                relaxed=relaxed,
            )
            assert certify_model(model) is None
            assert detection_plan(model, InstrumentSet.none(), True, None, None) is None

    def test_one_shot_cpu_runs_stay_unextrapolated(self):
        """Done-stopped (terminating) CPU runs never arm the detector."""
        cpu = build_pipelined_cpu(make_extraction_sort(length=5, seed=11).program)
        config = RSConfiguration.uniform(1, exclude=("CU-IC",))
        for kernel in DETECTING_KERNELS:
            full = cpu.run_wire_pipelined(
                configuration=config, record_trace=False, kernel=kernel
            )
            assert full.period is None and not full.extrapolated


# ---------------------------------------------------------------------------
# Looping CPU workloads: rows replay the golden run's loop (DESIGN.md §5)
# ---------------------------------------------------------------------------

def _looped_cpu(workload, builder=build_pipelined_cpu):
    """A CPU on *workload*'s looped program whose golden run found its loop."""
    cpu = builder(workload.looped().program)
    cpu.run_golden(record_trace=False)
    assert cpu.netlist.firing_trace.loop_start is not None
    return cpu


def _replayed(
    cpu, configuration, relaxed, queue_capacity=DEFAULT_QUEUE_CAPACITY, **controls
):
    """One row of *cpu* timed from its looped trace, stats and occupancy on."""
    model = elaborate(
        cpu.netlist, configuration=configuration, relaxed=relaxed,
        queue_capacity=queue_capacity,
    )
    controls.setdefault("stop_process", "CU")
    result = make_kernel(model, "compiled").run(
        RunControls(**controls),
        InstrumentSet(trace=False, shell_stats=True, occupancy=True),
        replay=cpu.netlist.firing_trace,
    )
    assert result.kernel == "replay" and result.fallback is None
    return result


def _full(builder, workload, kernel, **kwargs):
    """The same row simulated in full on an untraced twin CPU."""
    twin = builder(workload.looped().program)
    kwargs.setdefault("stop_process", "CU")
    return run_lid(
        twin.netlist, kernel=kernel, record_trace=False, steady_state=False,
        **kwargs,
    )


def _assert_cpu_identical(full: LidResult, got: LidResult) -> None:
    _assert_matches_full(full, got)
    assert got.extrapolated and got.period is not None
    assert not full.extrapolated


class TestLoopedCpuExtrapolation:
    """`table1 --horizon` acceptance: replayed looped rows extrapolate exactly.

    Rows of a looped program whose golden run found its loop replay the
    trace and detect over trace positions; each must equal the same row
    simulated in full on an untraced twin.
    """

    CONFIG = staticmethod(
        lambda: RSConfiguration.uniform(1, exclude=("CU-IC",))
    )

    @pytest.mark.parametrize("kernel", DETECTING_KERNELS)
    @pytest.mark.parametrize("relaxed", [False, True])
    @pytest.mark.parametrize("workload_kind", ["sort", "matmul"])
    def test_extrapolated_equals_full_simulation(
        self, kernel, relaxed, workload_kind
    ):
        from repro.cpu.workloads import make_matrix_multiply

        if workload_kind == "sort":
            workload = make_extraction_sort(length=6, seed=7, repeat=True)
        else:
            workload = make_matrix_multiply(size=2, seed=7, repeat=True)
        config = self.CONFIG()
        full = _full(
            build_pipelined_cpu, workload, kernel,
            configuration=config, relaxed=relaxed, horizon=25_000,
        )
        got = _replayed(_looped_cpu(workload), config, relaxed, horizon=25_000)
        _assert_cpu_identical(full, got)

    @pytest.mark.parametrize("kernel", DETECTING_KERNELS)
    def test_target_firings_stop_mode(self, kernel):
        workload = make_extraction_sort(length=5, seed=3, repeat=True)
        config = self.CONFIG()
        controls = dict(
            stop_process=None, target_firings={"CU": 12_000}, max_cycles=100_000
        )
        full = _full(
            build_pipelined_cpu, workload, kernel,
            configuration=config, relaxed=True, **controls,
        )
        got = _replayed(
            _looped_cpu(workload), config, True, steady_state_window=50_000,
            **controls,
        )
        _assert_cpu_identical(full, got)
        assert got.firings["CU"] >= 12_000

    def test_multicycle_control_style_extrapolates(self):
        from repro.cpu import build_multicycle_cpu

        workload = make_extraction_sort(length=5, seed=3, repeat=True)
        config = self.CONFIG()
        full = _full(
            build_multicycle_cpu, workload, "compiled",
            configuration=config, relaxed=True, horizon=30_000,
        )
        cpu = _looped_cpu(workload, build_multicycle_cpu)
        got = _replayed(cpu, config, True, horizon=30_000)
        _assert_cpu_identical(full, got)

    @given(data=st.data())
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_looped_cpu_extrapolates_exactly(self, data):
        """Hypothesis: replayed rows == full reference rows, WP1 and WP2."""
        from repro.cpu.workloads import make_matrix_multiply

        if data.draw(st.booleans(), label="use_sort"):
            workload = make_extraction_sort(
                length=data.draw(st.integers(3, 5), label="length"),
                seed=data.draw(st.integers(0, 99), label="seed"),
                repeat=True,
            )
        else:
            workload = make_matrix_multiply(
                size=2,
                seed=data.draw(st.integers(0, 99), label="seed"),
                repeat=True,
            )
        cpu = _looped_cpu(workload)
        links = [name for name in cpu.netlist.link_names() if name != "CU-IC"]
        config = RSConfiguration.from_mapping(
            {link: data.draw(st.integers(0, 2), label=link) for link in links},
            label="candidate",
        )
        relaxed = data.draw(st.booleans(), label="relaxed")
        capacity = data.draw(st.integers(2, 4), label="capacity")
        full = _full(
            build_pipelined_cpu, workload, "reference", configuration=config,
            relaxed=relaxed, queue_capacity=capacity, horizon=15_000,
        )
        got = _replayed(cpu, config, relaxed, capacity, horizon=15_000)
        _assert_matches_full(full, got)

    def test_untraced_rows_simulate_in_full(self):
        """Without a golden run the rows neither replay nor extrapolate."""
        workload = make_extraction_sort(length=5, seed=3, repeat=True)
        config = self.CONFIG()
        for relaxed in (False, True):
            twin = build_pipelined_cpu(workload.looped().program)
            [row] = BatchRunner(
                twin.netlist, relaxed=relaxed, kernel="compiled"
            ).run_many(
                [config], stop_process="CU", horizon=8_000,
                steady_state_window=8_000,
            )
            [reference] = BatchRunner(
                twin.netlist, relaxed=relaxed, kernel="reference"
            ).run_many([config], stop_process="CU", horizon=8_000)
            assert row.kernel == "compiled" and row.fallback is None
            assert row.period is None and not row.extrapolated
            assert row == reference


def _row_outcome(
    netlist, kernel, configuration, relaxed, capacity=DEFAULT_QUEUE_CAPACITY,
    **controls
):
    """``(cycles, firings, halted)`` of one batch row, or the error it raised."""
    runner = BatchRunner(
        netlist, relaxed=relaxed, kernel=kernel, queue_capacity=capacity
    )
    try:
        [row] = runner.run_many([configuration], **controls)
    except (DeadlockError, SimulationError) as exc:
        return type(exc).__name__, str(exc)
    assert row.kernel == ("replay" if kernel == "compiled" else kernel)
    return row.cycles, row.firings, row.halted


class TestLoopedReplayFinish:
    """Uninstrumented looped replays finish from their firing history.

    A batch row (no shell stats, no occupancy) of a golden-run looped CPU
    ends at its first recurrence: the counters at the bound are read from
    the searched cycles' history plus whole periods, with no measuring
    period and no remainder simulated.  Each row must equal the same row
    simulated in full by the reference kernel on an untraced twin.
    """

    @given(data=st.data())
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_rows_equal_full_reference_runs(self, data):
        from repro.cpu import build_multicycle_cpu
        from repro.cpu.workloads import make_matrix_multiply

        builder = data.draw(
            st.sampled_from([build_pipelined_cpu, build_multicycle_cpu]),
            label="builder",
        )
        if data.draw(st.booleans(), label="use_sort"):
            workload = make_extraction_sort(
                length=data.draw(st.integers(3, 4), label="length"),
                seed=data.draw(st.integers(0, 99), label="seed"),
                repeat=True,
            )
        else:
            workload = make_matrix_multiply(
                size=2, seed=data.draw(st.integers(0, 99), label="seed"),
                repeat=True,
            )
        cpu = _looped_cpu(workload, builder)
        links = [name for name in cpu.netlist.link_names() if name != "CU-IC"]
        config = RSConfiguration.from_mapping(
            {link: data.draw(st.integers(0, 2), label=link) for link in links},
            label="candidate",
        )
        relaxed = data.draw(st.booleans(), label="relaxed")
        capacity = data.draw(st.integers(2, 4), label="capacity")
        [probe] = BatchRunner(
            cpu.netlist, relaxed=relaxed, kernel="compiled",
            queue_capacity=capacity,
        ).run_many(
            [config], stop_process="CU", horizon=10**6,
            steady_state_window=10**6,
        )
        assert probe.kernel == "replay" and probe.extrapolated
        warmup, period = probe.warmup_cycles, probe.period
        horizon = data.draw(
            st.integers(warmup + period, warmup + 3 * period)
            | st.sampled_from([warmup + k * period for k in (1, 2, 3)]),
            label="horizon",
        )
        controls = dict(
            stop_process="CU", horizon=horizon, steady_state_window=horizon
        )
        twin = builder(workload.looped().program).netlist
        assert _row_outcome(
            cpu.netlist, "compiled", config, relaxed, capacity, **controls
        ) == _row_outcome(twin, "reference", config, relaxed, capacity, **controls)

    def test_target_firings_row(self):
        """A firing-target row keeps the measured jump and stays exact."""
        workload = make_extraction_sort(length=5, seed=3, repeat=True)
        cpu = _looped_cpu(workload)
        config = RSConfiguration.uniform(1, exclude=("CU-IC",))
        controls = dict(
            target_firings={"CU": 12_000}, max_cycles=100_000,
            steady_state_window=50_000,
        )
        [row] = BatchRunner(cpu.netlist, relaxed=True, kernel="compiled").run_many(
            [config], **controls
        )
        assert row.kernel == "replay" and row.extrapolated
        twin = build_pipelined_cpu(workload.looped().program).netlist
        assert _row_outcome(cpu.netlist, "compiled", config, True, **controls) == (
            _row_outcome(twin, "reference", config, True, **controls)
        )

    def test_max_cycles_below_the_horizon_raises_on_both_sides(self):
        workload = make_extraction_sort(length=5, seed=3, repeat=True)
        cpu = _looped_cpu(workload)
        twin = build_pipelined_cpu(workload.looped().program).netlist
        config = RSConfiguration.uniform(1, exclude=("CU-IC",))
        controls = dict(
            stop_process="CU", horizon=50_000, max_cycles=20_000,
            steady_state_window=50_000,
        )
        for relaxed in (False, True):
            got = _row_outcome(cpu.netlist, "compiled", config, relaxed, **controls)
            assert got[0] == "SimulationError"
            assert got == _row_outcome(twin, "reference", config, relaxed, **controls)

    def test_only_uninstrumented_done_stop_replays_finish(self):
        """Stat instruments and firing targets keep the measured jump."""
        cpu = _looped_cpu(make_extraction_sort(length=4, seed=3, repeat=True))
        model = elaborate(cpu.netlist, relaxed=True)
        none = InstrumentSet.none()
        stats = InstrumentSet(trace=False, shell_stats=True, occupancy=False)
        occupancy = InstrumentSet(trace=False, shell_stats=False, occupancy=True)
        cases = [
            (none, STOP_PROCESS, True),
            (none, STOP_ANY_DONE, True),
            (none, STOP_TARGET, False),
            (stats, STOP_PROCESS, False),
            (occupancy, STOP_PROCESS, False),
        ]
        for instruments, stop_mode, finishes in cases:
            source = generate_run_source(
                model, instruments, stop_mode, steady=True, horizon=True,
                replay=REPLAY_LOOPED,
            )
            assert ("_ss_fin(" in source) == finishes
            assert ("_ss_skip(" in source) != finishes
            # Every looped replay searches only inside the loop.
            assert "_ss = 3" in source


class TestFinishFromHistory:
    """The arithmetic of :func:`finish_from_history` on synthetic histories."""

    @staticmethod
    def _history(prefix, pattern, periods):
        """Two firing counters per cycle (the second counts double): they
        fire on the cycles marked 1 in *prefix*, then in *periods* copies
        of *pattern*."""
        history, count = [], 0
        for bit in list(prefix) + list(pattern) * periods:
            history.append((count, 2 * count))
            count += bit
        history.append((count, 2 * count))
        return history

    def test_counters_at_any_bound_equal_the_extended_schedule(self):
        prefix, pattern = [1, 0, 1], [1, 0, 0, 1, 0]
        history = self._history(prefix, pattern, 1)
        full = self._history(prefix, pattern, 8)
        start = len(prefix)
        for bound in range(start + len(pattern), start + 7 * len(pattern)):
            counts, skipped = finish_from_history(history, start, bound, 1, 100)
            assert counts == full[bound]
            assert skipped == (bound - start >= 2 * len(pattern))

    def test_idle_run_across_the_boundary_keeps_simulating(self):
        # The period starts with two idle cycles and ends with one: the run
        # across each boundary is three cycles long.
        history = self._history([1], [0, 0, 1, 1, 0], 1)
        assert finish_from_history(history, 1, 100, 1, 4) is not None
        assert finish_from_history(history, 1, 100, 1, 3) is None

    def test_a_period_without_firings_keeps_simulating(self):
        history = self._history([1, 1], [0, 0], 1)
        assert finish_from_history(history, 2, 100, 2, 10**6) is None


#: The BFS instance below recurs within its first CHECKPOINT_CAP cycles.
CHECKPOINT_CAP = 64

BFS_EDGES = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3), (2, 6)]


@st.composite
def bfs_rows(draw):
    """A random BFS ring row: graph, PE count, wrapper, capacity, RS draws."""
    n = draw(st.integers(3, 7))
    edges = [(0, 1)] + draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=1, max_size=12,
    ))
    n_pe = draw(st.integers(1, 3))
    relaxed = draw(st.booleans())
    capacity = draw(st.integers(1, 3))
    return edges, n_pe, relaxed, capacity, draw(st.data())


class TestCertifiedCheckpoints:
    """Certified detection: every searched cycle is an exact checkpoint.

    The BFS processing elements declare complete summaries and no control
    hook, so the one search's key holds their queued token values as exact
    tuples: no hash, no digest, and every detecting kernel reports the same
    exact warmup.
    """

    @given(case=bfs_rows())
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_compiled_matches_full_simulation_and_fast(self, case):
        from repro.workloads.graph import make_bfs_workload

        edges, n_pe, relaxed, capacity, data = case
        workload = make_bfs_workload(edges, root=0, n_pe=n_pe)
        rs_counts = {
            name: data.draw(st.integers(0, 2), label=name)
            for name in workload.rs_counts
        }
        model = elaborate(
            workload.netlist, rs_counts=rs_counts, relaxed=relaxed,
            queue_capacity=capacity,
        )
        assert certify_model(model)[1]
        instruments = InstrumentSet(trace=False, shell_stats=True, occupancy=True)
        controls = dict(horizon=4_000, max_cycles=10**6)
        full = make_kernel(model, "compiled").run(
            RunControls(steady_state=False, **controls), instruments
        )
        fast = make_kernel(model, "fast").run(RunControls(**controls), instruments)
        got = make_kernel(model, "compiled").run(RunControls(**controls), instruments)
        _assert_matches_full(full, got)
        _assert_matches_full(full, fast)
        assert (got.period, got.warmup_cycles, got.extrapolated) == (
            fast.period, fast.warmup_cycles, fast.extrapolated
        )

    def test_window_edge_still_extrapolates(self):
        """A window ending where fast first sees the recurrence suffices."""
        from repro.workloads.graph import make_bfs_workload

        workload = make_bfs_workload(BFS_EDGES, root=0, n_pe=3)
        kwargs = dict(
            rs_counts=workload.rs_counts, record_trace=False, horizon=30_000
        )
        fast = run_lid(workload.netlist, kernel="fast", **kwargs)
        assert fast.extrapolated
        window = fast.warmup_cycles + fast.period
        got = run_lid(
            workload.netlist, kernel="compiled", steady_state_window=window,
            **kwargs,
        )
        assert got.extrapolated and got.period == fast.period
        full = run_lid(
            workload.netlist, kernel="compiled", steady_state=False, **kwargs
        )
        _assert_matches_full(full, got)

    def test_bfs_horizon_row_keeps_an_exact_warmup(self):
        """A recurrence within the first cap cycles is found exactly."""
        from repro.workloads.graph import make_bfs_workload

        edges = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3), (2, 6)]
        results = {}
        for kernel in DETECTING_KERNELS:
            workload = make_bfs_workload(edges, root=0, n_pe=2)
            results[kernel] = run_lid(
                workload.netlist, rs_counts=workload.rs_counts, kernel=kernel,
                record_trace=False, horizon=50_000,
            )
        fast, got = results["fast"], results["compiled"]
        assert got.extrapolated and got.period == fast.period
        assert got.warmup_cycles + got.period <= CHECKPOINT_CAP
        assert got.warmup_cycles == fast.warmup_cycles

    def test_certified_source_has_no_snapshot_hash(self):
        from repro.workloads.graph import make_bfs_workload

        workload = make_bfs_workload(BFS_EDGES, root=0, n_pe=2)
        model = elaborate(workload.netlist, rs_counts=workload.rs_counts)
        assert certify_model(model)[1]
        source = generate_run_source(
            model, InstrumentSet.none(), STOP_ANY_DONE, steady=True, horizon=True
        )
        assert "tuple(q0)" in source and "_ss == 2" in source
        assert "hash(" not in source


class TestLoopedWorkloads:
    def test_program_looped_replaces_halt_with_jump(self):
        workload = make_extraction_sort(length=4, seed=1)
        looped = workload.program.looped()
        assert looped.name.endswith("-looped")
        assert len(looped.instructions) == len(workload.program.instructions)
        assert not any(i.is_halt for i in looped.instructions)
        jumps = [
            (original, replaced)
            for original, replaced in zip(
                workload.program.instructions, looped.instructions
            )
            if original != replaced
        ]
        assert jumps, "the HALT must have been rewritten"
        for original, replaced in jumps:
            assert original.is_halt
            assert replaced.is_jump and replaced.imm == 0

    def test_workload_looped_is_idempotent_and_marked(self):
        workload = make_extraction_sort(length=4, seed=1)
        looped = workload.looped()
        assert not workload.looping and looped.looping
        assert looped.looped() is looped
        assert looped.expected_memory == workload.expected_memory

    def test_repeat_flag_builds_looping_workloads(self):
        from repro.cpu.workloads import make_matrix_multiply

        assert make_extraction_sort(length=4, repeat=True).looping
        assert make_matrix_multiply(size=2, repeat=True).looping

    def test_table1_horizon_rows_extrapolate_identically(self):
        """Acceptance: horizon rows == full (detection-off) simulation."""
        from repro.experiments.table1 import evaluate_rows

        workload = make_extraction_sort(length=4, seed=2005)
        configurations = [
            RSConfiguration.ideal(),
            RSConfiguration.uniform(1, exclude=("CU-IC",)),
        ]
        for kernel in DETECTING_KERNELS:
            on = evaluate_rows(
                workload, configurations, kernel=kernel, horizon=20_000,
            )
            off = evaluate_rows(
                workload, configurations, kernel=kernel, horizon=20_000,
                steady_state=False,
            )
            for row_on, row_off in zip(on.rows, off.rows):
                assert row_on.wp1_cycles == row_off.wp1_cycles == 20_000
                assert row_on.wp2_cycles == row_off.wp2_cycles == 20_000
                assert row_on.wp1_throughput == row_off.wp1_throughput
                assert row_on.wp2_throughput == row_off.wp2_throughput

    def test_table1_horizon_rows_report_extrapolated_batches(self):
        """Horizon rows actually run extrapolated (not merely identical)."""
        from repro.engine import BatchRunner

        workload = make_extraction_sort(length=4, seed=2005, repeat=True)
        cpu = _looped_cpu(workload)
        runner = BatchRunner(cpu.netlist, relaxed=True, kernel="compiled")
        [summary] = runner.run_many(
            [RSConfiguration.uniform(1, exclude=("CU-IC",))],
            stop_process="CU", horizon=20_000, steady_state_window=20_000,
        )
        assert summary.kernel == "replay"
        assert summary.extrapolated and summary.period is not None
        assert summary.cycles == 20_000


# ---------------------------------------------------------------------------
# When detection must stay off
# ---------------------------------------------------------------------------

class TestDetectionGating:
    def _ring_model(self):
        netlist, rs_counts = ring_netlist(3, rs_total=2)
        return elaborate(netlist, rs_counts=rs_counts)

    def test_trace_instrument_disables_detection(self):
        model = self._ring_model()
        assert detection_plan(model, InstrumentSet.all(), True, None, None) is None
        result = make_kernel(model, "fast").run(
            RunControls(horizon=5_000), InstrumentSet.all()
        )
        assert not result.extrapolated and result.period is None
        assert result.trace[next(iter(result.trace))].cycles == 5_000

    def test_on_cycle_observer_disables_detection(self):
        model = self._ring_model()
        seen = []
        result = make_kernel(model, "fast").run(
            RunControls(horizon=200, on_cycle=lambda c, fired: seen.append(c)),
            InstrumentSet.none(),
        )
        assert not result.extrapolated and len(seen) == 200

    def test_zero_window_disables_detection(self):
        model = self._ring_model()
        result = make_kernel(model, "fast").run(
            RunControls(horizon=5_000, steady_state_window=0),
            InstrumentSet.none(),
        )
        assert not result.extrapolated and result.period is None

    def test_mixed_complete_and_incomplete_is_unsupported(self):
        """A complete summary next to a plain one disables detection.

        The complete process' output values may depend on state its plain
        neighbour does not expose, so neither snapshot mode is sound.
        """
        from repro.engine.steady_state import certify_model

        class CompletePassthrough(PassthroughProcess):
            schedule_complete = True

        netlist = Netlist(
            [CompletePassthrough("a"), PassthroughProcess("b")],
            [
                Channel("ab", "a", "out", "b", "in", initial=0),
                Channel("ba", "b", "out", "a", "in", initial=1),
            ],
        )
        model = elaborate(netlist)
        assert certify_model(model) is None
        assert detection_plan(model, InstrumentSet.none(), True, None, None) is None

    def test_plain_netlists_classify_uncertified(self):
        from repro.engine.steady_state import certify_model

        netlist, rs_counts = ring_netlist(3, rs_total=2)
        model = elaborate(netlist, rs_counts=rs_counts)
        dynamic, certified = certify_model(model)
        assert not certified and dynamic == []

    def test_oracle_without_schedule_state_is_unsupported(self):
        process = FunctionProcess(
            "p", ("i",), ("o",),
            lambda state, inputs: (state, {"o": inputs["i"]}),
            oracle=lambda state: frozenset({"i"}),
        )
        netlist = Netlist(
            [process], [Channel("loop", "p", "o", "p", "i", initial=0)]
        )
        model = elaborate(netlist, relaxed=True)
        assert process.schedule_state() is None
        assert detection_plan(model, InstrumentSet.none(), True, None, None) is None


# ---------------------------------------------------------------------------
# The schedule_state protocol
# ---------------------------------------------------------------------------

class TestScheduleStateProtocol:
    def test_inert_processes_report_inert(self):
        assert PassthroughProcess("p").schedule_state() is SCHEDULE_INERT
        assert SinkProcess("s").schedule_state() is SCHEDULE_INERT
        assert CounterSource("c").schedule_state() is SCHEDULE_INERT

    def test_limited_counter_source_exposes_its_counter(self):
        source = CounterSource("c", limit=3)
        assert source.schedule_state() == 0
        source.fire({})
        assert source.schedule_state() == 1

    def test_function_process_without_oracle_is_inert(self):
        process = FunctionProcess(
            "p", ("i",), ("o",), lambda s, i: (s, {"o": i["i"]})
        )
        assert process.schedule_state() is SCHEDULE_INERT

    def test_done_overrider_without_summary_is_unsupported(self):
        class Custom(PassthroughProcess):
            def is_done(self):
                return False

        assert Custom("p").schedule_state() is None


# ---------------------------------------------------------------------------
# Horizon mode
# ---------------------------------------------------------------------------

class TestHorizon:
    @pytest.mark.parametrize("kernel", ("reference", "fast", "compiled"))
    def test_horizon_halts_exactly(self, kernel):
        netlist, rs_counts = ring_netlist(3, rs_total=1)
        result = run_lid(
            netlist, rs_counts=rs_counts, kernel=kernel, record_trace=False,
            horizon=777, steady_state=False,
        )
        assert result.cycles == 777 and result.halted

    @pytest.mark.parametrize("kernel", ("reference", "fast", "compiled"))
    def test_stop_condition_beats_horizon(self, kernel):
        netlist, rs_counts = ring_netlist(3, rs_total=1)
        result = run_lid(
            netlist, rs_counts=rs_counts, kernel=kernel, record_trace=False,
            horizon=100_000, target_firings={"stage0": 9},
        )
        assert result.halted and result.firings["stage0"] >= 9
        assert result.cycles < 100_000

    @pytest.mark.parametrize("kernel", ("reference", "fast", "compiled"))
    def test_horizon_beyond_max_cycles_times_out(self, kernel):
        netlist, rs_counts = ring_netlist(3, rs_total=1)
        with pytest.raises(SimulationError):
            run_lid(
                netlist, rs_counts=rs_counts, kernel=kernel, record_trace=False,
                horizon=1_000, max_cycles=500,
            )

    def test_invalid_horizon_rejected(self):
        netlist, rs_counts = ring_netlist(2, rs_total=1)
        with pytest.raises(SimulationError, match="horizon"):
            run_lid(
                netlist, rs_counts=rs_counts, record_trace=False, horizon=0
            )

    @pytest.mark.parametrize("kernel", DETECTING_KERNELS)
    def test_kernels_match_reference_on_horizon(self, kernel):
        netlist, rs_counts = ring_netlist(4, rs_total=2)
        reference = run_lid(
            netlist, rs_counts=rs_counts, kernel="reference",
            record_trace=False, horizon=3_000,
        )
        got = run_lid(
            netlist, rs_counts=rs_counts, kernel=kernel,
            record_trace=False, horizon=3_000,
        )
        _assert_matches_full(reference, got)


# ---------------------------------------------------------------------------
# Result plumbing (LidResult / BatchResult satellite)
# ---------------------------------------------------------------------------

class TestResultFields:
    def test_lidresult_defaults_are_backward_compatible(self):
        from repro.core.traces import SystemTrace

        result = LidResult(
            cycles=10,
            firings={"p": 5},
            trace=SystemTrace(()),
            halted=True,
            wrapper_kind="WP1",
            configuration_label="legacy",
            rs_counts={},
        )
        assert result.period is None
        assert result.warmup_cycles is None
        assert result.extrapolated is False

    def test_throughput_of_unknown_process_is_zero(self):
        """Regression: an unknown/filtered process name raised a KeyError."""
        from repro.core.traces import SystemTrace

        result = LidResult(
            cycles=10,
            firings={"p": 5},
            trace=SystemTrace(()),
            halted=True,
            wrapper_kind="WP1",
            configuration_label="legacy",
            rs_counts={},
        )
        assert result.throughput("p") == 0.5
        assert result.throughput("not-a-process") == 0.0
        assert result.throughput("filtered-out") == 0.0

    def test_batch_result_carries_period(self):
        netlist, rs_counts = ring_netlist(3, rs_total=2)
        runner = BatchRunner(netlist)
        [summary] = runner.run_many([rs_counts], horizon=20_000)
        assert summary.extrapolated and summary.period is not None
        assert summary.warmup_cycles is not None


# ---------------------------------------------------------------------------
# Extrapolation arithmetic
# ---------------------------------------------------------------------------

class TestPeriodsToSkip:
    def test_horizon_bound(self):
        assert periods_to_skip(100, 10, 1_000, 0, None, [], []) == 90

    def test_target_keeps_slowest_unmet(self):
        # Process 0 needs 95 more firings at 2/period -> 47 whole periods
        # still leave it unmet; the bound allows more.
        skip = periods_to_skip(
            100, 10, 10_000, 1, [(0, 100)], [5], [2]
        )
        assert skip == 47

    def test_target_with_met_target_ignored(self):
        skip = periods_to_skip(
            100, 10, 10_000, 1, [(0, 3), (1, 50)], [5, 10], [0, 4]
        )
        assert skip == (50 - 10 - 1) // 4

    def test_unreachable_target_skips_to_bound(self):
        skip = periods_to_skip(100, 10, 2_000, 1, [(0, 100)], [5], [0])
        assert skip == 190

    def test_never_negative(self):
        assert periods_to_skip(995, 10, 1_000, 0, None, [], []) == 0


# ---------------------------------------------------------------------------
# Codegen variants
# ---------------------------------------------------------------------------

class TestSteadyCodegen:
    def test_steady_and_horizon_are_distinct_cache_entries(self):
        netlist, rs_counts = ring_netlist(3, rs_total=2)
        model = elaborate(netlist, rs_counts=rs_counts)
        plain = compiled_run_fn(model, InstrumentSet.none())
        steady = compiled_run_fn(model, InstrumentSet.none(), steady=True)
        horizon = compiled_run_fn(model, InstrumentSet.none(), horizon=True)
        assert plain is not steady and plain is not horizon
        assert compiled_run_fn(model, InstrumentSet.none(), steady=True) is steady

    @pytest.mark.parametrize("relaxed", [False, True])
    @pytest.mark.parametrize(
        "instruments",
        [InstrumentSet.none(),
         InstrumentSet(trace=False, shell_stats=True, occupancy=True)],
        ids=["none", "stats+occ"],
    )
    def test_steady_source_compiles(self, relaxed, instruments):
        netlist, rs_counts = ring_netlist(3, rs_total=2)
        model = elaborate(netlist, rs_counts=rs_counts, relaxed=relaxed)
        source = generate_run_source(
            model, instruments, steady=True, horizon=True
        )
        assert "_ss_seen" in source and "_ss_skip" in source
        compile(source, "<test-steady>", "exec")

    def test_trace_mode_never_emits_detector(self):
        netlist, rs_counts = ring_netlist(3, rs_total=2)
        model = elaborate(netlist, rs_counts=rs_counts)
        source = generate_run_source(
            model, InstrumentSet.all(), steady=True
        )
        assert "_ss_seen" not in source


# ---------------------------------------------------------------------------
# Shape-generic code behind the process-wide code cache
# ---------------------------------------------------------------------------

def _count_generations(monkeypatch):
    """Record every code generation from here on (starting from a cold cache)."""
    from repro.engine import codegen

    calls = []
    original = codegen.generate_run_source

    def counting(model, instruments, stop_mode=codegen.STOP_PROCESS,
                 steady=False, horizon=False, **options):
        flags = (instruments.trace, instruments.shell_stats, instruments.occupancy)
        calls.append((model.relaxed, flags, stop_mode, steady, horizon))
        return original(model, instruments, stop_mode, steady, horizon, **options)

    monkeypatch.setattr(codegen, "generate_run_source", counting)
    codegen.clear_code_cache()
    return calls


def _rs_vectors(netlist):
    """All-zero and mixed 0/1/3 relay-station vectors over every channel."""
    names = list(netlist.channels)
    return [
        {name: 0 for name in names},
        {name: (0, 1, 3)[index % 3] for index, name in enumerate(names)},
    ]


class _StopsAfter(PassthroughProcess):
    """Overrides ``is_done``: done after ten firings."""

    def is_done(self):
        return self.firings >= 10


class _FlagsDone(_StopsAfter):
    """Also declares ``done_attribute`` (kept equal to ``is_done()``)."""

    done_attribute = "finished"

    def __init__(self, name):
        super().__init__(name)
        self.finished = False

    def reset(self):
        super().reset()
        self.finished = False

    def fire(self, inputs):
        self.finished = self.firings + 1 >= 10
        return super().fire(inputs)


def _pair(first):
    return Netlist(
        [first, PassthroughProcess("b")],
        [
            Channel("ab", first.name, "out", "b", "in", initial=0),
            Channel("ba", "b", "out", first.name, "in", initial=1),
        ],
        name="pair",
    )


@st.composite
def zoo_shapes(draw):
    """A generator-zoo netlist (steady-state-eligible shapes) and a wrapper."""
    kind = draw(st.sampled_from(("ring", "dag", "mesh", "torus", "marked", "random")))
    if kind == "ring":
        params = {"stages": draw(st.integers(min_value=2, max_value=5))}
    elif kind == "dag":
        params = {
            "width": draw(st.integers(min_value=1, max_value=3)),
            "depth": draw(st.integers(min_value=1, max_value=2)),
        }
    elif kind in ("mesh", "torus"):
        params = {
            "rows": draw(st.integers(min_value=2, max_value=3)),
            "cols": draw(st.integers(min_value=2, max_value=3)),
        }
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
    return kind, params, draw(st.booleans())


def _horizon_outcome(model, kernel, controls, instruments):
    try:
        return "ok", make_kernel(model, kernel).run(controls, instruments)
    except DeadlockError:
        return "deadlock", None
    except SimulationError:
        return "timeout", None


class TestSharedCodeCache:
    @pytest.mark.parametrize("case", ["ring", "cpu"])
    def test_one_generation_per_variant_across_layouts(self, case, monkeypatch):
        """Fresh layouts, RS vectors and capacities never compile again."""
        calls = _count_generations(monkeypatch)
        stats_occ = InstrumentSet(trace=False, shell_stats=True, occupancy=True)
        if case == "ring":
            netlist, _ = ring_netlist(4, rs_total=0)
            controls_list = [
                RunControls(horizon=400),
                RunControls(target_firings={"stage0": 60}, max_cycles=5_000),
            ]
            instrument_sets = [InstrumentSet.none(), stats_occ]
        else:
            netlist = _sort_cpu().netlist
            controls_list = [RunControls(stop_process="CU")]
            instrument_sets = [stats_occ]
        runs = 0
        for relaxed in (False, True):
            for rs_counts in _rs_vectors(netlist):
                for capacity in (2, 4):
                    model = Elaborator(netlist).bind(
                        rs_counts=rs_counts, relaxed=relaxed,
                        queue_capacity=capacity,
                    )
                    for controls in controls_list:
                        for instruments in instrument_sets:
                            got = make_kernel(model, "compiled").run(
                                controls, instruments
                            )
                            full = make_kernel(model, "reference").run(
                                controls, instruments
                            )
                            _assert_matches_full(full, got)
                            runs += 1
        assert runs == 4 * len(calls)
        assert len(calls) == len(set(calls)) == (
            2 * len(controls_list) * len(instrument_sets)
        )

    def test_hook_flags_never_share_a_function(self):
        """is_done overrides and done_attribute declarations split the cache."""
        controls = RunControls(max_cycles=2_000)
        fns = []
        for first in (
            PassthroughProcess("a"), _StopsAfter("a"), _FlagsDone("a"),
        ):
            model = elaborate(_pair(first), rs_counts={"ab": 1})
            fns.append(compiled_run_fn(model, InstrumentSet.none(), STOP_ANY_DONE))
            if first.__class__ is not PassthroughProcess:
                full = make_kernel(model, "reference").run(controls, InstrumentSet.all())
                got = make_kernel(model, "compiled").run(controls, InstrumentSet.all())
                _assert_matches_full(full, got)
                assert got.firings["a"] == 10
        assert len({id(fn) for fn in fns}) == 3
        assert "p0.finished" in fns[2].__lid_source__
        assert "p0_done()" in fns[1].__lid_source__
        assert "p0_done" not in fns[0].__lid_source__

    def test_cache_never_exceeds_its_bound(self, monkeypatch):
        from repro.engine import codegen

        calls = _count_generations(monkeypatch)
        monkeypatch.setattr(codegen, "CODE_CACHE_SIZE", 3)
        netlist, rs_counts = ring_netlist(3, rs_total=2)
        model = elaborate(netlist, rs_counts=rs_counts)
        variants = [
            (instruments, stop_mode, steady, horizon)
            for instruments in (
                InstrumentSet.none(),
                InstrumentSet(trace=False, shell_stats=True, occupancy=False),
            )
            for stop_mode in (STOP_ANY_DONE, STOP_TARGET)
            for steady in (False, True)
            for horizon in (False, True)
        ]
        for instruments, stop_mode, steady, horizon in variants:
            compiled_run_fn(model, instruments, stop_mode, steady, horizon)
            assert codegen.code_cache_size() <= 3
        assert len(calls) == len(variants)
        compiled_run_fn(model, *variants[-1])  # most recent: still cached
        assert len(calls) == len(variants)
        compiled_run_fn(model, *variants[0])  # oldest: evicted, compiles again
        assert len(calls) == len(variants) + 1
        assert codegen.code_cache_size() == 3

    def test_threads_share_the_cache_safely(self, monkeypatch):
        """More threads than cores looking up, compiling and evicting at once.

        Every lookup races evictions by the other threads (eight variants,
        room for six); a torn LRU shows as an exception or an oversized
        cache, a wrong function as a result that differs from the reference.
        """
        import random
        import threading

        from repro.engine import codegen
        from repro.topology import make_topology

        monkeypatch.setattr(codegen, "CODE_CACHE_SIZE", 6)
        codegen.clear_code_cache()
        controls = RunControls(horizon=150, steady_state=False)
        cases = [(stages, relaxed) for stages in (2, 3, 4, 5) for relaxed in (False, True)]

        def bind(stages, relaxed):
            topology = make_topology("ring", stages=stages, rs_total=stages - 1)
            return elaborate(
                topology.netlist, rs_counts=topology.rs_counts, relaxed=relaxed
            )

        def outcome(model, kernel):
            result = make_kernel(model, kernel).run(controls, InstrumentSet.none())
            return result.cycles, result.firings

        expected = {case: outcome(bind(*case), "reference") for case in cases}
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            # Runs are not thread-safe on shared processes: own netlists.
            models = {case: bind(*case) for case in cases}
            try:
                for step in range(800):
                    case = rng.choice(cases)
                    if step % 100 == 0:
                        if outcome(models[case], "compiled") != expected[case]:
                            errors.append(case)
                    else:
                        codegen.compiled_run_fn(models[case], InstrumentSet.none())
                    if codegen.code_cache_size() > 6:
                        errors.append(codegen.code_cache_size())
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,)) for seed in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert codegen.code_cache_size() <= 6

    @given(shape=zoo_shapes(), data=st.data())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_zoo_bindings_share_one_function(self, shape, data):
        """Random RS vectors and capacities of one zoo netlist: one function.

        Counts match full simulation on the reference kernel; the detector's
        period, warmup and extrapolated flag match the interpreted kernel's
        (the reference kernel never extrapolates).
        """
        from repro.topology import make_topology

        kind, params, relaxed = shape
        netlist = make_topology(kind, **params).netlist
        controls = RunControls(horizon=3_000, max_cycles=10_000, deadlock_limit=200)
        instruments = InstrumentSet(trace=False, shell_stats=True, occupancy=True)
        n_chans = len(netlist.channels)
        fns = set()
        for _ in range(3):
            counts = data.draw(
                st.lists(st.integers(min_value=0, max_value=3),
                         min_size=n_chans, max_size=n_chans)
            )
            capacity = data.draw(st.integers(min_value=1, max_value=4))
            model = Elaborator(netlist).bind(
                rs_counts=dict(zip(netlist.channels, counts)),
                relaxed=relaxed, queue_capacity=capacity,
            )
            plan = detection_plan(model, instruments)
            fns.add(id(compiled_run_fn(
                model, instruments, STOP_ANY_DONE,
                steady=plan is not None, horizon=True,
            )))
            kind_full, full = _horizon_outcome(model, "reference", controls, instruments)
            kind_got, got = _horizon_outcome(model, "compiled", controls, instruments)
            kind_fast, fast = _horizon_outcome(model, "fast", controls, instruments)
            assert kind_full == kind_got == kind_fast
            if full is not None:
                _assert_matches_full(full, got)
                assert (got.period, got.warmup_cycles, got.extrapolated) == (
                    fast.period, fast.warmup_cycles, fast.extrapolated
                )
        assert len(fns) == 1

    @pytest.mark.parametrize(
        "params, counts, capacity",
        [
            ({"seed": 2, "n_processes": 2, "extra_channels": 3,
              "allow_cycles": True}, [0, 0, 3, 0], 4),
            ({"seed": 64, "n_processes": 2, "extra_channels": 3,
              "allow_cycles": True}, [0, 0, 2, 0], 2),
            ({"seed": 15473, "n_processes": 3, "extra_channels": 3,
              "allow_cycles": False}, [3, 3, 3, 1, 1], 1),
        ],
    )
    def test_zoo_oracle_rows_extrapolate_exactly(self, params, counts, capacity):
        """WP2 zoo rows whose oracle once read the mixed token values.

        A recurrence of the schedule key was then no recurrence of the
        schedule, and extrapolation got firings and stall counts wrong.
        """
        from repro.topology import make_topology

        netlist = make_topology("random", with_oracles=True, **params).netlist
        model = Elaborator(netlist).bind(
            rs_counts=dict(zip(netlist.channels, counts)),
            relaxed=True, queue_capacity=capacity,
        )
        controls = RunControls(horizon=3_000, max_cycles=10_000, deadlock_limit=200)
        instruments = InstrumentSet(trace=False, shell_stats=True, occupancy=True)
        kind_full, full = _horizon_outcome(model, "reference", controls, instruments)
        assert kind_full == "ok"
        for kernel in DETECTING_KERNELS:
            kind, got = _horizon_outcome(model, kernel, controls, instruments)
            assert kind == "ok", kernel
            assert got.extrapolated, kernel
            _assert_matches_full(full, got)


# ---------------------------------------------------------------------------
# Multi-netlist batch scheduling
# ---------------------------------------------------------------------------

def _sort_cpu():
    return build_pipelined_cpu(make_extraction_sort(length=4, seed=3).program)


def _matmul_cpu():
    from repro.cpu.workloads import make_matrix_multiply

    return build_pipelined_cpu(make_matrix_multiply(size=2, seed=3).program)


class TestMultiNetlistRunner:
    CONFIGS = staticmethod(lambda: [
        RSConfiguration.ideal(),
        RSConfiguration.uniform(1, exclude=("CU-IC",)),
        RSConfiguration.only("CU-RF", 2),
    ])

    def _multi(self):
        return MultiNetlistRunner.from_netlists(
            {
                "sort": _sort_cpu().netlist,
                "matmul": _matmul_cpu().netlist,
            }
        )

    def test_matches_single_layout_runs(self):
        multi = self._multi()
        configs = self.CONFIGS()
        items = [
            (name, config) for config in configs for name in ("sort", "matmul")
        ]
        mixed = multi.run_many(items, stop_process="CU")
        assert [r.label for r in mixed] == [c.label for c in configs for _ in "xy"]
        for name in ("sort", "matmul"):
            single = BatchRunner(multi.runner(name).netlist).run_many(
                configs, stop_process="CU"
            )
            mine = [r for (n, _), r in zip(items, mixed) if n == name]
            assert [r.cycles for r in single] == [r.cycles for r in mine]
            assert [r.firings for r in single] == [r.firings for r in mine]

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_one_pool_serves_every_layout(self, start_method):
        import multiprocessing

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} not available")
        multi = self._multi()
        items = [
            (name, config)
            for config in self.CONFIGS()
            for name in ("sort", "matmul")
        ]
        serial = multi.run_many(items, stop_process="CU")
        pooled = multi.run_many(
            items, workers=2, start_method=start_method, stop_process="CU"
        )
        assert [r.cycles for r in serial] == [r.cycles for r in pooled]
        assert [r.firings for r in serial] == [r.firings for r in pooled]

    def test_unknown_layout_rejected(self):
        multi = self._multi()
        with pytest.raises(SimulationError, match="unknown layout"):
            multi.run_many([("warp", RSConfiguration.ideal())], stop_process="CU")

    def test_per_layout_overrides(self):
        cpu = _sort_cpu()
        multi = MultiNetlistRunner.from_netlists(
            {"wp1": cpu.netlist, "wp2": cpu.netlist},
            per_layout={"wp2": {"relaxed": True}},
        )
        [wp1, wp2] = multi.run_many(
            [
                ("wp1", RSConfiguration.uniform(1, exclude=("CU-IC",))),
                ("wp2", RSConfiguration.uniform(1, exclude=("CU-IC",))),
            ],
            stop_process="CU",
        )
        assert wp1.wrapper_kind == "WP1" and wp2.wrapper_kind == "WP2"
        assert wp2.cycles < wp1.cycles  # the paper's WP2 gain

    def test_unpicklable_layouts_fall_back_to_fork(self):
        if not sys.platform.startswith(("linux", "darwin")):
            pytest.skip("fork inheritance requires a fork platform")
        ring_a, rs_a = ring_netlist(3, rs_total=2)  # closure processes
        ring_b, rs_b = ring_netlist(4, rs_total=1)
        multi = MultiNetlistRunner.from_netlists({"a": ring_a, "b": ring_b})
        items = [("a", rs_a), ("b", rs_b)] * 3
        serial = multi.run_many(
            items, target_firings={"stage0": 15}, max_cycles=1_000
        )
        pooled = multi.run_many(
            items, workers=2, target_firings={"stage0": 15}, max_cycles=1_000
        )
        assert [r.cycles for r in serial] == [r.cycles for r in pooled]

    def test_empty_runner_map_rejected(self):
        with pytest.raises(SimulationError):
            MultiNetlistRunner({})

    def test_mixed_workload_sweep_single_pool(self):
        from repro.cpu.workloads import make_matrix_multiply
        from repro.experiments import mixed_workload_sweep

        results = mixed_workload_sweep(
            workloads={
                "extraction_sort": make_extraction_sort(length=4, seed=3),
                "matrix_multiply": make_matrix_multiply(size=2, seed=3),
            },
            depths=(0, 1),
        )
        assert set(results) == {"extraction_sort", "matrix_multiply"}
        for sweep in results.values():
            assert sweep.points[0].wp1_throughput == pytest.approx(1.0)
            assert sweep.points[1].wp1_throughput < 1.0
