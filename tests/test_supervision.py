"""Chaos suite: the fault-tolerance contract, driven by deterministic faults.

Every recovery path of the supervised pool (DESIGN.md §8) is exercised here
through :mod:`repro.engine.faults` — worker crashes, hung shards, poisoned
items, corrupted cache entries, wedged evaluations at close() — under both
the ``fork`` and ``spawn`` start methods where it matters.  The anchor
property: a batch that hits faults still completes, healthy items
bit-identical to a fault-free run, poisoned items as per-item error rows,
and :class:`~repro.engine.result.SupervisionStats` tells the story.
"""

import json
import multiprocessing
import sys
import threading
import time
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import RSConfiguration, ring_netlist
from repro.core.exceptions import (
    FaultInjectionError,
    SimulationError,
    WorkerCrashError,
)
from repro.cpu import build_pipelined_cpu
from repro.cpu.workloads import make_extraction_sort
from repro.engine import faults
from repro.engine.batch import BatchRunner
from repro.engine.faults import FAULTS_ENV_VAR, FaultPlan, FaultSpec
from repro.engine.kernel import RunControls
from repro.engine.result import SupervisionStats
from repro.engine.supervised_pool import RESPAWN_BUDGET_PER_WORKER
from repro.service import EvaluationService, ResultCache
from repro.service.jobs import JobStatus
from repro.topology import ring_topology

METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]

#: Fast retries everywhere: the suite tests routing, not wall-clock patience.
FAST = dict(retry_backoff=0.01)


@pytest.fixture(autouse=True)
def _no_leftover_faults(monkeypatch):
    """Every test starts and ends fault-free (and env-clean)."""
    monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
    faults.uninstall()
    yield
    faults.uninstall()


def _sort_netlist(length=4, seed=3):
    return build_pipelined_cpu(
        make_extraction_sort(length=length, seed=seed).program
    ).netlist


def _configs(n):
    return [
        RSConfiguration.uniform(1 + (i % 3), exclude=("CU-IC",), label=f"cand-{i}")
        for i in range(n)
    ]


def _strip_attempts(results):
    """Comparable row tuples (attempts varies with retries by design)."""
    return [
        (r.label, r.cycles, r.firings, r.halted, r.wrapper_kind, r.error)
        for r in results
    ]


@pytest.fixture(scope="module")
def netlist():
    return _sort_netlist()


@pytest.fixture(scope="module")
def baseline(netlist):
    """Fault-free serial rows every recovery scenario is compared against."""
    return BatchRunner(netlist).run_many(
        _configs(8), workers=1, stop_process="CU"
    )


# ---------------------------------------------------------------------------
# Fault plans themselves
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan.of(
            FaultSpec(kind="crash", shard=1, attempt=0),
            FaultSpec(kind="hang", label="cand-2", seconds=2.5),
            FaultSpec(kind="raise", label="cand-3", simulation=True),
            FaultSpec(kind="corrupt-cache", key="any"),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor")

    def test_bad_json_is_simulation_error(self):
        with pytest.raises(SimulationError, match="invalid fault plan JSON"):
            FaultPlan.from_json("{not json")
        with pytest.raises(SimulationError, match="JSON list"):
            FaultPlan.from_json('{"kind": "crash"}')
        with pytest.raises(SimulationError, match="invalid fault spec"):
            FaultPlan.from_json('[{"kind": "crash", "banana": 1}]')

    def test_env_activation_and_cache(self, monkeypatch):
        plan = FaultPlan.of(FaultSpec(kind="crash", shard=0))
        monkeypatch.setenv(FAULTS_ENV_VAR, plan.to_json())
        assert faults.active_plan() == plan
        # An installed plan wins over the environment.
        other = FaultPlan.of(FaultSpec(kind="hang", label="x"))
        faults.install(other)
        assert faults.active_plan() == other

    def test_crash_is_noop_in_driver(self):
        # The driving process is not a worker: a crash fault must not kill
        # the test run (give-up serial fallback depends on this).
        faults.install(FaultPlan.of(FaultSpec(kind="crash")))
        faults.maybe_fault_shard(0, 0)

    def test_attempt_selector(self):
        spec = FaultSpec(kind="crash", shard=2, attempt=0)
        assert spec.matches_shard(2, 0)
        assert not spec.matches_shard(2, 1)
        assert not spec.matches_shard(1, 0)
        always = FaultSpec(kind="crash", shard=2)
        assert always.matches_shard(2, 5)


class TestSupervisionStats:
    def test_merge_and_round_trip(self):
        a = SupervisionStats(respawns=1, retries=2)
        b = SupervisionStats(retries=1, quarantined=3, timeouts=1)
        merged = a.merge(b)
        assert merged is a
        assert (a.respawns, a.retries, a.timeouts, a.quarantined) == (1, 3, 1, 3)
        assert SupervisionStats.from_dict(a.to_dict()) == a
        assert a.eventful and not SupervisionStats().eventful
        assert "1 respawns" in a.summary()


# ---------------------------------------------------------------------------
# Crash containment and the watchdog
# ---------------------------------------------------------------------------

class TestCrashRecovery:
    @pytest.mark.parametrize("method", METHODS)
    def test_worker_crash_mid_batch_recovers_bit_identically(
        self, netlist, baseline, method
    ):
        faults.install(FaultPlan.of(FaultSpec(kind="crash", shard=1, attempt=0)))
        runner = BatchRunner(netlist)
        results = runner.run_many(
            _configs(8), workers=2, shards=4, start_method=method,
            stop_process="CU", **FAST,
        )
        assert _strip_attempts(results) == _strip_attempts(baseline)
        assert runner.supervision.respawns >= 1
        assert runner.supervision.retries >= 1
        assert runner.supervision.quarantined == 0
        # The recovered shard's rows record the extra attempt.
        assert any(r.attempts > 1 for r in results)

    def test_hang_hits_shard_timeout_and_recovers(self, netlist, baseline):
        faults.install(
            FaultPlan.of(FaultSpec(kind="hang", label="cand-2", seconds=30.0,
                                   attempt=0))
        )
        runner = BatchRunner(netlist)
        started = time.monotonic()
        results = runner.run_many(
            _configs(8), workers=2, shards=4, start_method="fork",
            stop_process="CU", shard_timeout=0.5, **FAST,
        )
        assert time.monotonic() - started < 20.0  # not the 30s hang
        assert _strip_attempts(results) == _strip_attempts(baseline)
        assert runner.supervision.timeouts >= 1
        assert runner.supervision.respawns >= 1

    def test_shard_timeout_validated(self, netlist):
        with pytest.raises(SimulationError, match="shard_timeout"):
            BatchRunner(netlist).run_many(
                _configs(2), stop_process="CU", shard_timeout=-1.0
            )
        with pytest.raises(SimulationError, match="max_shard_retries"):
            BatchRunner(netlist).run_many(
                _configs(2), stop_process="CU", max_shard_retries=-1
            )


# ---------------------------------------------------------------------------
# Poisoned items: bisection and quarantine
# ---------------------------------------------------------------------------

class TestQuarantine:
    def test_poisoned_item_quarantined_siblings_succeed(
        self, netlist, baseline
    ):
        # A hard (non-simulation) raise on every attempt: retries cannot fix
        # it, bisection must isolate it out of a multi-item shard.
        faults.install(FaultPlan.of(FaultSpec(kind="raise", label="cand-3")))
        runner = BatchRunner(netlist)
        results = runner.run_many(
            _configs(8), workers=2, shards=2, start_method="fork",
            stop_process="CU", on_error="zero", max_shard_retries=1, **FAST,
        )
        row = results[3]
        assert row.failed and "FaultInjectionError" in row.error
        assert row.cycles == 0 and row.label == "cand-3"
        healthy = [r for i, r in enumerate(results) if i != 3]
        expected = [r for i, r in enumerate(baseline) if i != 3]
        assert _strip_attempts(healthy) == _strip_attempts(expected)
        assert runner.supervision.quarantined == 1
        assert runner.supervision.bisections >= 1

    @pytest.mark.parametrize("method", METHODS)
    def test_crash_poisoned_item_quarantined_both_methods(
        self, netlist, baseline, method
    ):
        # The acceptance scenario: one item segfaults the worker on every
        # attempt.  The batch still completes — siblings bit-identical, the
        # poisoned item an error row naming the crash.
        faults.install(FaultPlan.of(FaultSpec(kind="crash", label="cand-2")))
        runner = BatchRunner(netlist)
        results = runner.run_many(
            _configs(8), workers=2, shards=4, start_method=method,
            stop_process="CU", on_error="zero", max_shard_retries=1, **FAST,
        )
        row = results[2]
        assert row.failed and "WorkerCrashError" in row.error
        healthy = [r for i, r in enumerate(results) if i != 2]
        expected = [r for i, r in enumerate(baseline) if i != 2]
        assert _strip_attempts(healthy) == _strip_attempts(expected)
        assert runner.supervision.quarantined == 1
        assert runner.supervision.respawns >= 2

    def test_on_error_raise_surfaces_worker_crash(self, netlist):
        faults.install(FaultPlan.of(FaultSpec(kind="crash", label="cand-1")))
        runner = BatchRunner(netlist)
        with pytest.raises(WorkerCrashError):
            runner.run_many(
                _configs(4), workers=2, shards=4, start_method="fork",
                stop_process="CU", on_error="raise", max_shard_retries=0,
                **FAST,
            )

    def test_simulation_fault_is_ordinary_error_row(self, netlist):
        # simulation=True faults are absorbed by the per-item on_error
        # machinery inside the worker: no supervision events at all.
        faults.install(
            FaultPlan.of(FaultSpec(kind="raise", label="cand-1",
                                   simulation=True))
        )
        runner = BatchRunner(netlist)
        results = runner.run_many(
            _configs(4), workers=2, start_method="fork",
            stop_process="CU", on_error="zero", **FAST,
        )
        assert "SimulationError" in results[1].error
        assert not runner.supervision.eventful

    def test_give_up_falls_back_to_serial_with_stats_warning(
        self, netlist, baseline
    ):
        # Every shard crashes on every attempt.  With a deep retry budget no
        # shard ever reaches quarantine, so the pool burns its respawn
        # budget, gives up, and the driver finishes serially (where crash
        # faults are no-ops) — every row still correct.
        faults.install(FaultPlan.of(FaultSpec(kind="crash")))
        runner = BatchRunner(netlist)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = runner.run_many(
                _configs(8), workers=2, shards=8, start_method="fork",
                stop_process="CU", on_error="zero", max_shard_retries=50,
                **FAST,
            )
        assert _strip_attempts(results) == _strip_attempts(baseline)
        budget = RESPAWN_BUDGET_PER_WORKER * 2 + 2
        assert runner.supervision.respawns >= budget
        assert runner.supervision.serial_fallback_items > 0
        messages = [str(w.message) for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert any("supervision before fallback" in m for m in messages)


# ---------------------------------------------------------------------------
# Unpicklable work: fork-inherited runners on the same supervised pool
# ---------------------------------------------------------------------------

class TestForkInheritedWork:
    def test_unpicklable_netlist_fault_is_retried(self):
        # A closure-based netlist cannot be pickled, so its workers inherit
        # the driver's runners through fork — and are supervised all the
        # same: a hard fault on the first attempt is retried, not raised.
        if not sys.platform.startswith(("linux", "darwin")):
            pytest.skip("fork inheritance requires a fork platform")
        netlist, rs_counts = ring_netlist(3, rs_total=2)  # closure processes
        controls = dict(target_firings={"stage0": 15}, max_cycles=1000)
        serial = BatchRunner(netlist).run_many([rs_counts] * 4, **controls)
        label = serial[0].label
        faults.install(FaultPlan.of(FaultSpec(
            kind="raise", label=label, simulation=False, attempt=0,
        )))
        runner = BatchRunner(netlist)
        pooled = runner.run_many(
            [rs_counts] * 4, workers=2, **controls, **FAST,
        )
        assert _strip_attempts(pooled) == _strip_attempts(serial)
        assert runner.supervision.retries >= 1
        assert runner.supervision.quarantined == 0


# ---------------------------------------------------------------------------
# The no-fault equivalence property
# ---------------------------------------------------------------------------

class TestEquivalenceProperty:
    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_items=st.integers(min_value=1, max_value=6),
        shards=st.integers(min_value=1, max_value=6),
        depth_seed=st.integers(min_value=0, max_value=2),
    )
    def test_supervised_equals_serial_without_faults(
        self, netlist, n_items, shards, depth_seed
    ):
        configs = [
            RSConfiguration.uniform(
                1 + ((i + depth_seed) % 3), exclude=("CU-IC",),
                label=f"p-{i}",
            )
            for i in range(n_items)
        ]
        serial = BatchRunner(netlist).run_many(
            configs, workers=1, stop_process="CU"
        )
        runner = BatchRunner(netlist)
        pooled = runner.run_many(
            configs, workers=2, shards=shards, start_method="fork",
            stop_process="CU",
        )
        assert _strip_attempts(pooled) == _strip_attempts(serial)
        assert all(r.attempts == 1 for r in pooled)
        assert not runner.supervision.eventful

    @pytest.mark.parametrize("method", METHODS)
    def test_row_period_does_not_depend_on_earlier_rows(self, method):
        """A row's steady-state outcome is its own, serial or pooled.

        Regression: serial ``run_many`` sized the 300-RS row's detection
        window from the 1-cycle period its all-zero sibling found first, so
        the row ran in full and reported no period, while the same row alone
        or on another worker reported period 306.
        """
        topology = ring_topology(stages=6, rs_total=0)
        zero = dict(topology.rs_counts)
        long_chain = {**zero, "c0_1": 300}

        def outcomes(results):
            return [
                (r.cycles, r.firings, r.halted, r.period, r.warmup_cycles,
                 r.extrapolated)
                for r in results
            ]

        [alone] = BatchRunner(topology.netlist).run_many(
            [long_chain], horizon=4000
        )
        serial = BatchRunner(topology.netlist).run_many(
            [zero, long_chain], horizon=4000
        )
        pooled = BatchRunner(topology.netlist).run_many(
            [zero, long_chain], horizon=4000, workers=2, shards=2,
            start_method=method,
        )
        assert outcomes(serial) == outcomes(pooled)
        assert outcomes(serial)[1] == outcomes([alone])[0]
        assert all(r.extrapolated for r in serial)
        assert serial[1].period == 306


# ---------------------------------------------------------------------------
# Environment-driven activation (what the CI chaos smoke exercises)
# ---------------------------------------------------------------------------

class TestEnvActivation:
    def test_repro_faults_env_reaches_workers(self, netlist, baseline,
                                              monkeypatch):
        plan = FaultPlan.of(FaultSpec(kind="crash", shard=0, attempt=0))
        monkeypatch.setenv(FAULTS_ENV_VAR, plan.to_json())
        runner = BatchRunner(netlist)
        results = runner.run_many(
            _configs(8), workers=2, shards=4, start_method="fork",
            stop_process="CU", **FAST,
        )
        assert _strip_attempts(results) == _strip_attempts(baseline)
        assert runner.supervision.respawns >= 1


# ---------------------------------------------------------------------------
# Service-level fault tolerance
# ---------------------------------------------------------------------------

class TestServiceFaultTolerance:
    def test_quarantined_job_is_error_row_not_service_failure(self, netlist):
        faults.install(FaultPlan.of(FaultSpec(kind="raise", label="cand-1")))
        with EvaluationService(workers=2, start_method="fork") as service:
            layout = service.ensure_layout(netlist)
            jobs = service.submit(
                [(layout, c) for c in _configs(4)],
                controls=RunControls(stop_process="CU", retry_backoff=0.01),
            )
            rows = jobs.ordered_results(timeout=120)
        assert all(job.status is JobStatus.DONE for job in jobs)
        assert rows[1].failed and "FaultInjectionError" in rows[1].error
        assert all(not rows[i].failed for i in (0, 2, 3))
        stats = service.stats()
        assert stats["supervision"]["quarantined"] == 1

    def test_job_retry_then_terminal_failure(self, netlist, monkeypatch):
        # Force run_many itself to raise: the scheduler must retry each job
        # up to max_job_attempts, then fail it terminally.
        from repro.engine.batch import MultiNetlistRunner

        calls = []

        def explode(self, *args, **kwargs):
            calls.append(1)
            raise RuntimeError("chunk evaluation exploded")

        monkeypatch.setattr(MultiNetlistRunner, "run_many", explode)
        service = EvaluationService(workers=1, max_job_attempts=2)
        try:
            layout = service.ensure_layout(netlist)
            jobs = service.submit(
                [(layout, _configs(1)[0])], stop_process="CU"
            )
            assert jobs.wait(timeout=60)
            job = jobs.jobs[0]
            assert job.status is JobStatus.FAILED
            assert job.attempts == 2
            assert "chunk evaluation exploded" in job.error
            assert service.stats()["retried"] == 1
            assert len(calls) == 2
        finally:
            service.close(cancel_pending=True)

    def test_close_fails_wedged_jobs_instead_of_hanging(self, netlist):
        # A blocking on_cycle observer wedges the evaluation; close() with
        # cancel_pending must unblock the submitter by failing the job.
        release = threading.Event()
        entered = threading.Event()

        def block(cycle, fired):
            entered.set()
            release.wait(timeout=60)

        service = EvaluationService(workers=1, join_timeout=0.5)
        try:
            layout = service.ensure_layout(netlist)
            jobs = service.submit(
                [(layout, _configs(1)[0])],
                controls=RunControls(stop_process="CU", on_cycle=block),
            )
            # The scheduler has picked the job up once the observer runs.
            assert entered.wait(timeout=60)
            started = time.monotonic()
            service.close(cancel_pending=True)
            assert time.monotonic() - started < 10.0
            job = jobs.jobs[0]
            assert job.done
            assert job.status is JobStatus.FAILED
            assert "abandoned at close()" in job.error
        finally:
            release.set()
            service.close(cancel_pending=True)

    def test_max_pending_applies_backpressure(self, netlist):
        service = EvaluationService(workers=1, max_pending=2, autostart=False)
        try:
            layout = service.ensure_layout(netlist)
            configs = _configs(5)
            submitted = []

            def submitter():
                jobs = service.submit(
                    [(layout, c) for c in configs], stop_process="CU"
                )
                submitted.append(jobs)

            thread = threading.Thread(target=submitter, daemon=True)
            thread.start()
            deadline = time.monotonic() + 30
            while (
                service.stats()["queue_depth"] != 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert service.stats()["queue_depth"] == 2
            # Scheduler not started: the third enqueue is blocked on a slot.
            assert not submitted
            service.start()
            thread.join(timeout=120)
            assert not thread.is_alive() and submitted
            assert submitted[0].wait(timeout=120)
            assert all(j.status is JobStatus.DONE for j in submitted[0])
        finally:
            service.close(cancel_pending=True)


# ---------------------------------------------------------------------------
# Cache corruption hardening
# ---------------------------------------------------------------------------

class TestCacheCorruption:
    def _result(self, runner, label="row"):
        return runner.run_many(
            [RSConfiguration.uniform(1, exclude=("CU-IC",), label=label)],
            workers=1, stop_process="CU",
        )[0]

    def test_truncated_file_quarantined(self, tmp_path, netlist):
        cache = ResultCache(cache_dir=tmp_path)
        result = self._result(BatchRunner(netlist))
        cache.put("k" * 8, result)
        path = tmp_path / (("k" * 8) + ".json")
        path.write_text(path.read_text()[:40])  # torn write
        cache.clear()  # force the disk tier
        assert cache.get("k" * 8) is None
        assert not path.exists()
        assert (tmp_path / (("k" * 8) + ".corrupt")).exists()
        assert cache.corrupt_quarantined == 1
        # Quarantine is one-shot: the next lookup is a clean miss.
        assert cache.get("k" * 8) is None
        assert cache.corrupt_quarantined == 1

    def test_checksum_mismatch_quarantined(self, tmp_path, netlist):
        cache = ResultCache(cache_dir=tmp_path)
        result = self._result(BatchRunner(netlist))
        cache.put("deadbeef", result)
        path = tmp_path / "deadbeef.json"
        payload = json.loads(path.read_text())
        payload["result"]["cycles"] += 1  # valid JSON, silently flipped bit
        path.write_text(json.dumps(payload))
        cache.clear()
        assert cache.get("deadbeef") is None
        assert cache.corrupt_quarantined == 1
        assert (tmp_path / "deadbeef.corrupt").exists()

    def test_old_schema_misses_without_quarantine(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        (tmp_path / "aaaa.json").write_text(
            json.dumps({"version": 1, "result": {}})
        )
        assert cache.get("aaaa") is None
        assert cache.corrupt_quarantined == 0
        assert (tmp_path / "aaaa.json").exists()  # compat miss, not damage

    def test_corrupt_cache_fault_exercises_quarantine(self, tmp_path, netlist):
        faults.install(FaultPlan.of(FaultSpec(kind="corrupt-cache", key="any")))
        cache = ResultCache(cache_dir=tmp_path)
        runner = BatchRunner(netlist)
        result = self._result(runner)
        cache.put("facefeed", result)  # the fault corrupts the written file
        cache.clear()
        assert cache.get("facefeed") is None
        assert cache.corrupt_quarantined == 1
        faults.uninstall()
        # Re-put repopulates cleanly and round-trips bit-identically.
        cache.put("facefeed", result)
        cache.clear()
        again = cache.get("facefeed")
        assert again is not None and again.to_dict() == result.to_dict()

    def test_batch_result_attempts_round_trips(self, netlist):
        result = self._result(BatchRunner(netlist))
        result.attempts = 3
        from repro.engine.batch import BatchResult

        clone = BatchResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone.attempts == 3
        # Old serialized forms (no attempts key) default to 1.
        old = result.to_dict()
        del old["attempts"]
        assert BatchResult.from_dict(old).attempts == 1
