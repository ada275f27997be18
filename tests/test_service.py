"""Tests of ``repro.service``: serialization, cache, scheduler, satellites.

Covers the ISSUE-5 checklist: hypothesis round-trips of the canonical
``LidResult``/``BatchResult`` dict forms (all fields, including
period/warmup/extrapolated and the per-port stall-stat dicts), concurrent-
submitter stress asserting in-flight dedup and cache hits, cancellation
semantics, fork+spawn safety of the cached path, the once-per-runner
serial-fallback warning, row results independent of what the service ran
before, and the 64-row mixed WP1+WP2 acceptance scenario (bit-identical
rows, streaming partials, warm re-run answered from cache).
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import threading
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import RSConfiguration, ring_netlist
from repro.core.exceptions import SimulationError
from repro.core.optimizer import (
    SearchSpace,
    exhaustive_search,
    greedy_search,
    simulated_throughput_objective,
)
from repro.core.shell import ShellStats
from repro.core.tokens import VOID, Token
from repro.core.traces import SystemTrace
from repro.cpu.machine import build_pipelined_cpu
from repro.cpu.workloads import make_extraction_sort, make_matrix_multiply
from repro.engine.batch import BatchResult, BatchRunner
from repro.engine.result import LidResult
from repro.experiments.sweeps import (
    clock_frequency_sweep,
    mixed_workload_sweep,
    queue_capacity_sweep,
    topology_sweep,
    uniform_depth_sweep,
)
from repro.experiments.table1 import run_table1_sort
from repro.service import (
    EvaluationService,
    JobStatus,
    ResultCache,
    controls_signature,
    result_key,
)
from repro.engine.kernel import RunControls
from repro.topology import ring_topology


# ---------------------------------------------------------------------------
# Strategies for the serialization round trips
# ---------------------------------------------------------------------------

_names = st.text(
    alphabet="abcdefgh.-_0123456789", min_size=1, max_size=8
)
_counts = st.integers(min_value=0, max_value=10_000)
_port_dicts = st.dictionaries(_names, _counts, max_size=3)


@st.composite
def shell_stats_strategy(draw):
    return ShellStats(
        cycles=draw(_counts),
        firings=draw(_counts),
        stalls_missing_input=draw(_counts),
        stalls_output_blocked=draw(_counts),
        stalls_done=draw(_counts),
        discarded_tokens=draw(_counts),
        discarded_by_port=draw(_port_dicts),
        missing_by_port=draw(_port_dicts),
    )


@st.composite
def trace_strategy(draw):
    channels = draw(st.lists(_names, max_size=3, unique=True))
    trace = SystemTrace(channels)
    for name in channels:
        tag = 0
        for emit in draw(st.lists(st.booleans(), max_size=6)):
            if emit:
                trace[name].append(Token(value=draw(_counts), tag=tag))
                tag += 1
            else:
                trace[name].append(VOID)
    return trace


@st.composite
def lid_result_strategy(draw):
    period = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=512)))
    return LidResult(
        cycles=draw(_counts),
        firings=draw(st.dictionaries(_names, _counts, max_size=4)),
        trace=draw(trace_strategy()),
        halted=draw(st.booleans()),
        wrapper_kind=draw(st.sampled_from(["WP1", "WP2"])),
        configuration_label=draw(_names),
        rs_counts=draw(st.dictionaries(_names, _counts, max_size=4)),
        shell_stats=draw(
            st.dictionaries(_names, shell_stats_strategy(), max_size=3)
        ),
        max_queue_occupancy=draw(st.dictionaries(_names, _counts, max_size=4)),
        period=period,
        warmup_cycles=None if period is None else draw(_counts),
        extrapolated=draw(st.booleans()) if period is not None else False,
    )


@st.composite
def batch_result_strategy(draw):
    failed = draw(st.booleans())
    return BatchResult(
        label=draw(_names),
        cycles=draw(_counts),
        firings=draw(st.dictionaries(_names, _counts, max_size=4)),
        halted=draw(st.booleans()),
        wrapper_kind=draw(st.sampled_from(["WP1", "WP2"])),
        error=draw(_names) if failed else None,
        rs_total=draw(_counts),
        period=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=99))),
        warmup_cycles=draw(st.one_of(st.none(), _counts)),
        extrapolated=draw(st.booleans()),
    )


class TestSerialization:
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(result=lid_result_strategy())
    def test_lid_result_round_trip(self, result):
        data = result.to_dict()
        rebuilt = LidResult.from_dict(data)
        assert rebuilt == result
        # And the round trip is stable (canonical form).
        assert rebuilt.to_dict() == data

    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(result=batch_result_strategy())
    def test_batch_result_round_trip_via_json(self, result):
        data = json.loads(json.dumps(result.to_dict()))
        assert BatchResult.from_dict(data) == result

    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(stats=shell_stats_strategy())
    def test_shell_stats_round_trip(self, stats):
        assert ShellStats.from_dict(stats.to_dict()) == stats

    def test_real_run_round_trips(self, sort_cpu):
        result = sort_cpu.run_wire_pipelined(
            configuration=RSConfiguration.uniform(1, exclude=("CU-IC",)),
            record_trace=False,
        )
        assert LidResult.from_dict(result.to_dict()) == result


# ---------------------------------------------------------------------------
# Content-addressed keys
# ---------------------------------------------------------------------------

def _sort_netlist(length=8, seed=7):
    return build_pipelined_cpu(
        make_extraction_sort(length=length, seed=seed).program
    ).netlist


class TestCacheKeys:
    def test_key_stable_across_runner_rebuilds(self):
        controls = RunControls(stop_process="CU")
        keys = []
        for _ in range(2):
            runner = BatchRunner(_sort_netlist())
            item = runner._normalise_item(RSConfiguration.uniform(1), None)
            keys.append(result_key(runner, item, controls))
        assert keys[0] is not None and keys[0] == keys[1]

    def test_key_ignores_label_but_not_counts(self):
        runner = BatchRunner(_sort_netlist())
        controls = RunControls(stop_process="CU")
        a = result_key(
            runner,
            runner._normalise_item(RSConfiguration.uniform(1, label="A"), None),
            controls,
        )
        b = result_key(
            runner,
            runner._normalise_item(RSConfiguration.uniform(1, label="B"), None),
            controls,
        )
        c = result_key(
            runner,
            runner._normalise_item(RSConfiguration.uniform(2, label="A"), None),
            controls,
        )
        assert a == b
        assert a != c

    def test_key_depends_on_controls_and_capacity(self):
        runner = BatchRunner(_sort_netlist())
        item = runner._normalise_item(RSConfiguration.uniform(1), None)
        deep = runner._normalise_item(RSConfiguration.uniform(1), 8)
        base = result_key(runner, item, RunControls(stop_process="CU"))
        assert base != result_key(runner, item, RunControls(stop_process="ALU"))
        assert base != result_key(runner, item, RunControls(stop_process="CU", horizon=500))
        assert base != result_key(runner, deep, RunControls(stop_process="CU"))

    def test_unpicklable_netlist_is_uncacheable(self):
        netlist, rs_counts = ring_netlist(3, rs_total=2)  # closure processes
        runner = BatchRunner(netlist)
        assert not netlist.content_addressed
        item = runner._normalise_item(rs_counts, None)
        assert result_key(runner, item, RunControls()) is None

    def test_on_cycle_observer_is_uncacheable(self):
        assert controls_signature(RunControls(on_cycle=lambda c, d: None)) is None

    def test_steady_state_resolution_enters_signature(self):
        explicit_on = controls_signature(RunControls(steady_state=True))
        explicit_off = controls_signature(RunControls(steady_state=False))
        assert explicit_on != explicit_off


# ---------------------------------------------------------------------------
# ResultCache tiers
# ---------------------------------------------------------------------------

class TestResultCache:
    def _result(self, label="row", cycles=100):
        return BatchResult(
            label=label, cycles=cycles, firings={"CU": 10}, halted=True,
            wrapper_kind="WP1", rs_total=3, period=7, warmup_cycles=2,
            extrapolated=True,
        )

    def test_memory_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        for index in range(3):
            cache.put(f"k{index}", self._result(cycles=index))
        assert cache.get("k0") is None  # evicted
        assert cache.get("k2").cycles == 2
        assert len(cache) == 2

    def test_disk_tier_survives_new_cache(self, tmp_path):
        first = ResultCache(cache_dir=tmp_path)
        first.put("deadbeef", self._result())
        second = ResultCache(cache_dir=tmp_path)
        hit = second.get("deadbeef")
        assert hit == self._result()
        assert second.disk_hits == 1

    def test_disk_corruption_is_a_miss(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        assert cache.get("bad") is None
        assert cache.disk_errors == 1

    def test_max_disk_bytes_validation(self):
        with pytest.raises(ValueError, match="max_disk_bytes"):
            ResultCache(max_disk_bytes=0)

    def _entry_size(self, tmp_path):
        """On-disk size of one cache entry (identical for same-shape results)."""
        probe = ResultCache(cache_dir=tmp_path)
        probe.put("probe", self._result(cycles=999))
        size = (tmp_path / "probe.json").stat().st_size
        (tmp_path / "probe.json").unlink()
        return size

    def test_disk_lru_evicts_oldest_mtime_first(self, tmp_path):
        size = self._entry_size(tmp_path)
        budget = 2 * size + size // 2  # room for two entries, not three
        cache = ResultCache(cache_dir=tmp_path, max_disk_bytes=budget)
        cache.put("k0", self._result(cycles=100))
        cache.put("k1", self._result(cycles=101))
        os.utime(tmp_path / "k1.json", (1, 1))  # k1 becomes the LRU entry
        cache.put("k2", self._result(cycles=102))
        assert not (tmp_path / "k1.json").exists()
        assert (tmp_path / "k0.json").exists()
        assert (tmp_path / "k2.json").exists()
        assert cache.disk_evictions == 1
        stats = cache.stats()
        assert stats["disk_evictions"] == 1
        assert stats["max_disk_bytes"] == budget
        # Eviction is not an error: the key simply misses and re-simulates.
        assert cache.disk_errors == 0
        assert ResultCache(cache_dir=tmp_path).get("k1") is None

    def test_disk_read_hit_refreshes_recency(self, tmp_path):
        size = self._entry_size(tmp_path)
        seed = ResultCache(cache_dir=tmp_path)
        seed.put("old", self._result(cycles=100))
        seed.put("new", self._result(cycles=101))
        os.utime(tmp_path / "old.json", (1, 1))
        os.utime(tmp_path / "new.json", (2, 2))
        # A disk hit touches the file: "old" becomes the most recent entry.
        reader = ResultCache(cache_dir=tmp_path)
        assert reader.get("old") is not None
        cache = ResultCache(
            cache_dir=tmp_path, max_disk_bytes=2 * size + size // 2
        )
        cache.put("k2", self._result(cycles=102))
        assert (tmp_path / "old.json").exists()
        assert not (tmp_path / "new.json").exists()

    def test_entry_larger_than_budget_evicted_immediately(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path, max_disk_bytes=1)
        cache.put("big", self._result())
        assert not (tmp_path / "big.json").exists()
        assert cache.disk_evictions == 1
        # The memory tier still serves it; only the disk copy is gone.
        assert cache.get("big") is not None
        assert ResultCache(cache_dir=tmp_path).get("big") is None


# ---------------------------------------------------------------------------
# The evaluation service
# ---------------------------------------------------------------------------

def _service_with_sort(autostart=True, **kwargs):
    service = EvaluationService(autostart=autostart, **kwargs)
    netlist = _sort_netlist()
    wp1 = service.ensure_layout(netlist, relaxed=False)
    wp2 = service.ensure_layout(netlist, relaxed=True)
    return service, wp1, wp2


def _rows(n):
    return [
        RSConfiguration.uniform(depth, exclude=("CU-IC",)) for depth in range(n)
    ]


class TestEvaluationService:
    def test_results_match_direct_runner(self):
        service, wp1, wp2 = _service_with_sort()
        with service:
            configs = _rows(3)
            jobset = service.submit(
                [(wp1, c) for c in configs] + [(wp2, c) for c in configs],
                stop_process="CU", queue_capacity=4,
            )
            results = jobset.ordered_results()
        netlist = _sort_netlist()
        direct = BatchRunner(netlist, relaxed=False).run_many(
            configs, stop_process="CU", queue_capacity=4
        )
        direct += BatchRunner(netlist, relaxed=True).run_many(
            configs, stop_process="CU", queue_capacity=4
        )
        assert results == direct

    def test_resubmission_hits_cache_bit_identically(self):
        service, wp1, wp2 = _service_with_sort()
        with service:
            items = [(wp1, c) for c in _rows(4)] + [(wp2, c) for c in _rows(4)]
            first = service.submit(items, stop_process="CU").ordered_results()
            again = service.submit(items, stop_process="CU")
            second = again.ordered_results()
            assert first == second
            assert all(job.cached for job in again.jobs)
            assert service.evaluated == len(items)

    def test_relabelled_cache_hit(self):
        service, wp1, _ = _service_with_sort()
        with service:
            a = RSConfiguration.uniform(1, exclude=("CU-IC",), label="first name")
            b = RSConfiguration.uniform(1, exclude=("CU-IC",), label="second name")
            ra = service.submit([(wp1, a)], stop_process="CU").ordered_results()[0]
            jobset = service.submit([(wp1, b)], stop_process="CU")
            rb = jobset.ordered_results()[0]
            assert jobset.jobs[0].cached
            assert rb.label == "second name"
            assert rb.cycles == ra.cycles

    def test_inflight_dedup_without_scheduler(self):
        service, wp1, _ = _service_with_sort(autostart=False)
        config = _rows(2)[1]
        js1 = service.submit([(wp1, config)], stop_process="CU")
        js2 = service.submit([(wp1, config)], stop_process="CU")
        assert js2.jobs[0].deduped
        assert service.deduped == 1
        service.start()
        assert js1.wait(60) and js2.wait(60)
        assert js1.jobs[0].result == js2.jobs[0].result
        assert service.evaluated == 1
        service.close()

    def test_concurrent_submitters_stress(self):
        service, wp1, wp2 = _service_with_sort()
        configs = _rows(4)
        items = [(wp1, c) for c in configs] + [(wp2, c) for c in configs]
        jobsets, errors = [], []
        barrier = threading.Barrier(6)

        def submitter():
            try:
                barrier.wait(10)
                jobsets.append(service.submit(items, stop_process="CU"))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=submitter) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not errors
        reference = None
        for jobset in jobsets:
            rows = jobset.ordered_results()
            if reference is None:
                reference = rows
            assert rows == reference
        # Dedup + cache guarantee: the 8 unique rows were simulated once
        # each, no matter how the 6 submitters raced.
        assert service.evaluated == len(items)
        stats = service.stats()
        assert stats["deduped"] + stats["cache"]["hits"] == 5 * len(items)
        service.close()

    def test_stats_derive_rates_in_one_snapshot(self):
        service, wp1, _ = _service_with_sort()
        with service:
            stats = service.stats()
            assert stats["cache_hit_rate"] == 0.0  # no lookups yet: not NaN
            assert stats["dedup_rate"] == 0.0
            configs = _rows(2)
            service.submit(
                [(wp1, c) for c in configs], stop_process="CU"
            ).wait(60)
            service.submit(
                [(wp1, c) for c in configs], stop_process="CU"
            ).wait(60)
            stats = service.stats()
            # 2 misses then 2 hits; the ratio is derived from the very
            # counters the same snapshot carries.
            assert stats["cache_hit_rate"] == pytest.approx(0.5)
            cache = stats["cache"]
            lookups = cache["hits"] + cache["misses"]
            assert stats["cache_hit_rate"] == cache["hits"] / lookups
            assert stats["dedup_rate"] == stats["deduped"] / stats["submitted"]

    def test_cancellation_semantics(self):
        service, wp1, _ = _service_with_sort(autostart=False)
        jobset = service.submit(
            [(wp1, c) for c in _rows(3)], stop_process="CU"
        )
        victim = jobset.jobs[1]
        assert victim.cancel()
        assert not victim.cancel()  # idempotent: already terminal
        service.start()
        assert jobset.wait(60)
        assert victim.status is JobStatus.CANCELLED
        assert victim.result is None
        done = [job for job in jobset.jobs if job.status is JobStatus.DONE]
        assert len(done) == 2
        # The completion stream still yields every job, cancelled included.
        seen = {job.job_id for job in jobset.results(timeout=1)}
        assert seen == {job.job_id for job in jobset.jobs}
        # A cancelled row was never simulated.
        assert service.evaluated == 2
        service.close()

    def test_cancelled_primary_with_live_follower_still_evaluates(self):
        service, wp1, _ = _service_with_sort(autostart=False)
        config = _rows(2)[1]
        js1 = service.submit([(wp1, config)], stop_process="CU")
        js2 = service.submit([(wp1, config)], stop_process="CU")
        assert js2.jobs[0].deduped
        assert js1.jobs[0].cancel()
        service.start()
        assert js2.wait(60)
        assert js2.jobs[0].status is JobStatus.DONE
        assert js2.jobs[0].result is not None
        service.close()

    def test_close_cancel_pending(self):
        service, wp1, _ = _service_with_sort(autostart=False)
        jobset = service.submit([(wp1, c) for c in _rows(3)], stop_process="CU")
        service.close(cancel_pending=True)
        assert all(job.status is JobStatus.CANCELLED for job in jobset.jobs)
        with pytest.raises(SimulationError, match="closed"):
            service.submit([(wp1, _rows(1)[0])], stop_process="CU")

    def test_priorities_order_pending_jobs(self):
        service, wp1, _ = _service_with_sort(autostart=False)
        completion_order = []
        on_result = lambda job: completion_order.append(job.tag)  # noqa: E731
        configs = _rows(4)
        service.submit(
            [(wp1, configs[1])], tags=["low"], priority=10,
            on_result=on_result, stop_process="CU",
        )
        service.submit(
            [(wp1, configs[2])], tags=["high"], priority=-10,
            on_result=on_result, stop_process="CU",
        )
        service.submit(
            [(wp1, configs[3])], tags=["mid"], priority=0,
            on_result=on_result, stop_process="CU",
        )
        service.start()
        service.close()  # graceful drain
        assert completion_order == ["high", "mid", "low"]

    def test_async_stream_yields_all_jobs(self):
        service, wp1, wp2 = _service_with_sort()
        configs = _rows(3)
        items = [(wp1, c) for c in configs] + [(wp2, c) for c in configs]

        async def drain():
            seen = []
            async for job in service.stream(items, stop_process="CU"):
                seen.append(job)
            return seen

        seen = asyncio.run(drain())
        assert len(seen) == len(items)
        assert all(job.status is JobStatus.DONE for job in seen)
        service.close()

    def test_streaming_delivers_partials_before_completion(self):
        # Serial workers => chunk size 1 => row k is delivered while later
        # rows are still pending.  Track how many jobs were still unfinished
        # when each completion callback fired.
        service, wp1, wp2 = _service_with_sort(autostart=False)
        items = [(wp1, c) for c in _rows(4)] + [(wp2, c) for c in _rows(4)]
        pending_at_completion = []
        jobset = service.submit(
            items,
            on_result=lambda job: pending_at_completion.append(
                sum(1 for j in jobset.jobs if not j.done)
            ),
            stop_process="CU",
        )
        service.start()
        assert jobset.wait(60)
        assert pending_at_completion[0] > 0  # first row streamed early
        assert pending_at_completion[-1] == 0
        service.close()

    def test_failed_rows_carry_error_not_exception(self):
        # An infeasible corner (WP1 deadlock at queue_capacity=1 with no RS
        # slack) must come back as a failed BatchResult, not kill the
        # scheduler thread.
        netlist, rs_counts = ring_netlist(3, rs_total=2)
        service = EvaluationService()
        layout = service.ensure_layout(netlist, queue_capacity=1)
        jobset = service.submit(
            [(layout, {name: 0 for name in rs_counts})],
            target_firings={"stage0": 10}, max_cycles=50, deadlock_limit=10,
        )
        [result] = jobset.ordered_results()
        assert result.failed
        assert jobset.jobs[0].status is JobStatus.DONE
        # Service still alive afterwards.
        ok = service.submit(
            [(layout, rs_counts)], target_firings={"stage0": 10},
            max_cycles=1000,
        ).ordered_results()[0]
        assert not ok.failed
        service.close()

    def test_uncacheable_layout_still_evaluates(self):
        netlist, rs_counts = ring_netlist(3, rs_total=2)  # unpicklable
        service = EvaluationService()
        layout = service.ensure_layout(netlist)
        items = [(layout, rs_counts)] * 2
        jobset = service.submit(
            items, target_firings={"stage0": 15}, max_cycles=1000
        )
        first, second = jobset.ordered_results()
        assert first == second
        assert all(job.key is None for job in jobset.jobs)
        assert service.evaluated == 2  # no dedup possible without a key
        service.close()

    def test_ensure_layout_conflicts_and_reuse(self):
        service, wp1, _ = _service_with_sort()
        # Equal content, fresh build: same layout name, no new registration.
        assert service.ensure_layout(_sort_netlist(), relaxed=False) == wp1
        with pytest.raises(SimulationError, match="different netlist"):
            service.ensure_layout(
                _sort_netlist(length=10), relaxed=False, name=wp1
            )
        service.close()

    def test_ensure_layout_never_aliases_unpicklable_netlists(self):
        # Two distinct closure-carrying netlists have no content digest;
        # identity is the only proof of equality, so an explicit shared name
        # must conflict (None == None digests must not alias them).
        netlist_a, _ = ring_netlist(3, rs_total=2)
        netlist_b, _ = ring_netlist(4, rs_total=2)
        service = EvaluationService()
        assert service.ensure_layout(netlist_a, name="ring") == "ring"
        with pytest.raises(SimulationError, match="different netlist"):
            service.ensure_layout(netlist_b, name="ring")
        # The same object is recognised and reused.
        assert service.ensure_layout(netlist_a, name="ring") == "ring"
        service.close()

    def test_start_after_close_is_a_noop(self):
        service, wp1, _ = _service_with_sort(autostart=False)
        service.close()
        service.start()
        assert service._thread is None

    def test_cache_hit_callback_may_reenter_the_service(self):
        # Submit-time cache-hit completions run in the submitting thread
        # OUTSIDE the service lock, so an on_result callback may call back
        # into the service (stats/submit) without deadlocking.
        service, wp1, _ = _service_with_sort()
        config = _rows(2)[1]
        service.submit([(wp1, config)], stop_process="CU").wait(60)
        reentered = []
        jobset = service.submit(
            [(wp1, config)],
            on_result=lambda job: reentered.append(service.stats()["submitted"]),
            stop_process="CU",
        )
        assert jobset.jobs[0].cached
        assert reentered  # the callback ran and re-entered the service
        service.close()


# ---------------------------------------------------------------------------
# Fork + spawn safety of the cached path
# ---------------------------------------------------------------------------

class TestBackpressureCancellation:
    """``max_pending`` backpressure composed with cancellation and close.

    The invariant under test: every path a queued job can leave the queue
    by — evaluated, failed, cancelled, drained at close — releases its
    backpressure slot, so a blocked submitter always eventually wakes.
    """

    def _blocked_submitter(self, service, layout, config, errors):
        """Start a thread blocked in submit() on a full pending queue."""
        jobsets = []

        def run():
            try:
                jobsets.append(
                    service.submit([(layout, config)], stop_process="CU")
                )
            except Exception as exc:  # noqa: BLE001 - asserted by callers
                errors.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(0.3)
        assert thread.is_alive(), "submitter should be blocked on the slot"
        return thread, jobsets

    def test_cancelled_pending_job_releases_its_slot(self):
        service, wp1, _ = _service_with_sort(autostart=False, max_pending=1)
        first = service.submit([(wp1, _rows(2)[0])], stop_process="CU")
        errors = []
        thread, jobsets = self._blocked_submitter(
            service, wp1, _rows(2)[1], errors
        )
        # Cancelling the queued job marks it terminal; its slot is freed
        # when the scheduler dequeues it, so start() unblocks the submitter.
        assert first.jobs[0].cancel()
        service.start()
        thread.join(30)
        assert not thread.is_alive() and not errors
        assert jobsets[0].wait(60)
        assert first.jobs[0].status is JobStatus.CANCELLED
        assert jobsets[0].jobs[0].status is JobStatus.DONE
        assert service.evaluated == 1  # the cancelled row never ran
        service.close()

    def test_close_cancel_pending_unblocks_submitter(self):
        service, wp1, _ = _service_with_sort(autostart=False, max_pending=1)
        first = service.submit([(wp1, _rows(2)[0])], stop_process="CU")
        errors = []
        thread, jobsets = self._blocked_submitter(
            service, wp1, _rows(2)[1], errors
        )
        # Draining the queue frees the slot; the woken submitter then sees
        # the closed service and raises instead of stranding its job.
        service.close(cancel_pending=True)
        thread.join(30)
        assert not thread.is_alive()
        assert not jobsets
        assert len(errors) == 1
        assert isinstance(errors[0], SimulationError)
        assert "closed" in str(errors[0])
        assert first.jobs[0].status is JobStatus.CANCELLED

    def test_failed_jobs_release_slots(self):
        # A row that fails evaluation (WP1 deadlock corner) must not leak
        # its slot: with max_pending=1, later submits would block forever.
        netlist, rs_counts = ring_netlist(3, rs_total=2)
        service = EvaluationService(max_pending=1)
        layout = service.ensure_layout(netlist, queue_capacity=1)
        failing = service.submit(
            [(layout, {name: 0 for name in rs_counts})],
            target_firings={"stage0": 10}, max_cycles=50, deadlock_limit=10,
        )
        followers = [
            service.submit(
                [(layout, rs_counts)], target_firings={"stage0": 10},
                max_cycles=1000,
            )
            for _ in range(3)
        ]
        assert failing.wait(60)
        assert failing.ordered_results()[0].failed
        for jobset in followers:
            assert jobset.wait(60)
            assert not jobset.ordered_results()[0].failed
        service.close()


class TestServiceMultiprocessing:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_pool_methods_match_serial_and_populate_cache(self, method):
        if method == "fork" and not sys.platform.startswith(("linux", "darwin")):
            pytest.skip("fork needs a fork platform")
        serial_service, wp1, wp2 = _service_with_sort()
        configs = _rows(4)
        items = [(wp1, c) for c in configs] + [(wp2, c) for c in configs]
        with serial_service:
            serial = serial_service.submit(
                items, stop_process="CU"
            ).ordered_results()

        pooled_service, pw1, pw2 = _service_with_sort(
            workers=2, chunk_size=8, start_method=method
        )
        pooled_items = [(pw1, c) for c in configs] + [(pw2, c) for c in configs]
        with pooled_service:
            pooled = pooled_service.submit(
                pooled_items, stop_process="CU"
            ).ordered_results()
            assert pooled == serial
            # The cached path: an immediate resubmission in the parent is
            # answered from the cache the pooled evaluation populated.
            again = pooled_service.submit(pooled_items, stop_process="CU")
            assert again.ordered_results() == serial
            assert all(job.cached for job in again.jobs)
            assert pooled_service.evaluated == len(items)


# ---------------------------------------------------------------------------
# Satellites: warn-once serial fallback, history-free rows
# ---------------------------------------------------------------------------

class TestSerialFallbackWarning:
    def _run(self, runner, rs_counts):
        return runner.run_many(
            [rs_counts] * 2, workers=2,
            target_firings={"stage0": 15}, max_cycles=1000,
        )

    def test_warning_fires_once_per_runner_and_names_reason(self, monkeypatch):
        from repro.engine import batch as batch_module

        netlist, rs_counts = ring_netlist(3, rs_total=2)  # unpicklable
        monkeypatch.setattr(batch_module, "_fork_available", lambda: False)
        runner = BatchRunner(netlist)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self._run(runner, rs_counts)
            self._run(runner, rs_counts)
        fallbacks = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(fallbacks) == 1
        message = str(fallbacks[0].message)
        assert "netlist not picklable" in message
        assert "once per runner instance" in message

    def test_fresh_runner_warns_again(self, monkeypatch):
        from repro.engine import batch as batch_module

        netlist, rs_counts = ring_netlist(3, rs_total=2)
        monkeypatch.setattr(batch_module, "_fork_available", lambda: False)
        for _ in range(2):
            runner = BatchRunner(netlist)
            with pytest.warns(RuntimeWarning, match="serially"):
                self._run(runner, rs_counts)


class TestHistoryFreeRows:
    def test_cpu_horizon_row_ignores_an_earlier_ring_row(self):
        """A served row equals the same row from a fresh service.

        Regression: the service shared one steady-state period memory across
        layouts, so a ring row's 1-cycle period shrank the looped CPU row's
        detection window; the row then ran all 60 000 cycles in full and
        was cached without its period.
        """
        ring = ring_topology(stages=6, rs_total=0)
        looped = build_pipelined_cpu(
            make_extraction_sort(length=8, seed=7, repeat=True).program
        )
        looped.run_golden(record_trace=False)  # its rows replay the loop
        cpu = looped.netlist
        config = RSConfiguration.uniform(1, exclude=("CU-IC",))

        def cpu_row(service):
            layout = service.ensure_layout(cpu, relaxed=True)
            [row] = service.submit(
                [(layout, config)], horizon=60_000
            ).ordered_results()
            return row

        with EvaluationService() as fresh:
            expected = cpu_row(fresh)
        with EvaluationService() as service:
            ring_layout = service.ensure_layout(ring.netlist)
            service.submit(
                [(ring_layout, dict(ring.rs_counts))], horizon=4000
            ).ordered_results()
            after_ring = cpu_row(service)
        assert expected.extrapolated and expected.period is not None
        assert after_ring == expected


class TestTracedTwins:
    @pytest.mark.parametrize("first", ["traced", "twin"])
    def test_traced_and_untraced_twins_keep_their_own_rows(self, first):
        """One service, one horizon row, two netlists of one identity.

        The looped golden-run netlist's row replays its loop and
        extrapolates; its untraced twin's simulates in full.  Each gets the
        row a fresh run of its own gives, whichever is served first.
        """
        program = make_extraction_sort(length=5, seed=3, repeat=True).program
        cpu = build_pipelined_cpu(program)
        cpu.run_golden(record_trace=False)
        netlists = {"traced": cpu.netlist, "twin": build_pipelined_cpu(program).netlist}
        assert netlists["traced"].identity == netlists["twin"].identity
        config = RSConfiguration.uniform(1, exclude=("CU-IC",))
        controls = dict(stop_process="CU", horizon=8_000)
        expected = {
            name: BatchRunner(netlist, relaxed=True, kernel="compiled").run_many(
                [config], **controls
            )[0]
            for name, netlist in netlists.items()
        }
        assert expected["traced"].extrapolated
        assert not expected["twin"].extrapolated

        order = [first] + [name for name in netlists if name != first]
        with EvaluationService() as service:
            for name in order:
                layout = service.ensure_layout(
                    netlists[name], relaxed=True, kernel="compiled"
                )
                [row] = service.submit([(layout, config)], **controls).ordered_results()
                assert row == expected[name], name


class TestIdentitySurvivesRuns:
    """A netlist's identity is fixed when it is built; runs never move it."""

    def test_layout_name_and_cache_key_survive_runs(self):
        cpu = build_pipelined_cpu(_sort6().program)
        twin = build_pipelined_cpu(_sort6().program).netlist
        config = RSConfiguration.uniform(1, exclude=("CU-IC",))

        def key(netlist):
            runner = BatchRunner(netlist, relaxed=True)
            item = runner._normalise_item(config, None)
            return result_key(runner, item, RunControls(stop_process="CU"))

        with EvaluationService() as service:
            layout = service.ensure_layout(cpu.netlist, relaxed=True)
            cpu.run_golden(record_trace=False)
            assert service.ensure_layout(cpu.netlist, relaxed=True) == layout
            service.submit([(layout, config)], stop_process="CU").ordered_results()
            assert service.ensure_layout(cpu.netlist, relaxed=True) == layout
            assert service.layouts == [layout]
        assert key(cpu.netlist) is not None
        assert key(cpu.netlist) == key(twin)


# ---------------------------------------------------------------------------
# Consumer integrations
# ---------------------------------------------------------------------------

def _points(sweep):
    return [(p.parameter, p.wp1_throughput, p.wp2_throughput) for p in sweep.points]


def _sort6():
    return make_extraction_sort(length=6, seed=7)


#: Every consumer of the shared evaluation path, as ``service -> rows``.
_CONSUMERS = {
    "queue_capacity": lambda service: _points(queue_capacity_sweep(
        workload=_sort6(), capacities=(2, 4), service=service,
    )),
    "uniform_depth": lambda service: _points(uniform_depth_sweep(
        workload=_sort6(), service=service,
    )),
    "clock_frequency": lambda service: [
        (p.parameter, p.wp1_throughput, p.wp2_throughput, p.detail)
        for p in clock_frequency_sweep(
            workload=_sort6(), frequencies_ghz=(0.6, 1.5), service=service,
        ).points
    ],
    "mixed_workload": lambda service: {
        name: _points(sweep)
        for name, sweep in mixed_workload_sweep(
            workloads={"sort": _sort6(), "matmul": make_matrix_multiply(size=2, seed=7)},
            depths=(0, 1), service=service,
        ).items()
    },
    "topology_ring": lambda service: _points(topology_sweep(
        topology=ring_topology(stages=4, rs_total=1), depths=(0, 1),
        horizon=400, service=service,
    )),
    "table1_sort": lambda service: [
        row.as_dict()
        for row in run_table1_sort(length=6, seed=7, service=service).rows
    ],
}


class TestConsumersThroughService:
    @pytest.mark.parametrize("consumer", sorted(_CONSUMERS))
    def test_service_path_matches_direct(self, consumer):
        run = _CONSUMERS[consumer]
        direct = run(None)
        with EvaluationService() as service:
            served = run(service)
            evaluated = service.evaluated
            again = run(service)
            # The re-run is answered from the result cache.
            assert service.evaluated == evaluated
        for rows in (served, again):
            assert rows == direct

    @pytest.mark.parametrize("served", [False, True], ids=["direct", "service"])
    def test_unfinishable_row_raises_on_both_paths(self, served):
        with EvaluationService() as service:
            with pytest.raises(SimulationError, match="All 1 \\(no CU-IC\\)"):
                mixed_workload_sweep(
                    workloads={"sort": _sort6()}, depths=(1,), max_cycles=50,
                    service=service if served else None,
                )

    def test_table1_service_path_matches_direct(self):
        direct = run_table1_sort(length=6, seed=7)
        with EvaluationService() as service:
            served = run_table1_sort(length=6, seed=7, service=service)
            again = run_table1_sort(length=6, seed=7, service=service)
        assert [row.as_dict() for row in served.rows] == [
            row.as_dict() for row in direct.rows
        ]
        assert [row.as_dict() for row in again.rows] == [
            row.as_dict() for row in direct.rows
        ]

    def test_optimizer_service_objective_caches_revisits(self):
        netlist = _sort_netlist(length=6)
        with EvaluationService() as service:
            objective = simulated_throughput_objective(
                netlist, service=service, stop_process="CU"
            )
            space = SearchSpace.bounded(["CU-RF", "RF-ALU"], maximum=1)
            exhaustive = exhaustive_search(space, objective)
            evaluated_after_first = service.evaluated
            # Greedy revisits the same corners: everything it needs is
            # already cached, so zero new simulations run.
            greedy = greedy_search(space, objective)
            assert service.evaluated == evaluated_after_first
            assert greedy.score <= exhaustive.score + 1e-12
        direct = simulated_throughput_objective(netlist, stop_process="CU")
        reference = exhaustive_search(space, direct)
        assert exhaustive.score == pytest.approx(reference.score)
        assert exhaustive.assignment == reference.assignment


# ---------------------------------------------------------------------------
# Acceptance: the 64-row mixed sweep scenario (scaled for test time)
# ---------------------------------------------------------------------------

class TestAcceptanceScenario:
    def test_mixed_64_rows_twice_bit_identical_and_cached(self):
        workloads = {
            "sort": make_extraction_sort(length=6, seed=7),
            "matmul": make_matrix_multiply(size=2, seed=7),
        }
        cpus = {
            name: build_pipelined_cpu(w.program) for name, w in workloads.items()
        }
        stop = next(iter(cpus.values())).control_unit.name
        configs = [
            (RSConfiguration.uniform(depth, exclude=("CU-IC",)),
             {"queue_capacity": capacity})
            for depth in range(8)
            for capacity in (3, 4)
        ]
        with EvaluationService() as service:
            items = []
            for cpu in cpus.values():
                for relaxed in (False, True):
                    layout = service.ensure_layout(cpu.netlist, relaxed=relaxed)
                    items.extend((layout, item) for item in configs)
            assert len(items) == 64
            first_set = service.submit(items, stop_process=stop)
            first = first_set.ordered_results()
            second_set = service.submit(items, stop_process=stop)
            second = second_set.ordered_results()
            assert first == second  # bit-identical rows
            assert all(job.cached for job in second_set.jobs)
            assert service.evaluated == 64

    def test_mixed_workload_sweep_reruns_from_cache(self):
        kwargs = dict(
            workloads={
                "sort": make_extraction_sort(length=6, seed=7),
                "matmul": make_matrix_multiply(size=2, seed=7),
            },
            depths=(0, 1),
        )
        with EvaluationService() as service:
            streamed = []
            first = mixed_workload_sweep(
                service=service, on_result=lambda job: streamed.append(job),
                **kwargs,
            )
            evaluated = service.evaluated
            second = mixed_workload_sweep(service=service, **kwargs)
            assert service.evaluated == evaluated  # second run: cache only
        assert len(streamed) == 8
        for name in first:
            assert [
                (p.wp1_throughput, p.wp2_throughput) for p in first[name].points
            ] == [
                (p.wp1_throughput, p.wp2_throughput) for p in second[name].points
            ]
