"""Chaos suite for the distributed tier (DESIGN.md §8).

The anchor property mirrors the local supervised pool's: a batch fanned out
to remote worker agents completes bit-identical to a fault-free serial run,
no matter which network faults the plan injects — worker crashes, mid-shard
disconnects, hangs past the lease, corrupted result frames — and
:class:`~repro.engine.result.SupervisionStats` records every recovery.
Agents come in two flavours here: in-process threads (fast, used wherever
the fault does not have to kill a real process) and real subprocesses via
``agent_main`` (``crash`` faults ``os._exit`` the agent, so those need a
process to kill, plus a respawner standing in for systemd).
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
import time
import warnings

import pytest

from repro.core import RSConfiguration
from repro.core.exceptions import PayloadChecksumError, SimulationError
from repro.cpu import build_pipelined_cpu
from repro.cpu.workloads import make_extraction_sort
from repro.engine import faults
from repro.engine.batch import BatchRunner
from repro.engine.faults import FAULTS_ENV_VAR, FaultPlan, FaultSpec
from repro.distributed import Coordinator, WorkerAgent, agent_main
from repro.distributed.protocol import (
    corrupt_payload_bytes,
    recv_message,
    send_message,
)
from repro.service import EvaluationService

METHODS = [
    m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()
]

#: Fast retries everywhere: the suite tests routing, not wall-clock patience.
FAST = dict(retry_backoff=0.01)


@pytest.fixture(autouse=True)
def _no_leftover_faults(monkeypatch):
    """Every test starts and ends fault-free, env-clean, identity-free."""
    monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
    faults.uninstall()
    faults.set_worker_identity(None)
    yield
    faults.uninstall()
    faults.set_worker_identity(None)


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
    return BatchRunner(netlist).run_many(_configs(8), workers=1, stop_process="CU")


class _Agents:
    """N in-process agents serving one coordinator (no processes to kill)."""

    def __init__(self, coordinator, count, prefix="agent", **kwargs):
        kwargs.setdefault("reconnect_delay", 0.05)
        self.agents = []
        self.threads = []
        for index in range(count):
            agent = WorkerAgent(
                "127.0.0.1", coordinator.port,
                worker_id=f"{prefix}-{index}", **kwargs,
            )
            thread = threading.Thread(target=agent.run_forever, daemon=True)
            thread.start()
            self.agents.append(agent)
            self.threads.append(thread)

    def stop(self):
        for agent in self.agents:
            agent.stop()
        for thread in self.threads:
            thread.join(timeout=5.0)


class _RespawningAgent:
    """A subprocess agent plus the supervisor that restarts it when it dies.

    Models the production shape (systemd/k8s restart policy): a ``crash``
    fault ``os._exit``\\ s the agent process, and a fresh process with the
    *same worker id* re-registers — fault strikes and stats persist on the
    coordinator across the respawn.
    """

    def __init__(self, port, worker_id, method, max_restarts=12):
        self.port = port
        self.worker_id = worker_id
        self.ctx = multiprocessing.get_context(method)
        self.max_restarts = max_restarts
        self.restarts = 0
        self._stop = threading.Event()
        self._spawn()
        self._thread = threading.Thread(target=self._watch, daemon=True)
        self._thread.start()

    def _spawn(self):
        self.proc = self.ctx.Process(
            target=agent_main,
            args=("127.0.0.1", self.port, self.worker_id, 0.05),
            daemon=True,
        )
        self.proc.start()

    def _watch(self):
        while not self._stop.is_set():
            self.proc.join(0.05)
            if self.proc.exitcode is None or self._stop.is_set():
                continue
            if self.restarts >= self.max_restarts:
                return
            self.restarts += 1
            self._spawn()

    def stop(self):
        self._stop.set()
        self._thread.join(timeout=5.0)
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(timeout=5.0)


# ---------------------------------------------------------------------------
# The framing protocol
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            message = ("lease", 1, 2, 3, 0, [("x", (None, {"c": 1}, 4))], 5.0)
            send_message(a, message)
            assert recv_message(b) == message
        finally:
            a.close()
            b.close()

    def test_corruption_detected_without_losing_frame_sync(self):
        a, b = socket.socketpair()
        try:
            send_message(a, ("result", "w", 1, 2, "ok", "payload"), corrupt=True)
            send_message(a, ("heartbeat", "w", 1, 2))
            with pytest.raises(PayloadChecksumError):
                recv_message(b)
            # The stream stayed in sync: the next frame arrives intact.
            assert recv_message(b) == ("heartbeat", "w", 1, 2)
        finally:
            a.close()
            b.close()

    def test_clean_close_is_eof(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(EOFError):
                recv_message(b)
        finally:
            b.close()

    def test_corrupt_payload_bytes_always_differs(self):
        for blob in (b"x", b"ab", b"hello world" * 7):
            assert corrupt_payload_bytes(blob) != blob
            assert len(corrupt_payload_bytes(blob)) == len(blob)


# ---------------------------------------------------------------------------
# Healthy-path parity and graceful degradation
# ---------------------------------------------------------------------------

class TestDistributedParity:
    def test_two_agents_match_serial_bit_identically(self, netlist, baseline):
        coordinator = Coordinator("127.0.0.1", 0)
        agents = _Agents(coordinator, 2)
        try:
            assert coordinator.wait_for_workers(2)
            runner = BatchRunner(netlist)
            results = runner.run_many(
                _configs(8), shards=4, coordinator=coordinator,
                stop_process="CU", **FAST,
            )
            assert _strip_attempts(results) == _strip_attempts(baseline)
            assert all(r.attempts == 1 for r in results)
            assert not runner.supervision.eventful
            stats = coordinator.worker_stats()
            assert set(stats) == {"agent-0", "agent-1"}
            assert sum(s["completed"] for s in stats.values()) == 4
        finally:
            agents.stop()
            coordinator.close()

    def test_zero_workers_degrades_to_local_path(self, netlist, baseline):
        coordinator = Coordinator("127.0.0.1", 0)
        try:
            assert coordinator.available_workers() == 0
            runner = BatchRunner(netlist)
            results = runner.run_many(
                _configs(8), workers=1, coordinator=coordinator,
                stop_process="CU",
            )
            assert _strip_attempts(results) == _strip_attempts(baseline)
            assert not coordinator.supervision.eventful
            assert coordinator.worker_stats() == {}
        finally:
            coordinator.close()

    def test_all_agents_lost_finishes_serially_with_warning(
        self, netlist, baseline
    ):
        # One agent that drops the connection on *every* lease: three
        # strikes quarantine it, nobody is left, the coordinator gives up
        # after its grace period and the caller finishes serially.
        faults.install(FaultPlan.of(FaultSpec(kind="disconnect")))
        coordinator = Coordinator("127.0.0.1", 0, reconnect_grace=0.3)
        agents = _Agents(coordinator, 1, prefix="flaky")
        try:
            assert coordinator.wait_for_workers(1)
            runner = BatchRunner(netlist)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                results = runner.run_many(
                    _configs(8), shards=2, coordinator=coordinator,
                    stop_process="CU", **FAST,
                )
            assert _strip_attempts(results) == _strip_attempts(baseline)
            assert runner.supervision.serial_fallback_items > 0
            assert runner.supervision.retries >= 1
            assert any(
                "distributed workers unavailable" in str(w.message)
                for w in caught
            )
            record = coordinator.worker_stats()["flaky-0"]
            assert record["quarantined"] and record["faults"] >= 3
            assert runner.supervision.workers_quarantined == 1
        finally:
            agents.stop()
            coordinator.close()

    def test_coordinator_restart_agents_reregister(self, netlist, baseline):
        first = Coordinator("127.0.0.1", 0)
        port = first.port
        agents = _Agents(first, 2, prefix="durable")
        second = None
        try:
            assert first.wait_for_workers(2)
            runner = BatchRunner(netlist)
            results = runner.run_many(
                _configs(8), shards=4, coordinator=first,
                stop_process="CU", **FAST,
            )
            assert _strip_attempts(results) == _strip_attempts(baseline)
            # Simulate a coordinator crash: transports die without the
            # shutdown handshake, so agents enter their reconnect loop.
            first._server.shutdown(socket.SHUT_RDWR)
            first._server.close()
            with first._lock:
                for record in first._workers.values():
                    if record.sock is not None:
                        # shutdown, not just close: a blocked reader pins
                        # the connection and the agent never sees FIN.
                        Coordinator._close_socket(record.sock)
            # Rebind may race the dying connections' FIN_WAIT sockets: a
            # restarting coordinator retries its bind, and so does the test.
            deadline = time.monotonic() + 15.0
            while second is None:
                try:
                    second = Coordinator("127.0.0.1", port)
                except OSError:
                    if time.monotonic() >= deadline:
                        raise
                    time.sleep(0.1)
            assert second.wait_for_workers(2)
            results = runner.run_many(
                _configs(8), shards=4, coordinator=second,
                stop_process="CU", **FAST,
            )
            assert _strip_attempts(results) == _strip_attempts(baseline)
        finally:
            agents.stop()
            first.close()
            if second is not None:
                second.close()

    def test_cache_as_transport(self, netlist, baseline, tmp_path):
        coordinator = Coordinator("127.0.0.1", 0, cache_dir=str(tmp_path))
        agents = _Agents(coordinator, 2)
        try:
            assert coordinator.wait_for_workers(2)
            runner = BatchRunner(netlist)
            results = runner.run_many(
                _configs(8), shards=4, coordinator=coordinator,
                stop_process="CU", **FAST,
            )
            assert _strip_attempts(results) == _strip_attempts(baseline)
            # The workers really published by key: the 8 rows collapse to 3
            # distinct content addresses (labels are not part of the key).
            assert len(list(tmp_path.glob("*.json"))) == 3
        finally:
            agents.stop()
            coordinator.close()

    def test_lease_seconds_validated(self):
        with pytest.raises(SimulationError, match="lease_seconds"):
            Coordinator("127.0.0.1", 0, lease_seconds=0)
        with pytest.raises(SimulationError, match="worker_fault_limit"):
            Coordinator("127.0.0.1", 0, worker_fault_limit=0)


# ---------------------------------------------------------------------------
# Network fault recovery (in-process agents)
# ---------------------------------------------------------------------------

class TestNetworkFaults:
    def test_mid_shard_disconnect_requeues(self, netlist, baseline):
        faults.install(
            FaultPlan.of(FaultSpec(kind="disconnect", shard=1, attempt=0))
        )
        coordinator = Coordinator("127.0.0.1", 0)
        agents = _Agents(coordinator, 2)
        try:
            assert coordinator.wait_for_workers(2)
            runner = BatchRunner(netlist)
            results = runner.run_many(
                _configs(8), shards=4, coordinator=coordinator,
                stop_process="CU", **FAST,
            )
            assert _strip_attempts(results) == _strip_attempts(baseline)
            assert runner.supervision.retries >= 1
            assert any(r.attempts > 1 for r in results)
        finally:
            agents.stop()
            coordinator.close()

    def test_hang_past_lease_expires_and_requeues(self, netlist, baseline):
        # The hang fires before the heartbeat thread starts, so the lease
        # genuinely expires and the shard moves to the healthy agent; the
        # hung agent's eventual late result is dropped as stale.
        faults.install(
            FaultPlan.of(FaultSpec(kind="hang", shard=0, attempt=0, seconds=2.0))
        )
        coordinator = Coordinator("127.0.0.1", 0, lease_seconds=0.3)
        agents = _Agents(coordinator, 2)
        try:
            assert coordinator.wait_for_workers(2)
            runner = BatchRunner(netlist)
            started = time.monotonic()
            results = runner.run_many(
                _configs(8), shards=4, coordinator=coordinator,
                stop_process="CU", **FAST,
            )
            assert time.monotonic() - started < 10.0
            assert _strip_attempts(results) == _strip_attempts(baseline)
            assert runner.supervision.lease_expiries >= 1
            assert runner.supervision.retries >= 1
        finally:
            agents.stop()
            coordinator.close()

    def test_slow_link_keeps_lease_through_heartbeats(self, netlist, baseline):
        # A delay longer than the lease: heartbeats keep running through
        # the slow send, so the lease stays fresh and nothing is requeued.
        faults.install(
            FaultPlan.of(FaultSpec(kind="delay", shard=0, attempt=0, seconds=0.8))
        )
        coordinator = Coordinator("127.0.0.1", 0, lease_seconds=0.3)
        agents = _Agents(coordinator, 2)
        try:
            assert coordinator.wait_for_workers(2)
            runner = BatchRunner(netlist)
            results = runner.run_many(
                _configs(8), shards=4, coordinator=coordinator,
                stop_process="CU", **FAST,
            )
            assert _strip_attempts(results) == _strip_attempts(baseline)
            assert runner.supervision.lease_expiries == 0
            assert runner.supervision.retries == 0
            assert all(r.attempts == 1 for r in results)
        finally:
            agents.stop()
            coordinator.close()

    def test_corrupt_payload_detected_and_requeued(self, netlist, baseline):
        faults.install(
            FaultPlan.of(FaultSpec(kind="corrupt-payload", shard=2, attempt=0))
        )
        coordinator = Coordinator("127.0.0.1", 0)
        agents = _Agents(coordinator, 2)
        try:
            assert coordinator.wait_for_workers(2)
            runner = BatchRunner(netlist)
            results = runner.run_many(
                _configs(8), shards=4, coordinator=coordinator,
                stop_process="CU", **FAST,
            )
            assert _strip_attempts(results) == _strip_attempts(baseline)
            assert runner.supervision.corrupt_payloads == 1
            assert runner.supervision.retries >= 1
        finally:
            agents.stop()
            coordinator.close()

    def test_poisoned_item_bisects_to_one_quarantined_row(
        self, netlist, baseline
    ):
        # A hard raise on every attempt of one item: same ladder as the
        # local pool — retry, bisect, quarantine exactly that row.
        faults.install(FaultPlan.of(FaultSpec(kind="raise", label="cand-3")))
        coordinator = Coordinator("127.0.0.1", 0)
        agents = _Agents(coordinator, 2)
        try:
            assert coordinator.wait_for_workers(2)
            runner = BatchRunner(netlist)
            results = runner.run_many(
                _configs(8), shards=2, coordinator=coordinator,
                stop_process="CU", on_error="zero", max_shard_retries=1,
                **FAST,
            )
            row = results[3]
            assert row.failed and "FaultInjectionError" in row.error
            assert row.cycles == 0 and row.label == "cand-3"
            healthy = [r for i, r in enumerate(results) if i != 3]
            expected = [r for i, r in enumerate(baseline) if i != 3]
            assert _strip_attempts(healthy) == _strip_attempts(expected)
            assert runner.supervision.quarantined == 1
            assert runner.supervision.bisections >= 1
        finally:
            agents.stop()
            coordinator.close()


# ---------------------------------------------------------------------------
# Real worker processes: crashes, respawns, the acceptance combo
# ---------------------------------------------------------------------------

class TestSubprocessAgents:
    @pytest.mark.parametrize("method", METHODS)
    def test_crash_poisoned_item_kills_three_workers_quarantines_once(
        self, netlist, baseline, method
    ):
        # The flagship recovery scenario: one item os._exits whichever
        # agent evaluates it.  Three attempts kill three worker processes
        # (the respawner brings each back); the ladder then quarantines
        # exactly that row, siblings bit-identical.
        faults.install(FaultPlan.of(FaultSpec(kind="crash", label="cand-2")))
        coordinator = Coordinator(
            "127.0.0.1", 0, worker_fault_limit=10, lease_seconds=10.0
        )
        agent = _RespawningAgent(coordinator.port, f"crashy-{method}", method)
        try:
            assert coordinator.wait_for_workers(1, timeout=30.0)
            runner = BatchRunner(netlist)
            results = runner.run_many(
                _configs(8), shards=8, coordinator=coordinator,
                stop_process="CU", on_error="zero", max_shard_retries=2,
                **FAST,
            )
            row = results[2]
            assert row.failed and "WorkerCrashError" in row.error
            assert row.label == "cand-2" and row.cycles == 0
            healthy = [r for i, r in enumerate(results) if i != 2]
            expected = [r for i, r in enumerate(baseline) if i != 2]
            assert _strip_attempts(healthy) == _strip_attempts(expected)
            assert runner.supervision.quarantined == 1
            assert runner.supervision.retries >= 2
            # It really died three times (the watcher may still be noticing
            # the last death when run_many returns).
            deadline = time.monotonic() + 10.0
            while agent.restarts < 3 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert agent.restarts >= 3
            record = coordinator.worker_stats()[f"crashy-{method}"]
            assert record["faults"] >= 3
        finally:
            agent.stop()
            coordinator.close()

    def test_worker_selector_quarantines_flaky_agent(self, netlist, baseline):
        # A fault plan naming one worker id: the flaky agent disconnects on
        # its first lease, is quarantined at the (lowered) strike limit,
        # and the healthy agent finishes the whole batch.
        faults.install(
            FaultPlan.of(FaultSpec(kind="disconnect", worker="flaky"))
        )
        coordinator = Coordinator("127.0.0.1", 0, worker_fault_limit=1)
        ctx = multiprocessing.get_context(METHODS[0])
        procs = [
            ctx.Process(
                target=agent_main,
                args=("127.0.0.1", coordinator.port, worker_id, 0.05),
                daemon=True,
            )
            for worker_id in ("flaky", "steady")
        ]
        for proc in procs:
            proc.start()
        try:
            assert coordinator.wait_for_workers(2, timeout=30.0)
            runner = BatchRunner(netlist)
            results = runner.run_many(
                _configs(8), shards=4, coordinator=coordinator,
                stop_process="CU", **FAST,
            )
            assert _strip_attempts(results) == _strip_attempts(baseline)
            stats = coordinator.worker_stats()
            assert stats["flaky"]["quarantined"]
            assert not stats["steady"]["quarantined"]
            assert stats["steady"]["completed"] == 4
            assert runner.supervision.workers_quarantined == 1
        finally:
            coordinator.close()
            for proc in procs:
                proc.terminate()
                proc.join(timeout=5.0)

    def test_mixed_fault_storm_64_rows_bit_identical(self, netlist):
        # The ISSUE-8 acceptance scenario: a 64-row sweep across three real
        # agent processes with a worker crash, a mid-shard disconnect, a
        # hang past the lease, and a corrupted result frame — completing
        # bit-identical to a fault-free serial run, recoveries counted.
        configs = _configs(64)
        serial = BatchRunner(netlist).run_many(
            configs, workers=1, stop_process="CU"
        )
        faults.install(
            FaultPlan.of(
                FaultSpec(kind="crash", shard=0, attempt=0),
                FaultSpec(kind="disconnect", shard=1, attempt=0),
                FaultSpec(kind="hang", shard=2, attempt=0, seconds=3.0),
                FaultSpec(kind="corrupt-payload", shard=3, attempt=0),
            )
        )
        coordinator = Coordinator(
            "127.0.0.1", 0, lease_seconds=0.5, worker_fault_limit=10
        )
        agents = [
            _RespawningAgent(coordinator.port, f"storm-{i}", METHODS[0])
            for i in range(3)
        ]
        try:
            assert coordinator.wait_for_workers(3, timeout=30.0)
            runner = BatchRunner(netlist)
            results = runner.run_many(
                configs, shards=8, coordinator=coordinator,
                stop_process="CU", **FAST,
            )
            assert _strip_attempts(results) == _strip_attempts(serial)
            supervision = runner.supervision
            assert supervision.retries >= 4
            assert supervision.lease_expiries >= 1
            assert supervision.corrupt_payloads >= 1
            assert supervision.quarantined == 0
            assert supervision.serial_fallback_items == 0
            assert any(r.attempts > 1 for r in results)
        finally:
            for agent in agents:
                agent.stop()
            coordinator.close()


# ---------------------------------------------------------------------------
# Cross-batch runner reuse on the agent
# ---------------------------------------------------------------------------

class TestAgentRunnerCache:
    def test_same_netlist_reuses_runner_across_batches(self, netlist, baseline):
        """Two batches shipping the same netlist build its runner once."""
        coordinator = Coordinator("127.0.0.1", 0)
        agents = _Agents(coordinator, 1, prefix="cache")
        try:
            assert coordinator.wait_for_workers(1)
            runner = BatchRunner(netlist)
            for _ in range(2):
                results = runner.run_many(
                    _configs(8), shards=2, coordinator=coordinator,
                    stop_process="CU", **FAST,
                )
                assert _strip_attempts(results) == _strip_attempts(baseline)
            [agent] = agents.agents
            assert agent.runner_builds == 1
        finally:
            agents.stop()
            coordinator.close()

    def test_different_netlist_builds_a_fresh_runner(self, netlist):
        """A batch over different content misses the cache and builds anew."""
        coordinator = Coordinator("127.0.0.1", 0)
        agents = _Agents(coordinator, 1, prefix="cache2")
        try:
            assert coordinator.wait_for_workers(1)
            BatchRunner(netlist).run_many(
                _configs(4), shards=2, coordinator=coordinator,
                stop_process="CU", **FAST,
            )
            other = _sort_netlist(length=5, seed=4)
            BatchRunner(other).run_many(
                _configs(4), shards=2, coordinator=coordinator,
                stop_process="CU", **FAST,
            )
            [agent] = agents.agents
            assert agent.runner_builds == 2
        finally:
            agents.stop()
            coordinator.close()


# ---------------------------------------------------------------------------
# Service integration and environment validation
# ---------------------------------------------------------------------------

class TestServiceIntegration:
    def test_service_routes_through_coordinator_and_reports_workers(self):
        coordinator = Coordinator("127.0.0.1", 0)
        agents = _Agents(coordinator, 2, prefix="svc")
        service = EvaluationService(workers=2, coordinator=coordinator)
        try:
            assert coordinator.wait_for_workers(2)
            netlist = _sort_netlist()
            layout = service.ensure_layout(netlist, relaxed=False)
            configs = _configs(6)
            jobset = service.submit(
                [(layout, c) for c in configs], stop_process="CU"
            )
            results = jobset.ordered_results()
            direct = BatchRunner(netlist, relaxed=False).run_many(
                configs, stop_process="CU"
            )
            assert _strip_attempts(results) == _strip_attempts(direct)
            stats = service.stats()
            workers = stats["supervision"]["workers"]
            assert set(workers) == {"svc-0", "svc-1"}
            assert sum(w["completed"] for w in workers.values()) >= 1
        finally:
            service.close()
            agents.stop()
            coordinator.close()


class TestFaultEnvValidation:
    def test_bad_json_names_env_var(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "{not json")
        with pytest.raises(SimulationError) as excinfo:
            faults.validate_env()
        assert FAULTS_ENV_VAR in str(excinfo.value)
        assert "invalid fault plan JSON" in str(excinfo.value)

    def test_bad_spec_names_env_var_and_index(self, monkeypatch):
        monkeypatch.setenv(
            FAULTS_ENV_VAR, '[{"kind": "crash"}, {"kind": "crash", "banana": 1}]'
        )
        with pytest.raises(SimulationError) as excinfo:
            faults.validate_env()
        message = str(excinfo.value)
        assert FAULTS_ENV_VAR in message
        assert "invalid fault spec #1" in message
        assert "banana" in message

    def test_cli_fails_fast_with_clear_error(self, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.setenv(FAULTS_ENV_VAR, "[42]")
        assert main(["figure1"]) == 2
        err = capsys.readouterr().err
        assert FAULTS_ENV_VAR in err and "invalid fault spec #0" in err

    def test_worker_agent_rejects_bad_env(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "{not json")
        agent = WorkerAgent("127.0.0.1", 1, worker_id="doomed")
        with pytest.raises(SimulationError, match=FAULTS_ENV_VAR):
            agent.run_forever()


class TestCLI:
    def test_worker_subcommand_parses(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["worker", "--connect", "127.0.0.1:9000", "--worker-id", "w1"]
        )
        assert args.command == "worker"
        assert args.connect == "127.0.0.1:9000"
        assert args.worker_id == "w1"

    def test_submit_serve_options_parse(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["submit", "--serve", "9000", "--wait-workers", "2",
             "--lease-seconds", "1.5"]
        )
        assert args.serve == "9000"
        assert args.wait_workers == 2
        assert args.lease_seconds == 1.5

    def test_parse_address(self):
        from repro.__main__ import _parse_address

        assert _parse_address("9000") == ("127.0.0.1", 9000)
        assert _parse_address("0.0.0.0:81") == ("0.0.0.0", 81)
        with pytest.raises(SystemExit):
            _parse_address("nope")

    def test_in_process_submit_matches_submit_connect(self, capsys):
        import re

        from repro.__main__ import main
        from repro.server import ReproServer

        argv = ["submit", "--workloads", "sort,matmul", "--sort-length", "6",
                "--matmul-size", "2", "--depths", "0,1"]
        row = re.compile(r"\[\d+/8\] (\S+) · (.+): cycles=(\d+) \(\w+\)$")

        def printed_rows(stderr):
            # Other stderr lines (e.g. from earlier tests' threads) are not rows.
            matches = map(row.match, stderr.splitlines())
            return sorted(match.groups() for match in matches if match)

        assert main(argv) == 0
        local = capsys.readouterr()
        assert "8 jobs: 8 simulated" in local.out
        with ReproServer(port=0) as server:
            host, port = server.address
            assert main(argv + ["--connect", f"{host}:{port}"]) == 0
        remote = capsys.readouterr()
        assert "8 jobs streamed" in remote.out
        assert len(printed_rows(local.err)) == 8, local.err
        assert printed_rows(local.err) == printed_rows(remote.err), remote.err
