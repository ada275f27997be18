"""Tests of the serving tier: daemon, tenancy, wire formats, chaos.

Everything network-shaped here runs over real loopback sockets against a
:class:`~repro.server.ReproServer` on an ephemeral port; the CLI test at
the bottom goes one step further and drives ``python -m repro serve`` /
``submit --connect`` as separate OS processes, which is the acceptance
shape of the round-trip guarantee (rows arriving over the network are
bit-identical to a direct in-process run).
"""

import json
import os
import signal
import subprocess
import sys
import threading

import pytest

from repro.core.config import RSConfiguration
from repro.core.exceptions import PayloadChecksumError, SimulationError
from repro.cpu.machine import build_pipelined_cpu
from repro.cpu.topology import LINK_CU_IC
from repro.cpu.workloads import make_extraction_sort, make_matrix_multiply
from repro.engine import faults
from repro.engine.batch import BatchRunner
from repro.engine.faults import FaultPlan, FaultSpec
from repro.server import (
    AuthError,
    QuotaError,
    ReproServer,
    ServerClient,
    ServerError,
    Tenant,
    TenantRegistry,
    parse_submission,
    validate_server_env,
)
from repro.server.encoding import (
    encode_frame,
    encode_sse,
    iter_frames,
    iter_sse,
    parse_controls,
)
from repro.server.router import Router
from repro.server.tenancy import (
    MAX_PENDING_ENV_VAR,
    PORT_ENV_VAR,
    PRIORITY_BAND,
    TOKENS_ENV_VAR,
)
from repro.service import EvaluationService


@pytest.fixture(autouse=True)
def _no_leftover_faults(monkeypatch):
    monkeypatch.delenv(faults.FAULTS_ENV_VAR, raising=False)
    yield
    faults.uninstall()


@pytest.fixture()
def server():
    """A started daemon on an ephemeral loopback port (open access)."""
    with ReproServer(port=0) as srv:
        yield srv


def make_client(server, token=None, timeout=120.0):
    host, port = server.address
    return ServerClient(host, port, token=token, timeout=timeout)


SORT_BODY = {
    "spec": {"kind": "workload", "workload": "sort", "length": 6,
             "seed": 2005},
    "wrappers": ["wp1"],
    "configurations": [0, 1],
}


# ---------------------------------------------------------------------------
# Router
# ---------------------------------------------------------------------------


class TestRouter:
    def _table(self):
        router = Router()
        router.add("GET", r"/v1/jobs/(?P<job_set_id>[^/]+)", "fetch", "f")
        router.add("DELETE", r"/v1/jobs/(?P<job_set_id>[^/]+)", "cancel", "c")
        router.add("GET", r"/metrics", "metrics", "m")
        return router

    def test_resolves_named_params(self):
        hit = self._table().resolve("GET", "/v1/jobs/js-7")
        assert hit.route.name == "fetch"
        assert hit.params == {"job_set_id": "js-7"}

    def test_unknown_path_has_no_allow_set(self):
        miss = self._table().resolve("GET", "/nope")
        assert miss.route is None
        assert not miss.method_not_allowed

    def test_wrong_method_collects_allow_set(self):
        miss = self._table().resolve("POST", "/v1/jobs/js-7")
        assert miss.route is None
        assert miss.method_not_allowed
        assert set(miss.allowed) == {"GET", "DELETE"}


# ---------------------------------------------------------------------------
# Wire formats
# ---------------------------------------------------------------------------


class TestSubmissionValidation:
    def test_minimal_workload_body_parses(self):
        sub = parse_submission(SORT_BODY)
        assert sub.kind == "workload"
        assert sub.wrappers == ("wp1",)
        assert sub.configurations == [0, 1]

    @pytest.mark.parametrize(
        "mutate, needle",
        [
            (lambda b: b.update(bogus=1), "bogus"),
            (lambda b: b.update(spec={"kind": "nope"}), "kind"),
            (lambda b: b.update(wrappers=["wp3"]), "wrappers"),
            (lambda b: b.update(configurations=[]), "configurations"),
            (lambda b: b.update(configurations=[-1]), "#0"),
            (lambda b: b.update(configurations=["x"]), "#0"),
            (lambda b: b.update(queue_capacity=0), "queue_capacity"),
            (lambda b: b.update(controls={"on_cycle": 1}), "on_cycle"),
            (lambda b: b.update(controls={"max_cycles": "many"}),
             "max_cycles"),
        ],
    )
    def test_errors_name_the_offending_field(self, mutate, needle):
        body = {**SORT_BODY, "spec": dict(SORT_BODY["spec"])}
        mutate(body)
        with pytest.raises(SimulationError, match=needle):
            parse_submission(body)

    def test_controls_reject_unknown_and_accept_known(self):
        assert parse_controls(None) == {}
        assert parse_controls({"max_cycles": 99, "steady_state": False}) == {
            "max_cycles": 99, "steady_state": False,
        }
        with pytest.raises(SimulationError, match="stop_procss"):
            parse_controls({"stop_procss": "CU"})


class TestStreamEncodings:
    EVENTS = [
        {"event": "row", "index": 0, "label": "All 0", "result": None},
        {"event": "row", "index": 1, "label": "All 1",
         "result": {"cycles": 655}},
        {"event": "end", "job_set_id": "js-1", "delivered": 2},
    ]

    def test_sse_round_trip(self, tmp_path):
        path = tmp_path / "stream.sse"
        path.write_bytes(b"".join(encode_sse(e) for e in self.EVENTS))
        with path.open("rb") as stream:
            assert list(iter_sse(stream)) == self.EVENTS

    def test_frames_round_trip(self, tmp_path):
        path = tmp_path / "stream.bin"
        path.write_bytes(b"".join(encode_frame(e) for e in self.EVENTS))
        with path.open("rb") as stream:
            assert list(iter_frames(stream)) == self.EVENTS

    def test_truncated_frame_raises_eof(self, tmp_path):
        blob = encode_frame(self.EVENTS[0])
        path = tmp_path / "truncated.bin"
        path.write_bytes(blob[: len(blob) - 3])
        with path.open("rb") as stream:
            with pytest.raises(EOFError):
                list(iter_frames(stream))

    def test_corrupted_frame_raises_checksum_error(self, tmp_path):
        path = tmp_path / "corrupt.bin"
        path.write_bytes(encode_frame(self.EVENTS[0], corrupt=True))
        with path.open("rb") as stream:
            with pytest.raises(PayloadChecksumError):
                list(iter_frames(stream))


# ---------------------------------------------------------------------------
# Tenancy: quotas and weighted fair admission
# ---------------------------------------------------------------------------


class TestTenancy:
    def test_open_registry_accepts_anything(self):
        registry = TenantRegistry()
        assert registry.open_access
        assert registry.authenticate(None).name == "anonymous"
        assert registry.authenticate("whatever").name == "anonymous"

    def test_configured_registry_requires_a_known_token(self):
        registry = TenantRegistry([Tenant(name="a", token="s")])
        assert registry.authenticate("s").name == "a"
        with pytest.raises(AuthError):
            registry.authenticate(None)
        with pytest.raises(AuthError):
            registry.authenticate("wrong")

    def test_duplicate_tokens_and_names_are_rejected(self):
        with pytest.raises(SimulationError, match="reuses the token"):
            TenantRegistry([Tenant(name="a", token="s"),
                            Tenant(name="b", token="s")])
        with pytest.raises(SimulationError, match="duplicate tenant name"):
            TenantRegistry([Tenant(name="a", token="s"),
                            Tenant(name="a", token="t")])

    def test_quota_is_all_or_nothing(self):
        tenant = Tenant(name="a", token="s", max_pending=4)
        registry = TenantRegistry([tenant])
        registry.admit(tenant, 3)
        with pytest.raises(QuotaError, match="max_pending=4"):
            registry.admit(tenant, 2)  # 3 + 2 > 4: nothing admitted
        assert registry.snapshot()["a"]["pending"] == 3
        assert registry.snapshot()["a"]["rejected"] == 2
        registry.admit(tenant, 1)  # exactly at the quota is fine

    def test_release_frees_quota(self):
        tenant = Tenant(name="a", token="s", max_pending=2)
        registry = TenantRegistry([tenant])
        registry.admit(tenant, 2)
        with pytest.raises(QuotaError):
            registry.admit(tenant, 1)
        registry.release(tenant, 2)
        registry.admit(tenant, 2)

    def test_weighted_interleaving_within_a_band(self):
        alice = Tenant(name="alice", token="a", weight=2.0)
        bob = Tenant(name="bob", token="b", weight=1.0)
        registry = TenantRegistry([alice, bob])
        jobs = []
        for _ in range(4):  # alternating submission rounds, 2:1 weights
            jobs += [("alice", p) for p in registry.admit(alice, 2)]
            jobs += [("bob", p) for p in registry.admit(bob, 1)]
        drained = [
            name for name, _ in sorted(jobs, key=lambda j: (j[1], j[0]))
        ]
        # Twice the weight never falls behind in any prefix window, and
        # the full backlog drains in exact 2:1 proportion — interleaved,
        # not alice-then-bob.
        for cut in range(1, len(drained) + 1):
            window = drained[:cut]
            assert window.count("alice") >= window.count("bob")
        assert drained.count("alice") == 8 and drained.count("bob") == 4
        assert "bob" in drained[: len(drained) - 1]  # not starved to the end

    def test_idle_tenant_reenters_at_the_virtual_present(self):
        alice = Tenant(name="alice", token="a")
        bob = Tenant(name="bob", token="b")
        registry = TenantRegistry([alice, bob])
        busy = registry.admit(alice, 100)
        # Nothing drained yet: bob enters at the queue head's virtual time,
        # competing with alice's backlog from now — not parked behind all
        # 100 of her jobs.
        assert registry.admit(bob, 1)[0] == busy[0]
        # After 40 of alice's jobs finish, the virtual present has moved:
        # bob's next job lands mid-backlog, never ahead of drained time.
        registry.release(alice, 40)
        registry.release(bob)
        late = registry.admit(bob, 1)[0]
        assert late == busy[40]
        assert busy[0] < late < busy[-1]

    def test_priority_bands_dominate_passes(self):
        fast = Tenant(name="fast", token="f", priority=0)
        slow = Tenant(name="slow", token="s", priority=1)
        registry = TenantRegistry([fast, slow])
        low = registry.admit(slow, 1)
        hi = registry.admit(fast, 1000)
        assert max(hi) < min(low)
        assert min(low) >= PRIORITY_BAND


class TestEnvValidation:
    def test_unset_environment_is_open_access(self, monkeypatch):
        for var in (TOKENS_ENV_VAR, PORT_ENV_VAR, MAX_PENDING_ENV_VAR):
            monkeypatch.delenv(var, raising=False)
        assert validate_server_env() == {
            "tenants": [], "port": None, "max_pending": None,
        }

    def test_valid_tokens_parse_into_tenants(self, monkeypatch):
        monkeypatch.setenv(TOKENS_ENV_VAR, json.dumps([
            {"token": "s", "name": "alice", "priority": 1,
             "max_pending": 8, "weight": 2.0},
        ]))
        tenants = validate_server_env()["tenants"]
        assert tenants == [Tenant(name="alice", token="s", priority=1,
                                  max_pending=8, weight=2.0)]

    @pytest.mark.parametrize(
        "value, needle",
        [
            ("not json", "invalid tenant JSON"),
            ("{}", "JSON list"),
            ('[{"token": "s"}]', "'name'"),
            ('[{"token": "s", "name": "a", "color": 1}]', "color"),
            ('[{"token": "s", "name": "a", "weight": 0}]', "weight"),
            ('[{"token": "s", "name": "a"}, {"token": "s", "name": "b"}]',
             "reuses the token"),
        ],
    )
    def test_bad_tokens_error_names_the_variable(self, monkeypatch, value,
                                                 needle):
        monkeypatch.setenv(TOKENS_ENV_VAR, value)
        with pytest.raises(SimulationError) as err:
            validate_server_env()
        assert TOKENS_ENV_VAR in str(err.value)
        assert needle in str(err.value)

    @pytest.mark.parametrize(
        "var, value",
        [(PORT_ENV_VAR, "eighty"), (PORT_ENV_VAR, "-1"),
         (MAX_PENDING_ENV_VAR, "0"), (MAX_PENDING_ENV_VAR, "lots")],
    )
    def test_bad_integers_error_names_the_variable(self, monkeypatch, var,
                                                   value):
        monkeypatch.delenv(TOKENS_ENV_VAR, raising=False)
        monkeypatch.setenv(var, value)
        with pytest.raises(SimulationError, match=var):
            validate_server_env()


# ---------------------------------------------------------------------------
# Round trips over a real socket
# ---------------------------------------------------------------------------


def direct_rows(length=6, size=2, depths=(0, 1)):
    """The reference: the same mixed sweep run directly in-process."""
    service = EvaluationService()
    try:
        items = []
        stops = {}
        for workload in (
            make_extraction_sort(length=length, seed=2005),
            make_matrix_multiply(size=size, seed=2005),
        ):
            cpu = build_pipelined_cpu(workload.program)
            for relaxed in (False, True):
                layout = service.ensure_layout(cpu.netlist, relaxed=relaxed)
                stops[layout] = cpu.control_unit.name
                items.extend(
                    (layout,
                     RSConfiguration.uniform(depth, exclude=(LINK_CU_IC,)))
                    for depth in depths
                )
        rows = []
        for layout, config in items:
            jobset = service.submit(
                [(layout, config)], stop_process=stops[layout]
            )
            (job,) = jobset.jobs
            job.wait(120)
            rows.append((layout, job.label, job.result.to_dict()))
        return rows
    finally:
        service.close()


class TestRoundTrip:
    def submit_mixed(self, client, depths, length=6, size=2):
        replies = []
        for workload, extra in (
            ("sort", {"length": length}), ("matmul", {"size": size}),
        ):
            replies.append(client.submit({
                "spec": {"kind": "workload", "workload": workload,
                         "seed": 2005, **extra},
                "wrappers": ["wp1", "wp2"],
                "configurations": list(depths),
            }))
        return replies

    def test_64_row_mixed_sweep_is_bit_identical(self, server):
        depths = range(16)  # 2 workloads x 2 wrappers x 16 depths = 64
        client = make_client(server)
        replies = self.submit_mixed(client, depths)
        assert sum(reply["jobs"] for reply in replies) == 64
        streamed = []
        for reply in replies:
            for event in client.stream(reply["job_set_id"]):
                assert event["status"] == "done"
                streamed.append(
                    (event["layout"], event["label"], event["result"])
                )
        assert sorted(streamed) == sorted(direct_rows(depths=depths))

    def test_first_row_streams_before_the_set_completes(
        self, server, monkeypatch
    ):
        # Hold back the set's last job (WP2, depth 7) until the first row
        # has arrived, so the set cannot finish first on a fast machine.
        release = threading.Event()
        evaluate = BatchRunner._evaluate

        def held(runner, configuration, *args, **kwargs):
            if runner.relaxed and configuration.label == "All 7 (no CU-IC)":
                release.wait()
            return evaluate(runner, configuration, *args, **kwargs)

        monkeypatch.setattr(BatchRunner, "_evaluate", held)
        client = make_client(server)
        try:
            (reply,) = [self.submit_mixed(client, range(8))[0]]
            record = server.record_for(
                server.registry.authenticate(None), reply["job_set_id"]
            )
            stream = client.stream(reply["job_set_id"])
            first = next(stream)
            assert first["event"] == "row"
            # The held job is still pending behind this row.
            assert not record.done
        finally:
            release.set()
        assert len(list(stream)) == reply["jobs"] - 1

    def test_blocking_fetch_returns_rows_in_submission_order(self, server):
        client = make_client(server)
        reply = client.submit(SORT_BODY)
        fetched = client.fetch(reply["job_set_id"])
        assert fetched["done"] is True
        assert [row["index"] for row in fetched["rows"]] == [0, 1]
        assert [row["label"] for row in fetched["rows"]] == [
            "All 0 (no CU-IC)", "All 1 (no CU-IC)",
        ]

    def test_binary_frames_equal_sse(self, server):
        client = make_client(server)
        reply = client.submit(SORT_BODY)
        sse = client.rows(reply["job_set_id"])
        binary = client.rows(reply["job_set_id"], binary=True)
        assert binary == sse

    def test_layout_digest_readdresses_the_same_netlist(self, server):
        client = make_client(server)
        first = client.submit(SORT_BODY)
        client.fetch(first["job_set_id"])
        (layout,) = first["layouts"]
        digest = layout.split("-")[1]
        again = client.submit({
            "spec": {"kind": "layout", "layout": digest},
            "wrappers": ["wp1"],
            "configurations": [0, 1],
        })
        rows = client.rows(again["job_set_id"])
        assert all(row["cached"] for row in rows)
        assert [row["result"] for row in rows] == [
            row["result"] for row in client.fetch(first["job_set_id"])["rows"]
        ]

    def test_topology_spec_runs_the_generator_zoo(self, server):
        client = make_client(server)
        reply = client.submit({
            "spec": {"kind": "topology", "topology": "ring",
                     "params": {"stages": 3}},
            "wrappers": ["wp1"],
            "configurations": [0, 1],
            "controls": {"horizon": 500},
        })
        rows = client.rows(reply["job_set_id"])
        assert len(rows) == 2
        assert all(row["status"] == "done" for row in rows)
        assert rows[0]["result"]["cycles"] > 0

    def test_http_errors_are_json_with_status(self, server):
        client = make_client(server)
        with pytest.raises(ServerError) as err:
            client.fetch("js-does-not-exist")
        assert err.value.status == 404
        with pytest.raises(ServerError) as err:
            client.submit({"spec": {"kind": "nope"}, "configurations": [0]})
        assert err.value.status == 400
        assert "kind" in str(err.value)

    def test_metrics_and_status_expose_the_service(self, server):
        client = make_client(server)
        reply = client.submit(SORT_BODY)
        client.fetch(reply["job_set_id"])
        client.submit(SORT_BODY)  # warm-cache re-submission
        metrics = client.metrics()
        for needle in (
            "repro_service_queue_depth",
            "repro_server_throughput_rows_per_second",
            "repro_service_cache_hit_rate",
            "repro_service_dedup_rate",
            'repro_tenant_rows_served_total{tenant="anonymous"}',
            'repro_server_http_requests_total{handler="submit"} 2',
        ):
            assert needle in metrics, needle
        hit_rate = [
            line for line in metrics.splitlines()
            if line.startswith("repro_service_cache_hit_rate")
        ][0]
        assert float(hit_rate.split()[-1]) == 0.5
        status = client.status()
        assert "repro.server status" in status
        assert "anonymous" in status


class TestSpecErrors:
    """The statuses a spec error answers with, and digest-prefix addressing."""

    RING = {"kind": "topology", "topology": "ring", "params": {"stages": 3}}

    @pytest.fixture()
    def daemon(self):
        """An open-access daemon whose jobs stay parked (never simulated)."""
        service = EvaluationService(autostart=False)
        with ReproServer(port=0, service=service) as srv:
            yield srv

    @staticmethod
    def add_layouts(server, *names):
        from repro.topology import make_topology

        runner = BatchRunner(make_topology("ring", stages=3).netlist)
        for name in names:
            server.service.add_layout(name, runner)

    def status_of(self, server, body):
        with pytest.raises(ServerError) as err:
            make_client(server).submit(body)
        return err.value.status, str(err.value)

    def test_unknown_layout_is_404(self, daemon):
        status, message = self.status_of(daemon, {
            "spec": {"kind": "layout", "layout": "deadbeef"},
            "configurations": [0],
        })
        assert status == 404
        assert "deadbeef" in message

    def test_ambiguous_digest_prefix_is_400(self, daemon):
        self.add_layouts(
            daemon,
            "nl-abc123456789-wp1-fast-q4-r2", "nl-abc999999999-wp1-fast-q4-r2",
        )
        status, message = self.status_of(daemon, {
            "spec": {"kind": "layout", "layout": "abc"},
            "configurations": [0],
        })
        assert status == 400
        assert "ambiguous" in message

    def test_bad_topology_params_are_400(self, daemon):
        status, message = self.status_of(daemon, {
            "spec": {**self.RING, "params": {"stages": 3, "bogus": 1}},
            "configurations": [0],
        })
        assert status == 400
        assert "invalid topology spec" in message

    @pytest.mark.parametrize("entry", [
        {"default": "deep"}, {"counts": [1, 2]}, {"overrides": 3},
    ])
    def test_malformed_configuration_is_400(self, daemon, entry):
        status, message = self.status_of(daemon, {
            "spec": self.RING, "configurations": [0, entry],
        })
        assert status == 400
        assert "configuration #1" in message
        # Configurations are checked before any layout is registered.
        assert daemon.service.layouts == []

    def test_digest_prefix_matches_the_digest_field_only(self, daemon):
        first = "nl-abc123456789-wp2-compiled-q4-r2"
        self.add_layouts(daemon, first, "nl-999abc000000-wp1-fast-q4-r2")
        reply = daemon.submit(daemon.registry.authenticate(None), {
            "spec": {"kind": "layout", "layout": "abc"},
            "configurations": [{"counts": {}}],
            "controls": {"horizon": 50},
        })
        assert reply["layouts"] == [first]
        status, _ = self.status_of(daemon, {
            "spec": {"kind": "layout", "layout": "wp2"},
            "configurations": [0],
        })
        assert status == 404


# ---------------------------------------------------------------------------
# Multi-tenant behaviour over the socket
# ---------------------------------------------------------------------------

ALICE = Tenant(name="alice", token="alice-secret", max_pending=4, weight=2.0)
BOB = Tenant(name="bob", token="bob-secret", max_pending=2)


@pytest.fixture()
def parked_server():
    """A daemon whose service never drains (scheduler not started): jobs
    stay pending, so quota and cancellation behaviour is deterministic."""
    service = EvaluationService(autostart=False)
    server = ReproServer(port=0, service=service, tenants=[ALICE, BOB])
    server.start()
    try:
        yield server
    finally:
        server.close()


class TestMultiTenantSocket:
    def test_missing_or_unknown_token_is_401(self, parked_server):
        with pytest.raises(ServerError) as err:
            make_client(parked_server).submit(SORT_BODY)
        assert err.value.status == 401
        with pytest.raises(ServerError) as err:
            make_client(parked_server, token="wrong").submit(SORT_BODY)
        assert err.value.status == 401

    def test_quota_rejects_with_429_and_cancel_releases(self, parked_server):
        alice = make_client(parked_server, token=ALICE.token)
        bob = make_client(parked_server, token=BOB.token)
        first = alice.submit(SORT_BODY)   # 2 pending of 4
        alice.submit(SORT_BODY)           # 4 pending of 4
        with pytest.raises(ServerError) as err:
            alice.submit(SORT_BODY)       # would be 6 of 4
        assert err.value.status == 429
        assert "max_pending=4" in str(err.value)
        # Alice's quota is hers alone: bob still fits his own.
        bob.submit(SORT_BODY)
        # DELETE cancels the pending jobs and frees the quota slots.
        reply = alice.cancel(first["job_set_id"])
        assert reply["cancelled"] == 2
        alice.submit(SORT_BODY)
        snapshot = parked_server.registry.snapshot()
        assert snapshot["alice"]["pending"] == 4
        assert snapshot["alice"]["rejected"] == 2
        assert snapshot["bob"]["pending"] == 2

    def test_tenants_cannot_see_each_other(self, parked_server):
        alice = make_client(parked_server, token=ALICE.token)
        bob = make_client(parked_server, token=BOB.token)
        reply = alice.submit(SORT_BODY)
        with pytest.raises(ServerError) as err:
            bob.fetch(reply["job_set_id"], timeout=1)
        assert err.value.status == 404
        with pytest.raises(ServerError) as err:
            bob.cancel(reply["job_set_id"])
        assert err.value.status == 404

    def test_admission_prices_jobs_fairly_into_the_queue(self, parked_server):
        alice = make_client(parked_server, token=ALICE.token)
        bob = make_client(parked_server, token=BOB.token)
        a = alice.submit(SORT_BODY)
        b = bob.submit(SORT_BODY)
        record_a = parked_server.record_for(ALICE, a["job_set_id"])
        record_b = parked_server.record_for(BOB, b["job_set_id"])
        pa = [float(job.priority) for job in record_a.jobset.jobs]
        pb = [float(job.priority) for job in record_b.jobset.jobs]
        # Same band, stride-spaced: alice (weight 2) advances half as fast.
        assert pa[1] - pa[0] == pytest.approx(0.5)
        assert pb[1] - pb[0] == pytest.approx(1.0)
        # Bob entered at the virtual floor (alice's backlog head), so the
        # two backlogs interleave instead of draining alice-then-bob.
        drained = sorted(
            [("alice", p, i) for i, p in enumerate(pa)]
            + [("bob", p, i) for i, p in enumerate(pb)],
            key=lambda entry: (entry[1], entry[0]),
        )
        assert [name for name, _, _ in drained] == [
            "alice", "bob", "alice", "bob",
        ]
        assert pb[0] == pa[0]


# ---------------------------------------------------------------------------
# Graceful shutdown
# ---------------------------------------------------------------------------


class TestDrain:
    def test_draining_daemon_rejects_submissions_with_503(self):
        service = EvaluationService(autostart=False)
        with ReproServer(port=0, service=service) as server:
            client = make_client(server)
            reply = client.submit(SORT_BODY)
            server.begin_drain()
            assert not client.healthy()
            with pytest.raises(ServerError) as err:
                client.submit(SORT_BODY)
            assert err.value.status == 503
            # Close cancels the parked jobs; their terminal events land in
            # the log, so a blocking fetch still completes the job set.
            server.close()
            record = server.record_for(
                server.registry.authenticate(None), reply["job_set_id"]
            )
            assert record.done
            statuses = [event["status"] for event in record.events]
            assert statuses == ["cancelled", "cancelled"]

    def test_drain_lets_streams_finish(self, server):
        client = make_client(server)
        reply = client.submit(SORT_BODY)
        server.begin_drain()
        rows = client.rows(reply["job_set_id"])
        assert [row["status"] for row in rows] == ["done", "done"]


# ---------------------------------------------------------------------------
# Chaos: snapped streams and daemon restarts
# ---------------------------------------------------------------------------


class TestChaos:
    def test_client_disconnect_mid_stream_replays_on_reconnect(self, server):
        # The daemon snaps the connection just before streaming row 1 of
        # the first attempt; the client reconnects with ?from=<cursor> and
        # must deliver every row exactly once.
        faults.install(FaultPlan.of(
            FaultSpec(kind="http-disconnect", shard=1, attempt=0),
        ))
        client = make_client(server)
        reply = client.submit({**SORT_BODY, "configurations": [0, 1, 2]})
        record = server.record_for(
            server.registry.authenticate(None), reply["job_set_id"]
        )
        rows = client.rows(reply["job_set_id"])
        assert [row["index"] for row in rows] == [0, 1, 2]
        assert [row["status"] for row in rows] == ["done"] * 3
        assert next(record.stream_attempts) == 2  # snapped once, resumed once

    def test_binary_stream_survives_the_same_fault(self, server):
        faults.install(FaultPlan.of(
            FaultSpec(kind="http-disconnect", shard=1, attempt=0),
        ))
        client = make_client(server)
        reply = client.submit(SORT_BODY)
        rows = client.rows(reply["job_set_id"], binary=True)
        assert [row["index"] for row in rows] == [0, 1]

    def test_daemon_restart_replays_from_the_warm_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        body = {**SORT_BODY, "configurations": [0, 1, 2, 3]}
        with ReproServer(port=0, cache_dir=str(cache_dir)) as first:
            client = make_client(first)
            before = client.fetch(client.submit(body)["job_set_id"])["rows"]
            assert not any(row["cached"] for row in before)
        # The daemon died; a replacement on the same cache directory
        # answers the re-submitted job set from disk, bit-identically.
        with ReproServer(port=0, cache_dir=str(cache_dir)) as second:
            client = make_client(second)
            after = client.fetch(client.submit(body)["job_set_id"])["rows"]
        assert all(row["cached"] for row in after)
        assert [row["result"] for row in after] == [
            row["result"] for row in before
        ]


# ---------------------------------------------------------------------------
# The CLI: serve + submit --connect as separate OS processes
# ---------------------------------------------------------------------------


SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def _spawn_daemon(tmp_path, env=None):
    full_env = {**os.environ, "PYTHONPATH": SRC, **(env or {})}
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--cache-dir",
         str(tmp_path / "cache")],
        stderr=subprocess.PIPE,
        text=True,
        env=full_env,
    )
    line = process.stderr.readline()
    assert "listening on" in line, line
    address = line.split("listening on ")[1].split()[0]
    return process, address


class TestServeCli:
    def test_submit_connect_round_trips_and_sigterm_drains(self, tmp_path):
        process, address = _spawn_daemon(tmp_path)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "repro", "submit",
                 "--connect", address, "--workloads", "sort",
                 "--sort-length", "6", "--depths", "0,1"],
                capture_output=True,
                text=True,
                timeout=120,
                env={**os.environ, "PYTHONPATH": SRC},
            )
            assert result.returncode == 0, result.stderr
            assert "4 jobs streamed" in result.stdout
            assert "cycles=" in result.stderr
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            finally:
                if process.poll() is None:
                    process.kill()
        assert process.returncode == 0
        remainder = process.stderr.read()
        assert "draining" in remainder
        assert "stopped" in remainder

    def test_serve_rejects_a_malformed_environment(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve"],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": SRC,
                 TOKENS_ENV_VAR: "not json"},
        )
        assert result.returncode == 2
        assert TOKENS_ENV_VAR in result.stderr
