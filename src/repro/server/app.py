"""The daemon: a threaded HTTP front end owning one ``EvaluationService``.

:class:`ReproServer` is the serving tier's composition root (DESIGN.md
§10).  It owns the service (and optionally a distributed
:class:`~repro.distributed.Coordinator`, so remote ``repro worker`` agents
drain daemon jobs), the :class:`~repro.service.spec.SpecResolver` that
gives every JSON spec its meaning, a
:class:`~repro.server.tenancy.TenantRegistry`, and a
``ThreadingHTTPServer`` whose handler routes through
:mod:`repro.server.router`:

====== ============================= ==============================================
method path                          purpose
====== ============================= ==============================================
POST   ``/v1/jobs``                  submit a batch spec → ``{"job_set_id": ...}``
GET    ``/v1/jobs/<id>``             blocking/polling JSON fetch (``?timeout=S``)
GET    ``/v1/jobs/<id>/stream``      row-by-row stream, SSE or binary frames
                                     (``Accept: application/x-repro-frames``),
                                     resumable via ``?from=K``
DELETE ``/v1/jobs/<id>``             cancel not-yet-started jobs of the set
GET    ``/metrics``                  Prometheus text format
GET    ``/status``                   plain-text admin page
GET    ``/healthz``                  liveness/readiness (503 while draining)
====== ============================= ==============================================

**Streaming without consuming.**  ``JobSet``'s completion queue is a
one-shot iterator, but remote clients disconnect, reconnect and re-read;
the daemon therefore drains every completion — via the service's
``on_result`` callback, so no polling thread exists — into a per-job-set
**event log** guarded by a condition variable.  A stream request is just a
cursor over that log (``?from=K`` resumes after a disconnect), the blocking
fetch is a wait for its completeness, and any number of concurrent readers
can follow one job set.  The log also releases the tenant's quota slot the
moment a job turns terminal — cancellation included, which is what makes
DELETE an effective backpressure-release valve.

**Lifecycle.**  SIGTERM/SIGINT (installed by ``python -m repro serve``)
call :meth:`ReproServer.begin_drain`: new submissions get 503 with a
``Retry-After`` while in-flight job sets finish streaming, then
:meth:`close` tears the service down through its bounded
``close(cancel_pending=True)`` path.  Restart recovery is the cache's job:
a daemon pointed at the same ``--cache-dir`` answers a re-submitted job
set from disk, so clients replay to completion without re-simulating.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..core.exceptions import SimulationError
from ..engine import faults
from ..service import EvaluationService, ResultCache
from ..service.spec import SpecResolver, UnknownLayoutError, parse_submission
from .encoding import (
    FRAMES_CONTENT,
    JSON_CONTENT,
    SSE_CONTENT,
    encode_frame,
    encode_sse,
    end_event,
    job_event,
)
from .router import Router
from .tenancy import AuthError, QuotaError, Tenant, TenantRegistry


class HttpError(SimulationError):
    """An error with a definite HTTP status (the handler's escape hatch)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _JobSetRecord:
    """One submitted job set: its handle, event log and stream bookkeeping."""

    def __init__(
        self,
        job_set_id: str,
        tenant: Tenant,
        total: int,
        layouts: List[str],
    ) -> None:
        self.job_set_id = job_set_id
        self.tenant = tenant
        self.total = total
        self.layouts = layouts
        self.created = time.time()
        self.jobset = None  # set right after service.submit returns
        self.cond = threading.Condition()
        #: Completion-order event log (the replayable stream source).
        self.events: List[Dict[str, Any]] = []
        #: Stream connection attempts (the HTTP fault `attempt` selector).
        self.stream_attempts = itertools.count()

    @property
    def done(self) -> bool:
        with self.cond:
            return len(self.events) == self.total

    def append(self, event: Dict[str, Any]) -> None:
        with self.cond:
            self.events.append(event)
            self.cond.notify_all()

    def wait_events(
        self, cursor: int, timeout: Optional[float]
    ) -> List[Dict[str, Any]]:
        """Events past *cursor*, blocking until at least one (or done/timeout)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self.cond:
            while len(self.events) <= cursor < self.total:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                self.cond.wait(remaining)
            return list(self.events[cursor:])


class ReproServer:
    """The long-lived network front end over one evaluation service."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        service: Optional[EvaluationService] = None,
        cache_dir: Optional[str] = None,
        workers: int = 1,
        max_pending: Optional[int] = None,
        tenants: Optional[List[Tenant]] = None,
        registry: Optional[TenantRegistry] = None,
        coordinator: Optional[object] = None,
    ) -> None:
        if service is not None:
            self.service = service
        else:
            cache = ResultCache(cache_dir=cache_dir) if cache_dir else None
            self.service = EvaluationService(
                cache=cache,
                workers=workers,
                max_pending=max_pending,
                coordinator=coordinator,
            )
        self.registry = (
            registry if registry is not None else TenantRegistry(tenants)
        )
        self.coordinator = coordinator or getattr(
            self.service, "coordinator", None
        )
        self.started = time.time()
        self._draining = threading.Event()
        self._closed = False
        self._lock = threading.Lock()
        self._records: Dict[str, _JobSetRecord] = {}
        self._ids = itertools.count(1)
        self.rows_streamed = 0
        self.requests: Dict[str, int] = {}
        #: What every submitted spec means (and the per-layout context
        #: that digest re-addressing reuses).
        self.specs = SpecResolver(self.service)
        self._router = self._build_router()
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.app = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return (str(host), int(port))

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def start(self) -> "ReproServer":
        """Serve requests on a daemon thread (tests and embedders)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-server",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` shuts it down."""
        self._httpd.serve_forever()

    def begin_drain(self) -> None:
        """Stop admitting work: new submissions 503, streams keep flowing."""
        self._draining.set()

    def close(self, cancel_pending: bool = True) -> None:
        """Graceful shutdown: drain, close the service, stop the listener.

        Pending (never-started) jobs are cancelled through the service's
        bounded ``close(cancel_pending=True)`` path; their terminal events
        land in the job-set logs, so connected stream readers see every row
        account for itself and then the ``end`` sentinel, instead of a
        silent connection drop.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.begin_drain()
        self.service.close(cancel_pending=cancel_pending)
        if self.coordinator is not None:
            try:
                self.coordinator.close()
            except Exception:  # noqa: BLE001 - never block shutdown
                pass
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- routing table ---------------------------------------------------------
    def _build_router(self) -> Router:
        router = Router()
        router.add("POST", r"/v1/jobs", "submit", self._handle_submit)
        router.add(
            "GET", r"/v1/jobs/(?P<job_set_id>[^/]+)/stream", "stream",
            self._handle_stream,
        )
        router.add(
            "GET", r"/v1/jobs/(?P<job_set_id>[^/]+)", "fetch",
            self._handle_fetch,
        )
        router.add(
            "DELETE", r"/v1/jobs/(?P<job_set_id>[^/]+)", "cancel",
            self._handle_cancel,
        )
        router.add("GET", r"/metrics", "metrics", self._handle_metrics)
        router.add("GET", r"/status", "status", self._handle_status)
        router.add("GET", r"/healthz", "healthz", self._handle_healthz)
        return router

    @property
    def router(self) -> Router:
        return self._router

    def count_request(self, name: str) -> None:
        with self._lock:
            self.requests[name] = self.requests.get(name, 0) + 1

    # -- endpoint implementations ------------------------------------------------
    def submit(
        self, tenant: Tenant, body: Dict[str, Any]
    ) -> Dict[str, Any]:
        """The POST /v1/jobs implementation (handler-independent, testable)."""
        if self.draining:
            raise HttpError(
                503, "daemon is draining; resubmit to the replacement"
            )
        sub = parse_submission(body)
        try:
            items, control_kwargs, layouts = self.specs.resolve(sub)
        except UnknownLayoutError as exc:
            raise HttpError(404, str(exc)) from exc
        except SimulationError as exc:
            raise HttpError(400, str(exc)) from exc
        priorities = self.registry.admit(tenant, len(items))
        job_set_id = f"js-{next(self._ids):06d}-{os.urandom(3).hex()}"
        record = _JobSetRecord(job_set_id, tenant, len(items), layouts)
        with self._lock:
            self._records[job_set_id] = record

        def on_result(job) -> None:
            record.append(job_event(job.tag, job))
            self.registry.release(tenant)

        # Stride-priced priorities are per job; the service accepts one
        # priority per submit call, so submit row-by-row into one JobSet —
        # submission stays cheap (the queue is the expensive part) and every
        # row keeps its fair-share position.
        try:
            jobset = None
            for index, (item, priority) in enumerate(zip(items, priorities)):
                part = self.service.submit(
                    [item],
                    priority=priority,
                    on_result=on_result,
                    tags=[index],
                    queue_capacity=sub.queue_capacity,
                    **control_kwargs,
                )
                if jobset is None:
                    jobset = part
                else:
                    for job in part.jobs:
                        jobset._add(job)
        except SimulationError as exc:
            # Nothing ran: give the quota slots back before failing.
            undone = len(items) - len(record.events)
            if undone:
                self.registry.release(tenant, undone)
            with self._lock:
                self._records.pop(job_set_id, None)
            raise HttpError(400, str(exc)) from exc
        record.jobset = jobset
        return {
            "job_set_id": job_set_id,
            "jobs": len(items),
            "layouts": layouts,
            "tenant": tenant.name,
        }

    def record_for(self, tenant: Tenant, job_set_id: str) -> _JobSetRecord:
        with self._lock:
            record = self._records.get(job_set_id)
        # Unknown and not-yours are indistinguishable on purpose.
        if record is None or record.tenant.name != tenant.name:
            raise HttpError(404, f"unknown job set {job_set_id!r}")
        return record

    def cancel(self, tenant: Tenant, job_set_id: str) -> Dict[str, Any]:
        record = self.record_for(tenant, job_set_id)
        cancelled = record.jobset.cancel() if record.jobset is not None else 0
        return {
            "job_set_id": job_set_id,
            "cancelled": cancelled,
            "done": record.done,
        }

    # -- metrics / status ----------------------------------------------------
    def metrics_text(self) -> str:
        """The Prometheus text-format snapshot ``GET /metrics`` serves."""
        stats = self.service.stats()
        cache = stats["cache"]
        supervision = stats["supervision"]
        uptime = max(time.time() - self.started, 1e-9)
        with self._lock:
            requests = dict(self.requests)
            rows_streamed = self.rows_streamed
            records = list(self._records.values())
        active = sum(1 for record in records if not record.done)
        lines: List[str] = []

        def metric(
            name: str, value, kind: str = "counter", help_text: str = "",
            labels: str = "",
        ) -> None:
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kind}")
            lines.append(f"{name}{labels} {_num(value)}")

        metric(
            "repro_server_uptime_seconds", uptime, "gauge",
            "Seconds since the daemon started.",
        )
        metric(
            "repro_server_rows_streamed_total", rows_streamed, "counter",
            "Result rows delivered over streaming responses.",
        )
        metric(
            "repro_server_throughput_rows_per_second",
            stats["evaluated"] / uptime, "gauge",
            "Evaluated rows per second of daemon uptime.",
        )
        metric(
            "repro_server_job_sets", len(records), "gauge",
            "Job sets tracked by the daemon.", labels='{state="all"}',
        )
        lines.append(f'repro_server_job_sets{{state="active"}} {active}')
        first = True
        for name in sorted(requests):
            metric(
                "repro_server_http_requests_total", requests[name],
                "counter",
                "HTTP requests by endpoint." if first else "",
                labels=f'{{handler="{name}"}}',
            )
            first = False
        for counter in (
            "submitted", "evaluated", "deduped", "cancelled", "failed",
            "retried",
        ):
            metric(
                f"repro_service_{counter}_total", stats[counter], "counter",
                f"Service jobs {counter}.",
            )
        metric(
            "repro_service_queue_depth", stats["queue_depth"], "gauge",
            "Jobs queued but not yet drained by the scheduler.",
        )
        metric(
            "repro_service_inflight", stats["inflight"], "gauge",
            "Content-addresses currently queued or evaluating.",
        )
        metric(
            "repro_service_cache_hit_rate", stats["cache_hit_rate"], "gauge",
            "Cache hits over lookups (derived in one stats snapshot).",
        )
        metric(
            "repro_service_dedup_rate", stats["dedup_rate"], "gauge",
            "In-flight piggybacks over submitted jobs.",
        )
        for counter in ("hits", "misses", "disk_hits", "disk_errors",
                        "corrupt_quarantined", "disk_evictions"):
            metric(
                f"repro_cache_{counter}_total", cache[counter], "counter",
                f"Result-cache {counter}.",
            )
        metric(
            "repro_cache_entries", cache["entries"], "gauge",
            "In-memory result-cache entries.",
        )
        for counter, value in supervision.items():
            if counter == "workers":
                continue
            metric(
                f"repro_supervision_{counter}_total", value, "counter",
                f"Supervised-pool {counter}.",
            )
        tenant_snapshot = self.registry.snapshot()
        first = True
        for name in sorted(tenant_snapshot):
            row = tenant_snapshot[name]
            label = f'{{tenant="{name}"}}'
            if first:
                lines.append(
                    "# HELP repro_tenant_rows_served_total Result rows "
                    "delivered per tenant."
                )
                lines.append("# TYPE repro_tenant_rows_served_total counter")
                first = False
            lines.append(
                f"repro_tenant_rows_served_total{label} {row['rows_served']}"
            )
            lines.append(f"repro_tenant_pending{label} {row['pending']}")
            lines.append(
                f"repro_tenant_admitted_total{label} {row['admitted']}"
            )
            lines.append(
                f"repro_tenant_rejected_total{label} {row['rejected']}"
            )
        return "\n".join(lines) + "\n"

    def status_text(self) -> str:
        """The plain-text admin page ``GET /status`` serves."""
        stats = self.service.stats()
        cache = stats["cache"]
        uptime = time.time() - self.started
        with self._lock:
            records = sorted(
                self._records.values(), key=lambda r: r.created
            )
            rows_streamed = self.rows_streamed
        lines = [
            "repro.server status",
            "===================",
            f"uptime:        {uptime:.1f}s"
            + ("  (DRAINING)" if self.draining else ""),
            f"tenancy:       "
            + ("open (no tokens configured)" if self.registry.open_access
               else f"{len(self.registry.tenants)} token(s)"),
            f"layouts:       {len(stats['layouts'])}",
            f"jobs:          {stats['submitted']} submitted, "
            f"{stats['evaluated']} evaluated, {stats['deduped']} deduped, "
            f"{stats['cancelled']} cancelled, {stats['failed']} failed",
            f"queue depth:   {stats['queue_depth']}",
            f"cache:         {cache['hits']} hits / {cache['misses']} misses "
            f"(hit rate {stats['cache_hit_rate']:.3f}, "
            f"{cache['disk_hits']} from disk)",
            f"dedup rate:    {stats['dedup_rate']:.3f}",
            f"rows streamed: {rows_streamed}",
            "",
            "tenants:",
        ]
        for name, row in sorted(self.registry.snapshot().items()):
            quota = (
                "∞" if row["max_pending"] is None else str(row["max_pending"])
            )
            lines.append(
                f"  {name:<16} prio={row['priority']} weight={row['weight']} "
                f"pending={row['pending']}/{quota} "
                f"admitted={row['admitted']} rejected={row['rejected']} "
                f"rows_served={row['rows_served']}"
            )
        lines.append("")
        lines.append(f"job sets ({len(records)}):")
        for record in records[-20:]:
            with record.cond:
                done = len(record.events)
            lines.append(
                f"  {record.job_set_id}  tenant={record.tenant.name} "
                f"{done}/{record.total} rows"
                + ("" if done == record.total else "  (running)")
            )
        return "\n".join(lines) + "\n"

    # -- handler callbacks (run on the request thread) --------------------------
    def _handle_submit(self, http: "_Handler", params: Dict[str, str]) -> None:
        tenant = http.authenticate()
        try:
            body = json.loads(http.read_body().decode("utf-8"))
        except ValueError as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")
        reply = self.submit(tenant, body)
        http.send_json(201, reply)

    def _handle_fetch(self, http: "_Handler", params: Dict[str, str]) -> None:
        tenant = http.authenticate()
        record = self.record_for(tenant, params["job_set_id"])
        timeout = http.query_float("timeout", default=300.0)
        record.wait_events(record.total - 1, timeout if timeout > 0 else 0)
        with record.cond:
            events = list(record.events)
        rows = sorted(events, key=lambda event: event["index"])
        self.registry.served(tenant, len(rows))
        http.send_json(
            200,
            {
                "job_set_id": record.job_set_id,
                "done": len(events) == record.total,
                "total": record.total,
                "rows": rows,
            },
        )

    def _handle_cancel(self, http: "_Handler", params: Dict[str, str]) -> None:
        tenant = http.authenticate()
        http.send_json(200, self.cancel(tenant, params["job_set_id"]))

    def _handle_stream(self, http: "_Handler", params: Dict[str, str]) -> None:
        tenant = http.authenticate()
        record = self.record_for(tenant, params["job_set_id"])
        cursor = int(http.query_float("from", default=0.0))
        if cursor < 0:
            raise HttpError(400, "'from' must be >= 0")
        binary = FRAMES_CONTENT in http.headers.get("Accept", "")
        attempt = next(record.stream_attempts)
        encode = encode_frame if binary else encode_sse
        http.begin_chunked(FRAMES_CONTENT if binary else SSE_CONTENT)
        while True:
            events = record.wait_events(cursor, timeout=None)
            for event in events:
                delay = faults.http_send_delay(cursor, attempt)
                if delay:
                    time.sleep(delay)
                if faults.should_http_disconnect(cursor, attempt):
                    # Chaos: die exactly like a snapped connection would —
                    # no end sentinel, no chunked terminator.
                    http.abort_connection()
                    return
                http.write_chunk(encode(event))
                cursor += 1
                self.registry.served(tenant)
                with self._lock:
                    self.rows_streamed += 1
            if cursor >= record.total:
                http.write_chunk(
                    encode(end_event(record.job_set_id, cursor))
                )
                http.end_chunked()
                return

    def _handle_metrics(self, http: "_Handler", params: Dict[str, str]) -> None:
        http.send_text(200, self.metrics_text(), "text/plain; version=0.0.4")

    def _handle_status(self, http: "_Handler", params: Dict[str, str]) -> None:
        http.send_text(200, self.status_text(), "text/plain; charset=utf-8")

    def _handle_healthz(self, http: "_Handler", params: Dict[str, str]) -> None:
        if self.draining:
            http.send_json(503, {"status": "draining"})
        else:
            http.send_json(200, {"status": "ok"})


def _num(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


class _Handler(BaseHTTPRequestHandler):
    """Thin request shell: routing, auth, body/query plumbing, encodings."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-server/1.0"

    # -- silence the default stderr-per-request logging ----------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    @property
    def app(self) -> ReproServer:
        return self.server.app  # type: ignore[attr-defined]

    # -- request plumbing ------------------------------------------------------
    def authenticate(self) -> Tenant:
        token = None
        auth = self.headers.get("Authorization", "")
        if auth.startswith("Bearer "):
            token = auth[len("Bearer "):].strip()
        if token is None:
            token = self.headers.get("X-Repro-Token")
        try:
            return self.app.registry.authenticate(token)
        except AuthError as exc:
            raise HttpError(401, str(exc)) from exc

    def read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length <= 0:
            raise HttpError(400, "request body required")
        return self.rfile.read(length)

    def query_float(self, name: str, default: float) -> float:
        query = parse_qs(urlsplit(self.path).query)
        if name not in query:
            return default
        try:
            return float(query[name][0])
        except ValueError:
            raise HttpError(400, f"query parameter {name!r} must be a number")

    # -- response encodings ------------------------------------------------------
    def send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        if status == 503:
            self.send_header("Retry-After", "1")
        self.send_header("Content-Type", JSON_CONTENT)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def begin_chunked(self, content_type: str) -> None:
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Cache-Control", "no-store")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

    def write_chunk(self, data: bytes) -> None:
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii"))
        self.wfile.write(data)
        self.wfile.write(b"\r\n")
        self.wfile.flush()

    def end_chunked(self) -> None:
        self.wfile.write(b"0\r\n\r\n")
        self.wfile.flush()

    def abort_connection(self) -> None:
        """Snap the TCP connection without any HTTP goodbye (chaos path)."""
        self.close_connection = True
        try:
            self.connection.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    # -- dispatch ---------------------------------------------------------------
    def _dispatch(self, method: str) -> None:
        path = urlsplit(self.path).path
        resolution = self.app.router.resolve(method, path)
        if resolution.route is None:
            if resolution.method_not_allowed:
                self.send_response(405)
                self.send_header("Allow", ", ".join(resolution.allowed))
                self.send_header("Content-Length", "0")
                self.end_headers()
            else:
                self.send_json(404, {"error": f"no such path {path!r}"})
            return
        self.app.count_request(resolution.route.name)
        try:
            resolution.route.handler(self, resolution.params)
        except HttpError as exc:
            self.send_json(exc.status, {"error": str(exc)})
        except (BrokenPipeError, ConnectionResetError):
            # The client went away mid-response; nothing to answer.
            self.close_connection = True
        except QuotaError as exc:
            self.send_json(429, {"error": str(exc)})
        except AuthError as exc:
            self.send_json(401, {"error": str(exc)})
        except SimulationError as exc:
            self.send_json(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - keep the daemon alive
            try:
                self.send_json(
                    500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except OSError:
                self.close_connection = True

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")
