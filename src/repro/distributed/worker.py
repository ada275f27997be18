"""The pull-based worker agent behind ``python -m repro worker``.

An agent connects to a coordinator, registers its (stable) worker id, and
then loops: request a lease, evaluate the shard with the exact same
function a local pool worker runs
(:func:`~repro.engine.supervised_pool.serve_shard` over a
:class:`~repro.engine.batch.RunnerStore` rebuilt from the batch payload),
publish the results, ask again.  The coordinator is
the only authority — the agent holds no queue state, so it can die,
reconnect, or be restarted at any moment and the system converges: the
register message is idempotent and a coordinator restart looks like an
ordinary reconnect from out here.

While a shard is being evaluated a daemon heartbeat thread renews the
lease every quarter of its duration.  Ordering matters for the chaos
suite: shard-level injected faults (``crash``/``hang``/``raise``) fire
*before* the heartbeat thread starts, so an injected hang blocks
heartbeats and the lease genuinely expires — modelling a whole-process
wedge, which is what a lost heartbeat means in production.  A slow-but-
healthy worker (``delay`` fault, firing after evaluation) keeps
heartbeating and keeps its lease.

Results are published through the content-addressed result cache when the
coordinator advertised a shared ``cache_dir`` (one ``put`` per item, the
frame carries only ``(key, label)`` pairs), inline otherwise.

Agents also keep a small cross-batch runner cache keyed by netlist content
digest (:class:`_RunnerCache`): successive batches of a sweep re-ship the
same netlists, and reusing the runner object carries its elaborated layouts,
compiled kernel functions and steady-state period memory to the next lease
instead of rebuilding them from the pickled spec every time.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Any, List, Optional, Tuple

from ..engine import faults
from ..engine.batch import RunnerStore, content_digest
from ..engine.faults import FaultPlan
from ..engine.supervised_pool import serve_shard
from .protocol import recv_message, send_message

#: Floor on the heartbeat interval, seconds.
MIN_HEARTBEAT_INTERVAL = 0.05

#: Default pause between reconnect attempts, seconds.
DEFAULT_RECONNECT_DELAY = 0.25


class _RunnerCache:
    """Small LRU of runners keyed by netlist content digest + build options.

    Agents serve many batches over their lifetime, and successive batches of
    a sweep usually re-ship the very same netlists.  Runners accumulate the
    expensive per-layout state as they evaluate — elaborated layouts,
    compiled kernel functions, steady-state period memory — so keeping the
    runner object alive across batches carries all of it to the next lease.
    The key is the netlist's :func:`~repro.engine.batch.content_digest`
    (the identity the result cache keys on too) plus the scalar build
    options of the work spec; a netlist that fails to pickle has no content
    identity and is simply not cached.
    """

    def __init__(self, maxsize: int = 8) -> None:
        self.maxsize = maxsize
        self._entries: dict = {}  # insertion-ordered: oldest first

    @staticmethod
    def key(spec: Tuple) -> Optional[Tuple]:
        digest = content_digest(spec[0])
        return None if digest is None else (digest, *spec[1:])

    def get(self, key: Tuple):
        runner = self._entries.pop(key, None)
        if runner is not None:
            self._entries[key] = runner  # refresh recency
        return runner

    def put(self, key: Tuple, runner) -> None:
        self._entries.pop(key, None)
        self._entries[key] = runner
        while len(self._entries) > self.maxsize:
            self._entries.pop(next(iter(self._entries)))

    def __len__(self) -> int:
        return len(self._entries)


class _Reconnect(Exception):
    """Internal: drop the connection and re-register (disconnect fault)."""


class _Shutdown(Exception):
    """Internal: the coordinator asked us to stop."""


class WorkerAgent:
    """One remote evaluation agent serving one coordinator.

    *mark_process* declares this process a worker for fault injection
    (enables ``crash`` faults, which ``os._exit`` the process); it is set
    by the CLI / subprocess entrypoint and left False for in-process agents
    (tests, benchmarks) where a crash fault must not kill the host.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        worker_id: Optional[str] = None,
        reconnect_delay: float = DEFAULT_RECONNECT_DELAY,
        connect_timeout: float = 5.0,
        mark_process: bool = False,
    ) -> None:
        self.host = host
        self.port = port
        self.worker_id = (
            worker_id or f"worker-{socket.gethostname()}-{os.getpid()}"
        )
        self.reconnect_delay = reconnect_delay
        self.connect_timeout = connect_timeout
        self.mark_process = mark_process
        self._stop = threading.Event()
        self._sock: Optional[socket.socket] = None
        self._send_lock = threading.Lock()
        #: Per-batch context from the last ``batch`` message.
        self._batch: Optional[Tuple[int, Any, str]] = None
        self._runners: Optional[RunnerStore] = None
        self._cache = None
        #: Cross-batch runner reuse (see :class:`_RunnerCache`) and the
        #: number of runner (re)builds it could not avoid — observable by
        #: tests and by anyone instrumenting agent behaviour.
        self._runner_cache = _RunnerCache()
        self.runner_builds = 0

    # -- lifecycle -----------------------------------------------------------
    def stop(self) -> None:
        """Ask the agent to exit its serve loop (thread-safe)."""
        self._stop.set()
        self._drop_socket()

    def run_forever(self) -> None:
        """Serve until :meth:`stop` or a coordinator ``shutdown`` message.

        Outer loop handles (re)connection: a lost coordinator is retried
        every ``reconnect_delay`` seconds, and re-registration is idempotent
        on the coordinator side, so agents may be started before the
        coordinator and survive its restarts.
        """
        faults.validate_env()
        faults.set_worker_identity(self.worker_id)
        if self.mark_process:
            faults.mark_worker()
        try:
            while not self._stop.is_set():
                try:
                    self._serve_connection()
                except _Shutdown:
                    return
                except _Reconnect:
                    continue  # injected disconnect: re-register immediately
                except (EOFError, OSError):
                    if self._stop.is_set():
                        return
                    if self._stop.wait(self.reconnect_delay):
                        return
        finally:
            self._drop_socket()

    # -- serve loop ----------------------------------------------------------
    def _serve_connection(self) -> None:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._batch = None  # context is per-connection: coordinator resends
        try:
            self._send(("register", self.worker_id))
            self._send(("request", self.worker_id))
            while not self._stop.is_set():
                message = recv_message(sock)
                kind = message[0]
                if kind == "batch":
                    self._install_batch(message)
                elif kind == "lease":
                    self._serve_lease(message)
                    self._send(("request", self.worker_id))
                elif kind == "shutdown":
                    raise _Shutdown()
        finally:
            self._drop_socket()

    def _install_batch(self, message: Tuple) -> None:
        _, batch_id, payload, controls, on_error, fault_json, cache_dir = message
        # A private store per agent, never a process global: in-process
        # agents (tests, benchmarks) share one interpreter, and simulator
        # state is not thread-safe.
        self._runners = RunnerStore(
            payload, cache=self._runner_cache, on_build=self._count_build
        )
        if fault_json is not None:
            faults.install(FaultPlan.from_json(fault_json))
        else:
            faults.uninstall()
        self._cache = None
        if cache_dir is not None:
            from ..service.cache import ResultCache

            self._cache = ResultCache(cache_dir=cache_dir)
        self._batch = (batch_id, controls, on_error)

    def _count_build(self) -> None:
        self.runner_builds += 1

    def _serve_lease(self, message: Tuple) -> None:
        _, batch_id, task_id, shard_id, attempt, items, lease_seconds = message
        if self._batch is None or self._batch[0] != batch_id:
            failure = ("WorkerCrashError: lease arrived before its batch context", None, False)
            self._send(("result", self.worker_id, batch_id, task_id, "error", failure))
            return
        _, controls, on_error = self._batch
        if faults.should_disconnect(shard_id, attempt):
            # Mid-shard disconnect: the lease dies with the connection.
            raise _Reconnect()
        heartbeat_done = threading.Event()
        beater = threading.Thread(
            target=self._heartbeat_loop,
            args=(heartbeat_done, batch_id, task_id, lease_seconds),
            daemon=True,
        )
        try:
            # Process faults fire before heartbeats start: an injected hang
            # blocks renewal and genuinely expires the lease.
            status, payload = serve_shard(
                self._runners, shard_id, attempt, items, controls, on_error,
                started=beater.start,
            )
            if status == "ok":
                payload = self._package(items, controls, payload)
            # Send-side faults model a slow or corrupting *link*, not a dead
            # worker: heartbeats keep running through the delay, so a
            # slow-but-healthy worker keeps its lease.
            delay = faults.send_delay(shard_id, attempt)
            if delay > 0:
                time.sleep(delay)
            corrupt = faults.should_corrupt_payload(shard_id, attempt)
            self._send(
                ("result", self.worker_id, batch_id, task_id, status, payload),
                corrupt=corrupt,
            )
        finally:
            heartbeat_done.set()
            if beater.ident is not None:
                beater.join(timeout=2.0)

    def _package(self, items, controls, results: List[Any]) -> Tuple[str, Any]:
        """Choose the result transport: shared cache tier, else inline."""
        if self._cache is not None:
            from ..service.cache import result_key

            pairs = []
            for (name, item), result in zip(items, results):
                key = result_key(self._runners[name], item, controls)
                if key is None:
                    return ("inline", results)
                self._cache.put(key, result)
                pairs.append((key, result.label))
            return ("cache", pairs)
        return ("inline", results)

    def _heartbeat_loop(
        self, done: threading.Event, batch_id: int, task_id: int,
        lease_seconds: float,
    ) -> None:
        interval = max(lease_seconds / 4.0, MIN_HEARTBEAT_INTERVAL)
        while not done.wait(interval):
            try:
                self._send(("heartbeat", self.worker_id, batch_id, task_id))
            except OSError:
                return

    # -- transport helpers ---------------------------------------------------
    def _send(self, message: Any, *, corrupt: bool = False) -> None:
        sock = self._sock
        if sock is None:
            raise OSError("agent has no connection")
        with self._send_lock:
            send_message(sock, message, corrupt=corrupt)

    def _drop_socket(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            # shutdown() first so a serve loop blocked in recv on another
            # thread wakes with EOF; close() alone leaves it pinned.
            for action in (lambda: sock.shutdown(socket.SHUT_RDWR), sock.close):
                try:
                    action()
                except OSError:
                    pass


def agent_main(
    host: str,
    port: int,
    worker_id: Optional[str] = None,
    reconnect_delay: float = DEFAULT_RECONNECT_DELAY,
) -> None:
    """Subprocess/CLI entrypoint: serve *host:port* until shutdown.

    Runs with ``mark_process=True`` so injected ``crash`` faults terminate
    the agent process — this function must own its process.
    """
    WorkerAgent(
        host,
        port,
        worker_id=worker_id,
        reconnect_delay=reconnect_delay,
        mark_process=True,
    ).run_forever()
