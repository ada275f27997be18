"""The distributed transport: remote agents on sockets, under leases.

The coordinator owns everything; workers own nothing.  Remote agents pull
work (``request``), hold one shard at a time under a **time-bounded lease**
renewed by heartbeats, and push back a result — they never mutate any
coordinator state directly.  That asymmetry is what makes recovery sound:
when a lease expires (dead worker, dropped link, wedged simulation — the
coordinator cannot tell which, and does not need to), requeuing the shard
is always safe, because evaluation is deterministic and a worker that
finishes after losing its lease has produced a result the coordinator
simply ignores (DESIGN.md §8).

The batch itself is driven by the same
:class:`~repro.engine.supervised_pool.Dispatcher` that drives the local
pool — task set, dispatch, ``shard_timeout``, completion, give-up and the
retry → bisection → quarantine ladder are one implementation, so a
poisoned item that kills three remote workers quarantines exactly like one
that kills three local processes.  This module is only the transport
(:class:`_RemoteBatch`, one per batch): it ships leases, renews them on
heartbeats and expires them, reads results (through the shared
:class:`~repro.service.cache.ResultCache` when coordinator and workers
share a cache directory, inline otherwise; every frame is checksummed by
the protocol layer), and applies its loss policy — *worker* quarantine: an
agent whose connection keeps faulting (disconnects mid-shard, expired
leases, corrupt payloads, timeouts) stops receiving leases after
``worker_fault_limit`` strikes, with per-worker
:class:`~repro.engine.result.SupervisionStats` kept for
``EvaluationService.stats()["supervision"]["workers"]``.  With nothing
connected for ``reconnect_grace`` seconds the batch gives up and the caller
finishes serially.

Threading model: an accept thread plus one reader thread per connection do
nothing but push events onto one queue; the batch thread is its only
consumer and the only place batch state is touched.  Worker records are
shared with the handshake path and guarded by one lock.
"""

from __future__ import annotations

import itertools
import queue
import socket
import threading
import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.exceptions import PayloadChecksumError, SimulationError
from ..engine.result import SupervisionStats
from ..engine.supervised_pool import Dispatcher, _Agent, _Task
from .protocol import recv_message, send_message

#: Default lease duration, seconds.  Heartbeats arrive every quarter lease,
#: so a lease expiry means ~4 consecutive missed heartbeats — comfortably a
#: dead or wedged worker, not a scheduling hiccup.
DEFAULT_LEASE_SECONDS = 5.0

#: Transport faults (disconnect mid-shard, lease expiry, corrupt payload,
#: shard timeout) a worker may cause before it stops receiving leases.
DEFAULT_WORKER_FAULT_LIMIT = 3

#: How long a batch waits for a worker to (re)appear once nothing is
#: connected and nothing is leased, before giving up and leaving the
#: remaining slots to the caller's local fallback.
DEFAULT_RECONNECT_GRACE = 1.0


class _RemoteWorker(_Agent):
    """One known worker id: transport may come and go, history persists."""

    def __init__(self, worker_id: str) -> None:
        super().__init__()
        self.worker_id = worker_id
        self.sock: Optional[socket.socket] = None
        self.send_lock = threading.Lock()
        #: Bumped on every (re)registration; events from readers of older
        #: connections are recognised as stale and ignored.
        self.generation = 0
        self.connected = False
        self.quarantined = False
        #: Transport faults attributed to this worker (strikes).
        self.faults = 0
        #: Lease deadline — pushed forward by every heartbeat (the
        #: ``shard_timeout`` deadline is the dispatcher's, and heartbeats
        #: cannot extend it).
        self.deadline = 0.0
        self.wants_work = False
        #: Batch whose context ("batch" message) this connection has seen.
        self.batch_id: Optional[int] = None

    def send(self, message: Any, *, corrupt: bool = False) -> bool:
        """Send on the current transport; False when it is gone."""
        sock = self.sock
        if sock is None:
            return False
        try:
            with self.send_lock:
                send_message(sock, message, corrupt=corrupt)
        except OSError:
            return False
        return True


class Coordinator:
    """Listens for worker agents and drives batches across them.

    One coordinator serves many batches over its lifetime (the evaluation
    service holds one for the whole session); batches run one at a time,
    each on the transport :meth:`transport` returns.  With no agents
    connected, :meth:`available_workers` returns 0 and the batch layer
    never routes work here — degradation to the local supervised pool is
    the caller's one-line check away.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        worker_fault_limit: int = DEFAULT_WORKER_FAULT_LIMIT,
        reconnect_grace: float = DEFAULT_RECONNECT_GRACE,
        cache_dir: Optional[str] = None,
    ) -> None:
        if lease_seconds <= 0:
            raise SimulationError("lease_seconds must be positive")
        if worker_fault_limit < 1:
            raise SimulationError("worker_fault_limit must be at least 1")
        self.lease_seconds = float(lease_seconds)
        self.worker_fault_limit = worker_fault_limit
        self.reconnect_grace = float(reconnect_grace)
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self._cache = None
        if self.cache_dir is not None:
            from ..service.cache import ResultCache

            self._cache = ResultCache(cache_dir=self.cache_dir)
        self._server = socket.create_server((host, port), reuse_port=False)
        self.host, self.port = self._server.getsockname()[:2]
        self._events: "queue.SimpleQueue[Tuple]" = queue.SimpleQueue()
        self._workers: Dict[str, _RemoteWorker] = {}
        self._lock = threading.RLock()
        self._batch_ids = itertools.count(1)
        self._batch_lock = threading.Lock()
        self._closed = False
        #: Merged recovery counters across every batch this coordinator ran.
        self.supervision = SupervisionStats()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-coordinator-accept", daemon=True
        )
        self._accept_thread.start()

    # -- public surface ------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def transport(
        self, payload: bytes, controls, on_error: str,
        fault_json: Optional[str] = None,
    ) -> "_RemoteBatch":
        """The transport for one batch: ``run(shard_lists)`` and ``stats``,
        with the slot contract of :meth:`Dispatcher.run`."""
        return _RemoteBatch(self, payload, controls, on_error, fault_json)

    def available_workers(self) -> int:
        """Connected, non-quarantined agents — what the batch layer gates on."""
        with self._lock:
            return sum(
                1
                for worker in self._workers.values()
                if worker.connected and not worker.quarantined
            )

    def wait_for_workers(self, count: int, timeout: float = 10.0) -> bool:
        """Block until *count* agents are available (False on timeout)."""
        deadline = time.monotonic() + timeout
        while self.available_workers() < count:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.02)
        return True

    def worker_stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-worker supervision record, keyed by worker id."""
        with self._lock:
            return {
                worker.worker_id: {
                    "connected": worker.connected,
                    "quarantined": worker.quarantined,
                    "faults": worker.faults,
                    "completed": worker.completed,
                    "supervision": worker.stats.to_dict(),
                }
                for worker in self._workers.values()
            }

    def close(self) -> None:
        """Shut down: tell agents to stop, close every transport."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
        # shutdown() before close(): merely closing a listening socket does
        # not wake a thread blocked in accept() on it, which would leave the
        # accept loop alive to serve one more connection.
        for action in (
            lambda: self._server.shutdown(socket.SHUT_RDWR),
            self._server.close,
        ):
            try:
                action()
            except OSError:
                pass
        for worker in workers:
            worker.send(("shutdown",))
            sock = worker.sock
            if sock is not None:
                self._close_socket(sock)
            worker.connected = False
            worker.sock = None

    # -- connection plumbing -------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._server.accept()
            except OSError:
                return  # server socket closed
            threading.Thread(
                target=self._handshake, args=(conn,), daemon=True
            ).start()

    def _handshake(self, conn: socket.socket) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            message = recv_message(conn)
        except Exception:  # noqa: BLE001 - bad first frame: not a worker
            self._close_socket(conn)
            return
        if (
            not isinstance(message, tuple)
            or len(message) != 2
            or message[0] != "register"
            or not isinstance(message[1], str)
        ):
            self._close_socket(conn)
            return
        worker_id = message[1]
        with self._lock:
            if self._closed:
                self._close_socket(conn)
                return
            worker = self._workers.get(worker_id)
            if worker is None:
                worker = _RemoteWorker(worker_id)
                self._workers[worker_id] = worker
            # Idempotent re-registration: replace the transport, keep the
            # history (fault strikes, quarantine, stats survive reconnects).
            old_sock = worker.sock
            worker.generation += 1
            worker.sock = conn
            worker.connected = True
            worker.wants_work = False
            worker.batch_id = None  # a fresh connection must re-receive context
            generation = worker.generation
        if old_sock is not None:
            self._close_socket(old_sock)
            # A shard leased on the dead connection is gone with it.
            self._events.put(("reconnected", worker))
        threading.Thread(
            target=self._reader,
            args=(worker, generation, conn),
            name=f"repro-coordinator-read-{worker_id}",
            daemon=True,
        ).start()

    def _reader(self, worker: _RemoteWorker, generation: int, conn) -> None:
        while True:
            try:
                message = recv_message(conn)
            except PayloadChecksumError:
                self._events.put(("corrupt", worker, generation))
                continue  # frame sync is intact: keep reading
            except (EOFError, OSError):
                self._events.put(("gone", worker, generation))
                return
            self._events.put(("message", worker, generation, message))

    @staticmethod
    def _close_socket(sock: socket.socket) -> None:
        # shutdown() before close(): close() alone does not sever a
        # connection whose fd another thread is blocked reading — the
        # in-flight recv pins the file description, so the peer never
        # sees FIN and the reader thread never wakes.
        for action in (lambda: sock.shutdown(socket.SHUT_RDWR), sock.close):
            try:
                action()
            except OSError:
                pass


class _RemoteBatch:
    """The transport of one batch: leases to remote agents over sockets.

    See :class:`~repro.engine.supervised_pool.Dispatcher` for the contract;
    a ``None`` slot means the batch gave up on that item (no workers left)
    and the caller finishes it locally.
    """

    giveup_reason = "distributed workers unavailable or kept failing"

    def __init__(self, coordinator: Coordinator, payload, controls, on_error, fault_json):
        self.coordinator = coordinator
        self.payload, self.controls, self.on_error = payload, controls, on_error
        self.fault_json = fault_json
        self.cache_dir = coordinator.cache_dir
        self.stats = SupervisionStats()
        self.batch_id: Optional[int] = None
        self._idle_since: Optional[float] = None

    def run(self, shard_lists: Sequence[Sequence[Any]]) -> List[Optional[Any]]:
        coordinator = self.coordinator
        if coordinator._closed:
            raise SimulationError("coordinator is closed")
        with coordinator._batch_lock:
            self.batch_id = next(coordinator._batch_ids)
            try:
                return Dispatcher(self, self.controls, self.on_error).run(shard_lists)
            finally:
                coordinator.supervision.merge(self.stats)

    # -- transport -----------------------------------------------------------
    def idle(self) -> List[_RemoteWorker]:
        with self.coordinator._lock:
            return [
                worker
                for worker in self.coordinator._workers.values()
                if worker.connected and not worker.quarantined
                and worker.wants_work and worker.task is None
            ]

    def send(self, worker: _RemoteWorker, task: _Task) -> bool:
        coordinator = self.coordinator
        with coordinator._lock:
            if not worker.wants_work:
                return False  # re-registered since idle(): await its request
            if worker.batch_id != self.batch_id:
                context = (
                    "batch", self.batch_id, self.payload, self.controls,
                    self.on_error, self.fault_json, self.cache_dir,
                )
                if not worker.send(context):
                    return False
                worker.batch_id = self.batch_id
            lease = (
                "lease", self.batch_id, task.task_id, task.shard_id,
                task.attempt, task.items, coordinator.lease_seconds,
            )
            if not worker.send(lease):
                return False
            worker.wants_work = False
            worker.deadline = time.monotonic() + coordinator.lease_seconds
            return True

    def wait(self, timeout: float):
        coordinator = self.coordinator
        now = time.monotonic()
        with coordinator._lock:
            holders = [w for w in coordinator._workers.values() if w.task is not None]
        expired = [worker for worker in holders if now >= worker.deadline]
        for worker in expired:
            self.stats.lease_expiries += 1
            worker.stats.lease_expiries += 1
            self._strike(worker)
            yield (
                "lost", worker, f"LeaseExpiredError: worker "
                f"{worker.worker_id!r} lease expired without a heartbeat",
            )
        if expired:
            return
        timeout = min([timeout, *(worker.deadline - now for worker in holders)])
        try:
            event = coordinator._events.get(timeout=max(0.0, timeout))
        except queue.Empty:
            return
        while True:
            translated = self._translate(event)
            if translated is not None:
                yield translated
            try:
                event = coordinator._events.get_nowait()
            except queue.Empty:
                return

    def fault(self, worker: _RemoteWorker) -> None:
        self._strike(worker)

    def exhausted(self, busy: bool) -> bool:
        coordinator = self.coordinator
        if coordinator._closed:
            return True
        now = time.monotonic()
        if busy or coordinator.available_workers() > 0:
            self._idle_since = None
        elif self._idle_since is None:
            self._idle_since = now
        return (
            self._idle_since is not None
            and now - self._idle_since >= coordinator.reconnect_grace
        )

    # -- events --------------------------------------------------------------
    def _translate(self, event: Tuple) -> Optional[Tuple]:
        """One connection event as a dispatcher event (None: nothing to do).

        Called lazily, just before the dispatcher handles the event, so the
        lease state it reads is current.
        """
        kind, worker = event[0], event[1]
        if kind == "reconnected":
            return self._lost(worker, "reconnected")
        with self.coordinator._lock:
            if event[2] != worker.generation:
                return None  # a newer connection already replaced this one
            if kind == "gone":
                worker.connected = False
                worker.sock = None
        if kind == "gone":
            return self._lost(worker, "disconnected")
        if kind == "corrupt":
            self.stats.corrupt_payloads += 1
            worker.stats.corrupt_payloads += 1
            self._strike(worker)
            return (
                "lost", worker, f"PayloadChecksumError: result frame from "
                f"worker {worker.worker_id!r} failed its checksum",
            )
        message = event[3]
        if not isinstance(message, tuple):
            return None
        task = worker.task
        if message[0] == "request":
            with self.coordinator._lock:
                worker.wants_work = True
        elif message[0] == "heartbeat":
            _, _worker_id, batch_id, task_id = message
            if batch_id == self.batch_id and task is not None and task.task_id == task_id:
                worker.deadline = time.monotonic() + self.coordinator.lease_seconds
        elif message[0] == "result":
            _, _worker_id, batch_id, task_id, status, payload = message
            if batch_id != self.batch_id or task is None or task.task_id != task_id:
                return None  # late: an older batch, or the lease moved on
            if status == "ok":
                mode, payload = payload
                if mode == "cache":
                    payload = self._fetch_cached(payload)
                    if payload is None:
                        return self._cache_missing(worker)
            return ("done", worker, task_id, status, payload)
        return None

    def _lost(self, worker: _RemoteWorker, what: str) -> Tuple:
        if worker.task is not None:
            self._strike(worker)
        return ("lost", worker, f"WorkerCrashError: worker {worker.worker_id!r} {what}")

    def _strike(self, worker: _RemoteWorker) -> None:
        """One strike; at the limit the worker stops receiving leases."""
        with self.coordinator._lock:
            worker.faults += 1
            if not worker.quarantined and worker.faults >= self.coordinator.worker_fault_limit:
                worker.quarantined = True
                self.stats.workers_quarantined += 1
                worker.stats.workers_quarantined += 1

    def _cache_missing(self, worker: _RemoteWorker) -> Tuple:
        """The cache dir turned out not to be shared (or entries were evicted
        between publish and read): degrade the whole batch to inline
        transfer and retry.  Resetting ``batch_id`` forces the revised
        context onto every worker before its next lease.  Not the worker's
        fault, so no strike."""
        self.cache_dir = None
        with self.coordinator._lock:
            for other in self.coordinator._workers.values():
                other.batch_id = None
        return (
            "lost", worker, f"WorkerCrashError: worker {worker.worker_id!r} "
            "published results by cache key but entries were missing; "
            "falling back to inline transfer",
        )

    def _fetch_cached(self, pairs) -> Optional[List[Any]]:
        """Read worker-published results back out of the shared cache tier."""
        cache = self.coordinator._cache
        if cache is None:
            return None
        results = []
        for key, label in pairs:
            cached = cache.get(key, count=False)
            if cached is None:
                return None
            # Always copy: memory-tier objects are shared, and the attempts
            # stamp must not mutate another reader's result.
            results.append(replace(cached, label=label))
        return results
