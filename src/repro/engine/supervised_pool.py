"""The batch executor: one dispatcher, two transports, one worker loop.

Batches of relay-station configurations are chunked into shards and fanned
out to workers.  Whoever the workers are, the same :class:`Dispatcher`
drives the batch and alone owns its state:

* the task set — the :class:`RetryLadder`, the pending queue, the
  outstanding tasks and the submission-order result slots;
* dispatch of ready tasks to idle agents;
* the ``RunControls.shard_timeout`` hard deadline (a shard that exceeds
  its wall-clock budget loses its agent and is requeued; requeuing is safe
  because workers never mutate the driver's state, DESIGN.md §8);
* completion — the ``BatchResult.attempts`` stamp and the check that a
  shard returns one result per item;
* give-up, when the transport has nobody left to lease to: unfinished
  slots stay ``None`` and the batch layer finishes them serially (with a
  warning carrying the supervision stats, so "parallelism unavailable"
  and "the workers kept dying" read differently).

Failed shards climb the shared ladder: retry with capped exponential
backoff, then bisection down to the poisoned item, which becomes a per-item
error row (the ``on_error="zero"`` row shape) while its siblings still
return real results — or is raised under ``on_error="raise"``.

A *transport* only moves leases and reports what happened to them.  This
module's :class:`SupervisedPool` is the local one: raw
``multiprocessing.Process`` workers on duplex pipes, multiplexed over
``multiprocessing.connection.wait``; a worker it loses (crash, timeout) is
killed and respawned within ``RESPAWN_BUDGET_PER_WORKER``.  The remote one
lives in :mod:`repro.distributed.coordinator` (socket leases, heartbeats,
worker quarantine).  On the worker side both run :func:`serve_shard`.

Results are deterministic: every shard lands in its submission-order slot
regardless of retry order, and a fault-free supervised run is bit-identical
to a serial run (property-tested in ``tests/test_supervision.py``).
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.exceptions import (
    LeaseExpiredError,
    ShardTimeoutError,
    SimulationError,
    WorkerCrashError,
)
from .faults import FaultPlan, install, mark_worker, maybe_fault_shard, set_shard_context
from .result import SupervisionStats

#: Ceiling on the exponential retry backoff, seconds.
BACKOFF_CAP = 1.0

#: Longest the dispatcher waits for transport events, seconds.  Events wake
#: it immediately; this only bounds how late a silent loss is noticed.
POLL_INTERVAL = 0.05

#: Respawn budget per local pool: ``RESPAWN_BUDGET_PER_WORKER × workers + 2``.
#: A pool that loses more workers than this is structurally broken (or
#: every shard is poisoned); further respawns would burn processes without
#: converging, so the pool gives up and the batch layer falls back to
#: serial evaluation of whatever is left.
RESPAWN_BUDGET_PER_WORKER = 2


@dataclass
class _Task:
    """One (sub-)shard in flight through the dispatcher."""

    task_id: int
    #: Original shard index (inherited by bisection children; what the
    #: fault plan's shard-level specs match on).
    shard_id: int
    #: Index of this task's first item in the flat submission-order list.
    start: int
    items: List[Any]
    #: Retry counter against ``max_shard_retries`` (reset by bisection).
    attempt: int = 0
    #: Total completed attempts over these items (survives bisection; the
    #: per-item ``BatchResult.attempts`` stamp).
    tries: int = 0
    #: Monotonic time before which the task must not be dispatched (backoff).
    ready: float = 0.0
    #: Most recent failure, for the quarantine row / raised error.
    last_error: str = ""


@dataclass
class _QuarantinedItem:
    """Marker slot: the batch layer turns it into a per-item error row."""

    item: Any
    error: str
    attempts: int


def _rebuild_error(summary: str, blob: Optional[bytes]) -> Exception:
    """Best-effort reconstruction of a worker-side failure for re-raising."""
    if blob is not None:
        try:
            return pickle.loads(blob)
        except Exception:  # noqa: BLE001 - fall through to summary form
            pass
    if summary.startswith("ShardTimeoutError"):
        return ShardTimeoutError(summary)
    if summary.startswith("LeaseExpiredError"):
        return LeaseExpiredError(summary)
    return WorkerCrashError(summary)


class RetryLadder:
    """The shard-failure policy: retry → backoff → bisect → quarantine.

    The ladder owns the *policy* — task ids, backoff schedule, bisection,
    quarantine rows — over the task set the :class:`Dispatcher` holds.
    Because both transports run under the one dispatcher, a poisoned item
    behaves identically whether it kills a local process or three remote
    workers in a row: same retry budget, same bisection, exactly one
    quarantine row.
    """

    def __init__(self, controls, on_error: str, stats: SupervisionStats) -> None:
        self.on_error = on_error
        self.max_shard_retries: int = controls.max_shard_retries
        self.retry_backoff: float = controls.retry_backoff
        self.stats = stats
        self._task_ids = itertools.count()

    def make_tasks(
        self, shard_lists: Sequence[Sequence[Any]]
    ) -> "tuple[List[_Task], List[Optional[Any]]]":
        """Build the task set and the flat submission-order result slots."""
        tasks: List[_Task] = []
        start = 0
        for shard_id, items in enumerate(shard_lists):
            tasks.append(
                _Task(
                    task_id=next(self._task_ids),
                    shard_id=shard_id,
                    start=start,
                    items=list(items),
                )
            )
            start += len(items)
        return tasks, [None] * start

    def backoff_for(self, attempt: int) -> float:
        return min(BACKOFF_CAP, self.retry_backoff * (2 ** (attempt - 1)))

    def task_failed(
        self, task: _Task, pending: List[_Task], outstanding: Dict[int, _Task],
        slots: List[Optional[Any]], *,
        summary: str, blob: Optional[bytes], deterministic: bool,
    ) -> None:
        """Route a failed attempt: raise, retry with backoff, bisect, quarantine.

        *deterministic* marks simulation errors that escaped the worker's
        per-item handling: retrying them is pointless, so they skip straight
        to bisection/quarantine (or re-raise under ``on_error="raise"``).
        """
        task.tries += 1
        task.last_error = summary
        if deterministic and self.on_error == "raise":
            raise _rebuild_error(summary, blob)
        if not deterministic and task.attempt < self.max_shard_retries:
            self.stats.retries += 1
            task.attempt += 1
            task.ready = time.monotonic() + self.backoff_for(task.attempt)
            pending.append(task)
            return
        if len(task.items) > 1:
            self.stats.bisections += 1
            outstanding.pop(task.task_id, None)
            mid = len(task.items) // 2
            for offset, part in ((0, task.items[:mid]), (mid, task.items[mid:])):
                child = _Task(
                    task_id=next(self._task_ids),
                    shard_id=task.shard_id,
                    start=task.start + offset,
                    items=part,
                    tries=task.tries,
                )
                outstanding[child.task_id] = child
                pending.append(child)
            return
        # A single item out of retries: quarantine (or surface the error).
        if self.on_error == "raise":
            raise _rebuild_error(summary, blob)
        self.stats.quarantined += 1
        outstanding.pop(task.task_id, None)
        slots[task.start] = _QuarantinedItem(
            item=task.items[0], error=summary, attempts=task.tries
        )

    @staticmethod
    def pop_ready(pending: List[_Task], now: float) -> Optional[_Task]:
        """Pop the first task whose backoff has elapsed (None if all waiting)."""
        for index, task in enumerate(pending):
            if task.ready <= now:
                return pending.pop(index)
        return None


class _Agent:
    """What the dispatcher tracks per worker: its lease and its record."""

    def __init__(self) -> None:
        self.task: Optional[_Task] = None
        #: ``shard_timeout`` deadline of the held task (None: no budget).
        self.hard_deadline: Optional[float] = None
        #: Shards this agent completed.
        self.completed = 0
        self.stats = SupervisionStats()


class Dispatcher:
    """Drives one batch of shards over a transport.

    The transport contract:

    * ``stats`` — the batch's :class:`SupervisionStats`;
    * ``idle()`` — the agents that may take a lease now;
    * ``send(agent, task)`` — ship a lease; False when the agent's transport
      is already gone (its loss then arrives as an event);
    * ``wait(timeout)`` — block up to *timeout* seconds, then yield events:
      ``("done", agent, task_id, status, payload)`` where *status* ``"ok"``
      carries the result list and ``"error"`` a ``(summary, blob,
      is_simulation_error)`` triple, or ``("lost", agent, summary)`` when
      the agent's lease is void — the transport has already applied its
      own loss policy by then;
    * ``fault(agent)`` — the dispatcher voided the agent's lease (timeout,
      malformed result): apply the loss policy;
    * ``exhausted(busy)`` — True to give up; *busy* says whether any agent
      holds a lease.
    """

    def __init__(self, transport, controls, on_error: str) -> None:
        self.transport = transport
        self.stats: SupervisionStats = transport.stats
        self.shard_timeout: Optional[float] = controls.shard_timeout
        self.ladder = RetryLadder(controls, on_error, self.stats)

    def run(self, shard_lists: Sequence[Sequence[Any]]) -> List[Optional[Any]]:
        """Evaluate every shard; returns per-item slots in submission order.

        Each slot is that item's result (possibly a quarantine marker) or
        ``None`` when the dispatcher gave up before the item completed.
        Raises the isolated failure instead of quarantining under
        ``on_error="raise"``.
        """
        tasks, self.slots = self.ladder.make_tasks(shard_lists)
        self.pending: List[_Task] = list(tasks)
        self.outstanding: Dict[int, _Task] = {t.task_id: t for t in tasks}
        #: Agents holding a lease (an insertion-ordered set).
        self.busy: Dict[_Agent, None] = {}
        try:
            while self.outstanding:
                now = time.monotonic()
                self._expire(now)
                self._dispatch(now)
                if not self.outstanding or self.transport.exhausted(bool(self.busy)):
                    break
                for event in self.transport.wait(self._timeout(now)):
                    self._handle(event)
        finally:
            for agent in list(self.busy):
                self._release(agent)
        return self.slots

    def _dispatch(self, now: float) -> None:
        for agent in self.transport.idle():
            task = RetryLadder.pop_ready(self.pending, now)
            if task is None:
                return
            if not self.transport.send(agent, task):
                self.pending.append(task)
                continue
            agent.task = task
            if self.shard_timeout is not None:
                agent.hard_deadline = now + self.shard_timeout
            self.busy[agent] = None

    def _timeout(self, now: float) -> float:
        wake = [now + POLL_INTERVAL]
        wake += [a.hard_deadline for a in self.busy if a.hard_deadline is not None]
        wake += [t.ready for t in self.pending if t.ready > now]
        return max(0.0, min(wake) - now)

    def _expire(self, now: float) -> None:
        """Void the leases that ran past ``shard_timeout``."""
        for agent in list(self.busy):
            if agent.hard_deadline is not None and now >= agent.hard_deadline:
                task = self._release(agent)
                self.stats.timeouts += 1
                agent.stats.timeouts += 1
                self.transport.fault(agent)
                self._lost(
                    task, f"ShardTimeoutError: exceeded shard_timeout="
                    f"{self.shard_timeout}s",
                )

    def _handle(self, event: Tuple) -> None:
        agent = event[1]
        task = agent.task
        if event[0] == "lost":
            if task is not None:
                self._release(agent)
                self._lost(task, event[2])
            return
        _, _, task_id, status, payload = event
        if task is None or task.task_id != task_id:
            return  # stale: the lease already moved on
        self._release(agent)
        if status != "ok":
            summary, blob, is_sim = payload
            self._fail(task, summary, blob, is_sim)
        elif len(payload) != len(task.items):
            self.transport.fault(agent)
            self._lost(
                task, f"WorkerCrashError: returned {len(payload)} results "
                f"for {len(task.items)} items",
            )
        else:
            for result in payload:
                result.attempts = task.tries + 1
            self.slots[task.start : task.start + len(payload)] = payload
            self.outstanding.pop(task.task_id, None)
            agent.completed += 1

    def _release(self, agent: _Agent) -> Optional[_Task]:
        task, agent.task, agent.hard_deadline = agent.task, None, None
        self.busy.pop(agent, None)
        return task

    def _lost(self, task: _Task, summary: str) -> None:
        """A transport-level loss: never deterministic, always retryable."""
        self._fail(
            task, f"{summary} on shard {task.shard_id} attempt {task.attempt}"
        )

    def _fail(
        self, task: _Task, summary: str, blob: Optional[bytes] = None,
        deterministic: bool = False,
    ) -> None:
        self.ladder.task_failed(
            task, self.pending, self.outstanding, self.slots,
            summary=summary, blob=blob, deterministic=deterministic,
        )


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def serve_shard(
    runners, shard_id: int, attempt: int, items: Sequence[Any], controls,
    on_error: str, started: Optional[Callable[[], None]] = None,
) -> Tuple[str, Any]:
    """Evaluate one leased shard on a worker, local process or remote agent.

    Runs the shard-level fault hook, then *started* (the remote agent starts
    its heartbeats there, so an injected hang blocks them), then the shard.
    Returns ``("ok", results)`` or ``("error", (summary, pickled exception
    or None, is_simulation_error))``.
    """
    from .batch import _evaluate_shard

    set_shard_context(shard_id, attempt)
    try:
        maybe_fault_shard(shard_id, attempt)
        if started is not None:
            started()
        return "ok", _evaluate_shard(runners, items, controls, on_error)
    except Exception as exc:  # noqa: BLE001 - shipped to the dispatcher
        try:
            blob: Optional[bytes] = pickle.dumps(exc)
        except Exception:  # noqa: BLE001 - unpicklable exception payload
            blob = None
        return "error", (
            f"{type(exc).__name__}: {exc}", blob, isinstance(exc, SimulationError)
        )


def _worker_main(conn, source, fault_json: Optional[str], controls, on_error: str) -> None:
    """Local worker process body: serve shard leases until told to quit.

    *source* is either the pickled runner specs (rebuilt lazily, once per
    layout) or, under fork, the driver's own runner mapping, inherited.
    Messages in: ``(task_id, shard_id, attempt, items)`` or ``None`` (quit).
    Messages out: ``(task_id, status, payload)`` from :func:`serve_shard`.
    """
    from .batch import RunnerStore

    runners = RunnerStore(source) if isinstance(source, bytes) else source
    mark_worker()
    if fault_json is not None:
        install(FaultPlan.from_json(fault_json))
    while True:
        try:
            lease = conn.recv()
        except (EOFError, OSError):
            break
        if lease is None:
            break
        task_id, shard_id, attempt, items = lease
        try:
            conn.send(
                (task_id, *serve_shard(runners, shard_id, attempt, items, controls, on_error))
            )
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:
        pass


# ---------------------------------------------------------------------------
# The local transport
# ---------------------------------------------------------------------------

class _Worker(_Agent):
    """One local worker process and its duplex pipe."""

    def __init__(self, ctx, source, fault_json, controls, on_error) -> None:
        super().__init__()
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, source, fault_json, controls, on_error),
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def reap(self, kill: bool = False) -> None:
        """Shut the worker down, escalating politely → terminate → kill."""
        if self.process.is_alive() and not kill:
            try:
                self.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        try:
            self.conn.close()
        except OSError:
            pass
        self.process.join(timeout=0.1 if kill else 2.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
        if self.process.is_alive():  # pragma: no cover - stuck in the kernel
            self.process.kill()
            self.process.join(timeout=1.0)
        # Release the process object's pipes/fds promptly.
        self.process.close()


class SupervisedPool:
    """Local transport: shards on ``multiprocessing`` children over pipes.

    One instance serves one ``run()`` call (the batch layer constructs it
    per pooled batch); the interesting state it leaves behind is
    :attr:`stats`.  *source* seeds the workers: the pickled runner specs
    (works under every start method) or, with ``method="fork"``, the
    driver's runner mapping itself, inherited by the children — how
    unpicklable netlists and controls reach workers.  *controls* carries
    the supervision knobs and *fault_json* the driver's fault plan.
    """

    giveup_reason = "worker pool kept failing"

    def __init__(
        self,
        source,
        method: str,
        processes: int,
        controls,
        on_error: str,
        fault_json: Optional[str] = None,
    ) -> None:
        if processes < 1:
            raise SimulationError("SupervisedPool needs at least one worker")
        self.source = source
        self.method = method
        self.processes = processes
        self.controls = controls
        self.on_error = on_error
        self.fault_json = fault_json
        self.stats = SupervisionStats()
        self.workers: List[_Worker] = []

    def run(self, shard_lists: Sequence[Sequence[Any]]) -> List[Optional[Any]]:
        """Evaluate every shard (see :meth:`Dispatcher.run`); ``None`` slots
        are the ones the pool gave up on, for the caller to finish serially."""
        self._ctx = multiprocessing.get_context(self.method)
        self.workers = [
            self._spawn() for _ in range(min(self.processes, len(shard_lists)))
        ]
        self.max_respawns = RESPAWN_BUDGET_PER_WORKER * len(self.workers) + 2
        try:
            return Dispatcher(self, self.controls, self.on_error).run(shard_lists)
        finally:
            for worker in self.workers:
                worker.reap()

    # -- transport -----------------------------------------------------------
    def idle(self) -> List[_Worker]:
        return [worker for worker in self.workers if worker.task is None]

    def send(self, worker: _Worker, task: _Task) -> bool:
        try:
            worker.conn.send((task.task_id, task.shard_id, task.attempt, task.items))
        except (BrokenPipeError, OSError):
            return False  # the liveness sweep reports the death
        return True

    def wait(self, timeout: float):
        # Idle workers' pipes are watched too: they only turn readable at
        # EOF, so a worker dying between leases is noticed at once.
        ready = _connection_wait([worker.conn for worker in self.workers], timeout)
        for worker in list(self.workers):
            if worker.conn in ready:
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    message = None
                if message is not None:
                    yield ("done", worker, *message)
                    continue
            elif worker.process.is_alive():
                continue
            exitcode = worker.process.exitcode
            self.fault(worker)
            yield ("lost", worker, f"WorkerCrashError: worker died (exit code {exitcode})")

    def fault(self, worker: _Worker) -> None:
        """Kill the worker (dead, wedged or broken) and respawn within budget."""
        self.workers.remove(worker)
        worker.reap(kill=True)
        self.stats.respawns += 1
        if self.stats.respawns <= self.max_respawns:
            self.workers.append(self._spawn())

    def exhausted(self, busy: bool) -> bool:
        return not self.workers

    def _spawn(self) -> _Worker:
        return _Worker(
            self._ctx, self.source, self.fault_json, self.controls, self.on_error
        )
