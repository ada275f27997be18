"""The evaluation service: many submitters, one pool, zero repeated work.

:class:`EvaluationService` turns the batch engine into a long-lived,
serveable subsystem.  Any number of concurrent submitters (sweep loops,
optimiser strategies, Table 1 harnesses, CLI invocations) hand it tagged
batch items; one scheduler thread multiplexes them — in priority order —
onto a single persistent :class:`~repro.engine.batch.MultiNetlistRunner`.
A job's result depends only on its own request, never on which jobs the
service evaluated before it.  Results come back three ways: the async
iterator (``async for job in service.stream(items, ...)``), the synchronous
completion-order generator (:meth:`JobSet.results`), and per-job completion
callbacks (``submit(..., on_result=...)``).

Three layers keep repeated work at zero:

1. **result cache** — every request is content-addressed (see
   :mod:`repro.service.cache`); a hit completes the job at submit time
   without ever touching the scheduler;
2. **in-flight dedup** — a request whose address matches a job that is
   queued or running attaches to it as a *follower* and receives a copy of
   the result when the primary completes: two optimiser strategies (or two
   asyncio tasks) racing over the same candidate cost one simulation;
3. **warm layouts** — each registered layout is elaborated once, and the
   generated kernel code is shared per netlist shape across jobs.

Execution is chunked: the scheduler drains up to one *chunk* of jobs per
step (respecting priorities), evaluates the chunk through the pool
(``workers`` processes, fork- and spawn-safe — the batch layer's machinery),
and completes the chunk's jobs before draining the next.  With serial
workers the chunk size is 1, which is what makes long sweeps *stream*:
row k is delivered while row k+1 simulates.

The service is fault-tolerant end to end (DESIGN.md §8).  Per-item failures
never surface here — the supervised pool under ``run_many`` quarantines them
into error rows — but a chunk evaluation can still *raise* (give-up after
respawn-budget exhaustion with serial fallback also failing, a corrupted
work spec, resource exhaustion in the driver).  Such jobs are not doomed on
first strike: each is re-enqueued until its ``max_job_attempts`` budget runs
out, and only then fails terminally (``job.error`` carries the last
message).  ``max_pending`` bounds the submission queue — ``submit()`` blocks
(outside every lock) until room frees up, so a fast producer cannot race
unbounded memory ahead of the pool.  ``close(cancel_pending=True)`` is also
bounded: it joins the scheduler thread for ``join_timeout`` seconds and, if
a wedged evaluation keeps the thread alive past that, *fails* the in-flight
jobs rather than orphaning their submitters on a wait that never returns.
"""

from __future__ import annotations

import itertools
import math
import queue
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.exceptions import SimulationError
from ..core.golden import replays_loop
from ..core.netlist import Netlist
from ..core.relay_station import RelayStation
from ..core.shell import DEFAULT_QUEUE_CAPACITY
from ..engine.batch import (
    BatchItem,
    BatchRunner,
    MultiNetlistRunner,
    TaggedItem,
)
from ..engine.kernel import RunControls, resolve_kernel_name
from ..engine.result import SupervisionStats
from .cache import ResultCache, relabel, result_key
from .jobs import Job, JobSet, JobStatus

#: Queue entry sorting: (priority, submission sequence) — lower runs first,
#: FIFO within one priority level.  The sentinel sorts after everything, so
#: `close()` drains gracefully.
_SENTINEL_PRIORITY = math.inf


class EvaluationService:
    """Async streaming evaluation scheduler over one persistent runner pool.

    Parameters
    ----------
    runners:
        Initial layouts, ``{name: BatchRunner}`` (more can be registered
        later through :meth:`add_layout` / :meth:`ensure_layout`).  May be
        empty — the optimiser and sweep integrations register theirs on
        first use.
    cache:
        The :class:`~repro.service.cache.ResultCache` to consult; None
        builds a default in-memory cache (pass one with ``cache_dir`` for
        the persistent disk tier).
    workers / start_method:
        Fan-out of each evaluated chunk, forwarded to
        :meth:`~repro.engine.batch.MultiNetlistRunner.run_many` (fork- and
        spawn-safe; serial when 1).
    chunk_size:
        Jobs evaluated per scheduler step.  None picks 1 for serial workers
        (finest streaming granularity) and ``4 × workers`` otherwise.
    autostart:
        Start the scheduler thread on first submit (default).  Tests pass
        False to stage jobs and observe dedup deterministically, then call
        :meth:`start`.
    max_job_attempts:
        Times one job may *begin* evaluating before a raising chunk makes
        its failure terminal (default 2: one retry).  Per-item simulation
        errors are not attempts — they come back as error rows, not raises.
    max_pending:
        Bound on jobs queued but not yet evaluated; ``submit()`` blocks
        until room frees up.  None (default) leaves the queue unbounded.
    coordinator:
        A :class:`repro.distributed.Coordinator` to fan chunks out across
        remote worker agents.  With live agents connected, chunk evaluation
        routes over the wire (lease/heartbeat supervision, same
        retry/quarantine ladder); with none, the local pool path runs
        untouched.  The service does not own the coordinator's lifecycle —
        the creator closes it.
    join_timeout:
        Seconds ``close(cancel_pending=True)`` waits for the scheduler
        thread before declaring the in-flight chunk abandoned and failing
        its jobs (an explicit ``close(timeout=...)`` overrides it).
    """

    def __init__(
        self,
        runners: Optional[Mapping[str, BatchRunner]] = None,
        *,
        cache: Optional[ResultCache] = None,
        workers: int = 1,
        chunk_size: Optional[int] = None,
        start_method: Optional[str] = None,
        autostart: bool = True,
        max_job_attempts: int = 2,
        max_pending: Optional[int] = None,
        join_timeout: float = 10.0,
        coordinator: Optional[object] = None,
    ) -> None:
        if max_job_attempts < 1:
            raise SimulationError(
                f"max_job_attempts must be >= 1, got {max_job_attempts}"
            )
        if max_pending is not None and max_pending < 1:
            raise SimulationError(
                f"max_pending must be >= 1 (or None), got {max_pending}"
            )
        self.cache = cache if cache is not None else ResultCache()
        self.workers = workers
        self.chunk_size = chunk_size
        self.start_method = start_method
        self.autostart = autostart
        self.max_job_attempts = max_job_attempts
        self.join_timeout = join_timeout
        self.coordinator = coordinator
        #: Backpressure: one slot per queued-but-not-yet-drained job.
        self._pending: Optional[threading.Semaphore] = (
            threading.Semaphore(max_pending) if max_pending is not None else None
        )
        self._lock = threading.RLock()
        self._runners: Dict[str, BatchRunner] = dict(runners or {})
        self._multi: Optional[MultiNetlistRunner] = None
        if self._runners:
            self._multi = MultiNetlistRunner(self._runners)
        # Entries: (priority, seq, job | None sentinel, holds-a-pending-slot).
        self._queue: (
            "queue.PriorityQueue[Tuple[float, int, Optional[Job], bool]]"
        ) = queue.PriorityQueue()
        self._inflight: Dict[str, Job] = {}
        #: The chunk the scheduler thread is currently evaluating (under
        #: self._lock); close() fails these when the thread outlives its join.
        self._current: List[Job] = []
        self._seq = itertools.count()
        self._job_ids = itertools.count(1)
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        # Counters (under self._lock).
        self.submitted = 0
        self.evaluated = 0
        self.deduped = 0
        self.cancelled = 0
        self.failed = 0
        self.retried = 0

    # -- layout registry ----------------------------------------------------
    def add_layout(self, name: str, runner: BatchRunner) -> str:
        """Register a prebuilt runner under *name* (error on conflicts)."""
        with self._lock:
            existing = self._runners.get(name)
            if existing is not None:
                if existing is runner:
                    return name
                raise SimulationError(
                    f"layout {name!r} is already registered with a different "
                    "runner"
                )
            self._register(name, runner)
        return name

    def ensure_layout(
        self,
        netlist: Netlist,
        *,
        name: Optional[str] = None,
        relaxed: bool = False,
        kernel: Optional[str] = None,
        **runner_kwargs: Any,
    ) -> str:
        """Register (or find) a layout for *netlist* and return its name.

        Without *name* a deterministic one is derived from the netlist's
        :attr:`~repro.core.netlist.Netlist.identity` and the runner
        parameters, so repeated calls with an equal netlist — even a freshly
        rebuilt copy, or the same one after it has run — resolve to the same
        layout and therefore the same caches.  With *name*, a registered
        layout is reused only when its netlist has the same identity; a
        mismatch is an error (silently swapping netlists under one name
        would poison every consumer grouping results by layout).  A netlist
        carrying a looped trace of its own golden run
        (:func:`~repro.core.golden.replays_loop`) gets its own layout,
        ``-loop`` suffixed: its rows replay where an untraced twin's
        simulate in full.
        """
        kernel_name = resolve_kernel_name(kernel)
        queue_capacity = runner_kwargs.get("queue_capacity", DEFAULT_QUEUE_CAPACITY)
        rs_capacity = runner_kwargs.get("rs_capacity", RelayStation.RS_CAPACITY)
        if name is None:
            name = (
                f"nl-{netlist.identity[:12]}-{'wp2' if relaxed else 'wp1'}"
                f"-{kernel_name}-q{queue_capacity}-r{rs_capacity}"
                f"{'-loop' if replays_loop(netlist) else ''}"
            )
        with self._lock:
            existing = self._runners.get(name)
            if existing is None:
                self._register(name, BatchRunner(
                    netlist, relaxed=relaxed, kernel=kernel, **runner_kwargs
                ))
            elif (
                existing.netlist.identity != netlist.identity
                or replays_loop(existing.netlist) != replays_loop(netlist)
                or existing.relaxed != relaxed
                or existing.kernel_name != kernel_name
                or existing.queue_capacity != queue_capacity
                or existing.rs_capacity != rs_capacity
            ):
                raise SimulationError(
                    f"layout {name!r} is already registered with a different "
                    "netlist or runner parameters"
                )
        return name

    def _register(self, name: str, runner: BatchRunner) -> None:
        self._runners[name] = runner
        if self._multi is None:
            self._multi = MultiNetlistRunner(self._runners)
        else:
            # The MultiNetlistRunner shares our dict; keep both views equal.
            self._multi.runners[name] = runner

    def runner(self, name: str) -> BatchRunner:
        with self._lock:
            try:
                return self._runners[name]
            except KeyError:
                raise SimulationError(
                    f"unknown layout {name!r}; available: "
                    f"{sorted(self._runners)}"
                ) from None

    @property
    def layouts(self) -> List[str]:
        with self._lock:
            return sorted(self._runners)

    # -- submission ---------------------------------------------------------
    def submit(
        self,
        items: Iterable[TaggedItem],
        *,
        priority: int = 0,
        on_result=None,
        tags: Optional[Sequence[Any]] = None,
        queue_capacity: Optional[int] = None,
        controls: Optional[RunControls] = None,
        **control_kwargs: Any,
    ) -> JobSet:
        """Queue every ``(layout name, batch item)`` and return the handle.

        Thread-safe; any number of submitters may call this concurrently.
        *priority* orders jobs across all submitters (lower runs first,
        FIFO within a level).  *on_result* is invoked — in the scheduler
        thread — for each job reaching a terminal state; *tags* attaches
        per-item submitter context (parallel to *items*).  Run controls
        follow :meth:`~repro.engine.batch.MultiNetlistRunner.run_many`:
        keyword fields or a prebuilt :class:`RunControls` object.

        Jobs whose content-address hits the cache complete before this
        method returns (``job.cached``, with *on_result* invoked in the
        submitting thread); jobs matching a queued or running address
        attach to it and complete with it (``job.deduped``).
        """
        if controls is None:
            controls_obj = RunControls(**control_kwargs)
        elif control_kwargs:
            raise SimulationError(
                "pass run controls either as a RunControls object or as "
                f"keyword arguments, not both (got {sorted(control_kwargs)})"
            )
        else:
            controls_obj = controls
        item_list = list(items)
        tag_list = list(tags) if tags is not None else [None] * len(item_list)
        if len(tag_list) != len(item_list):
            raise SimulationError(
                f"tags ({len(tag_list)}) must parallel items ({len(item_list)})"
            )
        jobset = JobSet()
        enqueued = False
        for (layout, entry), tag in zip(item_list, tag_list):
            # Normalisation, key derivation and the (possibly disk-backed)
            # cache probe all run OUTSIDE the service lock: only the
            # in-flight bookkeeping below needs atomicity, and completing a
            # cache hit here may run user callbacks, which must never hold
            # a lock the scheduler thread also takes.
            runner = self.runner(layout)
            norm = runner._normalise_item(entry, queue_capacity)
            configuration = norm[0]
            label = (
                configuration.label
                if configuration is not None
                else "per-channel"
            )
            key = result_key(runner, norm, controls_obj)
            job = Job(
                job_id=next(self._job_ids),
                layout=layout,
                item=norm,
                label=label,
                controls=controls_obj,
                priority=priority,
                key=key,
                tag=tag,
            )
            if on_result is not None:
                job._callbacks.append(on_result)
            jobset._add(job)
            cached = self.cache.get(key) if key is not None else None
            holds_slot = False
            if cached is None and self._pending is not None:
                # Backpressure: block OUTSIDE every lock until the queue has
                # room.  Acquiring under self._lock would deadlock against
                # the scheduler thread, which needs the lock to complete
                # jobs and the queue drain to free slots.
                self._pending.acquire()
                holds_slot = True
            try:
                with self._lock:
                    if self._closed:
                        raise SimulationError("EvaluationService is closed")
                    self.submitted += 1
                    if cached is None and key is not None:
                        primary = self._inflight.get(key)
                        if primary is not None:
                            job.deduped = True
                            primary._followers.append(job)
                            self.deduped += 1
                            continue  # the finally below frees the slot
                        # The scheduler publishes to the in-memory cache tier
                        # before dropping an in-flight entry, so a re-check
                        # here (memory only — no disk I/O under the lock)
                        # closes the window between our probe and now.
                        cached = self.cache.get(key, memory_only=True)
                    if cached is None:
                        if key is not None:
                            self._inflight[key] = job
                        # Enqueue while still holding the lock: close() also
                        # takes it, so a job is either queued before close()
                        # drains, or the submit fails the closed check above —
                        # never stranded in between.
                        self._queue.put(
                            (float(job.priority), next(self._seq), job,
                             holds_slot)
                        )
                        holds_slot = False  # the queue entry owns it now
                        enqueued = True
            finally:
                if holds_slot:
                    self._pending.release()
            if cached is not None:
                job._finish(
                    JobStatus.DONE, result=relabel(cached, label), cached=True
                )
        if enqueued and self.autostart:
            self.start()
        return jobset

    def stream(
        self,
        items: Iterable[TaggedItem],
        *,
        priority: int = 0,
        queue_capacity: Optional[int] = None,
        controls: Optional[RunControls] = None,
        **control_kwargs: Any,
    ):
        """Submit and return the async completion iterator in one call.

        ``async for job in service.stream(items, stop_process="CU"): ...``
        yields each :class:`Job` as it reaches a terminal state; cache hits
        arrive first (they are already complete), then evaluated chunks as
        the pool delivers them.
        """
        jobset = self.submit(
            items,
            priority=priority,
            queue_capacity=queue_capacity,
            controls=controls,
            **control_kwargs,
        )
        return jobset.stream()

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Start the scheduler thread (idempotent; no-op once closed)."""
        with self._lock:
            if self._closed:
                return
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._loop,
                    name="repro-evaluation-service",
                    daemon=True,
                )
                self._thread.start()

    def close(
        self,
        cancel_pending: bool = False,
        timeout: Optional[float] = None,
    ) -> None:
        """Drain outstanding jobs and stop the scheduler thread.

        The shutdown sentinel sorts after every real priority, so queued
        jobs are evaluated before the thread exits; with *cancel_pending*
        they are cancelled instead (running chunks still finish — there is
        no preemption point inside a simulation).

        The join is bounded when *cancel_pending* is set (by *timeout*, or
        the service's ``join_timeout``): a chunk wedged in a hung
        simulation would otherwise hold every ``job.wait()`` caller hostage
        forever.  On expiry the in-flight jobs are **failed** — their
        submitters unblock with ``status=FAILED`` and an explanatory error
        — and the daemon thread is abandoned to die with the process.  An
        explicit *timeout* bounds the join in the graceful mode too.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            thread = self._thread
        if cancel_pending:
            self._drain_queue(cancel=True)
        if thread is not None and thread.is_alive():
            self._queue.put(
                (_SENTINEL_PRIORITY, next(self._seq), None, False)
            )
            join_for = timeout
            if join_for is None and cancel_pending:
                join_for = self.join_timeout
            thread.join(join_for)
            if thread.is_alive():
                # The scheduler is wedged inside an evaluation (a hung
                # simulation with no shard_timeout, a blocking on_cycle
                # observer).  Fail the in-flight chunk so its submitters
                # unblock instead of waiting on a join that never returns.
                with self._lock:
                    stuck = list(self._current)
                for job in stuck:
                    self._fail_group(
                        job,
                        "evaluation abandoned at close(): scheduler thread "
                        f"still busy after {join_for:.1f}s",
                    )
                self._drain_queue(cancel=True)
        else:
            # Never started: nothing will drain the queue; cancel leftovers.
            self._drain_queue(cancel=True)

    def _drain_queue(self, cancel: bool) -> None:
        """Empty the queue, freeing backpressure slots (cancelling jobs too)."""
        while True:
            try:
                entry = self._queue.get_nowait()
            except queue.Empty:
                return
            _, _, job, holds_slot = entry
            if holds_slot and self._pending is not None:
                self._pending.release()
            if job is not None and cancel:
                self._cancel_group(job)

    def __enter__(self) -> "EvaluationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> Dict[str, Any]:
        """Service counters plus the cache's and the pool's supervision record.

        ``supervision`` merges the recovery counters of every pooled
        ``run_many`` the service has driven (see
        :class:`~repro.engine.result.SupervisionStats`); all-zero means no
        worker was ever lost.  With a coordinator attached,
        ``supervision["workers"]`` breaks the record down per remote worker
        id (connection state, quarantine, fault strikes, completed shards).

        The derived ratios are computed here, from the very counters this
        snapshot carries — one consistent view under one lock — so exporters
        (the serving tier's ``/metrics`` endpoint) never recompute them from
        counters read at different instants:

        * ``cache_hit_rate`` — cache hits over lookups (0.0 before any);
        * ``dedup_rate`` — in-flight piggybacks over submitted jobs.
        """
        with self._lock:
            supervision = (
                self._multi.supervision
                if self._multi is not None
                else SupervisionStats()
            )
            supervision_dict: Dict[str, Any] = supervision.to_dict()
            supervision_dict["workers"] = (
                self.coordinator.worker_stats()
                if self.coordinator is not None
                else {}
            )
            cache_stats = self.cache.stats()
            lookups = cache_stats["hits"] + cache_stats["misses"]
            return {
                "submitted": self.submitted,
                "evaluated": self.evaluated,
                "deduped": self.deduped,
                "cancelled": self.cancelled,
                "failed": self.failed,
                "retried": self.retried,
                "inflight": len(self._inflight),
                "queue_depth": self._queue.qsize(),
                "layouts": sorted(self._runners),
                "cache": cache_stats,
                "cache_hit_rate": (
                    cache_stats["hits"] / lookups if lookups else 0.0
                ),
                "dedup_rate": (
                    self.deduped / self.submitted if self.submitted else 0.0
                ),
                "supervision": supervision_dict,
            }

    # -- scheduler internals ------------------------------------------------
    def _chunk_limit(self) -> int:
        if self.chunk_size is not None:
            return max(1, self.chunk_size)
        return 1 if self.workers <= 1 else 4 * self.workers

    def _release_slot(self, entry: Tuple) -> None:
        """Free the backpressure slot a popped queue entry was holding."""
        if entry[3] and self._pending is not None:
            self._pending.release()

    def _loop(self) -> None:
        while True:
            entry = self._queue.get()
            self._release_slot(entry)
            if entry[2] is None:
                break
            chunk: List[Job] = [entry[2]]
            limit = self._chunk_limit()
            stop = False
            while len(chunk) < limit:
                try:
                    nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                self._release_slot(nxt)
                if nxt[2] is None:
                    stop = True
                    break
                chunk.append(nxt[2])
            with self._lock:
                self._current = list(chunk)
            try:
                self._evaluate_chunk(chunk)
            except Exception as exc:  # noqa: BLE001 - keep the service alive
                message = f"{type(exc).__name__}: {exc}"
                for job in chunk:
                    self._retry_or_fail(job, message)
            finally:
                with self._lock:
                    self._current = []
            if stop:
                break

    def _retry_or_fail(self, job: Job, error: str) -> None:
        """Route a job whose chunk evaluation raised: re-enqueue or doom it.

        A job keeps its place in the retry game while the service is open
        and its ``attempts`` budget has room; a job that close() already
        failed (or a submitter cancelled) is terminal and left alone by
        ``_fail_group``'s exactly-once semantics.
        """
        with self._lock:
            closed = self._closed
        if not closed and job.attempts < self.max_job_attempts:
            # RUNNING → PENDING for jobs that began; jobs from a later
            # controls-group of the chunk never began and are still PENDING.
            if job._requeue() or job.status is JobStatus.PENDING:
                with self._lock:
                    self.retried += 1
                self._queue.put(
                    (float(job.priority), next(self._seq), job, False)
                )
                return
        self._fail_group(job, error)

    def _group(self, job: Job) -> List[Job]:
        with self._lock:
            return [job] + list(job._followers)

    def _cancel_group(self, job: Job) -> None:
        for member in self._group(job):
            if member.cancel():
                with self._lock:
                    self.cancelled += 1
        with self._lock:
            if job.key is not None and self._inflight.get(job.key) is job:
                del self._inflight[job.key]

    def _fail_group(self, job: Job, error: str) -> None:
        with self._lock:
            if job.key is not None and self._inflight.get(job.key) is job:
                del self._inflight[job.key]
            self.failed += 1
        for member in self._group(job):
            member._finish(JobStatus.FAILED, error=error)

    def _evaluate_chunk(self, chunk: List[Job]) -> None:
        # Controls may differ between jobs of one drain (concurrent
        # submitters); evaluate per controls-group, preserving drain order.
        by_controls: "Dict[int, Tuple[RunControls, List[Job]]]" = {}
        for job in chunk:
            group = by_controls.setdefault(id(job.controls), (job.controls, []))
            group[1].append(job)
        for controls, jobs in by_controls.values():
            self._evaluate_batch(jobs, controls)

    def _evaluate_batch(self, jobs: List[Job], controls: RunControls) -> None:
        live: List[Job] = []
        for job in jobs:
            group = self._group(job)
            started = [m for m in group if m._begin()]
            if job not in started and all(m.status.terminal for m in group):
                # Everyone cancelled before evaluation began: drop the work.
                with self._lock:
                    if job.key is not None and self._inflight.get(job.key) is job:
                        del self._inflight[job.key]
                continue
            live.append(job)
        if not live:
            return
        with self._lock:
            multi = self._multi
        if multi is None:  # pragma: no cover - layouts vanished underneath
            for job in live:
                self._fail_group(job, "no layouts registered")
            return
        tagged = [(job.layout, _denormalise(job.item)) for job in live]
        results = multi.run_many(
            tagged,
            workers=self.workers,
            on_error="zero",
            start_method=self.start_method,
            controls=controls,
            coordinator=self.coordinator,
        )
        for job, result in zip(live, results):
            # Publish to the cache BEFORE dropping the in-flight entry: a
            # concurrent submitter checks cache first, then in-flight, so
            # this order leaves no window in which it would re-evaluate.
            self.cache.put(job.key, result)
            with self._lock:
                if job.key is not None and self._inflight.get(job.key) is job:
                    del self._inflight[job.key]
                self.evaluated += 1
                if result.failed:
                    self.failed += 1
            for member in self._group(job):
                member._finish(
                    JobStatus.DONE, result=relabel(result, member.label)
                )


def _denormalise(item) -> BatchItem:
    """Normalised ``(config, rs_counts, capacity)`` back to a batch item."""
    configuration, rs_counts, capacity = item
    base: BatchItem = configuration if configuration is not None else rs_counts
    if capacity is None:
        return base
    return (base, {"queue_capacity": capacity})
