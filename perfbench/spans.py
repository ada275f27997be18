"""Span tracing for the benchmark's traced runs.

The benchmark measures every layer of the stack from outside: in a traced
run, :func:`install` replaces the public entry points listed in
:data:`INSTRUMENTS` (kernel ``run`` methods, ``Elaborator.bind``,
``BatchRunner.run_many``, ``EvaluationService.submit``, the CPU units'
``fire`` bodies, ...) with thin wrappers that keep a ``perf_counter_ns``
span stack per thread.  Nothing in ``src/`` changes and an untraced run
installs nothing.

Each finished span is kept in memory as ``(id, parent, name, start, end,
thread, attrs, leaves)`` and written as JSON when the process ends:

* the benchmark process writes its file from :meth:`SpanRecorder.dump`;
* forked pool workers are hooked with ``multiprocessing.util``'s
  after-fork registry: the child drops the spans it inherited, opens a
  ``trace.worker`` root span and writes its own file from a
  ``multiprocessing.util.Finalize`` callback when the worker exits;
* the daemon is started through ``perfbench/daemon.py``, which installs the
  same wrappers only when tracing and dumps when ``serve`` returns.

Very frequent calls (the CPU units' ``fire`` and ``schedule_state``) are
*leaf* spans: instead of one record per call, their count and nanoseconds
are summed into the enclosing span's ``leaves`` map, which keeps memory
bounded while self time stays exact.

:func:`analyse` reads every span file of a run and turns it into the
per-layer metrics: a layer's self time is the duration of its spans minus
the time covered by their child spans (leaves included), and the self time
of the ``trace.*`` root spans is the time no layer claims
(``trace.unattributed_s``).  By construction the self times of all spans add
up to the summed duration of the top-level spans of every thread
(``trace.track_s``); ``trace.residual_s`` reports the difference, which must
be zero.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

_now = time.perf_counter_ns


class SpanRecorder:
    """Per-process span store with one span stack per thread."""

    def __init__(self, out_dir: Path, role: str) -> None:
        self.out_dir = Path(out_dir)
        self.role = role
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Tuple] = []
        #: Leaf calls made with no span open: (thread, name) -> [count, ns].
        self.top_leaves: Dict[Tuple[int, str], List[int]] = {}
        self._worker_root: Optional[List] = None

    # -- stack plumbing -------------------------------------------------------
    def _stack(self) -> List[List]:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.tid = threading.get_ident()
        return stack

    def _open(self, name: str) -> Tuple[List[List], List]:
        stack = self._stack()
        # Frame: [id, parent id, name, start, leaves, attrs]
        frame = [next(self._ids), stack[-1][0] if stack else 0, name, _now(), None, None]
        stack.append(frame)
        return stack, frame

    def _close(self, stack: List[List], frame: List, end: int) -> None:
        stack.pop()
        self.spans.append(
            (frame[0], frame[1], frame[2], frame[3], end, self._local.tid,
             frame[5], frame[4])
        )

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span (roots and benchmark phases)."""
        stack, frame = self._open(name)
        try:
            yield frame
        finally:
            self._close(stack, frame, _now())

    # -- wrappers -------------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Optional[Callable[[Any, tuple, dict], Optional[dict]]] = None,
    ) -> Callable:
        """A span around every call of *fn*; *observe* turns the call's
        arguments and result into span attributes (after the span ends)."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, frame = recorder._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                frame[5] = {"error": type(exc).__name__}
                recorder._close(stack, frame, _now())
                raise
            end = _now()
            if observe is not None:
                frame[5] = observe(result, args, kwargs)
            recorder._close(stack, frame, end)
            return result

        return wrapper

    def wrap_leaf(self, name: str, fn: Callable) -> Callable:
        """Count and time calls of *fn* into the enclosing span's leaves."""
        local = self._local
        top = self.top_leaves

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _now() - start
                stack = getattr(local, "stack", None)
                if stack:
                    leaves = stack[-1][4]
                    if leaves is None:
                        leaves = stack[-1][4] = {}
                    entry = leaves.get(name)
                    if entry is None:
                        leaves[name] = [1, elapsed]
                    else:
                        entry[0] += 1
                        entry[1] += elapsed
                else:
                    entry = top.setdefault((threading.get_ident(), name), [0, 0])
                    entry[0] += 1
                    entry[1] += elapsed

        return wrapper

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """For generator functions: one span per ``next()`` of the result,
        so the consumer's time between items is not charged to *fn*."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    with recorder.span(name):
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                    yield item
            finally:
                inner.close()

        return wrapper

    # -- process lifecycle ----------------------------------------------------
    def after_fork(self) -> None:
        """In a forked pool worker: forget the parent's spans, open a root."""
        self._reset()
        self._local.stack = []
        self._local.tid = threading.get_ident()
        self.role = "worker"
        self._worker_root = self._open("trace.worker")[1]
        mp_util.Finalize(self, self.dump, exitpriority=100)

    def dump(self) -> Path:
        """Close any open worker root and write this process' span file."""
        if self._worker_root is not None:
            stack = self._stack()
            if stack and stack[-1] is self._worker_root:
                self._close(stack, self._worker_root, _now())
            self._worker_root = None
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.role}-{self.pid}.json"
        payload = {
            "pid": self.pid,
            "role": self.role,
            "spans": self.spans,
            "top_leaves": [
                [tid, name, count, ns]
                for (tid, name), (count, ns) in self.top_leaves.items()
            ],
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)
        return path


# ---------------------------------------------------------------------------
# What gets wrapped
# ---------------------------------------------------------------------------

def _cycles(result, args, kwargs):
    return {"cycles": result.cycles}


def _lanes(result, args, kwargs):
    done = [lane for lane in result if not isinstance(lane, Exception)]
    return {"lanes": len(result), "cycles": sum(lane.cycles for lane in done)}


def _rows(result, args, kwargs):
    return {
        "rows": len(result),
        "extrapolated": sum(1 for row in result if row.extrapolated),
        "warmup": [row.warmup_cycles for row in result if row.period],
        "period": [row.period for row in result if row.period],
    }


def _pool(result, args, kwargs):
    pool, shard_lists = args[0], args[1]
    return {
        "shards": len(shard_lists),
        "respawns": pool.stats.respawns,
        "retries": pool.stats.retries,
    }


def _search(result, args, kwargs):
    return {"candidates": result.evaluations}


def _submitted(result, args, kwargs):
    jobs = list(result)
    return {"jobs": len(jobs), "deduped": sum(1 for job in jobs if job.deduped)}


def _cache_get(result, args, kwargs):
    probe = kwargs.get("count", True) and not kwargs.get("memory_only", False)
    return {"hit": result is not None, "probe": bool(probe)}


def _encoded(result, args, kwargs):
    return {"bytes": len(result), "row": args[0].get("event") == "row"}


#: (module, attribute path, span name, kind[, observe]).  ``kind`` is
#: ``span`` (one record per call), ``leaf`` (summed into the caller's
#: span) or ``iter`` (a generator: one span per item).  Every span name
#: maps to exactly one per-layer metric in :data:`SELF_METRICS`.
INSTRUMENTS: Tuple[Tuple, ...] = (
    # cpu.units — the CPU blocks' behaviour and their certified summaries.
    *(
        (f"repro.cpu.units.{module}", f"{cls}.{method}", name, "leaf")
        for module, cls in (
            ("alu", "Alu"), ("control_unit", "ControlUnit"),
            ("data_cache", "DataCache"),
            ("instruction_cache", "InstructionCache"),
            ("register_file", "RegisterFile"),
        )
        for method, name in (
            ("fire", "cpu.fire"), ("schedule_state", "cpu.summary"),
            ("schedule_verify_state", "cpu.summary"),
        )
    ),
    # engine kernels.
    ("repro.engine.fast", "FastKernel.run", "kernel.fast", "span", _cycles),
    ("repro.engine.compiled", "CompiledKernel.run", "kernel.compiled", "span", _cycles),
    ("repro.engine.reference", "ReferenceKernel.run", "kernel.reference", "span", _cycles),
    ("repro.engine.lockstep", "LockstepKernel.run", "kernel.lockstep", "span", _cycles),
    ("repro.engine.lockstep", "run_lockstep_batch", "kernel.lockstep", "span", _lanes),
    # engine.codegen / engine.elaboration.
    ("repro.engine.codegen", "compiled_run_fn", "codegen", "span"),
    ("repro.engine.codegen", "generate_run_source", "codegen.generate", "span"),
    ("repro.engine.elaboration", "NetlistLayout.build", "elaboration.layout", "span"),
    ("repro.engine.elaboration", "Elaborator.bind", "elaboration.bind", "span"),
    # engine.batch / engine.supervised_pool.
    ("repro.engine.batch", "BatchRunner.run_many", "batch.run_many", "span", _rows),
    ("repro.engine.batch", "MultiNetlistRunner.run_many", "batch.run_many", "span", _rows),
    ("repro.engine.supervised_pool", "SupervisedPool.run", "pool.run", "span", _pool),
    # core.static_analysis / core.optimizer.
    ("repro.core.static_analysis", "throughput_bound", "static.bound", "span"),
    ("repro.core.static_analysis", "make_link_bound_evaluator", "static.bound", "span"),
    ("repro.core.optimizer", "exhaustive_search", "optimizer.search", "span", _search),
    ("repro.core.optimizer", "greedy_search", "optimizer.search", "span", _search),
    ("repro.core.optimizer", "annealing_search", "optimizer.search", "span", _search),
    # cpu.machine, topology, workloads.
    ("repro.cpu.machine", "build_pipelined_cpu", "cpu.build", "span"),
    ("repro.cpu.machine", "build_multicycle_cpu", "cpu.build", "span"),
    ("repro.cpu.machine", "CaseStudyCpu.run_golden", "cpu.golden", "span"),
    *(
        ("repro.topology.generators", fn, "topology.generate", "span")
        for fn in (
            "make_topology", "chain_topology", "ring_topology", "dag_topology",
            "mesh_topology", "marked_graph_topology", "random_topology",
        )
    ),
    ("repro.cpu.workloads.extraction_sort", "make_extraction_sort", "workloads.build", "span"),
    ("repro.cpu.workloads.matrix_multiply", "make_matrix_multiply", "workloads.build", "span"),
    ("repro.workloads.graph", "make_pagerank_workload", "workloads.build", "span"),
    ("repro.workloads.graph", "make_bfs_workload", "workloads.build", "span"),
    # service (scheduler, cache).
    ("repro.service.scheduler", "EvaluationService.submit", "service.submit", "span", _submitted),
    ("repro.service.scheduler", "EvaluationService.ensure_layout", "service.layout", "span"),
    ("repro.service.cache", "result_key", "cache.key", "span"),
    ("repro.service.cache", "ResultCache.get", "cache.get", "span", _cache_get),
    ("repro.service.cache", "ResultCache.put", "cache.put", "span"),
    # server (app, encoding, tenancy, client).
    ("repro.server.app", "ReproServer.submit", "server.submit", "span"),
    ("repro.server.encoding", "job_event", "server.encode", "span"),
    ("repro.server.encoding", "encode_sse", "server.encode", "span", _encoded),
    ("repro.server.encoding", "encode_frame", "server.encode", "span", _encoded),
    ("repro.server.tenancy", "TenantRegistry.admit", "tenancy.admit", "span"),
    ("repro.server.client", "ServerClient.submit", "client.submit", "span"),
    ("repro.server.client", "ServerClient.stream", "client.stream", "iter"),
)

#: Per-layer self-time metric -> the span names whose self time it sums.
SELF_METRICS: Dict[str, Tuple[str, ...]] = {
    "cpu.fire_s": ("cpu.fire",),
    "cpu.summary_s": ("cpu.summary",),
    "kernel.s": ("kernel.fast", "kernel.compiled", "kernel.reference", "kernel.lockstep"),
    "codegen.compile_s": ("codegen", "codegen.generate"),
    "elaboration.s": ("elaboration.layout", "elaboration.bind"),
    "batch.run_many_s": ("batch.run_many",),
    "pool.run_s": ("pool.run",),
    "static.bound_s": ("static.bound",),
    "optimizer.search_s": ("optimizer.search",),
    "cpu.build_s": ("cpu.build",),
    "cpu.golden_s": ("cpu.golden",),
    "topology.generate_s": ("topology.generate",),
    "workloads.build_s": ("workloads.build",),
    "service.submit_s": ("service.submit",),
    "service.layout_s": ("service.layout",),
    "cache.key_s": ("cache.key",),
    "cache.get_s": ("cache.get",),
    "cache.put_s": ("cache.put",),
    "server.materialise_s": ("server.submit",),
    "server.encode_s": ("server.encode",),
    "tenancy.admit_s": ("tenancy.admit",),
    "client.submit_s": ("client.submit",),
    "client.stream_s": ("client.stream",),
}

#: Root spans the benchmark opens itself (its set-up and measured phases,
#: its client threads, each pool worker's life); their self time is the
#: unattributed time.
ROOT_PREFIX = "trace."
KERNELS = ("fast", "compiled", "reference", "lockstep")


def _resolve(module_name: str, path: str):
    module = importlib.import_module(module_name)
    owner: Any = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


def _rebind_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` / ``perfbench`` module attribute that is
    *original* (``from x import f`` copies) at *replacement*."""
    for name, module in list(sys.modules.items()):
        if module is None or not (
            name == "repro" or name.startswith(("repro.", "perfbench"))
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(out_dir: Path, role: str) -> SpanRecorder:
    """Wrap every entry point in :data:`INSTRUMENTS`; return the recorder.

    Call once per process (a second call would wrap the wrappers), before
    the traced phase and before any pool forks; keep the recorder alive
    for the life of the process.  Forked pool workers inherit the wrappers
    and write their own span files on exit.
    """
    recorder = SpanRecorder(out_dir, role)
    for entry in INSTRUMENTS:
        module_name, path, name, kind = entry[:4]
        observe = entry[4] if len(entry) > 4 else None
        module, owner, attr = _resolve(module_name, path)
        raw = (vars(owner) if isinstance(owner, type) else vars(module)).get(attr)
        if raw is None:
            continue  # e.g. a unit that does not override schedule_state
        descriptor = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if descriptor is not None else raw
        if kind == "leaf":
            wrapped = recorder.wrap_leaf(name, fn)
        elif kind == "iter":
            wrapped = recorder.wrap_iter(name, fn)
        else:
            wrapped = recorder.wrap(name, fn, observe)
        if isinstance(owner, type):
            setattr(owner, attr, descriptor(wrapped) if descriptor else wrapped)
        else:
            _rebind_everywhere(fn, wrapped)
    mp_util.register_after_fork(recorder, SpanRecorder.after_fork)
    return recorder


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def load(out_dir: Path) -> List[Dict[str, Any]]:
    """Every span file of one traced run."""
    return [
        json.loads(path.read_text())
        for path in sorted(Path(out_dir).glob("spans-*.json"))
    ]


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def analyse(files: List[Dict[str, Any]], wall_s: float) -> Dict[str, float]:
    """Per-layer metrics from the span files of one traced phase."""
    self_ns: Dict[str, int] = {}
    count: Dict[str, int] = {}
    track_ns = 0
    kernel_runs = {kernel: 0 for kernel in KERNELS}
    fallbacks = 0
    kernel_cycles = 0
    kernel_ns = 0
    rows = extrapolated = 0
    warmups: List[int] = []
    periods: List[int] = []
    shards = respawns = retries = 0
    worker_ns = worker_busy_ns = 0
    candidates = 0
    probes = hits = 0
    jobs = deduped = 0
    row_bytes = row_events = 0
    rejected = 0
    submit_rtts: List[int] = []

    def add(name: str, ns: int, calls: int = 1) -> None:
        self_ns[name] = self_ns.get(name, 0) + ns
        count[name] = count.get(name, 0) + calls

    for data in files:
        spans = data["spans"]
        child_ns: Dict[int, int] = {}
        kernel_child: Dict[int, List[str]] = {}
        for span_id, parent, name, start, end, _tid, _attrs, leaves in spans:
            duration = end - start
            if parent == 0:
                track_ns += duration
            else:
                child_ns[parent] = child_ns.get(parent, 0) + duration
                if name.startswith("kernel."):
                    kernel_child.setdefault(parent, []).append(name)
            for leaf, (calls, ns) in (leaves or {}).items():
                child_ns[span_id] = child_ns.get(span_id, 0) + ns
                add(leaf, ns, calls)
        for _tid, leaf, calls, ns in data["top_leaves"]:
            track_ns += ns
            add(leaf, ns, calls)
        for span_id, parent, name, start, end, _tid, attrs, _leaves in spans:
            duration = end - start
            add(name, duration - child_ns.get(span_id, 0))
            attrs = attrs or {}
            if name.startswith("kernel."):
                if span_id in kernel_child:
                    if any(child != name for child in kernel_child[span_id]):
                        fallbacks += 1
                    continue
                kernel_runs[name.split(".", 1)[1]] += attrs.get("lanes", 1)
                kernel_cycles += attrs.get("cycles", 0)
                kernel_ns += duration
            elif name == "batch.run_many":
                rows += attrs.get("rows", 0)
                extrapolated += attrs.get("extrapolated", 0)
                warmups += attrs.get("warmup", [])
                periods += attrs.get("period", [])
            elif name == "pool.run":
                shards += attrs.get("shards", 0)
                respawns += attrs.get("respawns", 0)
                retries += attrs.get("retries", 0)
            elif name == "trace.worker":
                worker_ns += duration
                worker_busy_ns += child_ns.get(span_id, 0)
            elif name == "optimizer.search":
                candidates += attrs.get("candidates", 0)
            elif name == "cache.get" and attrs.get("probe"):
                probes += 1
                hits += 1 if attrs.get("hit") else 0
            elif name == "service.submit":
                jobs += attrs.get("jobs", 0)
                deduped += attrs.get("deduped", 0)
            elif name == "server.encode" and attrs.get("row"):
                row_bytes += attrs.get("bytes", 0)
                row_events += 1
            elif name == "tenancy.admit" and attrs.get("error") == "QuotaError":
                rejected += 1
            elif name == "client.submit":
                submit_rtts.append(duration)

    def seconds(names: Tuple[str, ...]) -> float:
        return sum(self_ns.get(name, 0) for name in names) / 1e9

    metrics: Dict[str, float] = {
        metric: seconds(names) for metric, names in SELF_METRICS.items()
    }
    unattributed = sum(
        ns for name, ns in self_ns.items() if name.startswith(ROOT_PREFIX)
    ) / 1e9
    attributed = sum(metrics.values())
    metrics.update({
        "trace.unattributed_s": unattributed,
        "trace.attributed_s": attributed,
        "trace.track_s": track_ns / 1e9,
        "trace.residual_s": track_ns / 1e9 - attributed - unattributed,
        "trace.wall_s": wall_s,
        "cpu.firings": count.get("cpu.fire", 0),
        "kernel.fallbacks": fallbacks,
        "kernel.cycles_per_s": kernel_cycles / (kernel_ns / 1e9) if kernel_ns else 0.0,
        "steady.extrapolated_ratio": extrapolated / rows if rows else 0.0,
        "steady.warmup_cycles_p50": _median(warmups),
        "steady.period_p50": _median(periods),
        "elaboration.layouts": count.get("elaboration.layout", 0),
        "codegen.compiles": count.get("codegen.generate", 0),
        "batch.shards": shards,
        "pool.busy_ratio": worker_busy_ns / worker_ns if worker_ns else 0.0,
        "pool.respawns": respawns,
        "pool.retries": retries,
        "static.bound_calls": count.get("static.bound", 0),
        "optimizer.candidates": candidates,
        "cache.hit_ratio": hits / probes if probes else 0.0,
        "service.dedup_ratio": deduped / jobs if jobs else 0.0,
        "service.evaluated": count.get("cache.put", 0),
        "server.submit_rtt_s": _median(submit_rtts) / 1e9,
        "server.bytes_per_row": row_bytes / row_events if row_events else 0.0,
        "tenancy.rejected": rejected,
    })
    for kernel, runs in kernel_runs.items():
        metrics[f"kernel.runs.{kernel}"] = runs
    return metrics
