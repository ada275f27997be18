"""Batch evaluation of relay-station configurations, one netlist or many.

The optimiser's simulated objectives and the ablation sweeps all share the
same shape: a netlist, many RS configurations, only aggregate numbers
needed.  :class:`BatchRunner` serves that shape directly:

* the netlist layout is elaborated **once** (see
  :mod:`repro.engine.elaboration`); each configuration only re-binds the
  relay chains — and under the compiled kernel the generated step code is
  cached on the layout, so same-shaped configurations share code objects;
* instrumentation defaults to :meth:`InstrumentSet.none` — objective
  evaluations pay zero trace/stats cost;
* steady-state periods detected by the kernels (see
  :mod:`repro.engine.steady_state`) warm-start later evaluations: the runner
  remembers the periods observed per binding shape and sizes the detection
  window of sibling configurations from them — and disarms detection for
  shapes a previous equally-bounded run proved non-recurring;
* :meth:`run_many` fans out through the **batch executor** (see
  :mod:`repro.engine.supervised_pool`): the configurations are chunked
  into shards and one dispatcher leases them to workers — local processes
  (the supervised pool) or, with a coordinator that has live agents,
  remote agents (:mod:`repro.distributed`).  The dispatcher requeues the
  shards of lost workers, enforces ``RunControls.shard_timeout`` on hung
  simulations, retries failed shards with capped exponential backoff, and
  bisects repeatedly failing shards down to the poisoned item, which is
  quarantined as a per-item error row while its siblings still return real
  results; recovery counters accumulate on :attr:`BatchRunner.supervision`.
  Workers rebuild their runners from a pickled work spec, so the fan-out
  works under both the ``fork`` and ``spawn`` start methods.  Netlists or
  controls that cannot be pickled (e.g. closure-based processes) go to the
  same supervised pool under ``fork``, whose children inherit the driver's
  runners; only where ``fork`` is unavailable does the batch run serially
  (with a :class:`RuntimeWarning`).

:class:`MultiNetlistRunner` generalises the pool to **several elaborated
layouts at once** (e.g. the sort and matmul processors, or the WP1 and WP2
flavours of one netlist, in a single sweep): work items are tagged with a
layout name, one persistent pool serves every layout, and each worker keeps
one rebuilt :class:`BatchRunner` — with its per-layout compiled-function
caches and period memory — per layout for the shards it is handed.
``BatchRunner.run_many`` is a thin single-layout wrapper over the same
machinery.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import pickle
import sys
import warnings
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.config import RSConfiguration
from ..core.exceptions import DeadlockError, SimulationError
from ..core.netlist import Netlist
from ..core.relay_station import RelayStation
from ..core.shell import DEFAULT_QUEUE_CAPACITY
from .elaboration import Elaborator, resolve_rs_counts
from .faults import active_plan, maybe_fault_item
from .instrumentation import InstrumentSet
from .kernel import RunControls, make_kernel, resolve_kernel_name
from .result import LidResult, SupervisionStats, coerce_native, native_int_map
from .steady_state import (
    DEFAULT_DETECTION_WINDOW,
    PeriodMemory,
    detection_plan,
)
from .supervised_pool import SupervisedPool, _QuarantinedItem

#: One work item: an :class:`RSConfiguration` or an explicit per-channel map,
#: optionally paired with per-item overrides (``{"queue_capacity": 6}``).
ConfigLike = Union[RSConfiguration, Mapping[str, int]]
BatchItem = Union[ConfigLike, Tuple[ConfigLike, Mapping[str, Any]]]

#: A multi-netlist work item: ``(layout name, batch item)``.
TaggedItem = Tuple[str, BatchItem]

#: Internal normalised work item.
_Item = Tuple[Optional[RSConfiguration], Optional[Dict[str, int]], Optional[int]]

#: Internal normalised tagged work item.
_Tagged = Tuple[str, _Item]

#: Per-item override keys accepted by :meth:`BatchRunner.run_many`.
_ITEM_OVERRIDES = frozenset({"queue_capacity"})


@dataclass
class BatchResult:
    """Lightweight, picklable summary of one batch evaluation."""

    label: str
    cycles: int
    firings: Dict[str, int]
    halted: bool
    wrapper_kind: str
    error: Optional[str] = None
    rs_total: int = 0
    #: Steady-state period / warmup detected by the kernel (None when the
    #: run completed without a detected recurrence).
    period: Optional[int] = None
    warmup_cycles: Optional[int] = None
    #: True when part of the run was reconstructed analytically from the
    #: detected period (counts are identical to full simulation).
    extrapolated: bool = False
    #: Evaluation attempts the supervised pool spent on this item's shard
    #: (1 = first try succeeded; quarantined items report their full retry
    #: history).  Serial evaluation always reports 1.
    attempts: int = 1

    @property
    def failed(self) -> bool:
        return self.error is not None

    def throughput(self, golden_cycles: Optional[int] = None) -> float:
        """Firings per cycle (system minimum), or golden-relative throughput."""
        if self.failed or self.cycles == 0:
            return 0.0
        if golden_cycles is not None:
            return golden_cycles / self.cycles
        if not self.firings:
            return 0.0
        return min(self.firings.values()) / self.cycles

    @classmethod
    def from_result(cls, result: LidResult) -> "BatchResult":
        return cls(
            label=result.configuration_label,
            cycles=result.cycles,
            firings=dict(result.firings),
            halted=result.halted,
            wrapper_kind=result.wrapper_kind,
            rs_total=result.total_relay_stations(),
            period=result.period,
            warmup_cycles=result.warmup_cycles,
            extrapolated=result.extrapolated,
        )

    # -- canonical serialization -------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-serializable dict form; inverse of :meth:`from_dict`.

        The result cache of :mod:`repro.service` persists batch results in
        this form; every field is a JSON scalar or a string-keyed mapping of
        ints, so the round trip is loss-free.  NumPy scalars (results built
        by callers slicing arrays) are coerced to native Python so the form
        stays ``json.dump``-safe.
        """
        return {
            "label": self.label,
            "cycles": coerce_native(self.cycles),
            "firings": native_int_map(self.firings),
            "halted": coerce_native(self.halted),
            "wrapper_kind": self.wrapper_kind,
            "error": self.error,
            "rs_total": coerce_native(self.rs_total),
            "period": coerce_native(self.period),
            "warmup_cycles": coerce_native(self.warmup_cycles),
            "extrapolated": coerce_native(self.extrapolated),
            "attempts": coerce_native(self.attempts),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BatchResult":
        """Rebuild a batch result from its :meth:`to_dict` form."""
        return cls(
            label=data["label"],
            cycles=data["cycles"],
            firings=dict(data["firings"]),
            halted=data["halted"],
            wrapper_kind=data["wrapper_kind"],
            error=data["error"],
            rs_total=data["rs_total"],
            period=data["period"],
            warmup_cycles=data["warmup_cycles"],
            extrapolated=data["extrapolated"],
            attempts=data.get("attempts", 1),
        )


def content_digest(netlist: Netlist) -> Optional[str]:
    """Content digest of *netlist*, or None when it cannot be pickled.

    The sha256 of the pickled netlist identifies its *content* (processes
    with their programs and initial state, channels, initial tokens) — the
    part of a simulation's input the structural
    :func:`~repro.engine.codegen.model_signature` does not cover.  The one
    netlist identity: result-cache keys and the worker agents' runner cache
    both use it.
    """
    try:
        return hashlib.sha256(pickle.dumps(netlist)).hexdigest()
    except Exception:
        return None


class RunnerStore:
    """A worker's name → runner map, rebuilt lazily from pickled work specs.

    Runners are built **on first use**: contiguous sharding tends to hand a
    worker items from only one or two layouts, so eager construction would
    elaborate layouts the worker never touches.  Each runner accumulates
    compiled-function caches and steady-state period memory across every
    shard the worker serves.  A worker agent passes its cross-batch *cache*
    (``key``/``get``/``put`` over specs) so equal specs reuse an earlier
    batch's runner, and *on_build* to count the builds it could not avoid.
    """

    def __init__(
        self,
        payload: bytes,
        cache: Optional[Any] = None,
        on_build: Optional[Callable[[], None]] = None,
    ) -> None:
        self._specs: Dict[str, Tuple] = pickle.loads(payload)
        self._runners: Dict[str, "BatchRunner"] = {}
        self._cache = cache
        self._on_build = on_build

    def __getitem__(self, name: str) -> "BatchRunner":
        runner = self._runners.get(name)
        if runner is None:
            spec = self._specs[name]
            key = self._cache.key(spec) if self._cache is not None else None
            runner = self._cache.get(key) if key is not None else None
            if runner is None:
                netlist, relaxed, queue_capacity, rs_capacity, kernel, instruments = spec
                runner = BatchRunner(
                    netlist,
                    relaxed=relaxed,
                    queue_capacity=queue_capacity,
                    rs_capacity=rs_capacity,
                    kernel=kernel,
                    instruments=instruments,
                )
                if self._on_build is not None:
                    self._on_build()
                if key is not None:
                    self._cache.put(key, runner)
            self._runners[name] = runner
        return runner


class BatchRunner:
    """Evaluates relay-station configurations against one elaborated netlist."""

    def __init__(
        self,
        netlist: Netlist,
        relaxed: bool = False,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        rs_capacity: int = RelayStation.RS_CAPACITY,
        kernel: Optional[str] = None,
        instruments: Optional[InstrumentSet] = None,
        period_memory: Optional[PeriodMemory] = None,
    ) -> None:
        """*period_memory* lets several runners share one warm-start store.

        The evaluation service (:mod:`repro.service`) passes a single
        :class:`~repro.engine.steady_state.PeriodMemory` to every layout it
        serves, so sibling shapes of one netlist family warm-start each
        other's detection windows across jobs; omitted, the runner keeps a
        private store (the historical behaviour).
        """
        self.netlist = netlist
        self.relaxed = relaxed
        self.queue_capacity = queue_capacity
        self.rs_capacity = rs_capacity
        self.kernel_name = resolve_kernel_name(kernel)
        self.instruments = (
            instruments if instruments is not None else InstrumentSet.none()
        )
        self._elaborator = Elaborator(netlist)
        self._period_memory = (
            period_memory if period_memory is not None else PeriodMemory()
        )
        self._serial_fallback_warned = False
        self._netlist_digest: Optional[str] = None
        self._netlist_digest_known = False
        #: Cumulative recovery counters of every pooled ``run_many`` on this
        #: runner (respawns/retries/timeouts/bisections/quarantines); see
        #: :class:`~repro.engine.result.SupervisionStats`.
        self.supervision = SupervisionStats()

    def netlist_digest(self) -> Optional[str]:
        """:func:`content_digest` of the netlist, computed once per runner.

        The result cache of :mod:`repro.service` builds its
        content-addressed keys from it; closure-carrying netlists that
        cannot be pickled return None and are simply not cacheable.
        """
        if not self._netlist_digest_known:
            self._netlist_digest_known = True
            self._netlist_digest = content_digest(self.netlist)
        return self._netlist_digest

    # -- single evaluation --------------------------------------------------
    def run(
        self,
        configuration: Optional[RSConfiguration] = None,
        rs_counts: Optional[Mapping[str, int]] = None,
        relaxed: Optional[bool] = None,
        queue_capacity: Optional[int] = None,
        instruments: Optional[InstrumentSet] = None,
        **controls: Any,
    ) -> LidResult:
        """Evaluate one configuration, reusing the shared layout.

        *relaxed* / *queue_capacity* override the runner defaults for this
        call only (the sweeps use this to vary FIFO depth over a fixed
        layout).  Remaining keyword arguments are :class:`RunControls` fields.
        """
        model = self._elaborator.bind(
            rs_counts=rs_counts,
            configuration=configuration,
            relaxed=self.relaxed if relaxed is None else relaxed,
            queue_capacity=(
                self.queue_capacity if queue_capacity is None else queue_capacity
            ),
            rs_capacity=self.rs_capacity,
        )
        kernel = make_kernel(model, self.kernel_name)
        return kernel.run(
            RunControls(**controls),
            instruments if instruments is not None else self.instruments,
        )

    def _evaluate(
        self,
        configuration: Optional[RSConfiguration],
        rs_counts: Optional[Mapping[str, int]],
        controls: RunControls,
        on_error: str,
        queue_capacity: Optional[int] = None,
    ) -> BatchResult:
        model = self._elaborator.bind(
            rs_counts=rs_counts,
            configuration=configuration,
            relaxed=self.relaxed,
            queue_capacity=(
                self.queue_capacity if queue_capacity is None else queue_capacity
            ),
            rs_capacity=self.rs_capacity,
        )
        kernel = make_kernel(model, self.kernel_name)
        # Warm start: size the steady-state detection window from periods
        # already observed on this layout (and disarm detection for binding
        # shapes a previous equally-bounded run proved non-recurring).  Only
        # runs whose kernel actually arms the detector participate — a run
        # where detection is impossible (trace instrument, on_cycle
        # observer, unsupported processes) must not record a "miss".
        memory_key = None
        window = 0
        lockstep_eligible = False
        if self.kernel_name == "lockstep":
            from .lockstep import lockstep_reason

            lockstep_eligible = (
                lockstep_reason(model, controls, self.instruments) is None
            )
        # Eligible lockstep runs bypass steady-state detection entirely (see
        # repro.engine.lockstep); they must not record detection "misses"
        # into the period memory their scalar siblings warm-start from.
        if not lockstep_eligible and detection_plan(
            model, self.instruments, controls.steady_state,
            controls.steady_state_window, controls.on_cycle,
            asymptotic=controls.asymptotic(),
        ) is not None:
            memory_key = PeriodMemory.key_for(model)
            default_window = (
                controls.steady_state_window
                if controls.steady_state_window is not None
                else DEFAULT_DETECTION_WINDOW
            )
            window = self._period_memory.window_for(
                memory_key, controls.loop_bound(), default_window
            )
            if window != default_window:
                controls = replace(controls, steady_state_window=window)
        try:
            # Fault-injection hook (no-op without an active FaultPlan): a
            # matching "raise" fault with simulation=True lands in the
            # except clause below like any simulator error; hard faults
            # escape to the supervision layer.
            maybe_fault_item(model.configuration_label)
            result = kernel.run(controls, self.instruments)
        except (DeadlockError, SimulationError) as exc:
            if on_error == "raise":
                raise
            return BatchResult(
                label=model.configuration_label,
                cycles=0,
                firings={},
                halted=False,
                wrapper_kind=model.wrapper_kind,
                error=f"{type(exc).__name__}: {exc}",
            )
        if memory_key is not None:
            self._period_memory.observe(
                memory_key, result.warmup_cycles, result.period,
                min(result.cycles, window),
            )
        return BatchResult.from_result(result)

    def _evaluate_lockstep(
        self,
        norm_items: Sequence[_Item],
        controls: RunControls,
        on_error: str,
    ) -> List[BatchResult]:
        """Evaluate same-layout items through one vectorised lockstep run.

        Every item is bound to a model first; if the layout/run combination
        is lockstep-ineligible (see :func:`repro.engine.lockstep.lockstep_reason`)
        the whole group falls back to the per-item scalar path, preserving
        the period-memory warm-start machinery.  With ``on_error="raise"``
        the first failing lane in submission order raises (the vectorised
        run completes its sibling lanes first, but the surfaced exception is
        the same one serial evaluation would have raised).
        """
        from .lockstep import lockstep_reason, run_lockstep_batch

        models = [
            self._elaborator.bind(
                rs_counts=rs_counts,
                configuration=configuration,
                relaxed=self.relaxed,
                queue_capacity=(
                    self.queue_capacity if capacity is None else capacity
                ),
                rs_capacity=self.rs_capacity,
            )
            for configuration, rs_counts, capacity in norm_items
        ]
        if not models:
            return []
        # Eligibility depends on the shared layout's processes and the batch
        # controls/instruments, not on per-lane RS counts or capacities, so
        # one check covers the whole group.
        if lockstep_reason(models[0], controls, self.instruments) is not None:
            return [
                self._evaluate(
                    configuration, rs_counts, controls, on_error,
                    queue_capacity=capacity,
                )
                for configuration, rs_counts, capacity in norm_items
            ]
        for model in models:
            # Item-level fault hook parity with the scalar path: a poisoned
            # lane fails the whole vectorised call, which the supervision
            # layer then bisects down to the lane.
            maybe_fault_item(model.configuration_label)
        outcomes = run_lockstep_batch(models, controls, self.instruments)
        results: List[BatchResult] = []
        for model, outcome in zip(models, outcomes):
            if isinstance(outcome, Exception):
                if on_error == "raise":
                    raise outcome
                results.append(
                    BatchResult(
                        label=model.configuration_label,
                        cycles=0,
                        firings={},
                        halted=False,
                        wrapper_kind=model.wrapper_kind,
                        error=f"{type(outcome).__name__}: {outcome}",
                    )
                )
            else:
                results.append(BatchResult.from_result(outcome))
        return results

    # -- batch evaluation ---------------------------------------------------
    def run_many(
        self,
        configurations: Sequence[BatchItem],
        workers: int = 1,
        shards: Optional[int] = None,
        on_error: str = "raise",
        start_method: Optional[str] = None,
        queue_capacity: Optional[int] = None,
        controls: Optional[RunControls] = None,
        coordinator: Optional[object] = None,
        **control_kwargs: Any,
    ) -> List[BatchResult]:
        """Evaluate every configuration; optionally fan out across processes.

        Each entry of *configurations* is an :class:`RSConfiguration`, a raw
        per-channel mapping, or a ``(config, overrides)`` pair whose override
        mapping may set ``queue_capacity`` for that item alone (the FIFO-depth
        sweep uses this); the *queue_capacity* argument overrides the runner
        default for the whole batch.

        ``on_error="zero"`` converts deadlocks/timeouts into failed
        :class:`BatchResult` entries (throughput 0.0) instead of raising —
        handy when sweeping spaces that contain infeasible corners.

        With ``workers > 1`` the items are chunked into *shards* (default:
        enough for load balancing, at most four per worker) and evaluated by
        the supervised executor (see :class:`MultiNetlistRunner`, which this
        wraps with a single layout).  Workers are seeded with a pickled work
        spec and rebuild layout + kernel caches once, so the path is safe
        under both ``fork`` and ``spawn`` start methods (*start_method*
        forces one).  Unpicklable netlists or controls reach the same pool
        through fork inheritance where the platform has ``fork``; if
        parallelism is genuinely unavailable a :class:`RuntimeWarning`
        naming the reason is emitted — once per runner instance — and the
        batch runs serially.  Worker runs never mutate this process'
        netlist.  With a *coordinator* that has live agents, the shards go
        to remote agents instead, under the same dispatcher.

        Run controls may be passed as keyword arguments or, mutually
        exclusively, as a prebuilt :class:`RunControls` via *controls* (the
        evaluation service holds controls objects per job).
        """
        items = [
            ("_", self._normalise_item(entry, queue_capacity))
            for entry in configurations
        ]
        return _run_tagged(
            {"_": self}, items, _resolve_controls(controls, control_kwargs),
            on_error, workers, shards, start_method, owner=self,
            coordinator=coordinator,
        )

    # -- helpers -------------------------------------------------------------
    @staticmethod
    def _normalise_item(
        entry: BatchItem, batch_capacity: Optional[int]
    ) -> _Item:
        overrides: Mapping[str, Any] = {}
        config: ConfigLike
        if isinstance(entry, tuple):
            config, overrides = entry
            unknown = set(overrides) - _ITEM_OVERRIDES
            if unknown:
                raise SimulationError(
                    f"unknown batch item overrides {sorted(unknown)}; "
                    f"supported: {sorted(_ITEM_OVERRIDES)}"
                )
        else:
            config = entry
        capacity = overrides.get("queue_capacity", batch_capacity)
        if isinstance(config, RSConfiguration):
            return (config, None, capacity)
        return (None, dict(config), capacity)

    def _spawn_spec(self) -> Tuple:
        """The picklable rebuild spec of this runner (may fail to pickle)."""
        return (
            self.netlist,
            self.relaxed,
            self.queue_capacity,
            self.rs_capacity,
            self.kernel_name,
            self.instruments,
        )

    # -- objective adapter --------------------------------------------------
    def objective(
        self,
        golden_cycles: Optional[int] = None,
        on_error: str = "raise",
        workers: int = 1,
        **controls: Any,
    ):
        """An optimiser objective ``per-link assignment -> throughput``.

        The returned callable plugs straight into the strategies of
        :mod:`repro.core.optimizer`.  With *golden_cycles* the score is the
        paper's golden-relative throughput, otherwise the system minimum of
        firings per cycle.  Long-horizon objectives (``horizon=100_000``)
        are served by steady-state extrapolation wherever the netlist
        supports detection, and successive evaluations warm-start from the
        periods already seen on this layout.

        The callable also carries a ``many(assignments)`` method evaluating a
        whole population through :meth:`run_many` (sharded across *workers*
        when > 1); batch-aware strategies such as
        :func:`repro.core.optimizer.exhaustive_search` use it automatically.
        """
        run_controls_kwargs = dict(controls)
        run_controls = RunControls(**run_controls_kwargs)

        def evaluate(assignment: Mapping[str, int]) -> float:
            config = RSConfiguration.from_mapping(assignment, label="candidate")
            result = self._evaluate(config, None, run_controls, on_error)
            return result.throughput(golden_cycles)

        def evaluate_many(assignments: Sequence[Mapping[str, int]]) -> List[float]:
            configs = [
                RSConfiguration.from_mapping(assignment, label="candidate")
                for assignment in assignments
            ]
            results = self.run_many(
                configs, workers=workers, on_error=on_error, **run_controls_kwargs
            )
            return [result.throughput(golden_cycles) for result in results]

        evaluate.many = evaluate_many
        return evaluate


class MultiNetlistRunner:
    """One persistent pool serving several elaborated layouts.

    Mixed-workload sweeps (sort + matmul in one batch), WP1/WP2 pairs and
    any other multi-layout evaluation share one scheduler: work items are
    ``(layout name, batch item)`` pairs, results come back in submission
    order, and with ``workers > 1`` a single worker pool serves every
    layout — each worker rebuilds one :class:`BatchRunner` per layout from
    the pickled spec and keeps its compiled-function caches and steady-state
    period memory warm across all the shards it evaluates.
    """

    def __init__(self, runners: Mapping[str, "BatchRunner"]) -> None:
        if not runners:
            raise SimulationError("MultiNetlistRunner needs at least one layout")
        self.runners: Dict[str, BatchRunner] = dict(runners)
        self._serial_fallback_warned = False
        #: Cumulative recovery counters of every pooled ``run_many`` call
        #: (see :class:`~repro.engine.result.SupervisionStats`); the
        #: evaluation service surfaces these through ``stats()``.
        self.supervision = SupervisionStats()

    @classmethod
    def from_netlists(
        cls,
        netlists: Mapping[str, Netlist],
        per_layout: Optional[Mapping[str, Mapping[str, Any]]] = None,
        period_memory: Optional[PeriodMemory] = None,
        **defaults: Any,
    ) -> "MultiNetlistRunner":
        """Build one :class:`BatchRunner` per named netlist.

        *defaults* are passed to every runner; *per_layout* overrides them
        for individual names (e.g. ``{"wp2": {"relaxed": True}}``).  With
        *period_memory* every runner shares that single warm-start store, so
        periods detected on one layout size the detection windows of sibling
        shapes on every other (the evaluation service relies on this; see
        :class:`~repro.engine.steady_state.PeriodMemory`).
        """
        per_layout = per_layout or {}
        runners = {}
        for name, netlist in netlists.items():
            kwargs = dict(defaults)
            if period_memory is not None:
                kwargs["period_memory"] = period_memory
            kwargs.update(per_layout.get(name, {}))
            runners[name] = BatchRunner(netlist, **kwargs)
        return cls(runners)

    def runner(self, name: str) -> "BatchRunner":
        """The underlying :class:`BatchRunner` of one layout."""
        try:
            return self.runners[name]
        except KeyError:
            raise SimulationError(
                f"unknown layout {name!r}; available: {sorted(self.runners)}"
            ) from None

    def run_many(
        self,
        items: Sequence[TaggedItem],
        workers: int = 1,
        shards: Optional[int] = None,
        on_error: str = "raise",
        start_method: Optional[str] = None,
        queue_capacity: Optional[int] = None,
        controls: Optional[RunControls] = None,
        coordinator: Optional[object] = None,
        **control_kwargs: Any,
    ) -> List[BatchResult]:
        """Evaluate every tagged item; optionally fan out across processes.

        Each entry of *items* is ``(layout name, batch item)`` where the
        batch item follows :meth:`BatchRunner.run_many` (configuration or
        per-channel mapping, optionally with per-item overrides);
        *queue_capacity* overrides the runner defaults for the whole batch.
        Results preserve submission order, so heterogeneous batches
        interleave freely.  Remaining keyword arguments are
        :class:`RunControls` fields shared by the whole batch, or pass a
        prebuilt object via *controls* (mutually exclusive).
        """
        normalised: List[_Tagged] = []
        for name, entry in items:
            runner = self.runner(name)
            normalised.append((name, runner._normalise_item(entry, queue_capacity)))
        return _run_tagged(
            self.runners, normalised,
            _resolve_controls(controls, control_kwargs), on_error,
            workers, shards, start_method, owner=self,
            coordinator=coordinator,
        )


# ---------------------------------------------------------------------------
# Shared tagged-batch evaluation machinery
# ---------------------------------------------------------------------------

def _resolve_controls(
    controls: Optional[RunControls], control_kwargs: Dict[str, Any]
) -> RunControls:
    """One batch's controls: a prebuilt object or keyword fields, not both."""
    if controls is None:
        return RunControls(**control_kwargs)
    if control_kwargs:
        raise SimulationError(
            "pass run controls either as a RunControls object or as keyword "
            f"arguments, not both (got controls= plus {sorted(control_kwargs)})"
        )
    return controls


def _warn_serial_fallback(
    owner: Optional[object],
    reason: str,
    stats: Optional[SupervisionStats] = None,
) -> None:
    """Emit the serial-fallback warning once per owning runner instance.

    A long sweep calls ``run_many`` per batch; repeating the same warning on
    every call drowns real signal, so the first fallback on a runner warns —
    with the concrete *reason* parallelism is unavailable — and later
    batches on the same instance stay quiet.

    With *stats*, the supervision history that preceded the fallback is
    appended, so an operator can tell "parallelism was never available"
    apart from "the pool kept dying and supervision gave up".
    """
    if owner is not None:
        if getattr(owner, "_serial_fallback_warned", False):
            return
        owner._serial_fallback_warned = True
    detail = ""
    if stats is not None and stats.eventful:
        detail = f" [supervision before fallback: {stats.summary()}]"
    warnings.warn(
        f"BatchRunner.run_many: parallel evaluation unavailable ({reason}); "
        f"evaluating serially (warned once per runner instance){detail}",
        RuntimeWarning,
        stacklevel=4,
    )


def _run_tagged(
    runners: Mapping[str, BatchRunner],
    items: List[_Tagged],
    controls: RunControls,
    on_error: str,
    workers: int,
    shards: Optional[int],
    start_method: Optional[str],
    owner: Optional[object] = None,
    coordinator: Optional[object] = None,
) -> List[BatchResult]:
    # Distributed tier first: with a coordinator that has live worker
    # agents, shards go over the wire instead of to local processes.  The
    # coordinator is duck-typed (available_workers / transport) so the
    # engine layer never imports repro.distributed.  Zero connected agents,
    # an unpicklable netlist, or observer-carrying controls all degrade to
    # the local paths below.
    if coordinator is not None and items:
        payload = _spawn_payload(runners)
        agents = coordinator.available_workers()
        if payload is not None and _controls_picklable(controls) and agents > 0:
            transport = coordinator.transport(
                payload, controls, on_error, _fault_json()
            )
            return _run_supervised(
                runners, items, controls, on_error, owner, transport,
                _chunk(items, _shard_count(len(items), agents, shards)),
            )
    n_workers = min(workers, len(items))
    if n_workers <= 1:
        return _evaluate_shard(runners, items, controls, on_error)

    payload = _spawn_payload(runners)
    if payload is not None and _controls_picklable(controls):
        source: Any = payload
        method = start_method or _default_start_method()
        reason = "no multiprocessing start method available"
    else:
        # Unpicklable work: the workers inherit the driver's runners (and
        # controls) through fork instead of unpickling a spec.
        source = runners
        method = "fork" if _fork_available() and start_method in (None, "fork") else None
        reason = (
            "netlist not picklable (closure-based processes?)"
            if payload is None
            else "run controls not picklable (on_cycle callback?)"
        ) + " and the fork start method is not supported here"
    if method is None:
        _warn_serial_fallback(owner, reason)
        return _evaluate_shard(runners, items, controls, on_error)
    pool = SupervisedPool(
        source, method, n_workers, controls, on_error, _fault_json()
    )
    return _run_supervised(
        runners, items, controls, on_error, owner, pool,
        _chunk(items, _shard_count(len(items), n_workers, shards)),
    )


def _evaluate_shard(
    runners: Mapping[str, BatchRunner],
    items: Sequence[_Tagged],
    controls: RunControls,
    on_error: str,
) -> List[BatchResult]:
    """Evaluate one shard in this process, grouping lockstep-kernel items.

    Items whose runner uses the lockstep kernel are collected per layout and
    evaluated through one vectorised :func:`repro.engine.lockstep.run_lockstep_batch`
    call (the sweep dimension becomes the vector axis); everything else keeps
    the historical one-``_evaluate``-per-item path.  Results come back in
    submission order either way.
    """
    lockstep_groups: Dict[str, List[int]] = {}
    for index, (name, _item) in enumerate(items):
        if runners[name].kernel_name == "lockstep":
            lockstep_groups.setdefault(name, []).append(index)
    if not lockstep_groups:
        return [
            runners[name]._evaluate(
                configuration, rs_counts, controls, on_error,
                queue_capacity=capacity,
            )
            for name, (configuration, rs_counts, capacity) in items
        ]
    results: List[Optional[BatchResult]] = [None] * len(items)
    grouped = {index for indices in lockstep_groups.values() for index in indices}
    for index, (name, (configuration, rs_counts, capacity)) in enumerate(items):
        if index not in grouped:
            results[index] = runners[name]._evaluate(
                configuration, rs_counts, controls, on_error,
                queue_capacity=capacity,
            )
    for name, indices in lockstep_groups.items():
        batch = runners[name]._evaluate_lockstep(
            [items[index][1] for index in indices], controls, on_error
        )
        for index, result in zip(indices, batch):
            results[index] = result
    return results  # type: ignore[return-value]


def _run_supervised(
    runners: Mapping[str, BatchRunner],
    items: List[_Tagged],
    controls: RunControls,
    on_error: str,
    owner: Optional[object],
    executor: Any,
    shard_lists: List[List[_Tagged]],
) -> List[BatchResult]:
    """Run the shards on a transport (local pool or remote agents).

    Quarantined items become per-item error rows (``on_error="zero"``) or
    are raised (``on_error="raise"``).  If the executor gives up — the pool
    exhausted its respawn budget, or every agent disappeared — the
    remaining items are finished serially here and the fallback warning
    carries the supervision history.  Recovery counters accumulate on
    ``owner.supervision``.
    """
    slots = executor.run(shard_lists)
    stats: SupervisionStats = executor.stats
    results: List[Optional[BatchResult]] = [None] * len(items)
    unfinished: List[int] = []
    for index, slot in enumerate(slots):
        if isinstance(slot, _QuarantinedItem):
            results[index] = _quarantine_row(runners, items[index], slot)
        elif slot is None:
            unfinished.append(index)
        else:
            results[index] = slot
    if unfinished:
        stats.serial_fallback_items += len(unfinished)
        _warn_serial_fallback(
            owner,
            f"{executor.giveup_reason}; finishing {len(unfinished)} items serially",
            stats,
        )
        for index in unfinished:
            name, (configuration, rs_counts, capacity) = items[index]
            results[index] = runners[name]._evaluate(
                configuration, rs_counts, controls, on_error,
                queue_capacity=capacity,
            )
    if owner is not None and hasattr(owner, "supervision"):
        owner.supervision.merge(stats)
    return results  # type: ignore[return-value]


def _quarantine_row(
    runners: Mapping[str, BatchRunner],
    tagged: _Tagged,
    marker: "Any",
) -> BatchResult:
    """Per-item error row for a quarantined item (``on_error="zero"`` shape)."""
    name, (configuration, rs_counts, capacity) = tagged
    runner = runners[name]
    try:
        _, label = resolve_rs_counts(
            runner.netlist, rs_counts=rs_counts, configuration=configuration
        )
    except Exception:  # noqa: BLE001 - labelling must never mask the error
        label = (
            configuration.label if configuration is not None else "per-channel"
        )
    return BatchResult(
        label=label,
        cycles=0,
        firings={},
        halted=False,
        wrapper_kind="WP2" if runner.relaxed else "WP1",
        error=marker.error,
        attempts=marker.attempts,
    )


def _spawn_payload(runners: Mapping[str, BatchRunner]) -> Optional[bytes]:
    """Pickled work spec for pool workers, or ``None`` if not picklable."""
    try:
        return pickle.dumps(
            {name: runner._spawn_spec() for name, runner in runners.items()}
        )
    except Exception:
        return None


def _fault_json() -> Optional[str]:
    """The driver's active fault plan, serialised for the workers."""
    plan = active_plan()
    return plan.to_json() if plan else None


# ---------------------------------------------------------------------------
# Module helpers
# ---------------------------------------------------------------------------

def _fork_available() -> bool:
    if sys.platform == "win32":
        return False
    return "fork" in multiprocessing.get_all_start_methods()


def _default_start_method() -> Optional[str]:
    """Preferred pool start method: fork (cheap) where safe, spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    if not methods:
        return None
    if sys.platform != "win32" and "fork" in methods:
        return "fork"
    for method in ("spawn", "forkserver"):
        if method in methods:
            return method
    return methods[0]


def _controls_picklable(controls: RunControls) -> bool:
    if controls.on_cycle is None:
        return True
    try:
        pickle.dumps(controls)
        return True
    except Exception:
        return False


def _shard_count(n_items: int, n_workers: int, shards: Optional[int]) -> int:
    """Number of shards: caller's choice (clamped), else ~4 per worker."""
    if shards is not None:
        return max(1, min(shards, n_items))
    return min(n_items, n_workers * 4)


def _chunk(items: List[_Tagged], n_shards: int) -> List[List[_Tagged]]:
    """Split *items* into *n_shards* contiguous, order-preserving chunks."""
    size = math.ceil(len(items) / n_shards)
    return [items[i : i + size] for i in range(0, len(items), size)]
