"""Result types shared by every simulation kernel.

:class:`LidResult` used to live in :mod:`repro.core.simulator`; it moved here
so the kernels (which construct results) never import the facade (which
selects kernels).  :mod:`repro.core.simulator` re-exports it, so existing
imports keep working.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.shell import ShellStats
from ..core.tokens import VOID, Token, is_token
from ..core.traces import SystemTrace


def coerce_native(value: Any) -> Any:
    """Convert a NumPy scalar to its native Python equivalent, pass-through else.

    Results assembled from NumPy arrays (the lockstep kernel's callers, or
    user code slicing its own arrays) can carry ``np.int64``/``np.bool_``
    scalars; ``json.dump`` rejects them, which would poison the disk cache
    tier and the ``submit`` JSON output.  The check is duck-typed on the
    type's module so this module never imports NumPy (an optional
    dependency).
    """
    if type(value).__module__ == "numpy":
        return value.item()
    return value


def native_int_map(mapping: Dict[str, Any]) -> Dict[str, int]:
    """A plain dict copy of *mapping* with NumPy scalar values coerced."""
    return {key: coerce_native(value) for key, value in mapping.items()}


def trace_to_lists(trace: SystemTrace) -> Dict[str, List[Any]]:
    """Canonical list form of a trace: ``{channel: [[tag, value] | None]}``.

    A valid :class:`~repro.core.tokens.Token` becomes the two-element list
    ``[tag, value]``; the void symbol τ becomes ``None``.  Values are kept
    as-is — JSON-compatibility is the caller's concern (uninstrumented runs,
    the cached path, carry empty traces anyway).
    """
    return {
        name: [
            [item.tag, item.value] if is_token(item) else None
            for item in channel.items
        ]
        for name, channel in trace.items()
    }


def trace_from_lists_canonical(data: Dict[str, List[Any]]) -> SystemTrace:
    """Rebuild a :class:`SystemTrace` from :func:`trace_to_lists` output."""
    trace = SystemTrace(data)
    for name, items in data.items():
        trace[name].items = [
            VOID if item is None else Token(value=item[1], tag=item[0])
            for item in items
        ]
    return trace


@dataclass
class SupervisionStats:
    """Recovery counters of one (or many, merged) supervised batch runs.

    Produced by :class:`repro.engine.supervised_pool.SupervisedPool` and
    accumulated on :class:`~repro.engine.batch.BatchRunner` /
    :class:`~repro.engine.batch.MultiNetlistRunner` across every pooled
    ``run_many`` call; :meth:`repro.service.scheduler.EvaluationService.stats`
    surfaces the merged record.  All-zero means every shard succeeded on its
    first attempt with no worker loss — the common case.
    """

    #: Worker processes respawned after dying (crash or timeout kill).
    respawns: int = 0
    #: Shards re-dispatched after a failed attempt (backoff applied).
    retries: int = 0
    #: Shards whose worker was killed for exceeding ``shard_timeout``.
    timeouts: int = 0
    #: Failed multi-item shards split in half to isolate a poisoned item.
    bisections: int = 0
    #: Single items that exhausted every retry and became per-item error rows.
    quarantined: int = 0
    #: Items completed serially in the driver after the pool gave up.
    serial_fallback_items: int = 0
    #: Remote-worker leases that expired without a heartbeat renewal
    #: (distributed tier only; the shard was requeued).
    lease_expiries: int = 0
    #: Protocol messages dropped for failing their end-to-end checksum
    #: (distributed tier only; the shard was requeued).
    corrupt_payloads: int = 0
    #: Remote workers quarantined for repeated faults (no further leases).
    workers_quarantined: int = 0

    def merge(self, other: "SupervisionStats") -> "SupervisionStats":
        """Accumulate *other* into self (returns self for chaining)."""
        self.respawns += other.respawns
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.bisections += other.bisections
        self.quarantined += other.quarantined
        self.serial_fallback_items += other.serial_fallback_items
        self.lease_expiries += other.lease_expiries
        self.corrupt_payloads += other.corrupt_payloads
        self.workers_quarantined += other.workers_quarantined
        return self

    @property
    def eventful(self) -> bool:
        """True when any recovery action was taken."""
        return any(
            (
                self.respawns, self.retries, self.timeouts,
                self.bisections, self.quarantined, self.serial_fallback_items,
                self.lease_expiries, self.corrupt_payloads,
                self.workers_quarantined,
            )
        )

    def summary(self) -> str:
        """Compact human-readable form for warnings and logs."""
        text = (
            f"{self.respawns} respawns, {self.retries} retries, "
            f"{self.timeouts} timeouts, {self.bisections} bisections, "
            f"{self.quarantined} quarantined, "
            f"{self.serial_fallback_items} serial-fallback items"
        )
        if self.lease_expiries or self.corrupt_payloads or self.workers_quarantined:
            text += (
                f", {self.lease_expiries} lease expiries, "
                f"{self.corrupt_payloads} corrupt payloads, "
                f"{self.workers_quarantined} workers quarantined"
            )
        return text

    def to_dict(self) -> Dict[str, int]:
        return {
            "respawns": self.respawns,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "bisections": self.bisections,
            "quarantined": self.quarantined,
            "serial_fallback_items": self.serial_fallback_items,
            "lease_expiries": self.lease_expiries,
            "corrupt_payloads": self.corrupt_payloads,
            "workers_quarantined": self.workers_quarantined,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "SupervisionStats":
        return cls(**data)


@dataclass
class LidResult:
    """Outcome of a latency-insensitive simulation run."""

    cycles: int
    firings: Dict[str, int]
    trace: SystemTrace
    halted: bool
    wrapper_kind: str
    configuration_label: str
    rs_counts: Dict[str, int]
    shell_stats: Dict[str, ShellStats] = field(default_factory=dict)
    max_queue_occupancy: Dict[str, int] = field(default_factory=dict)
    #: Length of the detected steady-state period in cycles, when the kernel's
    #: steady-state detector observed a state recurrence (None otherwise).
    period: Optional[int] = None
    #: Cycle at which the recurring state was first seen (the transient before
    #: the periodic regime).  Only meaningful when :attr:`period` is set.
    #: Exact except under the compiled kernel's certified search, which
    #: reports the checkpoint the recurrence was found against: at most one
    #: checkpoint spacing past the true transient (DESIGN.md §5).
    warmup_cycles: Optional[int] = None
    #: True when part of the run was skipped and reconstructed analytically
    #: from the detected period.  Extrapolated counts (cycles, firings, stall
    #: statistics, occupancy maxima) are identical to full simulation; only
    #: side effects inside process objects (e.g. values a sink recorded) stop
    #: at the point the skip began.
    extrapolated: bool = False
    #: Provenance, outside equality and the canonical form: the kernel that
    #: produced the counts (``"replay"`` for the compiled kernel's replay
    #: layout; None on a result rebuilt from its dict form) and, when a row
    #: offered a trace ran in full, why (e.g. ``"trace exhausted"``).
    kernel: Optional[str] = field(default=None, compare=False)
    fallback: Optional[str] = field(default=None, compare=False)

    def throughput(self, process: Optional[str] = None) -> float:
        """Valid firings per cycle for one process (or the system minimum).

        In the steady state the system is periodic and this ratio converges
        to the asymptotic throughput ``Δfirings / period`` — the quantity the
        paper's relay-station insertion objective maximises.  Results marked
        :attr:`extrapolated` carry the exact long-horizon counts (identical
        to full simulation), so the ratio needs no correction.

        An empty ``firings`` mapping (a netlist with no processes, or results
        filtered down to nothing) yields 0.0 rather than raising, and so does
        a *process* name absent from ``firings`` (unknown, or filtered out of
        the result): a process with no recorded firings has throughput 0.0.
        """
        if self.cycles == 0:
            return 0.0
        if process is not None:
            return self.firings.get(process, 0) / self.cycles
        if not self.firings:
            return 0.0
        return min(count for count in self.firings.values()) / self.cycles

    def total_relay_stations(self) -> int:
        """Number of relay stations instantiated for this run."""
        return sum(self.rs_counts.values())

    # -- canonical serialization -------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical dict form of the result (see ``repro.service.cache``).

        Every field round-trips through :meth:`from_dict`; the form is
        JSON-serializable whenever the traced token values are (uninstrumented
        runs — the batch and service paths — carry empty traces and are always
        JSON-safe).
        """
        return {
            "cycles": coerce_native(self.cycles),
            "firings": native_int_map(self.firings),
            "trace": trace_to_lists(self.trace),
            "halted": coerce_native(self.halted),
            "wrapper_kind": self.wrapper_kind,
            "configuration_label": self.configuration_label,
            "rs_counts": native_int_map(self.rs_counts),
            "shell_stats": {
                name: stats.to_dict() for name, stats in self.shell_stats.items()
            },
            "max_queue_occupancy": native_int_map(self.max_queue_occupancy),
            "period": coerce_native(self.period),
            "warmup_cycles": coerce_native(self.warmup_cycles),
            "extrapolated": coerce_native(self.extrapolated),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LidResult":
        """Rebuild a result from its :meth:`to_dict` form."""
        return cls(
            cycles=data["cycles"],
            firings=dict(data["firings"]),
            trace=trace_from_lists_canonical(data["trace"]),
            halted=data["halted"],
            wrapper_kind=data["wrapper_kind"],
            configuration_label=data["configuration_label"],
            rs_counts=dict(data["rs_counts"]),
            shell_stats={
                name: ShellStats.from_dict(stats)
                for name, stats in data["shell_stats"].items()
            },
            max_queue_occupancy=dict(data["max_queue_occupancy"]),
            period=data["period"],
            warmup_cycles=data["warmup_cycles"],
            extrapolated=data["extrapolated"],
        )
