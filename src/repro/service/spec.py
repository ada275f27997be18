"""Job specs: what a submission means, decided in one place.

A *job spec* names work without shipping code: a workload from the CPU
zoo, a topology from the generator zoo, or an already-registered layout
(by exact name or by netlist-digest prefix — layout names embed the
content digest, so a digest a client learned from one submission
re-addresses the same netlist later)::

    {"spec": {"kind": "workload", "workload": "sort", "length": 10},
     "wrappers": ["wp1", "wp2"],
     "configurations": [0, 1, 2,
                        {"label": "deep RF-DC", "default": 1,
                         "overrides": {"RF-DC": 3}}],
     "queue_capacity": 4,
     "kernel": null,
     "controls": {"max_cycles": 5000000}}

:func:`parse_submission` validates such a body into a :class:`Submission`
(every error names the offending field) and :func:`parse_controls` builds
the :class:`~repro.engine.kernel.RunControls` keyword arguments —
observer-free by construction, so every spec job is content-addressable
and cacheable.  :class:`SpecResolver` turns a submission into service
items on one :class:`~repro.service.EvaluationService`; the daemon and the
in-process ``repro submit`` both go through it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.config import RSConfiguration
from ..core.exceptions import SimulationError
from ..engine.kernel import FREE_RUNNING_HORIZON

#: Spec kinds a submission may carry.
SPEC_KINDS = ("workload", "topology", "layout")
#: CPU workloads the ``workload`` kind knows how to build.
WORKLOADS = ("sort", "matmul")
#: Wrapper flavours.
WRAPPERS = ("wp1", "wp2")

#: RunControls fields a client may set, with their JSON validators.
_CONTROL_FIELDS = {
    "max_cycles": int,
    "stop_process": str,
    "target_firings": dict,
    "extra_cycles": int,
    "deadlock_limit": int,
    "horizon": int,
    "steady_state": bool,
    "steady_state_window": int,
    "shard_timeout": (int, float),
    "max_shard_retries": int,
    "retry_backoff": (int, float),
}


def parse_controls(data: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Validate the ``controls`` object into RunControls keyword arguments.

    Returns the kwargs rather than a built object so the resolver can fill
    spec-derived defaults (a workload's stop process, a topology's horizon)
    before construction.  ``on_cycle`` is not reachable from a spec — spec
    jobs stay cacheable by construction.
    """
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise SimulationError(
            f"'controls' must be an object, got {type(data).__name__}"
        )
    unknown = set(data) - set(_CONTROL_FIELDS)
    if unknown:
        raise SimulationError(
            f"unknown controls fields {sorted(unknown)} "
            f"(valid: {sorted(_CONTROL_FIELDS)})"
        )
    kwargs: Dict[str, Any] = {}
    for name, value in data.items():
        if value is None:
            continue
        expected = _CONTROL_FIELDS[name]
        if not isinstance(value, expected) or isinstance(value, bool) != (
            expected is bool
        ):
            raise SimulationError(
                f"controls field {name!r} has the wrong type "
                f"({type(value).__name__})"
            )
        kwargs[name] = value
    targets = kwargs.get("target_firings")
    if targets is not None:
        for process, count in targets.items():
            if not isinstance(process, str) or not isinstance(count, int):
                raise SimulationError(
                    "controls field 'target_firings' must map process "
                    "names to integers"
                )
    return kwargs


@dataclass(frozen=True)
class Submission:
    """One validated spec body (:class:`SpecResolver` gives it meaning)."""

    kind: str
    #: kind == "workload": which CPU workload, and its shape parameters.
    workload: str = "sort"
    length: int = 10
    size: int = 3
    seed: int = 2005
    #: kind == "topology": generator name + parameters.
    topology: str = "ring"
    params: Dict[str, Any] = field(default_factory=dict)
    #: kind == "layout": registered layout name or netlist-digest prefix.
    layout: str = ""
    wrappers: Tuple[str, ...] = WRAPPERS
    #: Raw configuration entries: ints (uniform depth) or objects.
    configurations: List[Any] = field(default_factory=list)
    queue_capacity: Optional[int] = None
    kernel: Optional[str] = None
    controls: Dict[str, Any] = field(default_factory=dict)


def _require(data: Dict[str, Any], name: str, types, default=None):
    value = data.get(name, default)
    if value is default and default is not None:
        return default
    if not isinstance(value, types) or isinstance(value, bool):
        raise SimulationError(
            f"spec field {name!r} must be {getattr(types, '__name__', types)}"
        )
    return value


def parse_submission(body: Dict[str, Any]) -> Submission:
    """Validate a submission body; every error names the offending field."""
    if not isinstance(body, dict):
        raise SimulationError(
            f"submission body must be a JSON object, got {type(body).__name__}"
        )
    known = {
        "spec", "wrappers", "configurations", "queue_capacity", "kernel",
        "controls",
    }
    unknown = set(body) - known
    if unknown:
        raise SimulationError(
            f"unknown submission fields {sorted(unknown)} "
            f"(valid: {sorted(known)})"
        )
    spec = body.get("spec")
    if not isinstance(spec, dict):
        raise SimulationError("'spec' must be an object naming what to run")
    kind = spec.get("kind")
    if kind not in SPEC_KINDS:
        raise SimulationError(
            f"spec field 'kind' must be one of {list(SPEC_KINDS)}, "
            f"got {kind!r}"
        )

    wrappers = body.get("wrappers", list(WRAPPERS))
    if (
        not isinstance(wrappers, list)
        or not wrappers
        or any(w not in WRAPPERS for w in wrappers)
    ):
        raise SimulationError(
            f"'wrappers' must be a non-empty list drawn from {list(WRAPPERS)}"
        )

    configurations = body.get("configurations")
    if not isinstance(configurations, list) or not configurations:
        raise SimulationError(
            "'configurations' must be a non-empty list of depths (ints) "
            "or configuration objects"
        )
    for index, entry in enumerate(configurations):
        if isinstance(entry, bool) or not isinstance(entry, (int, dict)):
            raise SimulationError(
                f"configuration #{index} must be an int depth or an object, "
                f"got {type(entry).__name__}"
            )
        if isinstance(entry, int) and entry < 0:
            raise SimulationError(
                f"configuration #{index}: depth must be >= 0, got {entry}"
            )

    queue_capacity = body.get("queue_capacity")
    if queue_capacity is not None and (
        isinstance(queue_capacity, bool)
        or not isinstance(queue_capacity, int)
        or queue_capacity < 1
    ):
        raise SimulationError("'queue_capacity' must be a positive integer")

    kernel = body.get("kernel")
    if kernel is not None and not isinstance(kernel, str):
        raise SimulationError("'kernel' must be a kernel name string")

    fields: Dict[str, Any] = {
        "kind": kind,
        "wrappers": tuple(wrappers),
        "configurations": configurations,
        "queue_capacity": queue_capacity,
        "kernel": kernel,
        "controls": parse_controls(body.get("controls")),
    }
    if kind == "workload":
        workload = spec.get("workload", "sort")
        if workload not in WORKLOADS:
            raise SimulationError(
                f"spec field 'workload' must be one of {list(WORKLOADS)}, "
                f"got {workload!r}"
            )
        fields.update(
            workload=workload,
            length=_require(spec, "length", int, 10),
            size=_require(spec, "size", int, 3),
            seed=_require(spec, "seed", int, 2005),
        )
    elif kind == "topology":
        name = spec.get("topology")
        if not isinstance(name, str) or not name:
            raise SimulationError(
                "spec field 'topology' must name a generator kind"
            )
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise SimulationError("spec field 'params' must be an object")
        fields.update(topology=name, params=params)
    else:  # layout
        layout = spec.get("layout")
        if not isinstance(layout, str) or not layout:
            raise SimulationError(
                "spec field 'layout' must be a registered layout name or "
                "netlist-digest prefix"
            )
        fields.update(layout=layout)
    return Submission(**fields)


class UnknownLayoutError(SimulationError):
    """A ``layout`` spec matches no registered layout (the daemon's 404)."""


#: How a spec's integer depths become configurations, and the control
#: defaults it implies: what a later ``layout`` spec must reuse.
_Context = Tuple[Dict[str, Any], Callable[[int], Any]]


class SpecResolver:
    """Resolves submissions into items of one evaluation service.

    The ``workload`` and ``topology`` kinds differ only in the netlist they
    build, its control defaults (stop process or horizon) and how an
    integer depth becomes a configuration.  The resolver remembers the last
    two per layout it registers, so a later ``layout`` spec re-addressing
    that layout by name or digest prefix reproduces the original run
    identity — and therefore hits the same cache entries — without the
    client restating any of it.  Thread-safe.
    """

    def __init__(self, service) -> None:
        self.service = service
        self._lock = threading.Lock()
        self._context: Dict[str, _Context] = {}

    def resolve(
        self, sub: Submission
    ) -> Tuple[List[Tuple[str, Any]], Dict[str, Any], List[str]]:
        """A submission → (tagged items, control kwargs, layout names).

        Errors are :class:`SimulationError`; an unmatched ``layout`` spec
        raises :class:`UnknownLayoutError`.  Configurations are validated
        before any layout is registered.
        """
        if sub.kind == "layout":
            layouts = [self._find(sub.layout)]
            with self._lock:
                defaults, depth = self._context.get(
                    layouts[0], ({}, RSConfiguration.uniform)
                )
        else:
            netlist, defaults, depth = _build(sub)
        configs = [
            _configuration(index, entry, depth)
            for index, entry in enumerate(sub.configurations)
        ]
        if sub.kind != "layout":
            layouts = [
                self.service.ensure_layout(
                    netlist, relaxed=(wrapper == "wp2"), kernel=sub.kernel
                )
                for wrapper in sub.wrappers
            ]
            with self._lock:
                for layout in layouts:
                    self._context.setdefault(layout, (defaults, depth))
        items = [(layout, config) for layout in layouts for config in configs]
        return items, {**defaults, **sub.controls}, layouts

    def _find(self, wanted: str) -> str:
        registered = self.service.layouts
        if wanted in registered:
            return wanted
        # Derived layout names embed the netlist identity
        # (`nl-<digest12>-…`); an unambiguous digest prefix is an address.
        matches = [
            name for name in registered if _digest(name).startswith(wanted)
        ]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise UnknownLayoutError(
                f"no registered layout matches {wanted!r}; "
                f"registered: {registered}"
            )
        raise SimulationError(
            f"layout {wanted!r} is ambiguous: matches {sorted(matches)}"
        )


def _digest(name: str) -> str:
    """The digest field of a derived layout name; empty for other names."""
    kind, _, rest = name.partition("-")
    return rest.partition("-")[0] if kind == "nl" else ""


def _build(sub: Submission):
    """A workload or topology spec → (netlist, control defaults, depth rule)."""
    if sub.kind == "workload":
        from ..cpu.machine import build_pipelined_cpu
        from ..cpu.topology import LINK_CU_IC
        from ..cpu.workloads import make_extraction_sort, make_matrix_multiply

        if sub.workload == "sort":
            workload = make_extraction_sort(length=sub.length, seed=sub.seed)
        else:
            workload = make_matrix_multiply(size=sub.size, seed=sub.seed)
        cpu = build_pipelined_cpu(workload.program)
        return (
            cpu.netlist,
            {"stop_process": cpu.control_unit.name},
            partial(RSConfiguration.uniform, exclude=(LINK_CU_IC,)),
        )
    from ..topology import make_topology

    params = {
        str(name).replace("-", "_"): tuple(value) if isinstance(value, list)
        else value
        for name, value in sub.params.items()
    }
    try:
        topology = make_topology(sub.topology, **params)
    except (SimulationError, TypeError) as exc:
        raise SimulationError(f"invalid topology spec: {exc}") from exc
    if topology.stop_process is not None:
        defaults = {"stop_process": topology.stop_process}
    else:
        defaults = {"horizon": FREE_RUNNING_HORIZON}
    return topology.netlist, defaults, topology.counts_with_depth


def _configuration(index: int, entry: Any, depth: Callable[[int], Any]):
    """One raw configuration entry → a configuration or per-channel counts."""
    if isinstance(entry, int):
        return depth(entry)
    try:
        counts = entry.get("counts")
        if counts is not None:
            if not isinstance(counts, dict):
                raise SimulationError(
                    "'counts' must map channel names to integers"
                )
            return {str(k): int(v) for k, v in counts.items()}
        return RSConfiguration(
            label=str(entry.get("label", f"custom-{index}")),
            default=int(entry.get("default", 0)),
            overrides={
                str(k): int(v) for k, v in entry.get("overrides", {}).items()
            },
        )
    except (SimulationError, TypeError, ValueError, AttributeError) as exc:
        raise SimulationError(f"invalid configuration #{index}: {exc}") from exc
