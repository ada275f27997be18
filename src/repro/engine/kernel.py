"""The kernel layer: execution engines over an elaborated model.

A :class:`SimKernel` runs one latency-insensitive system to completion.
Four implementations exist:

* :class:`repro.engine.reference.ReferenceKernel` — the original object-based
  machinery (Shell / RelayStation / Token objects), kept as the executable
  specification;
* :class:`repro.engine.compiled.CompiledKernel` — the default: generates and
  ``compile()``s one run function per netlist shape (see
  :mod:`repro.engine.codegen`) and feeds it each relay-station vector as
  runtime data, cycle-for-cycle equivalent to the reference (enforced by
  the property suites in ``tests/test_engine.py`` and
  ``tests/test_steady_state.py``);
* :class:`repro.engine.fast.FastKernel` — a flat array kernel interpreting
  the integer-indexed elaborated model each cycle, kept selectable until its
  removal;
* :class:`repro.engine.lockstep.LockstepKernel` — vectorises same-layout
  configuration batches with NumPy and hands ineligible runs to the
  compiled kernel.

All consume the same :class:`~repro.engine.elaboration.ElaboratedModel`, the
same :class:`RunControls` and the same
:class:`~repro.engine.instrumentation.InstrumentSet`, and return the same
:class:`~repro.engine.result.LidResult`.

The kernel used when none is requested explicitly can be switched without
plumbing flags through the ``REPRO_KERNEL`` environment variable; explicit
arguments always win (precedence: explicit arg > ``REPRO_KERNEL`` > default).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Type

from ..core.exceptions import NetlistError, SimulationError
from .elaboration import ElaboratedModel
from .instrumentation import InstrumentSet
from .result import LidResult


#: Kernel used when none is requested explicitly (and ``REPRO_KERNEL`` is
#: unset).  The compiled kernel is the default: the equivalence property
#: suites pin it to the reference kernel.
DEFAULT_KERNEL = "compiled"

#: Environment variable consulted by :func:`resolve_kernel_name` when no
#: kernel is requested explicitly (CI and benchmarks switch kernels with it).
KERNEL_ENV_VAR = "REPRO_KERNEL"

#: Cycle horizon a free-running netlist (one with no stop process) runs to
#: when the caller names none: the default of ``topology_sweep``, of
#: ``repro topology sweep --horizon`` and of the daemon's topology specs.
FREE_RUNNING_HORIZON = 4_000


@dataclass
class RunControls:
    """Termination and observation controls of one run (kernel-independent)."""

    max_cycles: int = 5_000_000
    stop_process: Optional[str] = None
    target_firings: Optional[Mapping[str, int]] = None
    extra_cycles: int = 0
    deadlock_limit: int = 10_000
    on_cycle: Optional[Callable[[int, Dict[str, bool]], None]] = None
    #: Run exactly this many cycles unless a stop condition fires earlier;
    #: reaching the horizon is a normal halt (``halted=True``), not a
    #: timeout.  The asymptotic-throughput objective runs use it, and it is
    #: the mode steady-state extrapolation accelerates the most.
    horizon: Optional[int] = None
    #: Steady-state period detection switch (on by default wherever it is
    #: sound; see :func:`repro.engine.steady_state.detection_plan`).
    steady_state: bool = True
    #: Cycles to search for a state recurrence before disarming the detector
    #: (bounds its memory).  ``None`` uses the module default; 0 disables.
    steady_state_window: Optional[int] = None
    #: Wall-clock budget in seconds for one shard of a pooled batch run.
    #: A shard still running past it has its worker killed and is retried
    #: (safe: workers never mutate driver state — DESIGN.md §8).  ``None``
    #: disables the watchdog; serial runs are never interrupted.  This and
    #: the two knobs below steer the supervised pool only — they can never
    #: change simulation results and are excluded from the result-cache
    #: signature (see ``repro.service.cache.controls_signature``).
    shard_timeout: Optional[float] = None
    #: Times a failed shard is re-dispatched before bisection/quarantine.
    max_shard_retries: int = 2
    #: Base of the capped exponential retry backoff, seconds
    #: (``retry_backoff * 2^(attempt-1)``, capped at 1s).
    retry_backoff: float = 0.05

    def validate(self, model: ElaboratedModel) -> None:
        """Reject stop conditions referencing unknown processes."""
        netlist = model.netlist
        if self.stop_process is not None and self.stop_process not in netlist.processes:
            raise SimulationError(f"unknown stop process {self.stop_process!r}")
        if self.target_firings is not None:
            unknown = [
                name for name in self.target_firings if name not in netlist.processes
            ]
            if unknown:
                raise SimulationError(
                    f"target_firings references unknown processes {sorted(unknown)}"
                )
        if self.horizon is not None and self.horizon < 1:
            raise SimulationError(f"horizon must be >= 1, got {self.horizon}")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise SimulationError(
                f"shard_timeout must be > 0 seconds, got {self.shard_timeout}"
            )
        if self.max_shard_retries < 0:
            raise SimulationError(
                f"max_shard_retries must be >= 0, got {self.max_shard_retries}"
            )
        if self.retry_backoff < 0:
            raise SimulationError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}"
            )

    def loop_bound(self) -> int:
        """The cycle count the run loop may reach (horizon caps max_cycles)."""
        if self.horizon is not None and self.horizon < self.max_cycles:
            return self.horizon
        return self.max_cycles


def raise_output_mismatch(process, outputs) -> None:
    """Raise the NetlistError ``Process.step()`` raises for bad output ports.

    Kernels call ``fire()`` directly and compare the output key set to the
    declared ports in one C-level test; this reports a mismatch the same
    way the reference kernel's ``step()`` would.
    """
    missing = [port for port in process.output_ports if port not in outputs]
    if missing:
        raise NetlistError(
            f"process {process.name!r} did not drive output ports {missing}"
        )
    unexpected = [port for port in outputs if port not in process.output_ports]
    raise NetlistError(
        f"process {process.name!r} drove undeclared output ports {unexpected}"
    )


class SimKernel(ABC):
    """An execution engine bound to one elaborated model."""

    name = "base"

    def __init__(self, model: ElaboratedModel) -> None:
        self.model = model

    @abstractmethod
    def run(self, controls: RunControls, instruments: InstrumentSet) -> LidResult:
        """Simulate until a stop condition (or raise on deadlock/timeout)."""

    def reset(self) -> None:
        """Reset the processes (kernels allocate fresh run state per run)."""
        for process in self.model.layout.processes:
            process.reset()


def kernel_registry() -> Dict[str, Type[SimKernel]]:
    """Name → kernel class for every available kernel.

    The lockstep kernel is always listed even when its optional NumPy
    dependency is absent (the module imports without it); instantiating it
    then raises a :class:`~repro.core.exceptions.SimulationError` naming the
    ``repro[fast]`` extra instead of an ImportError.
    """
    from .compiled import CompiledKernel
    from .fast import FastKernel
    from .lockstep import LockstepKernel
    from .reference import ReferenceKernel

    return {
        ReferenceKernel.name: ReferenceKernel,
        FastKernel.name: FastKernel,
        CompiledKernel.name: CompiledKernel,
        LockstepKernel.name: LockstepKernel,
    }


def resolve_kernel_name(kernel: Optional[str]) -> str:
    """Normalise a requested kernel name.

    Precedence: the explicit *kernel* argument, then the ``REPRO_KERNEL``
    environment variable (ignored when empty), then :data:`DEFAULT_KERNEL`.
    """
    source = "requested"
    if kernel is not None:
        name = kernel
    else:
        env = os.environ.get(KERNEL_ENV_VAR, "").strip()
        if env:
            name, source = env, f"from {KERNEL_ENV_VAR}"
        else:
            name = DEFAULT_KERNEL
    if name not in kernel_registry():
        raise SimulationError(
            f"unknown simulation kernel {name!r} ({source}); "
            f"available: {sorted(kernel_registry())}"
        )
    return name


def make_kernel(model: ElaboratedModel, kernel: Optional[str] = None) -> SimKernel:
    """Instantiate the requested kernel over *model*."""
    return kernel_registry()[resolve_kernel_name(kernel)](model)
