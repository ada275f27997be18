"""Layered simulation engine: elaboration / kernels / instrumentation.

The latency-insensitive simulator is split into three explicit layers (the
netlist-analysis-pass idiom: structure compiled once, execution engines and
observers composed on top):

* :mod:`repro.engine.elaboration` — compile a netlist + relay-station
  configuration into a flat, integer-indexed :class:`ElaboratedModel`;
* :mod:`repro.engine.kernel` — the :class:`SimKernel` interface with four
  implementations: the object-based :class:`ReferenceKernel` (the executable
  specification), the codegen-specialized :class:`CompiledKernel` (the
  default hot path: one generated function per netlist shape, see
  :mod:`repro.engine.codegen`), the interpreting array-based
  :class:`FastKernel`, and the NumPy :class:`LockstepKernel` for
  same-layout batches;
* :mod:`repro.engine.instrumentation` — traces, shell statistics and queue
  occupancy as opt-in passes (:class:`InstrumentSet`);
* :mod:`repro.engine.steady_state` — steady-state period detection and
  analytic extrapolation: eligible long-horizon runs detect the schedule's
  first state recurrence and skip the remaining periods analytically
  (DESIGN.md §4), switched by ``RunControls.steady_state``.

:class:`repro.engine.batch.BatchRunner` sits on top, evaluating many
configurations against one elaborated layout, and
:class:`repro.engine.batch.MultiNetlistRunner` schedules tagged batches
over several layouts in one call.  The optimiser's simulated objectives,
the experiment sweeps and the Table 1 harness reach them through one
:class:`repro.engine.evaluator.BatchEvaluator` each, which alone chooses
between a private pool and an evaluation service.  Batches
fan out through one *supervised executor*
(:mod:`repro.engine.supervised_pool`): a single dispatcher leases shards to
local worker processes or, through :mod:`repro.distributed`, to remote
agents, and recovers from worker death, hung shards and poisoned items —
respawn, retry with backoff, bisect, quarantine — reporting via
:class:`~repro.engine.result.SupervisionStats`; :mod:`repro.engine.faults`
injects those failures deterministically so the recovery paths are tested,
not hoped for (DESIGN.md §8).
:class:`repro.core.simulator.LidSimulator` remains the backwards-compatible
facade over this package.
"""

from .batch import BatchResult, BatchRunner, MultiNetlistRunner
from .codegen import generate_run_source
from .compiled import CompiledKernel
from .elaboration import ElaboratedModel, Elaborator, NetlistLayout, elaborate, resolve_rs_counts
from .fast import FastKernel
from .faults import FAULTS_ENV_VAR, FaultPlan, FaultSpec
from .instrumentation import InstrumentSet
from .kernel import (
    DEFAULT_KERNEL,
    KERNEL_ENV_VAR,
    RunControls,
    SimKernel,
    kernel_registry,
    make_kernel,
    resolve_kernel_name,
)
from .lockstep import LockstepKernel, lockstep_reason, run_lockstep_batch
from .reference import ChannelPipeline, ReferenceKernel
from .result import LidResult, SupervisionStats
from .steady_state import (
    DEFAULT_DETECTION_WINDOW,
    DetectionPlan,
    certify_model,
    detection_plan,
)
from .supervised_pool import SupervisedPool

__all__ = [
    "BatchResult",
    "BatchRunner",
    "ChannelPipeline",
    "CompiledKernel",
    "DEFAULT_DETECTION_WINDOW",
    "DEFAULT_KERNEL",
    "DetectionPlan",
    "ElaboratedModel",
    "Elaborator",
    "FAULTS_ENV_VAR",
    "FastKernel",
    "FaultPlan",
    "FaultSpec",
    "InstrumentSet",
    "KERNEL_ENV_VAR",
    "LidResult",
    "LockstepKernel",
    "MultiNetlistRunner",
    "NetlistLayout",
    "ReferenceKernel",
    "RunControls",
    "SimKernel",
    "SupervisedPool",
    "SupervisionStats",
    "certify_model",
    "detection_plan",
    "elaborate",
    "generate_run_source",
    "kernel_registry",
    "lockstep_reason",
    "make_kernel",
    "resolve_kernel_name",
    "resolve_rs_counts",
    "run_lockstep_batch",
]
