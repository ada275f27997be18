"""``repro.service`` — async streaming evaluation over a shared runner pool.

The serveable face of the simulation engine (DESIGN.md §6): submit jobs from
any number of concurrent callers, stream results as they land, and never
simulate the same configuration twice.

* :class:`EvaluationService` — the scheduler (submit / stream / callbacks,
  priorities, cancellation, in-flight dedup, job retry with terminal
  failure after ``max_job_attempts``, bounded submission via
  ``max_pending``, one shared
  :class:`~repro.engine.steady_state.PeriodMemory` across layouts);
* :class:`ResultCache` — the content-addressed result store (in-memory LRU
  plus optional on-disk JSON tier with checksum-verified entries; corrupt
  files are quarantined as ``<key>.corrupt``, never trusted);
* :class:`Job` / :class:`JobSet` / :class:`JobStatus` — the job model;
* :class:`SpecResolver` — what a JSON job spec means: the one resolver
  behind the daemon and the in-process ``repro submit``
  (:mod:`repro.service.spec`).

Quick start::

    from repro.service import EvaluationService

    service = EvaluationService(workers=4)
    wp1 = service.ensure_layout(cpu.netlist, relaxed=False)
    jobs = service.submit(
        [(wp1, config) for config in configurations],
        stop_process="CU", queue_capacity=4,
    )
    for job in jobs.results():          # completion order, streaming
        print(job.label, job.result.cycles, job.cached)

    async for job in service.stream(...):   # same, for asyncio callers
        ...
"""

from .cache import CACHE_SCHEMA_VERSION, ResultCache, controls_signature, result_key
from .jobs import Job, JobSet, JobStatus
from .scheduler import EvaluationService
from .spec import SpecResolver

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "EvaluationService",
    "Job",
    "JobSet",
    "JobStatus",
    "ResultCache",
    "SpecResolver",
    "controls_signature",
    "result_key",
]
