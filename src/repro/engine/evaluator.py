"""One evaluation path for the sweeps, Table 1 and the optimiser.

Each of those consumers evaluates a batch of ``(layout, configuration)``
rows, either on a private pool or through an
:class:`~repro.service.EvaluationService`.  :class:`BatchEvaluator` alone
makes that choice (DESIGN.md §6).  The service is duck-typed
(``ensure_layout`` / ``submit`` / ``runner``), so the engine never imports
:mod:`repro.service` and a consumer without a service does not load it.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence, Tuple

from ..core.exceptions import SimulationError
from ..core.netlist import Netlist
from .batch import BatchItem, BatchResult, BatchRunner, MultiNetlistRunner


class BatchEvaluator:
    """Evaluate tagged batches on a private pool or through a service.

    Built once from ``{key: (netlist, relaxed)}``; :meth:`run` takes
    ``(key, batch item)`` pairs plus run controls and returns
    :class:`~repro.engine.batch.BatchResult` rows in submission order.

    Without *service* the layouts are private :class:`BatchRunner`\\ s in one
    :class:`MultiNetlistRunner`, and each call is one ``run_many`` on
    *workers* processes; simulation errors propagate as they are raised.

    With *service* each layout is registered once through
    ``service.ensure_layout`` (identity-derived names, so equal netlists share
    caches) and each call is one ``submit`` with *priority* and
    *on_result*.  *workers* is ignored: the service owns its fan-out.
    Under ``on_error="raise"`` a failed or cancelled row raises one
    :class:`SimulationError` naming *caller* and the row; under ``"zero"``
    it comes back as an error row (throughput 0.0).
    """

    def __init__(
        self,
        layouts: Mapping[str, Tuple[Netlist, bool]],
        caller: str,
        *,
        kernel: Optional[str] = None,
        workers: int = 1,
        service=None,
        on_result=None,
        priority: int = 0,
        **runner_kwargs: Any,
    ) -> None:
        self.caller = caller
        self.workers = workers
        self.service = service
        self.on_result = on_result
        self.priority = priority
        if service is not None:
            self._names = {
                key: service.ensure_layout(
                    netlist, relaxed=relaxed, kernel=kernel, **runner_kwargs
                )
                for key, (netlist, relaxed) in layouts.items()
            }
        else:
            self._multi = MultiNetlistRunner({
                key: BatchRunner(
                    netlist, relaxed=relaxed, kernel=kernel, **runner_kwargs
                )
                for key, (netlist, relaxed) in layouts.items()
            })

    @classmethod
    def wrappers(cls, netlist: Netlist, caller: str, **kwargs: Any) -> "BatchEvaluator":
        """The WP1 (``"wp1"``) and WP2 (``"wp2"``) layouts of one netlist."""
        return cls({"wp1": (netlist, False), "wp2": (netlist, True)}, caller, **kwargs)

    def run(
        self,
        items: Sequence[Tuple[str, BatchItem]],
        on_error: str = "raise",
        queue_capacity: Optional[int] = None,
        **controls: Any,
    ) -> List[BatchResult]:
        if self.service is None:
            return self._multi.run_many(
                items, workers=self.workers, on_error=on_error,
                queue_capacity=queue_capacity, **controls,
            )
        jobset = self.service.submit(
            [(self._names[key], item) for key, item in items],
            tags=[key for key, _ in items], priority=self.priority,
            on_result=self.on_result, queue_capacity=queue_capacity,
            **controls,
        )
        results = []
        for job, result in zip(jobset.jobs, jobset.ordered_results()):
            if result is None or result.failed:
                error = "cancelled" if result is None else result.error
                if on_error == "raise":
                    raise SimulationError(
                        f"{self.caller} row {job.label!r} failed: {error}"
                    )
                result = result or BatchResult(
                    label=job.label, cycles=0, firings={}, halted=False,
                    wrapper_kind=(
                        "WP2" if self.service.runner(job.layout).relaxed
                        else "WP1"
                    ),
                    error=error,
                )
            results.append(result)
        return results

    def run_wrappers(
        self, items: Sequence[BatchItem], **controls: Any
    ) -> Tuple[List[BatchResult], List[BatchResult]]:
        """Every item under WP1 and WP2 in one batch: ``(wp1 rows, wp2 rows)``."""
        results = self.run(
            [("wp1", item) for item in items] + [("wp2", item) for item in items],
            **controls,
        )
        return results[: len(items)], results[len(items):]
