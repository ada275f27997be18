"""REPRO_FAULTS env-activation smoke: a crash fault set in the environment.

Run with the fault plan in ``REPRO_FAULTS`` and the start method as the only
argument::

    REPRO_FAULTS='[{"kind": "crash", "shard": 0, "attempt": 0}]' \
        PYTHONPATH=src python .github/scripts/faults_smoke.py spawn

The pooled batch must respawn the crashed worker, recover without falling
back to serial evaluation, and return the serial rows.  The work runs under
``if __name__ == "__main__":`` so spawned children can re-import this file.
"""

import sys

from repro.core import RSConfiguration
from repro.cpu import build_pipelined_cpu
from repro.cpu.workloads import make_extraction_sort
from repro.engine.batch import BatchRunner


def main(method: str) -> None:
    netlist = build_pipelined_cpu(
        make_extraction_sort(length=4, seed=3).program
    ).netlist
    configs = [
        RSConfiguration.uniform(1 + (i % 3), exclude=("CU-IC",), label=f"cand-{i}")
        for i in range(8)
    ]
    serial = BatchRunner(netlist).run_many(configs, workers=1, stop_process="CU")
    runner = BatchRunner(netlist)
    pooled = runner.run_many(
        configs, workers=2, shards=4, start_method=method,
        stop_process="CU", retry_backoff=0.01,
    )
    stats = runner.supervision
    assert [r.cycles for r in pooled] == [r.cycles for r in serial]
    assert stats.respawns >= 1, stats.summary()
    assert stats.serial_fallback_items == 0, stats.summary()
    print(f"{method}: recovered — {stats.summary()}")


if __name__ == "__main__":
    main(sys.argv[1])
