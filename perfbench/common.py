"""Shared helpers: sample statistics, the run record and the checkout layout."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: Root of the checkout (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
#: Everything a run writes (records, span files, daemon cache dirs).
OUT = ROOT / ".perfbench"


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if not values:
        return [0.0, 0.0, 0.0]
    if len(values) == 1:
        return [values[0]] * 3
    return list(statistics.quantiles(values, n=4))


def percentile(values: Sequence[float], pct: int) -> float:
    """The *pct*-th percentile, interpolated between samples.

    The inclusive method never extrapolates past the largest sample, which
    matters for the Table 1 workloads' handful of repeats per run.
    """
    values = list(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def summary(values: Sequence[float]) -> Dict[str, Any]:
    """One metric's record entry: every sample, median and quartiles."""
    q1, median, q3 = quartiles(values)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "samples": list(values)}


@dataclass
class Phase:
    """What one measured phase of a workload produced.

    A *request* is the workload's unit of submitted work (one Table 1 pass,
    one zoo netlist's sweep, one HTTP job set); a *repeat* is a request identical
    to one already issued in this run.  ``rows`` counts result rows
    delivered; rows found wrong by the checks are counted separately, after
    the phase, in ``wrong_rows``.
    """

    seconds: float = 0.0
    rows: int = 0
    requests: int = 0
    failed_requests: int = 0
    wrong_rows: int = 0
    #: Seconds from submit to the last row (or end sentinel), repeats only.
    repeat_latency: List[float] = field(default_factory=list)
    #: Seconds from submit to the first row, never-issued-before requests.
    fresh_first_row: List[float] = field(default_factory=list)
    #: Rows-per-second samples (one per pass, or per second of serving).
    rate_samples: List[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.rows + self.requests

    @property
    def failed(self) -> int:
        return self.wrong_rows + self.failed_requests


def peak_rss_mb() -> float:
    """Peak resident set of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of another live process, in MB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def git_sha() -> Optional[str]:
    """The checkout's commit, read from ``.git`` (None outside a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint() -> Dict[str, Any]:
    """The machine and toolchain a run was measured on."""
    import multiprocessing

    cpu_model = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_all_start_methods()[0],
        "platform": platform.platform(),
    }


def write_record(record: Dict[str, Any]) -> Path:
    """Store one run record under ``.perfbench/runs/``."""
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = runs / (
        f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
        f"-{stamp}-{os.getpid()}.json"
    )
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def log(message: str) -> None:
    """Progress lines go to stderr; stdout ends with the result object."""
    print(message, file=sys.stderr, flush=True)
