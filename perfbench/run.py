"""The repository's benchmark: one command, four workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed.
``--trace 1`` measures the same workload for half the time untraced, then
installs the span wrappers of :mod:`perfbench.spans`, sets the workload up
again and measures the other half traced; it reports the per-layer metrics
and ``trace.overhead_ratio``, the drop in ``rows_per_s`` between the halves.

Progress and a human-readable metric table go to stderr; the last line of
stdout is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
A full run record (machine fingerprint, git sha, every sample with median
and quartiles) is written under ``.perfbench/runs/``.  See
``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import time

BENCH_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start first
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: Workload name -> "module:class" (imported only when selected).
WORKLOADS = {
    "table1": "wl_table1:Table1",
    "table1_horizon": "wl_table1:Table1Horizon",
    "zoo_sweep": "wl_zoo:ZooSweep",
    "served_mix": "wl_served:ServedMix",
}
#: A second seed, never used while tuning the benchmark, for later claims.
HELD_OUT_SEED = 7919
#: Set-ups per run (the first in this process, the rest in fresh ones).
SETUP_SAMPLES = 7

END_TO_END = {
    "rows_per_s": "rows/s",
    "repeat_p50_s": "s",
    "repeat_p90_s": "s",
    "fresh_first_row_p50_s": "s",
    "correct_ratio": "fraction",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _workload_class(name: str):
    import importlib

    module, cls = WORKLOADS[name].split(":")
    return getattr(importlib.import_module(f"perfbench.{module}"), cls)


def _setup(name: str, seed: int, quick: bool, trace_dir=None):
    workload = _workload_class(name)(seed, quick)
    workload.start(trace_dir)
    return workload


def _setup_probe(args) -> float:
    """Set up in a fresh interpreter (imports included) and tear down."""
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ] + (["--quick"] if args.quick else [])
    out = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=120,
    ).stdout
    return json.loads(out.decode().strip().splitlines()[-1])["setup_s"]


def _end_to_end(phase, setup_samples, rss_mb):
    from perfbench.common import percentile, summary

    samples = {
        "rows_per_s": phase.rate_samples,
        "repeat_latency_s": phase.repeat_latency,
        "fresh_first_row_s": phase.fresh_first_row,
        "setup_s": setup_samples,
    }
    values = {
        "rows_per_s": summary(phase.rate_samples)["median"],
        "repeat_p50_s": percentile(phase.repeat_latency, 50),
        "repeat_p90_s": percentile(phase.repeat_latency, 90),
        "fresh_first_row_p50_s": percentile(phase.fresh_first_row, 50),
        "correct_ratio": 1.0 - phase.failed / max(1, phase.attempted),
        "peak_rss_mb": rss_mb,
        "setup_s": summary(setup_samples)["median"],
    }
    return values, {name: summary(v) for name, v in samples.items()}


def run(args) -> int:
    from perfbench import common, spans

    if args.setup_probe:
        workload = _setup(args.workload, args.seed, args.quick)
        setup_s = time.perf_counter() - BENCH_START
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workload = _setup(args.workload, args.seed, args.quick)
    setup_s = time.perf_counter() - BENCH_START
    common.log(f"{args.workload}: set up in {setup_s:.3f}s, measuring {args.seconds}s")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "quick": args.quick,
        "held_out_seed": HELD_OUT_SEED, "git_sha": common.git_sha(),
        "machine": common.fingerprint(),
    }
    if not args.trace:
        try:
            phase = workload.measure(args.seconds)
        finally:
            phase_rss = workload.close()
        workload.check(phase)
        setups = [setup_s] + [
            _setup_probe(args) for _ in range(1 if args.quick else SETUP_SAMPLES - 1)
        ]
        rss = common.peak_rss_mb() + (phase_rss or 0.0)
        values, samples = _end_to_end(phase, setups, rss)
        units = dict(END_TO_END)
    else:
        # Each half needs one request only: the end-to-end latencies are
        # not reported from a traced run.
        try:
            untraced = workload.measure(args.seconds / 2, min_requests=1)
        finally:
            workload.close()
        trace_dir = common.OUT / "spans" / f"{args.workload}-{args.seed}-{time.time_ns()}"
        recorder = spans.install(trace_dir, role="main")
        begin = time.perf_counter()
        with recorder.span("trace.setup"):
            workload = _setup(args.workload, args.seed, args.quick, trace_dir)
        try:
            phase = workload.measure(args.seconds / 2, tracer=recorder, min_requests=1)
        finally:
            workload.close()
        wall = time.perf_counter() - begin
        recorder.dump()
        workload.check(phase)
        phase.failed_requests += untraced.failed_requests
        phase.wrong_rows += untraced.wrong_rows
        phase.requests += untraced.requests
        phase.rows += untraced.rows
        values = spans.analyse(spans.load(trace_dir), wall)
        base = common.summary(untraced.rate_samples)["median"]
        traced = common.summary(phase.rate_samples)["median"]
        values["trace.overhead_ratio"] = 1.0 - traced / base if base else 0.0
        samples = {
            "untraced_rows_per_s": common.summary(untraced.rate_samples),
            "traced_rows_per_s": common.summary(phase.rate_samples),
        }
        units = {name: _per_layer_unit(name) for name in values}
        shutil.rmtree(trace_dir, ignore_errors=True)
    shutil.rmtree(common.OUT / "tmp", ignore_errors=True)

    correct = phase.failed == 0
    error_rate = phase.failed / max(1, phase.attempted)
    record.update(
        correct=correct, attempted=phase.attempted, failed=phase.failed,
        error_rate=error_rate, metrics=values, samples=samples,
    )
    path = common.write_record(record)
    common.log(f"{'metric':<28} {'value':>14}  unit")
    for name in sorted(values):
        common.log(f"{name:<28} {values[name]:>14.6g}  {units[name]}")
    common.log(f"{'error_rate':<28} {error_rate:>14.6g}  fraction")
    common.log(f"run record: {path.relative_to(common.ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": phase.attempted, "failed": phase.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }))
    return 0


def _per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "fraction"
    if name.endswith("_p50"):
        return "cycles"
    if name == "server.bytes_per_row":
        return "bytes"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes and one extra set-up (the benchmark's tests)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    return run(args)


if __name__ == "__main__":
    # Import the benchmark as the package ``perfbench``, never as loose
    # modules from this script's directory.
    if sys.path and Path(sys.path[0]).resolve() == Path(__file__).resolve().parent:
        sys.path.pop(0)
    sys.exit(main())
