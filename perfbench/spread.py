"""Run one workload under several seeds and report each metric's spread.

Usage::

    python3 perfbench/spread.py --workload served_mix --seeds 1-10 [--seconds 15]

For every end-to-end metric it prints the median of the per-run values and
the distance between their first and third quartile as a share of that
median (``statistics.quantiles(values, n=4)``), next to the metric's bound
from ``BENCHMARK.json``.  A benchmark is steady when every spread except
``setup_s`` stays well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True,
        ).stdout.decode().strip().splitlines()[-1]
        result = json.loads(out)
        if not result["correct"]:
            print(f"seed {seed}: outputs are NOT correct", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.5g}" for name, metric in result["metrics"].items()
        ), flush=True)
    print(f"{'metric':<24} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:<24} {median:>12.5g} {spread:>8.4f} {bounds.get(name, 0):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
