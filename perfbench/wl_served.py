"""Workload ``served_mix``: two tenants of one ``repro serve`` daemon.

The daemon runs on loopback with a fresh cache directory and two
``REPRO_SERVER_TOKENS`` tenants.  One generator process drives two
closed-loop connections with zero think time:

* ``batch`` submits fresh sort, matmul and topology sweeps (cache misses:
  they simulate and write the cache) and streams every row back;
* ``interactive`` re-submits requests ``batch`` has already issued: mostly
  completed ones (cache reads), sometimes the one still in flight (an
  in-flight dedup), a quarter of them over binary frames.

A *fresh* request is one never issued before; every ``interactive``
request is a *repeat*.  Latencies are host seconds measured by the
generator: repeats from POST to the stream's ``end`` sentinel, fresh
requests from POST to the first streamed row.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .common import OUT, ROOT, Phase, log, process_peak_rss_mb

TENANTS = [
    {"token": "batch-token", "name": "batch", "max_pending": 256},
    {"token": "interactive-token", "name": "interactive", "max_pending": 256},
]
#: Share of interactive re-queries aimed at the newest (likely in-flight)
#: batch request, and share streamed as binary frames.
IN_FLIGHT_SHARE = 0.1
BINARY_SHARE = 0.25
#: Controls of the topology sweeps (the daemon's own default horizon).
TOPOLOGY_CONTROLS = {"horizon": 4_000}
START_TIMEOUT = 60.0


def fresh_bodies(seed: int, ring_channels: Dict[int, List[str]]):
    """The batch tenant's endless, seeded sequence of never-seen requests.

    Requests rotate sort / matmul / ring sweeps; each one carries a new data
    seed or netlist name, so its netlist digest (and cache key) is new
    while its amount of work stays the same.  The ring sweeps ask for the
    ``compiled`` kernel, so fresh layouts also pay code generation.
    """
    rng = random.Random(seed)
    for index in itertools.count():
        data_seed = rng.randrange(10**9)
        kind = index % 3
        controls: Dict[str, Any] = {}
        kernel = None
        if kind == 0:
            spec = {"kind": "workload", "workload": "sort", "length": 6, "seed": data_seed}
            configurations: List[Any] = [0, 1, 2, 3]
        elif kind == 1:
            spec = {"kind": "workload", "workload": "matmul", "size": 3, "seed": data_seed}
            configurations = [0, 1]
        else:
            stages = rng.choice(sorted(ring_channels))
            spec = {
                "kind": "topology", "topology": "ring",
                "params": {"stages": stages, "rs_total": 0, "name": f"ring-{data_seed}"},
            }
            configurations = [
                {"counts": {chan: depth for chan in ring_channels[stages]}}
                for depth in range(3)
            ]
            controls = dict(TOPOLOGY_CONTROLS)
            kernel = "compiled"
        yield {
            "spec": spec, "wrappers": ["wp1", "wp2"], "kernel": kernel,
            "configurations": configurations, "controls": controls,
        }


def _key(body: Dict[str, Any]) -> str:
    return json.dumps(body, sort_keys=True)


class ServedMix:
    name = "served_mix"

    def __init__(self, seed: int, quick: bool = False) -> None:
        from repro.server.client import ServerClient
        from repro.topology import make_topology

        self.client_class = ServerClient
        self.seed = seed
        self.quick = quick
        ring_channels = {
            stages: list(make_topology("ring", stages=stages, rs_total=0).netlist.channels)
            for stages in (4, 5, 6)
        }
        self.bodies = fresh_bodies(seed, ring_channels)
        self.process: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None
        #: key -> {row index: result dict} as the batch tenant first received it.
        self.delivered: Dict[str, Dict[int, Any]] = {}
        self.issued: List[Tuple[str, Dict[str, Any]]] = []
        self.repeats: List[Tuple[str, Dict[int, Any]]] = []

    # -- daemon lifecycle ------------------------------------------------------
    def start(self, trace_dir: Optional[Path] = None) -> None:
        run_dir = OUT / "tmp" / f"served-{os.getpid()}-{time.monotonic_ns()}"
        run_dir.mkdir(parents=True)
        self.log_path = run_dir / "daemon.log"
        command = [sys.executable, str(ROOT / "perfbench" / "daemon.py")]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        command += ["serve", "--port", "0", "--cache-dir", str(run_dir / "cache")]
        env = dict(os.environ, REPRO_SERVER_TOKENS=json.dumps(TENANTS))
        env.pop("REPRO_SERVER_PORT", None)
        env.pop("REPRO_SERVER_MAX_PENDING", None)
        with open(self.log_path, "wb") as stderr:
            self.process = subprocess.Popen(
                command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=stderr,
            )
        deadline = time.monotonic() + START_TIMEOUT
        while self.address is None:
            for line in self.log_path.read_text(errors="replace").splitlines():
                if "listening on " in line:
                    host, _, port = line.split("listening on ", 1)[1].split()[0].rpartition(":")
                    self.address = (host, int(port))
            if self.address is None:
                if self.process.poll() is not None or time.monotonic() > deadline:
                    self.close()
                    raise RuntimeError(
                        "daemon did not start: "
                        + self.log_path.read_text(errors="replace")[-2000:]
                    )
                time.sleep(0.005)

    def client(self, token: str):
        host, port = self.address
        return self.client_class(host, port, token=token, timeout=120.0)

    def close(self) -> float:
        """SIGTERM the daemon (graceful drain); return its peak RSS in MB."""
        process, self.process = self.process, None
        if process is None:
            return 0.0
        peak = process_peak_rss_mb(process.pid)
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        return peak

    # -- load generation -------------------------------------------------------
    def measure(self, seconds: float, tracer=None, min_requests: int = 2) -> Phase:
        phase = Phase()
        lock = threading.Lock()
        arrivals: List[float] = []
        start = time.perf_counter()
        deadline = start + seconds
        errors: List[BaseException] = []

        def stream(client, submitted: Dict[str, Any], binary: bool, first: List[float]):
            rows: Dict[int, Any] = {}
            wrong = 0
            for event in client.stream(submitted["job_set_id"], binary=binary):
                now = time.perf_counter()
                if not first:
                    first.append(now)
                with lock:
                    arrivals.append(now)
                if event.get("status") != "done" or event.get("error") or not event.get("result"):
                    wrong += 1
                rows[event["index"]] = event["result"]
            return rows, wrong + max(0, submitted["jobs"] - len(rows))

        def batch() -> None:
            client = self.client("batch-token")
            with tracer.span("trace.client") if tracer else nullcontext():
                while time.perf_counter() < deadline:
                    body = next(self.bodies)
                    key = _key(body)
                    begin = time.perf_counter()
                    first: List[float] = []
                    try:
                        submitted = client.submit(body)
                        with lock:
                            self.issued.append((key, body))
                        rows, wrong = stream(client, submitted, False, first)
                    except Exception as exc:  # noqa: BLE001 - counted, run continues
                        log(f"served_mix: batch request failed: {exc}")
                        with lock:
                            phase.requests += 1
                            phase.failed_requests += 1
                        continue
                    with lock:
                        self.delivered[key] = rows
                        phase.requests += 1
                        phase.rows += len(rows)
                        phase.wrong_rows += wrong
                        if first:
                            phase.fresh_first_row.append(first[0] - begin)

        def interactive() -> None:
            client = self.client("interactive-token")
            rng = random.Random(self.seed + 1)
            with tracer.span("trace.client") if tracer else nullcontext():
                while time.perf_counter() < deadline:
                    with lock:
                        issued = len(self.issued)
                        if issued:
                            pick = (
                                issued - 1 if rng.random() < IN_FLIGHT_SHARE
                                else rng.randrange(issued)
                            )
                            key, body = self.issued[pick]
                    if not issued:
                        time.sleep(0.001)
                        continue
                    binary = rng.random() < BINARY_SHARE
                    begin = time.perf_counter()
                    try:
                        rows, wrong = stream(client, client.submit(body), binary, [])
                    except Exception as exc:  # noqa: BLE001 - counted, run continues
                        log(f"served_mix: interactive request failed: {exc}")
                        with lock:
                            phase.requests += 1
                            phase.failed_requests += 1
                        continue
                    latency = time.perf_counter() - begin
                    with lock:
                        self.repeats.append((key, rows))
                        phase.requests += 1
                        phase.rows += len(rows)
                        phase.wrong_rows += wrong
                        phase.repeat_latency.append(latency)

        def guarded(target):
            def body():
                try:
                    target()
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    errors.append(exc)
            return body

        threads = [
            threading.Thread(target=guarded(fn), name=f"served-{fn.__name__}")
            for fn in (batch, interactive)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        phase.seconds = time.perf_counter() - start
        # Rows per second of serving: one sample per whole second.
        buckets: Dict[int, int] = {}
        for arrival in arrivals:
            buckets[int(arrival - start)] = buckets.get(int(arrival - start), 0) + 1
        whole = int(phase.seconds)
        phase.rate_samples = [float(buckets.get(second, 0)) for second in range(whole)]
        if not phase.rate_samples:
            phase.rate_samples = [len(arrivals) / phase.seconds]
        return phase

    # -- checks (outside the timed region) --------------------------------------
    def check(self, phase: Phase) -> None:
        """Repeats equal their first delivery; sampled rows equal an
        in-process evaluation of the same spec."""
        for key, rows in self.repeats:
            first = self.delivered.get(key)
            if first is None:
                phase.wrong_rows += len(rows)
                continue
            phase.wrong_rows += sum(
                1 for index, result in rows.items() if first.get(index) != result
            )
        rng = random.Random(self.seed + 2)
        keys = sorted(self.delivered)
        for key in rng.sample(keys, min(3, len(keys))):
            phase.wrong_rows += self._compare_in_process(json.loads(key), self.delivered[key])

    @staticmethod
    def _compare_in_process(body: Dict[str, Any], rows: Dict[int, Any]) -> int:
        from repro.core.config import RSConfiguration
        from repro.cpu import build_pipelined_cpu, make_extraction_sort, make_matrix_multiply
        from repro.cpu.topology import LINK_CU_IC
        from repro.engine import BatchRunner
        from repro.topology import make_topology

        spec = body["spec"]
        controls = dict(body["controls"])
        if spec["kind"] == "workload":
            if spec["workload"] == "sort":
                workload = make_extraction_sort(length=spec["length"], seed=spec["seed"])
            else:
                workload = make_matrix_multiply(size=spec["size"], seed=spec["seed"])
            cpu = build_pipelined_cpu(workload.program)
            netlist = cpu.netlist
            controls.setdefault("stop_process", cpu.control_unit.name)
            configs = [
                RSConfiguration.uniform(depth, exclude=(LINK_CU_IC,))
                for depth in body["configurations"]
            ]
        else:
            netlist = make_topology(spec["topology"], **spec["params"]).netlist
            configs = [entry["counts"] for entry in body["configurations"]]
        wrong = 0
        for offset, wrapper in enumerate(body["wrappers"]):
            runner = BatchRunner(netlist, relaxed=(wrapper == "wp2"), kernel=body["kernel"])
            results = runner.run_many(configs, **controls)
            for position, result in enumerate(results):
                expected = result.to_dict()
                served = dict(rows.get(offset * len(configs) + position) or {})
                for field in ("label", "attempts"):
                    expected.pop(field, None)
                    served.pop(field, None)
                if served != expected:
                    log(f"served_mix: row {offset * len(configs) + position} of "
                        f"{spec} differs from an in-process evaluation")
                    wrong += 1
        return wrong
