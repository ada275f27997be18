"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table1``     regenerate Table 1 (sort section by default, ``--matmul`` for both)
``figure1``    print the Figure 1 topology / loop report
``multicycle`` print the multicycle-vs-pipelined WP2 gain comparison
``area``       print the wrapper area-overhead report
``sweep``      run one of the ablation sweeps (fifo / depth / clock / mixed)
``topology``   generate, describe or sweep a synthetic netlist topology
               (``generate`` prints the graph, ``describe`` adds kernel and
               steady-state eligibility, ``sweep`` runs the WP1/WP2 depth
               sweep of :func:`repro.experiments.topology_sweep`)
``submit``     submit an ad-hoc job set to the evaluation service and
               stream results as they complete (``--connect HOST:PORT``
               sends the same sweep to a running daemon instead)
``serve``      run the network daemon: one long-lived evaluation service
               behind an HTTP API with per-tenant quotas and weighted
               fair scheduling (see :mod:`repro.server`)

Every command accepts ``--format text|markdown|csv|json`` where it makes
sense; the default is the plain-text layout used in EXPERIMENTS.md.  The
simulating commands (``table1``, ``multicycle``, ``sweep``, ``submit``)
accept ``--kernel reference|fast|compiled|lockstep`` to select the simulation
engine
(see :mod:`repro.engine`); when the flag is omitted the ``REPRO_KERNEL``
environment variable is consulted, and the fast array-based kernel is the
final default.  ``table1`` and ``sweep`` also accept ``--shards N`` to
evaluate their configuration batches on N worker processes, and
``--no-steady-state`` to disable steady-state period detection (threaded
through the run controls of every simulation the command starts; the
``REPRO_STEADY_STATE`` environment variable is also set for the duration
of the command — and restored afterwards — so spawned workers inherit the
choice).  ``table1 --horizon N`` runs every row on the looping workload
variant for exactly N cycles and reports the asymptotic (steady-state
extrapolated) throughput.  ``sweep mixed`` runs the sort and matmul
workloads through one multi-netlist scheduler pool.

Service integration (see :mod:`repro.service`): ``table1`` and ``sweep``
accept ``--cache-dir PATH`` to route every row through the evaluation
service with a persistent content-addressed result cache — re-running the
same command is then served from disk instead of re-simulating.  ``sweep
--stream`` prints each row to stderr the moment it completes (through the
same service).  ``submit`` is the raw service front door: it builds a mixed
WP1+WP2 job set over the chosen workloads and depths as the same JSON
specs a daemon accepts, resolves them through the service's spec resolver,
streams completions, and reports cache/dedup statistics.

Distributed evaluation (see :mod:`repro.distributed`): ``submit --serve
[HOST:]PORT`` starts a coordinator and fans shards out to remote worker
agents instead of a local process pool; ``--wait-workers N`` blocks until N
agents have registered before submitting (otherwise a worker-free
coordinator degrades to the local path).  ``worker --connect HOST:PORT``
runs one such agent: it registers, pulls time-leased shards, heartbeats
while evaluating, and survives coordinator restarts by re-registering.

Network serving (see :mod:`repro.server`): ``serve --port P`` runs the
multi-tenant daemon — submissions over HTTP, rows streamed back over SSE
or checksummed binary frames, ``/metrics`` for Prometheus, ``/status``
for humans.  Tenancy comes from the ``REPRO_SERVER_TOKENS`` environment
variable (JSON list of ``{"token", "name", "priority", "max_pending",
"weight"}`` objects; unset means open access); ``REPRO_SERVER_PORT`` and
``REPRO_SERVER_MAX_PENDING`` provide flag defaults.  All three are
validated eagerly at startup with errors naming the offending variable.
SIGTERM/SIGINT drain gracefully: new submissions get 503 while admitted
work finishes streaming.  ``serve --coordinator-port Q`` additionally
listens for ``repro worker`` agents and evaluates on them.  On the client
side, ``submit --connect HOST:PORT [--token T]`` runs the usual mixed
WP1+WP2 sweep through a daemon instead of an in-process service —
bit-identical rows, shared cache.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional


def _add_kernel_option(parser) -> None:
    parser.add_argument(
        "--kernel",
        choices=("reference", "fast", "compiled", "lockstep"),
        default=None,
        help=(
            "simulation kernel; omitted -> $REPRO_KERNEL if set, "
            "else the fast array-based kernel; lockstep vectorises "
            "same-layout configuration batches with NumPy (repro[fast]) "
            "and falls back to fast where ineligible"
        ),
    )


def _add_shards_option(parser) -> None:
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help=(
            "evaluate configuration batches on N worker processes "
            "(sharded; works under fork and spawn)"
        ),
    )


def _add_steady_state_option(parser) -> None:
    parser.add_argument(
        "--no-steady-state",
        action="store_true",
        help=(
            "disable steady-state period detection / extrapolation "
            "(equivalent to REPRO_STEADY_STATE=0)"
        ),
    )


def _add_cache_option(parser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help=(
            "evaluate through the service with a persistent content-"
            "addressed result cache at PATH (re-runs are served from disk)"
        ),
    )


def _add_stream_option(parser) -> None:
    parser.add_argument(
        "--stream",
        action="store_true",
        help="print each row to stderr the moment it completes",
    )


def _add_table1(subparsers) -> None:
    parser = subparsers.add_parser("table1", help="regenerate Table 1")
    parser.add_argument("--sort-length", type=int, default=16)
    parser.add_argument("--matmul", action="store_true", help="also run the matmul section")
    parser.add_argument("--matmul-size", type=int, default=5)
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--multicycle", action="store_true")
    parser.add_argument("--format", choices=("text", "markdown", "csv", "json"), default="text")
    parser.add_argument(
        "--horizon",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run every row on the looping workload variant for exactly N "
            "cycles and report the asymptotic throughput; the CPU units' "
            "certified schedule summaries let the steady-state detector "
            "extrapolate the rows bit-identically to full simulation"
        ),
    )
    _add_kernel_option(parser)
    _add_shards_option(parser)
    _add_steady_state_option(parser)
    _add_cache_option(parser)


def _add_simple(subparsers, name: str, help_text: str) -> None:
    subparsers.add_parser(name, help=help_text)


def _add_sweep(subparsers) -> None:
    parser = subparsers.add_parser("sweep", help="run an ablation sweep")
    parser.add_argument("kind", choices=("fifo", "depth", "clock", "mixed"))
    parser.add_argument("--sort-length", type=int, default=10)
    parser.add_argument("--matmul-size", type=int, default=3)
    parser.add_argument("--format", choices=("text", "markdown", "csv"), default="text")
    _add_kernel_option(parser)
    _add_shards_option(parser)
    _add_steady_state_option(parser)
    _add_cache_option(parser)
    _add_stream_option(parser)


def _add_submit(subparsers) -> None:
    parser = subparsers.add_parser(
        "submit",
        help="submit a job set to the evaluation service and stream results",
    )
    parser.add_argument(
        "--workloads",
        default="sort,matmul",
        help="comma-separated workloads to evaluate (sort, matmul)",
    )
    parser.add_argument("--sort-length", type=int, default=10)
    parser.add_argument("--matmul-size", type=int, default=3)
    parser.add_argument(
        "--depths",
        default="0,1,2,3",
        help="comma-separated uniform relay-station depths, one row each",
    )
    parser.add_argument("--queue-capacity", type=int, default=4)
    parser.add_argument("--max-cycles", type=int, default=5_000_000)
    parser.add_argument(
        "--priority", type=int, default=0,
        help="job priority (lower runs first)",
    )
    _add_kernel_option(parser)
    _add_shards_option(parser)
    _add_steady_state_option(parser)
    _add_cache_option(parser)
    parser.add_argument(
        "--serve",
        default=None,
        metavar="[HOST:]PORT",
        help=(
            "start a distributed coordinator on this address and evaluate "
            "through remote worker agents (start them with "
            "'repro worker --connect HOST:PORT'); with no registered "
            "workers the run degrades to the local pool"
        ),
    )
    parser.add_argument(
        "--wait-workers",
        type=int,
        default=0,
        metavar="N",
        help="wait for N worker agents to register before submitting",
    )
    parser.add_argument(
        "--lease-seconds",
        type=float,
        default=None,
        metavar="S",
        help="shard lease duration; a lease not renewed by heartbeats "
        "within S seconds is requeued to another worker",
    )
    parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help=(
            "submit to a running 'repro serve' daemon instead of an "
            "in-process service; rows stream back over the network and "
            "land bit-identically"
        ),
    )
    parser.add_argument(
        "--token",
        default=None,
        metavar="TOKEN",
        help=(
            "API token for --connect (default: $REPRO_SERVER_TOKEN); "
            "unnecessary against an open daemon"
        ),
    )
    parser.add_argument(
        "--binary",
        action="store_true",
        help=(
            "with --connect, stream results as checksummed binary frames "
            "instead of SSE"
        ),
    )


def _add_serve(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="run the network daemon over one shared evaluation service",
        description=(
            "Run the repro daemon: accept job submissions over HTTP, "
            "evaluate them through one shared EvaluationService (one "
            "scheduler, one content-addressed cache, one warm period "
            "memory) and stream rows back as they complete.  Tenancy "
            "is configured via REPRO_SERVER_TOKENS; SIGTERM/SIGINT "
            "drain gracefully (503 to new submissions, admitted work "
            "finishes)."
        ),
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: loopback only)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="P",
        help=(
            "TCP port (default: $REPRO_SERVER_PORT if set, else an "
            "ephemeral port, announced on stderr)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes of the underlying service pool",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=None,
        metavar="N",
        help=(
            "global blocking backpressure of the service queue (default: "
            "$REPRO_SERVER_MAX_PENDING if set, else unbounded); per-tenant "
            "rejecting quotas come from REPRO_SERVER_TOKENS"
        ),
    )
    parser.add_argument(
        "--coordinator-port",
        type=int,
        default=None,
        metavar="Q",
        help=(
            "also listen for distributed worker agents on this port "
            "(start them with 'repro worker --connect HOST:Q')"
        ),
    )
    _add_cache_option(parser)


def _add_worker(subparsers) -> None:
    parser = subparsers.add_parser(
        "worker",
        help="run a distributed evaluation worker agent",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address to serve (see 'submit --serve')",
    )
    parser.add_argument(
        "--worker-id",
        default=None,
        help="stable worker identity (default: worker-<host>-<pid>)",
    )
    parser.add_argument(
        "--reconnect-delay",
        type=float,
        default=0.25,
        metavar="S",
        help="pause between reconnect attempts when the coordinator is away",
    )


def _add_topology(subparsers) -> None:
    from .engine.kernel import FREE_RUNNING_HORIZON

    parser = subparsers.add_parser(
        "topology",
        help="generate, describe or sweep a synthetic netlist topology",
    )
    parser.add_argument(
        "action",
        choices=("generate", "describe", "sweep"),
        help=(
            "generate: build and print the netlist; describe: add kernel/"
            "steady-state eligibility; sweep: WP1/WP2 throughput vs RS depth"
        ),
    )
    parser.add_argument(
        "kind",
        nargs="?",
        default="ring",
        help="generator kind (chain, ring, dag, mesh, torus, marked, random)",
    )
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="generator parameter, repeatable (e.g. --param stages=8)",
    )
    parser.add_argument(
        "--depths",
        default="0,1,2,3",
        help="comma-separated extra RS per link, one sweep row each",
    )
    parser.add_argument(
        "--horizon",
        type=int,
        default=FREE_RUNNING_HORIZON,
        help="cycle horizon for free-running (non-terminating) topologies",
    )
    parser.add_argument(
        "--format", choices=("text", "markdown", "csv"), default="text"
    )
    _add_kernel_option(parser)
    _add_shards_option(parser)
    _add_steady_state_option(parser)
    _add_cache_option(parser)
    _add_stream_option(parser)


def _parse_topology_params(pairs):
    """``NAME=VALUE`` strings -> generator kwargs (ints/bools where they parse)."""
    params = {}
    for pair in pairs:
        name, sep, text = pair.partition("=")
        if not sep or not name:
            raise SystemExit(f"invalid --param {pair!r}: expected NAME=VALUE")
        if text.lower() in ("true", "false"):
            value = text.lower() == "true"
        else:
            try:
                if "," in text:
                    value = tuple(
                        int(part) for part in text.split(",") if part.strip()
                    )
                else:
                    value = int(text)
            except ValueError:
                raise SystemExit(
                    f"invalid --param {pair!r}: VALUE must be an int, bool "
                    "or comma-separated ints"
                )
        params[name.replace("-", "_")] = value
    return params


def _run_topology(args, service=None) -> int:
    from .core.exceptions import NetlistError
    from .topology import make_topology

    try:
        topology = make_topology(args.kind, **_parse_topology_params(args.param))
    except (NetlistError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.action in ("generate", "describe"):
        print(topology.describe())
        if args.action == "describe":
            print(_topology_eligibility(topology))
        return 0

    from .experiments import topology_sweep
    from .experiments.report import sweep_to_csv, sweep_to_markdown

    depths = [int(d) for d in args.depths.split(",") if d.strip()]
    on_result = _stream_printer() if args.stream and service is not None else None
    result = topology_sweep(
        topology=topology,
        depths=depths,
        kernel=args.kernel,
        workers=args.shards,
        horizon=args.horizon,
        steady_state=_steady_state_flag(args),
        service=service,
        on_result=on_result,
    )
    if args.format == "markdown":
        print(sweep_to_markdown(result))
    elif args.format == "csv":
        print(sweep_to_csv(result), end="")
    else:
        print(result.format())
    return 0


def _topology_eligibility(topology) -> str:
    """Kernel / steady-state eligibility report for one generated topology."""
    from .engine.elaboration import elaborate
    from .engine.instrumentation import InstrumentSet
    from .engine.kernel import RunControls
    from .engine.lockstep import lockstep_reason
    from .engine.steady_state import certify_model

    model = elaborate(topology.netlist, rs_counts=topology.rs_counts)
    controls = RunControls(
        max_cycles=1_000_000,
        stop_process=topology.stop_process,
        horizon=None if topology.stop_process is not None else 1_000_000,
    )
    reason = lockstep_reason(
        model, controls, InstrumentSet(trace=False, shell_stats=False,
                                       occupancy=False)
    )
    certification = certify_model(model)
    if certification is None:
        steady = "off (some process has an opaque schedule state)"
    elif certification[1]:
        steady = "certified (value-exact extrapolation)"
    else:
        steady = "plain (occupancy/firing-offset snapshots)"
    lines = ["eligibility:"]
    lines.append(
        "  lockstep kernel: eligible" if reason is None
        else f"  lockstep kernel: falls back to fast ({reason})"
    )
    lines.append(f"  steady-state detection: {steady}")
    return "\n".join(lines)


def _add_multicycle(subparsers) -> None:
    parser = subparsers.add_parser(
        "multicycle", help="multicycle vs pipelined WP2 gains"
    )
    _add_kernel_option(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Wire-pipelined SoC reproduction experiment runner"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_table1(subparsers)
    _add_simple(subparsers, "figure1", "print the Figure 1 topology report")
    _add_multicycle(subparsers)
    _add_simple(subparsers, "area", "wrapper area overhead report")
    _add_sweep(subparsers)
    _add_topology(subparsers)
    _add_submit(subparsers)
    _add_serve(subparsers)
    _add_worker(subparsers)
    return parser


def _parse_address(text: str, default_host: str = "127.0.0.1"):
    """``[HOST:]PORT`` -> ``(host, port)``."""
    host, _, port_text = text.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise SystemExit(f"invalid address {text!r}: expected [HOST:]PORT")
    return (host or default_host, port)


def _make_coordinator(args):
    """A listening :class:`Coordinator` when ``--serve`` asked for one."""
    serve = getattr(args, "serve", None)
    if serve is None:
        return None
    from .distributed import Coordinator

    host, port = _parse_address(serve)
    kwargs = {}
    if getattr(args, "lease_seconds", None) is not None:
        kwargs["lease_seconds"] = args.lease_seconds
    coordinator = Coordinator(host, port, **kwargs)
    wait = getattr(args, "wait_workers", 0)
    if wait > 0:
        print(
            f"coordinator on {coordinator.address[0]}:{coordinator.address[1]}"
            f" — waiting for {wait} worker(s)",
            file=sys.stderr,
            flush=True,
        )
        coordinator.wait_for_workers(wait)
    return coordinator


def _make_service(args):
    """An :class:`EvaluationService` when the command asked for one (or None).

    A service is engaged by ``--cache-dir`` (persistent result cache),
    ``--stream`` (per-row completion lines), or the ``submit`` command
    (always service-backed).  ``--shards`` becomes the service's worker
    fan-out; ``--serve`` attaches a distributed coordinator so shards run
    on remote worker agents when any are registered.
    """
    cache_dir = getattr(args, "cache_dir", None)
    stream = getattr(args, "stream", False)
    if cache_dir is None and not stream and args.command != "submit":
        return None
    from .service import EvaluationService, ResultCache

    cache = ResultCache(cache_dir=cache_dir) if cache_dir else None
    return EvaluationService(
        cache=cache,
        workers=getattr(args, "shards", 1),
        coordinator=_make_coordinator(args),
    )


def _stream_printer(total=None):
    """A callback printing one stderr line per completed row.

    It takes a service job (the ``on_result`` of the streaming sweeps) or
    the event dict a daemon streams for one.
    """
    import itertools

    counter = itertools.count(1)

    def on_result(row) -> None:
        if not isinstance(row, dict):
            from .server.encoding import job_event

            row = job_event(row.tag, row)
        origin = "cached" if row["cached"] else (
            "deduped" if row["deduped"] else "simulated"
        )
        result = row["result"]
        detail = (
            f"cycles={result['cycles']}" if result is not None else row["status"]
        )
        index = next(counter)
        prefix = f"[{index}/{total}]" if total is not None else f"[{index}]"
        print(
            f"{prefix} {row['layout']} · {row['label']}: {detail} ({origin})",
            file=sys.stderr,
            flush=True,
        )

    return on_result


def _steady_state_flag(args) -> Optional[bool]:
    """``--no-steady-state`` as an explicit RunControls argument (else None)."""
    return False if getattr(args, "no_steady_state", False) else None


def _run_table1(args, service=None) -> int:
    from .experiments import run_table1_matmul, run_table1_sort
    from .experiments.report import table1_to_csv, table1_to_json, table1_to_markdown

    steady_state = _steady_state_flag(args)
    results = {
        "sort": run_table1_sort(
            length=args.sort_length, seed=args.seed,
            pipelined=not args.multicycle, kernel=args.kernel,
            workers=args.shards, horizon=args.horizon,
            steady_state=steady_state, service=service,
        )
    }
    if args.matmul:
        results["matmul"] = run_table1_matmul(
            size=args.matmul_size, seed=args.seed,
            pipelined=not args.multicycle, kernel=args.kernel,
            workers=args.shards, horizon=args.horizon,
            steady_state=steady_state, service=service,
        )
    if args.format == "json":
        print(table1_to_json(results))
        return 0
    for result in results.values():
        if args.format == "markdown":
            print(table1_to_markdown(result))
        elif args.format == "csv":
            print(table1_to_csv(result), end="")
        else:
            print(result.format())
        print()
    return 0


def _run_sweep(args, service=None) -> int:
    from .cpu.workloads import make_extraction_sort, make_matrix_multiply
    from .experiments import (
        clock_frequency_sweep,
        mixed_workload_sweep,
        queue_capacity_sweep,
        uniform_depth_sweep,
    )
    from .experiments.report import sweep_to_csv, sweep_to_markdown

    steady_state = _steady_state_flag(args)
    on_result = _stream_printer() if args.stream and service is not None else None
    workload = make_extraction_sort(length=args.sort_length, seed=2005)
    if args.kind == "mixed":
        results = mixed_workload_sweep(
            workloads={
                "extraction_sort": workload,
                "matrix_multiply": make_matrix_multiply(
                    size=args.matmul_size, seed=2005
                ),
            },
            kernel=args.kernel,
            workers=args.shards,
            steady_state=steady_state,
            service=service,
            on_result=on_result,
        )
        for result in results.values():
            if args.format == "markdown":
                print(sweep_to_markdown(result))
            elif args.format == "csv":
                print(sweep_to_csv(result), end="")
            else:
                print(result.format())
            print()
        return 0
    if args.kind == "fifo":
        result = queue_capacity_sweep(
            workload=workload, kernel=args.kernel, workers=args.shards,
            steady_state=steady_state, service=service, on_result=on_result,
        )
    elif args.kind == "depth":
        result = uniform_depth_sweep(
            workload=workload, kernel=args.kernel, workers=args.shards,
            steady_state=steady_state, service=service, on_result=on_result,
        )
    else:
        result = clock_frequency_sweep(
            workload=workload, kernel=args.kernel, workers=args.shards,
            steady_state=steady_state, service=service, on_result=on_result,
        )
    if args.format == "markdown":
        print(sweep_to_markdown(result))
    elif args.format == "csv":
        print(sweep_to_csv(result), end="")
    else:
        print(result.format())
    return 0


def _submit_bodies(args):
    """The ``submit`` sweep as daemon request bodies, one per workload.

    Both transports send exactly these: ``--connect`` posts them, the
    in-process path resolves them against its own service.
    """
    names = [name.strip() for name in args.workloads.split(",") if name.strip()]
    unknown = [name for name in names if name not in ("sort", "matmul")]
    if unknown:
        print(f"unknown workloads: {', '.join(unknown)}", file=sys.stderr)
        return None
    shape = {
        "sort": {"length": args.sort_length},
        "matmul": {"size": args.matmul_size},
    }
    controls = {"max_cycles": args.max_cycles}
    if _steady_state_flag(args) is False:
        controls["steady_state"] = False
    return [
        {
            "spec": {
                "kind": "workload", "workload": name, **shape[name],
                "seed": 2005,
            },
            "wrappers": ["wp1", "wp2"],
            "configurations": [
                int(depth) for depth in args.depths.split(",") if depth.strip()
            ],
            "queue_capacity": args.queue_capacity,
            "kernel": args.kernel,
            "controls": controls,
        }
        for name in names
    ]


def _run_submit(args, service) -> int:
    """Run the mixed WP1+WP2 sweep on *service*, or on the daemon at
    ``--connect`` when *service* is None, and print each row as it lands."""
    bodies = _submit_bodies(args)
    if bodies is None:
        return 2
    if service is None:
        from .server.client import ServerClient

        token = args.token or os.environ.get("REPRO_SERVER_TOKEN") or None
        client = ServerClient.connect(args.connect, token=token)
        replies = [client.submit(body) for body in bodies]
        total = sum(reply["jobs"] for reply in replies)
        streams = [
            client.stream(reply["job_set_id"], binary=args.binary)
            for reply in replies
        ]
    else:
        from .server.encoding import job_event
        from .service.spec import SpecResolver, parse_submission

        resolver = SpecResolver(service)
        resolved = [resolver.resolve(parse_submission(body)) for body in bodies]
        total = sum(len(items) for items, _, _ in resolved)
        jobsets = [
            service.submit(
                items, priority=args.priority,
                queue_capacity=args.queue_capacity, **controls,
            )
            for items, controls, _ in resolved
        ]
        streams = [
            (job_event(job.tag, job) for job in jobset.results())
            for jobset in jobsets
        ]
    printer = _stream_printer(total)
    failed = 0
    for stream in streams:
        for event in stream:
            printer(event)
            failed += event["status"] != "done"
    if service is None:
        print(
            f"{total} jobs streamed from {args.connect} "
            f"({len(replies)} job set(s), {failed} not done)"
        )
        return 0 if failed == 0 else 1
    stats = service.stats()
    cache = stats["cache"]
    print(
        f"{stats['submitted']} jobs: {stats['evaluated']} simulated, "
        f"{cache['hits']} cache hits ({cache['disk_hits']} from disk), "
        f"{stats['deduped']} deduplicated, {stats['failed']} failed"
    )
    return 0


def _run_serve(args) -> int:
    """Run the network daemon until SIGTERM/SIGINT drains it."""
    import signal
    import threading

    from .core.exceptions import SimulationError
    from .server import ReproServer, validate_server_env

    try:
        env = validate_server_env()
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    port = args.port if args.port is not None else (env["port"] or 0)
    max_pending = (
        args.max_pending if args.max_pending is not None
        else env["max_pending"]
    )
    coordinator = None
    if args.coordinator_port is not None:
        from .distributed import Coordinator

        coordinator = Coordinator(args.host, args.coordinator_port)
    try:
        server = ReproServer(
            args.host,
            port,
            cache_dir=args.cache_dir,
            workers=args.workers,
            max_pending=max_pending,
            tenants=env["tenants"],
            coordinator=coordinator,
        )
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{port}: {exc}", file=sys.stderr)
        return 2

    stop = threading.Event()

    def drain(signum, frame) -> None:
        # First signal: stop admitting (503) and let the main thread run
        # the graceful close; a second signal falls through to the default
        # handler (the process dies hard).
        server.begin_drain()
        stop.set()
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)

    signal.signal(signal.SIGTERM, drain)
    signal.signal(signal.SIGINT, drain)
    server.start()
    host, bound = server.address
    mode = "open access" if server.registry.open_access else (
        f"{len(server.registry.tenants)} tenant token(s)"
    )
    print(
        f"repro.server listening on {host}:{bound} ({mode})",
        file=sys.stderr,
        flush=True,
    )
    if coordinator is not None:
        chost, cport = coordinator.address
        print(
            f"coordinator for worker agents on {chost}:{cport}",
            file=sys.stderr,
            flush=True,
        )
    stop.wait()
    print(
        "draining: new submissions get 503, admitted work finishes…",
        file=sys.stderr,
        flush=True,
    )
    server.close()
    print("repro.server stopped", file=sys.stderr, flush=True)
    return 0


def _run_worker(args) -> int:
    """Serve a coordinator as one distributed worker agent."""
    from .distributed import agent_main

    host, port = _parse_address(args.connect)
    try:
        agent_main(
            host,
            port,
            worker_id=args.worker_id,
            reconnect_delay=args.reconnect_delay,
        )
    except KeyboardInterrupt:
        pass
    return 0


def _dispatch(args) -> int:
    if args.command == "worker":
        return _run_worker(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "submit" and args.connect is not None:
        if args.serve is not None:
            print(
                "--connect (remote daemon) and --serve (local coordinator) "
                "are mutually exclusive",
                file=sys.stderr,
            )
            return 2
        return _run_submit(args, None)
    service = _make_service(args)
    try:
        if args.command == "table1":
            return _run_table1(args, service)
        if args.command == "figure1":
            from .experiments import run_figure1

            print(run_figure1().format())
            return 0
        if args.command == "multicycle":
            from .experiments import run_multicycle_study

            print(run_multicycle_study(kernel=args.kernel).format())
            return 0
        if args.command == "area":
            from .experiments import reference_wrapper_overhead_percent, run_area_overhead

            print(
                "reference wrapper overhead: "
                f"WP1 {reference_wrapper_overhead_percent(relaxed=False):.3f} %, "
                f"WP2 {reference_wrapper_overhead_percent(relaxed=True):.3f} % "
                "of a 100 kgate IP"
            )
            print(run_area_overhead().format())
            return 0
        if args.command == "sweep":
            return _run_sweep(args, service)
        if args.command == "topology":
            return _run_topology(args, service)
        if args.command == "submit":
            return _run_submit(args, service)
        return 1
    finally:
        if service is not None:
            coordinator = getattr(service, "coordinator", None)
            service.close()
            if coordinator is not None:
                coordinator.close()


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # Fail fast — and readably — on a malformed REPRO_FAULTS plan instead
    # of erroring deep inside the first sharded batch.
    from .core.exceptions import SimulationError
    from .engine import faults

    try:
        faults.validate_env()
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not getattr(args, "no_steady_state", False):
        return _dispatch(args)
    # --no-steady-state is threaded through RunControls (steady_state=False)
    # by the command runners; the environment variable is additionally set
    # for the duration of the command so layers that only consult the env —
    # notably spawned worker processes — inherit the choice, and restored
    # afterwards so nothing leaks into later in-process API calls.
    env_var = "REPRO_STEADY_STATE"
    previous = os.environ.get(env_var)
    os.environ[env_var] = "0"
    try:
        return _dispatch(args)
    finally:
        if previous is None:
            os.environ.pop(env_var, None)
        else:
            os.environ[env_var] = previous


if __name__ == "__main__":
    sys.exit(main())
