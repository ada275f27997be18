"""Distributed batch evaluation: a coordinator and remote worker agents.

The batch executor (:mod:`repro.engine.supervised_pool`) drives every
pooled batch with one dispatcher over a pluggable transport; this package
is its network transport, where disconnects, half-written payloads, and
slow links are the common case:

* :mod:`repro.distributed.protocol` — length-prefixed, sha256-checksummed
  message framing over a plain TCP socket;
* :mod:`repro.distributed.coordinator` — accepts agents and, per batch,
  hands shards out under time-bounded leases renewed by heartbeats,
  quarantining agents whose connections keep faulting; the shared
  dispatcher owns the retry/backoff/bisection/quarantine ladder;
* :mod:`repro.distributed.worker` — the pull-based worker agent behind
  ``python -m repro worker --connect HOST:PORT``, running the same
  shard-serving function as a local pool worker.

See DESIGN.md §8 for the executor, the protocol and its soundness argument.
"""

from .coordinator import Coordinator
from .worker import WorkerAgent, agent_main

__all__ = ["Coordinator", "WorkerAgent", "agent_main"]
