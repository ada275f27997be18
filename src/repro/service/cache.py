"""Content-addressed result cache: never simulate the same configuration twice.

Every kernel is a *deterministic* function: given one elaborated model (the
netlist content, the relay-station binding, element capacities, the wrapper
flavour) and one set of run controls, all kernels produce bit-identical
:class:`~repro.engine.result.LidResult` counts — the equivalence property
suite and the steady-state extrapolation contract (DESIGN.md §4-§5) pin
exactly this.  The kernel name is part of the key, so each kernel's
entries stay its own.  A result can therefore be
addressed by the *content* of its inputs and replayed for free on any later
request with the same address:

``key = sha256(schema version,
              netlist identity,                # sha256 of the netlist as built
              looped trace?,                   # replays its golden run's loop
              kernel name,
              wrapper flavour, queue capacity, RS capacity,
              sorted per-channel relay-station counts,
              run-controls signature)``        # stop condition, bounds, ...

The netlist identity (:attr:`~repro.core.netlist.Netlist.identity`, the
sha256 of its pickle, fixed when it is built, so runs never change it)
covers everything the structural
:func:`~repro.engine.codegen.model_signature` deliberately leaves out
(process programs, initial registers and memory, initial channel tokens); a
netlist that cannot be pickled is not content-addressed and is simply
*uncacheable* — misses are always sound, only hits must be justified.  The
configuration *label* is deliberately excluded (two rows asking for the
same counts under different names share one simulation; the cached result
is re-labelled per request), and the steady-state switches are *included*: counts would match
either way, but the ``period``/``warmup_cycles``/``extrapolated`` metadata of
the result would not, and a cache must return byte-identical answers.  For
the same reason the key says whether the netlist carries a looped trace of
its own golden run (:func:`~repro.core.golden.replays_loop`): such rows
replay and extrapolate where its untraced twin, of the same identity,
simulates in full.

Two tiers: an in-memory LRU (:class:`ResultCache`), and an optional on-disk
JSON tier (one ``<key>.json`` file per entry under *cache_dir*) that survives
the process — repeated sweeps and re-runs of ``table1`` across CLI
invocations are near-free.  Disk files store the canonical
:meth:`~repro.engine.batch.BatchResult.to_dict` form, which is JSON-safe for
every field, wrapped with a sha256 **payload checksum**: a file that fails to
parse, fails its checksum, or fails to deserialize is *quarantined* — renamed
to ``<key>.corrupt`` so it can never be consulted again (and is preserved for
post-mortem) — counted in :meth:`ResultCache.stats`, and treated as a plain
miss.  Corruption is a recoverable event, never an exception: the worst a
flipped bit can cost is one re-simulation.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..core.golden import replays_loop
from ..engine.batch import BatchResult, BatchRunner, _Item
from ..engine.elaboration import resolve_rs_counts
from ..engine.faults import corrupt_file, should_corrupt
from ..engine.kernel import RunControls

#: Bump when the key derivation or the serialized form changes incompatibly:
#: old disk entries then miss (sound) instead of deserializing garbage.
#: v2: payload checksum added to the disk form (v1 files miss cleanly — a
#: version mismatch is compatibility, not corruption, and is not quarantined).
#: v3: a row's steady-state outcome depends only on its own model and
#: controls; v2 entries could carry a period-less row whose detection window
#: an earlier, unrelated row had shrunk, so they miss and are recomputed.
#: v4: the compiled kernel's certified search reports the checkpoint it
#: found the recurrence against as ``warmup_cycles``; v3 entries carry the
#: old detector's value, which a fresh run no longer produces.
#: v5: the checkpoint search is gone, so certified (BFS) warmups are exact
#: again; looped CPU horizon rows take their period and warmup from the
#: replay of the golden run's loop, and the key says whether the netlist
#: carries such a loop.
#: v6: a looped trace starts its loop where the oracle answers repeat, not
#: at the golden run's power-of-two save point, so replayed horizon rows
#: find their recurrence earlier: stored ``warmup_cycles`` (and, at short
#: horizons, ``period``/``extrapolated``) differ from a fresh run's.
CACHE_SCHEMA_VERSION = 6


def controls_signature(controls: RunControls) -> Optional[Tuple]:
    """Canonical tuple of every result-relevant run-control field.

    Returns None when the run is uncacheable: an ``on_cycle`` observer makes
    the run's *purpose* its side effects, which a cache hit would skip.

    ``steady_state`` and ``steady_state_window`` enter the signature because
    they decide the row's period/warmup/extrapolated metadata, so a cached
    entry answers exactly the runs that would have produced it.
    """
    if controls.on_cycle is not None:
        return None
    targets = (
        None
        if controls.target_firings is None
        else tuple(sorted(controls.target_firings.items()))
    )
    # The supervision knobs (shard_timeout, max_shard_retries, retry_backoff)
    # are deliberately absent: they steer *how* the pool recovers, never what
    # a simulation computes, so results are shared across their settings.
    return (
        controls.max_cycles,
        controls.stop_process,
        targets,
        controls.extra_cycles,
        controls.deadlock_limit,
        controls.horizon,
        controls.steady_state,
        controls.steady_state_window,
    )


def result_key(
    runner: BatchRunner,
    item: _Item,
    controls: RunControls,
) -> Optional[str]:
    """The content-address of one (runner, normalised item, controls) request.

    None means "do not cache this": the netlist is not content-addressed
    (it cannot be pickled) or the controls carry an observer.  The sha256 runs over the ``repr`` of a
    tuple of scalars, strings and nested tuples — canonical by construction.
    """
    netlist = runner.netlist
    if not netlist.content_addressed:
        return None
    controls_sig = controls_signature(controls)
    if controls_sig is None:
        return None
    configuration, rs_counts, capacity = item
    counts, _ = resolve_rs_counts(
        netlist, rs_counts=rs_counts, configuration=configuration
    )
    components = (
        CACHE_SCHEMA_VERSION,
        netlist.identity,
        replays_loop(netlist),
        runner.kernel_name,
        runner.relaxed,
        runner.queue_capacity if capacity is None else capacity,
        runner.rs_capacity,
        tuple(sorted(counts.items())),
        controls_sig,
    )
    return hashlib.sha256(repr(components).encode("utf-8")).hexdigest()


def relabel(result: BatchResult, label: str) -> BatchResult:
    """A copy of *result* carrying the requesting item's label.

    Labels are excluded from the content address (they do not influence the
    simulation), so a hit produced under another name is re-labelled before
    being handed back — the submitter sees exactly the row it asked for.
    """
    if result.label == label:
        return result
    return replace(result, label=label)


class ResultCache:
    """Two-tier (memory LRU + optional disk JSON) store of batch results.

    Thread-safe; the service consults it from submitter threads (hits at
    submit time) and from the scheduler thread (stores after evaluation).
    Statistics are exposed through :meth:`stats`.
    """

    def __init__(
        self,
        max_entries: int = 65_536,
        cache_dir: Optional[os.PathLike] = None,
        max_disk_bytes: Optional[int] = None,
    ) -> None:
        """*max_disk_bytes* bounds the disk tier (None: unbounded).

        After every write, ``<key>.json`` entries are evicted least-recently-
        used first — recency is the file mtime, which both writes and disk
        hits refresh — until the tier fits the budget.  The budget is a hard
        bound shared by every process pointing at the directory (the
        cross-host transport tier of ``repro.distributed`` included): even a
        single entry larger than the whole budget is evicted immediately.
        An eviction is never an error — the evicted key simply misses and
        re-simulates.
        """
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_disk_bytes is not None and max_disk_bytes < 1:
            raise ValueError("max_disk_bytes must be >= 1 (or None)")
        self.max_entries = max_entries
        self.max_disk_bytes = max_disk_bytes
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, BatchResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.disk_errors = 0
        self.corrupt_quarantined = 0
        self.disk_evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return self.get(key, count=False) is not None

    # -- lookup -------------------------------------------------------------
    def get(
        self,
        key: Optional[str],
        count: bool = True,
        memory_only: bool = False,
    ) -> Optional[BatchResult]:
        """The cached result for *key*, consulting memory then disk.

        *memory_only* skips the disk tier — the scheduler uses it for the
        re-check it performs under its own lock, where disk I/O would stall
        every other submitter (a miss there is not counted either: the
        caller already probed both tiers).
        """
        if key is None:
            return None
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
                if count:
                    self.hits += 1
                return result
        if memory_only:
            return None
        result = self._read_disk(key)
        if result is not None:
            with self._lock:
                self._remember(key, result)
                if count:
                    self.hits += 1
                    self.disk_hits += 1
            return result
        if count:
            with self._lock:
                self.misses += 1
        return None

    # -- store --------------------------------------------------------------
    def put(self, key: Optional[str], result: BatchResult) -> None:
        """Store *result* under *key* in both tiers (no-op for key=None)."""
        if key is None:
            return
        with self._lock:
            self._remember(key, result)
        self._write_disk(key, result)

    def clear(self) -> None:
        """Drop the in-memory tier (disk entries are left in place)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
                "disk_errors": self.disk_errors,
                "corrupt_quarantined": self.corrupt_quarantined,
                "disk_evictions": self.disk_evictions,
                "max_disk_bytes": self.max_disk_bytes,
                "cache_dir": None if self.cache_dir is None else str(self.cache_dir),
            }

    # -- internals ----------------------------------------------------------
    def _remember(self, key: str, result: BatchResult) -> None:
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def _path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{key}.json"

    @staticmethod
    def _checksum(result_dict: Dict[str, Any]) -> str:
        """sha256 over the canonical (sorted-keys) JSON form of the result."""
        canonical = json.dumps(result_dict, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt entry out of the address space (``<key>.corrupt``).

        The rename makes the corruption one-shot: the next lookup of the key
        is a clean miss, re-simulation repopulates the entry, and the bad
        bytes stay on disk for post-mortem instead of being retried forever.
        """
        self.corrupt_quarantined += 1
        self.disk_errors += 1
        try:
            path.replace(path.with_suffix(".corrupt"))
        except OSError:
            pass

    def _read_disk(self, key: str) -> Optional[BatchResult]:
        if self.cache_dir is None:
            return None
        path = self._path(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        except OSError:
            self.disk_errors += 1
            return None
        try:
            payload = json.loads(text)
        except ValueError:
            self._quarantine(path, "unparseable JSON")
            return None
        if not isinstance(payload, dict):
            self._quarantine(path, "payload is not an object")
            return None
        if payload.get("version") != CACHE_SCHEMA_VERSION:
            # Older schema, not damage: miss cleanly, leave the file alone.
            return None
        result_dict = payload.get("result")
        if (
            not isinstance(result_dict, dict)
            or payload.get("checksum") != self._checksum(result_dict)
        ):
            self._quarantine(path, "checksum mismatch")
            return None
        try:
            result = BatchResult.from_dict(result_dict)
        except (KeyError, TypeError, ValueError):
            self._quarantine(path, "undeserializable result")
            return None
        # Refresh recency for the LRU eviction order (mtime is the clock
        # every process sharing the directory agrees on).
        try:
            os.utime(path)
        except OSError:
            pass
        return result

    def _write_disk(self, key: str, result: BatchResult) -> None:
        if self.cache_dir is None:
            return
        result_dict = result.to_dict()
        payload = {
            "version": CACHE_SCHEMA_VERSION,
            "result": result_dict,
            "checksum": self._checksum(result_dict),
        }
        path = self._path(key)
        tmp = path.with_suffix(".tmp")
        try:
            tmp.write_text(json.dumps(payload))
            tmp.replace(path)
        except (OSError, TypeError, ValueError):
            self.disk_errors += 1
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        if should_corrupt(key):  # fault injection: exercise the quarantine path
            corrupt_file(path)
        self._evict_disk()

    def _evict_disk(self) -> None:
        """Evict ``<key>.json`` entries, oldest mtime first, to the budget."""
        if self.cache_dir is None or self.max_disk_bytes is None:
            return
        entries = []
        total = 0
        try:
            candidates = list(self.cache_dir.glob("*.json"))
        except OSError:
            return
        for path in candidates:
            try:
                info = path.stat()
            except OSError:
                continue
            entries.append((info.st_mtime, info.st_size, path))
            total += info.st_size
        if total <= self.max_disk_bytes:
            return
        entries.sort(key=lambda entry: entry[0])
        evicted = 0
        for _mtime, size, path in entries:
            if total <= self.max_disk_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
        if evicted:
            with self._lock:
                self.disk_evictions += evicted
