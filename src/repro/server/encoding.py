"""Wire formats of the serving tier: batch specs in, result rows out.

**Requests** are JSON job specs, validated and resolved by
:mod:`repro.service.spec`; :class:`Submission`, :func:`parse_submission`
and :func:`parse_controls` are re-exported here for existing importers.
The daemon maps spec errors to HTTP 400 (404 for an unmatched layout).

**Responses** stream one *event* per completed job (see :func:`job_event`)
in two negotiable encodings:

* **SSE** (``text/event-stream``, the default): one ``data: <json>`` block
  per row — debuggable with curl, consumable by anything;
* **binary frames** (``application/x-repro-frames``): each event pickled
  and wrapped in the distributed tier's length-prefixed sha256-checksummed
  frame (:func:`repro.distributed.protocol.frame_bytes`) — the high-volume
  path for trace-heavy rows, sharing one corruption-detection story with
  the coordinator socket.  Trust model: clients never unpickle anything
  they did not request from a server they chose (and authenticated to);
  the server itself accepts only JSON.

A stream terminates with an ``{"event": "end"}`` sentinel so clients can
tell completion from disconnection.
"""

from __future__ import annotations

import json
import pickle
from typing import Any, Dict, IO, Iterator

from ..distributed.protocol import frame_bytes, read_frame
from ..service.spec import (  # noqa: F401 - re-exported request decoding
    Submission,
    parse_controls,
    parse_submission,
)

JSON_CONTENT = "application/json"
SSE_CONTENT = "text/event-stream"
FRAMES_CONTENT = "application/x-repro-frames"


def job_event(index: int, job) -> Dict[str, Any]:
    """The canonical per-row event dict both stream encodings carry."""
    return {
        "event": "row",
        "index": index,
        "layout": job.layout,
        "label": job.label,
        "status": job.status.value,
        "cached": job.cached,
        "deduped": job.deduped,
        "error": job.error,
        "result": None if job.result is None else job.result.to_dict(),
    }


def end_event(job_set_id: str, delivered: int) -> Dict[str, Any]:
    """Stream terminator: rows stop arriving because the set is *done*."""
    return {"event": "end", "job_set_id": job_set_id, "delivered": delivered}


def encode_sse(event: Dict[str, Any]) -> bytes:
    """One Server-Sent-Events block: ``data: <json>`` + blank line."""
    return b"data: " + json.dumps(event).encode("utf-8") + b"\n\n"


def iter_sse(stream: IO[bytes]) -> Iterator[Dict[str, Any]]:
    """Decode SSE blocks back into event dicts (the thin client's default)."""
    for raw in stream:
        line = raw.strip()
        if line.startswith(b"data: "):
            yield json.loads(line[len(b"data: "):].decode("utf-8"))


def encode_frame(event: Dict[str, Any], *, corrupt: bool = False) -> bytes:
    """One binary result frame: pickled event in the protocol's framing."""
    blob = pickle.dumps(event, protocol=pickle.HIGHEST_PROTOCOL)
    return frame_bytes(blob, corrupt=corrupt)


def iter_frames(stream: IO[bytes]) -> Iterator[Dict[str, Any]]:
    """Decode checksummed binary frames back into event dicts.

    Stops cleanly at end-of-stream; a truncated frame raises ``EOFError``
    and a corrupted payload raises
    :class:`~repro.core.exceptions.PayloadChecksumError` — a client that
    sees either reconnects and replays from its cursor.
    """
    def read_exact(count: int, *, prefix: bytes = b"") -> bytes:
        chunks = [prefix]
        remaining = count - len(prefix)
        while remaining > 0:
            chunk = stream.read(remaining)
            if not chunk:
                raise EOFError("result stream truncated mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    while True:
        probe = stream.read(1)
        if not probe:
            return  # clean end-of-stream at a frame boundary
        first = True

        def reader(count: int) -> bytes:
            nonlocal first
            if first:
                first = False
                return read_exact(count, prefix=probe)
            return read_exact(count)

        yield pickle.loads(read_frame(reader))
