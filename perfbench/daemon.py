"""Launch ``python -m repro serve`` for the ``served_mix`` workload.

Usage::

    python3 perfbench/daemon.py [--trace-dir DIR] serve --port 0 --cache-dir PATH

Without ``--trace-dir`` this is exactly ``python -m repro serve ...``: no
wrapper is installed.  With it, the span wrappers of
:mod:`perfbench.spans` are installed before the daemon starts and the span
file is written to DIR when ``serve`` returns (after SIGTERM drains it).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    trace_dir = None
    if argv[:1] == ["--trace-dir"]:
        trace_dir, argv = argv[1], argv[2:]
    from repro.__main__ import main as repro_main

    recorder = None
    if trace_dir is not None:
        from perfbench import spans

        recorder = spans.install(Path(trace_dir), role="daemon")
    try:
        return repro_main(argv)
    finally:
        if recorder is not None:
            recorder.dump()


if __name__ == "__main__":
    if sys.path and Path(sys.path[0]).resolve() == Path(__file__).resolve().parent:
        sys.path.pop(0)
    sys.exit(main(sys.argv[1:]))
