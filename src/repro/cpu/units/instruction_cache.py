"""Instruction cache (IC) of the Figure 1 processor.

Modelled as a single-cycle instruction memory: every firing it answers the
fetch request received on ``cu_ic`` with the corresponding instruction word on
``ic_cu``.  The IC is purely reactive — it cannot know in advance whether a
request is coming — so it has no WP2 oracle (its only input is always
required).  All relaxation of the CU-IC loop therefore comes from the CU side,
which is exactly the asymmetry the paper's multicycle-vs-pipelined discussion
relies on.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ...core.exceptions import SimulationError
from ...core.process import Process
from ..signals import FetchRequest, fetch_response


class InstructionCache(Process):
    """Single-cycle instruction memory."""

    input_ports = ("cu_ic",)
    output_ports = ("ic_cu",)
    # The instruction image is immutable during a run, so responses are a
    # pure function of the request: the inert base summary is already
    # complete, which lets the golden run's loop search cover the IC
    # (DESIGN.md §5).
    schedule_complete = True

    def __init__(self, words: Sequence[int], name: str = "IC") -> None:
        super().__init__(name)
        if not words:
            raise SimulationError("instruction memory image must not be empty")
        self._image: List[int] = [int(word) for word in words]
        self.words: List[int] = list(self._image)
        self.reads = 0

    def reset(self) -> None:
        super().reset()
        self.words = list(self._image)
        self.reads = 0

    def fire(self, inputs: Mapping[str, object]) -> Dict[str, object]:
        request = inputs["cu_ic"]
        if type(request) is not FetchRequest:
            return {"ic_cu": None}
        address = request.address
        if not 0 <= address < len(self.words):
            raise SimulationError(
                f"{self.name}: fetch address {address} outside instruction memory "
                f"of {len(self.words)} words"
            )
        self.reads += 1
        return {"ic_cu": fetch_response(address, self.words[address])}
