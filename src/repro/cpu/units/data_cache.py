"""Data cache (DC) of the Figure 1 processor.

Modelled as a single-cycle data memory.  The control unit announces each
memory operation on ``cu_dc`` two tags before the effective address arrives
(computed by the ALU, delivered on ``alu_dc``); for stores, the data to write
arrives from the register file on ``rf_dc`` one tag after the announcement.
The DC therefore keeps a small schedule of pending operations:

=====================  =========================================
tag (relative to cmd)  activity
=====================  =========================================
``t``                  consume ``cu_dc`` announcement
``t + 1``              latch store data from ``rf_dc`` (stores)
``t + 2``              consume address from ``alu_dc``, access the
                       memory, emit the load result on ``dc_rf``
=====================  =========================================

The schedule doubles as the WP2 oracle: ``rf_dc`` is required only at tags
where a store's data is due and ``alu_dc`` only at tags where an access is
due, while ``cu_dc`` is always required (the DC cannot predict the CU).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence

from ...core.exceptions import SimulationError
from ...core.process import Process
from ..isa import to_signed_word
from ..signals import MemAddress, MemCommand, StoreData, load_result


class DataCache(Process):
    """Single-cycle data memory with a two-stage internal schedule."""

    input_ports = ("cu_dc", "rf_dc", "alu_dc")
    output_ports = ("dc_rf",)
    # Complete behavioural summary (the golden run's loop search, DESIGN.md
    # §5): load results depend on the memory image, so the summary carries
    # the image itself.
    schedule_complete = True

    #: Firings between the command and the store data / the memory access.
    STORE_DATA_DELAY = 1
    ACCESS_DELAY = 2

    def __init__(self, image: Sequence[int], name: str = "DC") -> None:
        super().__init__(name)
        self._image: List[int] = [int(word) for word in image]
        self.memory: List[int] = list(self._image)
        # tag -> "read" / "write"
        self.pending_access: Dict[int, str] = {}
        # tag at which store data arrives -> tag of the matching access
        self.pending_store_data: Dict[int, int] = {}
        # access tag -> value to write
        self.store_values: Dict[int, int] = {}
        self.loads = 0
        self.stores = 0

    def reset(self) -> None:
        super().reset()
        self.memory = list(self._image)
        self.pending_access = {}
        self.pending_store_data = {}
        self.store_values = {}
        self.loads = 0
        self.stores = 0

    # -- steady-state summary --------------------------------------------------------
    def schedule_state(self):
        """Complete behavioural state, canonical in the firing counter.

        The memory image plus the three pending schedules (due tags made
        relative).
        """
        tag = self.firings
        access = data = values = ()
        if self.pending_access:
            access = [(due - tag, kind) for due, kind in self.pending_access.items()]
            access.sort()
        if self.pending_store_data:
            data = [
                (due - tag, access_tag - tag)
                for due, access_tag in self.pending_store_data.items()
            ]
            data.sort()
        if self.store_values:
            values = [(due - tag, value) for due, value in self.store_values.items()]
            values.sort()
        return (tuple(self.memory), tuple(access), tuple(data), tuple(values))

    # -- WP2 oracle ----------------------------------------------------------------
    def required_ports(self) -> Optional[FrozenSet[str]]:
        # Constant answers (the oracle runs every cycle on the hot path).
        firings = self.firings
        if firings in self.pending_store_data:
            if firings in self.pending_access:
                return _REQUIRED_CU_RF_ALU
            return _REQUIRED_CU_RF
        if firings in self.pending_access:
            return _REQUIRED_CU_ALU
        return _REQUIRED_CU

    # -- firing ---------------------------------------------------------------------
    def fire(self, inputs: Mapping[str, object]) -> Dict[str, object]:
        tag = self.firings

        # 1. New announcement from the control unit.
        command = inputs["cu_dc"]
        if type(command) is MemCommand and (command.read or command.write):
            access_tag = tag + self.ACCESS_DELAY
            self.pending_access[access_tag] = "write" if command.write else "read"
            if command.write:
                self.pending_store_data[tag + self.STORE_DATA_DELAY] = access_tag

        # 2. Store data due this tag.
        if tag in self.pending_store_data:
            access_tag = self.pending_store_data.pop(tag)
            data = inputs["rf_dc"]
            if type(data) is not StoreData:
                raise SimulationError(
                    f"{self.name}: expected store data at tag {tag}, got {data!r}"
                )
            self.store_values[access_tag] = data.value

        # 3. Memory access due this tag.
        result: Optional[LoadResult] = None
        if tag in self.pending_access:
            kind = self.pending_access.pop(tag)
            address_message = inputs["alu_dc"]
            if type(address_message) is not MemAddress:
                raise SimulationError(
                    f"{self.name}: expected an effective address at tag {tag}, "
                    f"got {address_message!r}"
                )
            address = address_message.address
            if not 0 <= address < len(self.memory):
                raise SimulationError(
                    f"{self.name}: {kind} address {address} outside data memory of "
                    f"{len(self.memory)} words"
                )
            if kind == "read":
                result = load_result(self.memory[address])
                self.loads += 1
            else:
                self.memory[address] = to_signed_word(self.store_values.pop(tag))
                self.stores += 1

        return {"dc_rf": result}


#: Precomputed oracle answers; the DC always needs its command stream and
#: conditionally the store-data and address buses.
_REQUIRED_CU = frozenset({"cu_dc"})
_REQUIRED_CU_RF = frozenset({"cu_dc", "rf_dc"})
_REQUIRED_CU_ALU = frozenset({"cu_dc", "alu_dc"})
_REQUIRED_CU_RF_ALU = frozenset({"cu_dc", "rf_dc", "alu_dc"})
