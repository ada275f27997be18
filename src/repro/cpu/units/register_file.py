"""Register file (RF) of the Figure 1 processor.

The RF owns the sixteen architectural registers.  Each firing it:

1. applies the load writeback scheduled for this tag (value on ``dc_rf``);
2. applies the ALU writeback scheduled for this tag (value on ``alu_rf``);
3. executes the register command received on ``cu_rf``: reads the requested
   operands (after the writes — the RF forwards internally within a firing),
   sends them to the ALU on ``rf_alu``, sends store data to the data cache on
   ``rf_dc`` and records the future writebacks the command announces.

The destinations of pending writebacks are remembered locally (the ALU and DC
only ship values), so the WP2 oracle of the RF is a pure function of its own
pending-writeback schedule: ``alu_rf`` and ``dc_rf`` are required only at tags
where a writeback is actually due, which is what unlocks the large WP2 gains
on the ``ALU-RF``, ``DC-RF`` and ``RF-DC`` links.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional

from ...core.exceptions import SimulationError
from ...core.process import Process
from ..isa import NUM_REGISTERS, to_signed_word
from ..signals import AluResult, LoadResult, RegCommand, StoreData, operands, store_data


class RegisterFile(Process):
    """Sixteen general-purpose registers with two writeback ports."""

    input_ports = ("cu_rf", "alu_rf", "dc_rf")
    output_ports = ("rf_alu", "rf_dc")
    # Complete behavioural summary (the golden run's loop search, DESIGN.md
    # §5): register values feed operand tokens, so the summary carries them.
    schedule_complete = True

    #: Firings between receiving a command and receiving the matching
    #: ALU / load writeback values.
    ALU_WRITEBACK_DELAY = 2
    MEM_WRITEBACK_DELAY = 3

    def __init__(self, name: str = "RF") -> None:
        super().__init__(name)
        self.registers: List[int] = [0] * NUM_REGISTERS
        self.pending_alu_writeback: Dict[int, int] = {}
        self.pending_mem_writeback: Dict[int, int] = {}
        self.writes = 0
        self.reads = 0

    def reset(self) -> None:
        super().reset()
        self.registers = [0] * NUM_REGISTERS
        self.pending_alu_writeback = {}
        self.pending_mem_writeback = {}
        self.writes = 0
        self.reads = 0

    # -- WP2 oracle ---------------------------------------------------------------
    def required_ports(self) -> Optional[FrozenSet[str]]:
        # Constant answers (the oracle runs every cycle on the hot path).
        firings = self.firings
        if firings in self.pending_alu_writeback:
            if firings in self.pending_mem_writeback:
                return _REQUIRED_CU_ALU_MEM
            return _REQUIRED_CU_ALU
        if firings in self.pending_mem_writeback:
            return _REQUIRED_CU_MEM
        return _REQUIRED_CU

    # -- steady-state summary -------------------------------------------------------
    def schedule_state(self):
        """Complete behavioural state, canonical in the firing counter.

        The sixteen register values plus both pending-writeback schedules
        with their due tags made relative (entries are popped when due, so
        every key is >= the current tag).  The read/write counters never
        feed a decision and are excluded.
        """
        tag = self.firings
        alu = mem = ()
        if self.pending_alu_writeback:
            alu = [
                (due - tag, register)
                for due, register in self.pending_alu_writeback.items()
            ]
            alu.sort()
        if self.pending_mem_writeback:
            mem = [
                (due - tag, register)
                for due, register in self.pending_mem_writeback.items()
            ]
            mem.sort()
        return (tuple(self.registers), tuple(alu), tuple(mem))

    # -- helpers -------------------------------------------------------------------
    def _write(self, register: int, value: int) -> None:
        if register == 0:
            return
        self.registers[register] = to_signed_word(value)
        self.writes += 1

    def _read(self, register: Optional[int]) -> int:
        if register is None:
            return 0
        self.reads += 1
        return self.registers[register]

    # -- firing --------------------------------------------------------------------
    def fire(self, inputs: Mapping[str, object]) -> Dict[str, object]:
        # The reads/writes below inline _read/_write: the RF fires on every
        # tag of every simulated configuration and the helper calls showed up
        # in kernel benchmarks.
        tag = self.firings
        registers = self.registers

        # 1. Load writeback scheduled for this tag (older than the ALU one).
        if tag in self.pending_mem_writeback:
            destination = self.pending_mem_writeback.pop(tag)
            result = inputs["dc_rf"]
            if type(result) is not LoadResult:
                raise SimulationError(
                    f"{self.name}: expected load data at tag {tag}, got {result!r}"
                )
            if destination:
                registers[destination] = to_signed_word(result.value)
                self.writes += 1

        # 2. ALU writeback scheduled for this tag.
        if tag in self.pending_alu_writeback:
            destination = self.pending_alu_writeback.pop(tag)
            result = inputs["alu_rf"]
            if type(result) is not AluResult:
                raise SimulationError(
                    f"{self.name}: expected an ALU result at tag {tag}, got {result!r}"
                )
            if destination:
                registers[destination] = to_signed_word(result.value)
                self.writes += 1

        # 3. Register command for the instruction issued one tag ago.
        command = inputs["cu_rf"]
        if type(command) is not RegCommand:
            return {"rf_alu": None, "rf_dc": None}

        reads = 0
        read_a = command.read_a
        if read_a is None:
            a = 0
        else:
            a = registers[read_a]
            reads += 1
        read_b = command.read_b
        if read_b is None:
            b = 0
        else:
            b = registers[read_b]
            reads += 1
        ops = operands(a, b)
        store: Optional[StoreData] = None
        if command.store_data is not None:
            store = store_data(registers[command.store_data])
            reads += 1
        if reads:
            self.reads += reads
        if command.alu_writeback is not None:
            self.pending_alu_writeback[tag + self.ALU_WRITEBACK_DELAY] = command.alu_writeback
        if command.mem_writeback is not None:
            self.pending_mem_writeback[tag + self.MEM_WRITEBACK_DELAY] = command.mem_writeback
        return {"rf_alu": ops, "rf_dc": store}


#: Precomputed oracle answers; the RF always needs its command stream and
#: conditionally the two writeback buses.
_REQUIRED_CU = frozenset({"cu_rf"})
_REQUIRED_CU_ALU = frozenset({"cu_rf", "alu_rf"})
_REQUIRED_CU_MEM = frozenset({"cu_rf", "dc_rf"})
_REQUIRED_CU_ALU_MEM = frozenset({"cu_rf", "alu_rf", "dc_rf"})
