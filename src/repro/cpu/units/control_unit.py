"""Control unit (CU) of the Figure 1 processor.

The CU is the sequencer of the distributed machine: it fetches instruction
words from the instruction cache (over the bidirectional ``CU-IC`` link),
decodes them, checks data hazards with a small scoreboard, and issues one
instruction per cycle by sending *commands* to the register file
(``cu_rf``), the ALU (``cu_alu``, one tag later so it aligns with the
operands) and the data cache (``cu_dc``).  Conditional branches are resolved
by the ALU and reported back on ``alu_cu`` three tags after issue; the CU
stalls issue (but keeps fetching the fall-through path) until the outcome
arrives.

Two control styles are supported, matching the paper's case study:

* **pipelined** (default): the CU fetches continuously and issues a new
  instruction every cycle when no hazard blocks it;
* **multicycle** (``pipelined=False``): one instruction at a time — the next
  fetch starts only after the previous instruction has completed all of its
  phases, which reproduces the paper's "the CU-IC loop is excited only every
  few cycles" observation.

The WP2 oracle of the CU is a pure function of its bookkeeping state: the
``ic_cu`` input is needed only at tags where a non-squashed fetch response is
due, and the ``alu_cu`` input only at tags where a branch resolves.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Deque, Dict, FrozenSet, List, Mapping, Optional, Tuple

from ...core.exceptions import SimulationError
from ...core.process import Process
from ..isa import Instruction, Opcode, decode
from ..signals import (
    AluCommand,
    FetchRequest,
    FetchResponse,
    MemCommand,
    RegCommand,
    fetch_request,
)


#: Fetch-slot bookkeeping, one entry per CU firing, encoded as a plain int
#: so the per-firing slot churn allocates nothing: ``_NO_FETCH`` (-1) marks a
#: cycle without a fetch, an address >= 0 a live fetch, and ``-(address + 2)``
#: a squashed (wrong-path) fetch.
_NO_FETCH = -1


def _squash_slot(slot: int) -> int:
    return -(slot + 2)


@dataclass
class _BranchWait:
    """An issued branch waiting for its outcome on ``alu_cu``."""

    resolve_at: int
    target: int


@dataclass
class ControlUnitStats:
    """Issue statistics accumulated by the control unit."""

    issued: int = 0
    bubbles_raw_hazard: int = 0
    bubbles_branch_wait: int = 0
    bubbles_empty_ibuf: int = 0
    branches: int = 0
    taken_branches: int = 0
    loads: int = 0
    stores: int = 0
    fetches: int = 0
    squashed_fetches: int = 0


class ControlUnit(Process):
    """The CU block: fetch, decode, hazard tracking, issue, branch handling."""

    input_ports = ("ic_cu", "alu_cu")
    output_ports = ("cu_ic", "cu_rf", "cu_alu", "cu_dc")
    done_attribute = "halted"
    # The summary below captures the complete behavioural state, which the
    # golden run's loop search compares (DESIGN.md §5): the CU's control is
    # data-dependent (branch outcomes steer the PC).
    schedule_complete = True

    #: Latency (in CU firings) between issuing a fetch request and receiving
    #: the corresponding instruction word back: request -> IC -> response.
    FETCH_ROUNDTRIP = 2
    #: Latency between issuing an instruction and consuming its branch outcome.
    BRANCH_RESOLUTION = 3
    #: Scoreboard delays: a dependent instruction may issue this many firings
    #: after the producer (RF applies writes before reads within a firing).
    ALU_RESULT_DELAY = 2
    LOAD_RESULT_DELAY = 3
    #: Completion delay used by the multicycle (serialised) control style.
    COMPLETION_DELAY = 4

    def __init__(
        self,
        name: str = "CU",
        pipelined: bool = True,
        fetch_buffer: int = 4,
        can_halt: bool = True,
    ) -> None:
        super().__init__(name)
        if fetch_buffer < 1:
            raise SimulationError("fetch buffer must hold at least one entry")
        self.pipelined = pipelined
        self.fetch_buffer = fetch_buffer
        #: Whether the program holds a HALT; a looped program has none
        #: (:meth:`~repro.cpu.program.Program.looped`), so the CU never
        #: reports done.
        self.can_halt = can_halt
        self._reset_state()

    # -- lifecycle ---------------------------------------------------------------
    def _reset_state(self) -> None:
        self.pc = 0
        self.halted = False
        # One slot per firing; the response to the request emitted at firing d
        # arrives at firing d + FETCH_ROUNDTRIP, so the queue is primed with
        # FETCH_ROUNDTRIP invalid entries covering the reset values.
        self.fetch_slots: Deque[int] = deque(
            _NO_FETCH for _ in range(self.FETCH_ROUNDTRIP)
        )
        # Live-fetch count (valid, un-squashed slots), maintained incrementally:
        # the fetch path consults it on every firing.
        self.inflight_fetches = 0
        self.ibuf: Deque[Tuple[int, Instruction]] = deque()
        self.branch_wait: Optional[_BranchWait] = None
        self.scoreboard: Dict[int, int] = {}
        self.alu_command_register: Optional[AluCommand] = None
        self.busy_until = 0
        self.stats = ControlUnitStats()

    def reset(self) -> None:
        super().reset()
        self._reset_state()

    def is_done(self) -> bool:
        return self.halted

    def done_threshold(self) -> Optional[float]:
        # Without a HALT in the program the CU never reports done; otherwise
        # the halt follows the program's data (no firing-count threshold).
        return None if self.can_halt else math.inf

    # -- WP2 oracle ----------------------------------------------------------------
    def required_ports(self) -> Optional[FrozenSet[str]]:
        # Constant answers (the oracle runs every cycle on the hot path).
        if self.halted:
            return _REQUIRED_NONE
        fetch_due = self.fetch_slots[0] >= 0
        branch_due = (
            self.branch_wait is not None
            and self.branch_wait.resolve_at == self.firings
        )
        if fetch_due:
            return _REQUIRED_IC_ALU if branch_due else _REQUIRED_IC
        return _REQUIRED_ALU if branch_due else _REQUIRED_NONE

    # -- steady-state summary -------------------------------------------------------
    def schedule_state(self):
        """Complete behavioural state, canonical in the firing counter.

        Everything the next firings read is captured: PC, halt flag, the
        fetch-slot pipeline (addresses are loop-relative facts that recur on
        looping programs), the decoded instruction buffer, the pending branch
        (resolution distance, not absolute tag), the live scoreboard entries
        (expired ones can never gate an issue again) and the registered ALU
        command.  Issue statistics are excluded: like every process-internal
        counter they stop advancing at the skip point (the documented
        ``extrapolated`` caveat) and never feed a decision.
        """
        tag = self.firings
        wait = self.branch_wait
        scoreboard = self.scoreboard
        if scoreboard:
            live = [
                (register, ready - tag)
                for register, ready in scoreboard.items()
                if ready > tag
            ]
            if len(live) < len(scoreboard):
                # Expired entries can never gate an issue again: drop them,
                # so later summaries (and jumps) skip them.
                self.scoreboard = {
                    register: tag + delay for register, delay in live
                }
            live.sort()
            pending = tuple(live)
        else:
            pending = ()
        return (
            self.pc,
            self.halted,
            tuple(self.fetch_slots),
            tuple(self.ibuf),
            None if wait is None else (wait.resolve_at - tag, wait.target),
            pending,
            0 if self.pipelined else max(self.busy_until - tag, 0),
            self.alu_command_register,
        )

    # -- firing ---------------------------------------------------------------------
    def fire(self, inputs: Mapping[str, object]) -> Dict[str, object]:
        tag = self.firings

        # Receive the fetch response due this firing (inlined _receive_fetch:
        # this runs on every firing of every simulated configuration).
        slot = self.fetch_slots.popleft()
        if slot >= 0:
            self.inflight_fetches -= 1
            if not self.halted:
                response = inputs["ic_cu"]
                if type(response) is not FetchResponse:
                    raise SimulationError(
                        f"{self.name}: expected a fetch response for address "
                        f"{slot}, got {response!r}"
                    )
                self.ibuf.append((response.address, decode(response.word)))
        wait = self.branch_wait
        if wait is not None and wait.resolve_at == tag:
            self._resolve_branch(tag, inputs)

        # Issue (early-outs inlined: most firings bubble for one of these
        # reasons and should not pay a call to find out).
        stats = self.stats
        if self.halted:
            reg_command = mem_command = next_alu_command = None
        elif self.branch_wait is not None:
            stats.bubbles_branch_wait += 1
            reg_command = mem_command = next_alu_command = None
        elif not self.ibuf or (not self.pipelined and tag < self.busy_until):
            stats.bubbles_empty_ibuf += 1
            reg_command = mem_command = next_alu_command = None
        else:
            reg_command, mem_command, next_alu_command = self._issue(tag)
        fetch = self._fetch(tag)

        outputs = {
            "cu_ic": fetch,
            "cu_rf": reg_command,
            "cu_dc": mem_command,
            "cu_alu": self.alu_command_register,
        }
        self.alu_command_register = next_alu_command
        return outputs

    def _outstanding_fetches(self) -> int:
        return self.inflight_fetches

    def _fetch(self, tag: int) -> Optional[FetchRequest]:
        want_fetch = not self.halted
        if want_fetch and not self.pipelined:
            # Multicycle control: strictly one instruction in flight.
            want_fetch = (
                tag >= self.busy_until
                and not self.ibuf
                and self.inflight_fetches == 0
                and self.branch_wait is None
            )
        if want_fetch:
            occupancy = len(self.ibuf) + self.inflight_fetches
            want_fetch = occupancy < self.fetch_buffer
        if not want_fetch:
            self.fetch_slots.append(_NO_FETCH)
            return None
        request = fetch_request(self.pc)
        self.fetch_slots.append(self.pc)
        self.inflight_fetches += 1
        self.pc += 1
        self.stats.fetches += 1
        return request

    def _squash_wrong_path(self) -> None:
        """Drop buffered and in-flight instructions after a redirect."""
        self.ibuf.clear()
        slots = self.fetch_slots
        for index, slot in enumerate(slots):
            if slot >= 0:
                slots[index] = _squash_slot(slot)
                self.inflight_fetches -= 1
                self.stats.squashed_fetches += 1

    # -- branch handling ----------------------------------------------------------------
    def _resolve_branch(self, tag: int, inputs: Mapping[str, object]) -> None:
        if self.branch_wait is None or self.branch_wait.resolve_at != tag:
            return
        status = inputs["alu_cu"]
        taken = bool(getattr(status, "taken", False))
        if taken:
            self.pc = self.branch_wait.target
            self._squash_wrong_path()
            self.stats.taken_branches += 1
        self.branch_wait = None

    # -- issue side -----------------------------------------------------------------------
    def _issue(
        self, tag: int
    ) -> Tuple[Optional[RegCommand], Optional[MemCommand], Optional[AluCommand]]:
        if self.halted:
            return None, None, None
        if self.branch_wait is not None:
            self.stats.bubbles_branch_wait += 1
            return None, None, None
        if not self.pipelined and tag < self.busy_until:
            self.stats.bubbles_empty_ibuf += 1
            return None, None, None
        if not self.ibuf:
            self.stats.bubbles_empty_ibuf += 1
            return None, None, None

        stats = self.stats
        address, instruction = self.ibuf[0]
        scoreboard = self.scoreboard
        for register in instruction.hazard_registers:
            if scoreboard.get(register, 0) > tag:
                stats.bubbles_raw_hazard += 1
                return None, None, None

        self.ibuf.popleft()
        stats.issued += 1
        destination = instruction.writes_register
        if destination is not None and destination != 0:
            delay = (
                self.LOAD_RESULT_DELAY
                if instruction.is_load
                else self.ALU_RESULT_DELAY
            )
            scoreboard[destination] = tag + delay
        self.busy_until = tag + self.COMPLETION_DELAY

        if instruction.is_halt:
            self.halted = True
            return None, None, None
        if instruction.is_nop:
            return None, None, None
        if instruction.is_jump:
            self.pc = instruction.imm
            self._squash_wrong_path()
            return None, None, None

        reg_command, alu_command, mem_command = self._build_commands(instruction)

        if instruction.is_branch:
            stats.branches += 1
            self.branch_wait = _BranchWait(
                resolve_at=tag + self.BRANCH_RESOLUTION, target=instruction.imm
            )
        if instruction.is_load:
            stats.loads += 1
        if instruction.is_store:
            stats.stores += 1
        return reg_command, mem_command, alu_command

    # -- command builders -----------------------------------------------------------------
    @staticmethod
    @lru_cache(maxsize=4096)
    def _build_commands(
        instruction: Instruction,
    ) -> Tuple[RegCommand, AluCommand, Optional[MemCommand]]:
        """All three per-instruction commands behind a single cache lookup."""
        return (
            ControlUnit._build_reg_command(instruction),
            ControlUnit._build_alu_command(instruction),
            ControlUnit._build_mem_command(instruction),
        )

    @staticmethod
    def _build_reg_command(instruction: Instruction) -> RegCommand:
        read_a: Optional[int] = None
        read_b: Optional[int] = None
        alu_writeback: Optional[int] = None
        mem_writeback: Optional[int] = None
        store_data: Optional[int] = None

        if instruction.is_branch:
            read_a, read_b = instruction.ra, instruction.rb
        elif instruction.is_load:
            read_a = instruction.ra
            mem_writeback = instruction.rd
        elif instruction.is_store:
            read_a = instruction.ra
            store_data = instruction.rb
        elif instruction.op is Opcode.LI:
            alu_writeback = instruction.rd
        elif instruction.uses_immediate_operand:
            read_a = instruction.ra
            alu_writeback = instruction.rd
        else:
            read_a, read_b = instruction.ra, instruction.rb
            alu_writeback = instruction.rd
        return RegCommand(
            read_a=read_a,
            read_b=read_b,
            alu_writeback=alu_writeback,
            mem_writeback=mem_writeback,
            store_data=store_data,
        )

    @staticmethod
    def _build_alu_command(instruction: Instruction) -> AluCommand:
        return AluCommand(
            function=instruction.alu_function,
            use_immediate=instruction.uses_immediate_operand,
            immediate=instruction.imm,
            branch=instruction.op if instruction.is_branch else None,
        )

    @staticmethod
    def _build_mem_command(instruction: Instruction) -> Optional[MemCommand]:
        if instruction.is_load:
            return MemCommand(read=True)
        if instruction.is_store:
            return MemCommand(write=True)
        return None


#: Precomputed oracle answers for the four fetch-due/branch-due combinations.
_REQUIRED_NONE = frozenset()
_REQUIRED_IC = frozenset({"ic_cu"})
_REQUIRED_ALU = frozenset({"alu_cu"})
_REQUIRED_IC_ALU = frozenset({"ic_cu", "alu_cu"})
