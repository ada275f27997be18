"""Assembly of the five blocks into the Figure 1 netlist.

:class:`CaseStudyCpu` bundles the unit instances, the netlist connecting them
over the Figure 1 channels and the loaded program, and offers the operations
every experiment needs: run the golden system, run a wire-pipelined
configuration under either wrapper, and check the architectural results
(final data-memory contents) against expectations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..core.config import RSConfiguration
from ..core.exceptions import ProgramError
from ..core.golden import GoldenResult, run_golden
from ..core.netlist import Netlist
from ..core.shell import DEFAULT_QUEUE_CAPACITY
from ..core.simulator import LidResult, run_lid
from .program import Program
from .topology import BLOCKS, build_channels
from .units import Alu, ControlUnit, DataCache, InstructionCache, RegisterFile


#: Cycles simulated past the HALT so in-flight stores drain to the data memory
#: when the caller wants to inspect architectural state.
DRAIN_CYCLES = 16


@dataclass
class CaseStudyCpu:
    """The Figure 1 processor: five wrapped blocks plus their netlist."""

    program: Program
    pipelined: bool
    netlist: Netlist
    control_unit: ControlUnit
    instruction_cache: InstructionCache
    register_file: RegisterFile
    alu: Alu
    data_cache: DataCache

    @classmethod
    def build(cls, program: Program, pipelined: bool = True) -> "CaseStudyCpu":
        """Instantiate the five blocks and wire them per Figure 1.

        For horizon-bounded asymptotic-throughput runs, load
        ``program.looped()`` — the endlessly repeating variant whose golden
        run finds its loop, so batch rows replay it (DESIGN.md §5).
        """
        control_unit = ControlUnit(
            pipelined=pipelined,
            can_halt=any(instruction.is_halt for instruction in program.instructions),
        )
        instruction_cache = InstructionCache(program.instruction_words())
        register_file = RegisterFile()
        alu = Alu()
        data_cache = DataCache(program.data_image())
        netlist = Netlist(
            processes=[control_unit, instruction_cache, register_file, alu, data_cache],
            channels=build_channels(),
            name=f"figure1-{'pipelined' if pipelined else 'multicycle'}",
        )
        return cls(
            program=program,
            pipelined=pipelined,
            netlist=netlist,
            control_unit=control_unit,
            instruction_cache=instruction_cache,
            register_file=register_file,
            alu=alu,
            data_cache=data_cache,
        )

    # -- runs -----------------------------------------------------------------------
    def run_golden(
        self,
        max_cycles: int = 2_000_000,
        drain: bool = False,
        record_trace: bool = True,
    ) -> GoldenResult:
        """Run the un-pipelined (zero relay station) reference system.

        On a looped program the run stops at the first recurrence of the
        machine's complete state and leaves a looped
        :class:`~repro.core.golden.FiringTrace` on the netlist (DESIGN.md §5).
        """
        return run_golden(
            self.netlist,
            max_cycles=max_cycles,
            stop_process=self.control_unit.name,
            extra_cycles=DRAIN_CYCLES if drain else 0,
            record_trace=record_trace,
        )

    def run_wire_pipelined(
        self,
        configuration: Optional[RSConfiguration] = None,
        rs_counts: Optional[Mapping[str, int]] = None,
        relaxed: bool = False,
        max_cycles: int = 5_000_000,
        drain: bool = False,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        record_trace: bool = True,
        kernel: Optional[str] = None,
        horizon: Optional[int] = None,
        steady_state: bool = True,
        steady_state_window: Optional[int] = None,
    ) -> LidResult:
        """Run one wire-pipelined configuration (WP1 when strict, WP2 when relaxed).

        *horizon* caps the run at an exact cycle count (a normal halt, not a
        timeout) — the long-horizon asymptotic-throughput mode.  A single run
        never replays and the kernels never extrapolate the CPU (its units
        override the oracle and done hooks, DESIGN.md §5), so such a run
        simulates every cycle; batch rows of a looped program whose golden
        run found its loop replay instead.
        """
        rs_per_channel = max(self.rs_total(configuration, rs_counts), 1)
        drain_cycles = DRAIN_CYCLES + 4 * rs_per_channel if drain else 0
        return run_lid(
            self.netlist,
            configuration=configuration,
            rs_counts=rs_counts,
            relaxed=relaxed,
            queue_capacity=queue_capacity,
            record_trace=record_trace,
            kernel=kernel,
            max_cycles=max_cycles,
            stop_process=self.control_unit.name,
            extra_cycles=drain_cycles,
            horizon=horizon,
            steady_state=steady_state,
            steady_state_window=steady_state_window,
        )

    def rs_total(
        self,
        configuration: Optional[RSConfiguration],
        rs_counts: Optional[Mapping[str, int]],
    ) -> int:
        """Total relay stations implied by a configuration (for drain sizing)."""
        if configuration is not None:
            return configuration.total_relay_stations(self.netlist)
        if rs_counts is not None:
            return sum(int(count) for count in rs_counts.values())
        return 0

    # -- architectural state ------------------------------------------------------------
    def memory_word(self, address: int) -> int:
        """Current content of one data-memory word."""
        if not 0 <= address < len(self.data_cache.memory):
            raise ProgramError(f"data address {address} out of range")
        return self.data_cache.memory[address]

    def memory_slice(self, base: int, length: int) -> List[int]:
        """A contiguous slice of the data memory."""
        return [self.memory_word(base + offset) for offset in range(length)]

    def register(self, index: int) -> int:
        """Current content of one architectural register."""
        return self.register_file.registers[index]

    def check_memory(self, expected: Mapping[int, int]) -> Dict[int, Dict[str, int]]:
        """Compare data-memory words against *expected*; return the mismatches."""
        mismatches: Dict[int, Dict[str, int]] = {}
        for address, value in expected.items():
            actual = self.memory_word(address)
            if actual != value:
                mismatches[address] = {"expected": value, "actual": actual}
        return mismatches


def build_pipelined_cpu(program: Program) -> CaseStudyCpu:
    """The pipelined control variant of the case study (Table 1's reported case)."""
    return CaseStudyCpu.build(program, pipelined=True)


def build_multicycle_cpu(program: Program) -> CaseStudyCpu:
    """The multicycle control variant (discussed qualitatively in the paper)."""
    return CaseStudyCpu.build(program, pipelined=False)
