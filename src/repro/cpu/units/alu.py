"""Arithmetic-logic unit (ALU) of the Figure 1 processor.

The ALU is stateless: each firing it combines the command received from the
control unit (``cu_alu``) with the operands received from the register file
(``rf_alu``) and produces three results:

* ``alu_cu`` — the branch outcome and condition flags for the control unit;
* ``alu_rf`` — the computed value, written back by the register file if the
  instruction has a register destination (the RF knows, the ALU does not);
* ``alu_dc`` — the computed value interpreted as an effective address by the
  data cache for loads and stores.

Because the ALU cannot know in advance whether the next tag carries a real
operation or a bubble, it has no WP2 oracle: both inputs are required every
tag.  The WP2 gains on the ALU's links come from the relaxation at the other
end of each loop (CU, RF, DC).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ...core.exceptions import SimulationError
from ...core.process import Process
from ..isa import Opcode, to_signed_word
from ..signals import (
    AluCommand,
    AluStatus,
    Operands,
    alu_result,
    alu_status,
    mem_address,
)


class Alu(Process):
    """Combinational ALU with branch-condition evaluation."""

    input_ports = ("cu_alu", "rf_alu")
    output_ports = ("alu_cu", "alu_rf", "alu_dc")
    # Outputs are a pure function of the inputs (the operation counters feed
    # nothing), so the inert base summary is already complete — declaring it
    # lets the golden run's loop search cover the ALU (DESIGN.md §5).
    schedule_complete = True

    def __init__(self, name: str = "ALU") -> None:
        super().__init__(name)
        self.operations = 0
        self.branch_evaluations = 0

    def reset(self) -> None:
        super().reset()
        self.operations = 0
        self.branch_evaluations = 0

    # -- arithmetic ---------------------------------------------------------------
    @staticmethod
    def compute(function: Opcode, a: int, b: int) -> int:
        """Evaluate one ALU function on two signed 32-bit operands."""
        if function is Opcode.ADD:
            result = a + b
        elif function is Opcode.SUB:
            result = a - b
        elif function is Opcode.MUL:
            result = a * b
        elif function is Opcode.AND:
            result = a & b
        elif function is Opcode.OR:
            result = a | b
        elif function is Opcode.XOR:
            result = a ^ b
        elif function is Opcode.SLT:
            result = 1 if a < b else 0
        else:
            raise SimulationError(f"unsupported ALU function {function!r}")
        return to_signed_word(result)

    @staticmethod
    def branch_taken(branch: Opcode, a: int, b: int) -> bool:
        """Evaluate a conditional-branch condition on two register values."""
        if branch is Opcode.BEQ:
            return a == b
        if branch is Opcode.BNE:
            return a != b
        if branch is Opcode.BLT:
            return a < b
        if branch is Opcode.BGE:
            return a >= b
        raise SimulationError(f"unsupported branch condition {branch!r}")

    # -- firing --------------------------------------------------------------------
    def fire(self, inputs: Mapping[str, object]) -> Dict[str, object]:
        command = inputs["cu_alu"]
        if type(command) is not AluCommand:
            return {"alu_cu": None, "alu_rf": None, "alu_dc": None}
        operands = inputs["rf_alu"]
        if type(operands) is not Operands:
            raise SimulationError(
                f"{self.name}: command {command!r} arrived without operands"
            )

        # compute() and branch_taken() inlined: the ALU evaluates on every
        # issued instruction and the dispatch calls showed up in kernel
        # benchmarks.  The staticmethods above remain the reference API.
        a = operands.a
        function = command.function
        second = command.immediate if command.use_immediate else operands.b
        if function is Opcode.ADD:
            value = a + second
        elif function is Opcode.SUB:
            value = a - second
        elif function is Opcode.MUL:
            value = a * second
        elif function is Opcode.AND:
            value = a & second
        elif function is Opcode.OR:
            value = a | second
        elif function is Opcode.XOR:
            value = a ^ second
        elif function is Opcode.SLT:
            value = 1 if a < second else 0
        else:
            raise SimulationError(f"unsupported ALU function {function!r}")
        value = to_signed_word(value)
        self.operations += 1

        taken = False
        branch = command.branch
        if branch is not None:
            b = operands.b
            if branch is Opcode.BEQ:
                taken = a == b
            elif branch is Opcode.BNE:
                taken = a != b
            elif branch is Opcode.BLT:
                taken = a < b
            elif branch is Opcode.BGE:
                taken = a >= b
            else:
                raise SimulationError(f"unsupported branch condition {branch!r}")
            self.branch_evaluations += 1

        status = alu_status(taken, value == 0, value < 0)
        return {
            "alu_cu": status,
            "alu_rf": alu_result(value),
            "alu_dc": mem_address(value),
        }
