"""Unit tests for the five processor blocks in isolation."""

from __future__ import annotations

import pytest

from repro.core.exceptions import SimulationError
from repro.cpu import isa
from repro.cpu.isa import Opcode, encode
from repro.cpu.signals import (
    AluCommand,
    MemAddress,
    AluResult,
    FetchRequest,
    FetchResponse,
    LoadResult,
    MemCommand,
    Operands,
    RegCommand,
    StoreData,
)
from repro.cpu.units import Alu, ControlUnit, DataCache, InstructionCache, RegisterFile


class TestInstructionCache:
    def make(self):
        words = [encode(isa.li(1, i)) for i in range(4)]
        return InstructionCache(words)

    def test_bubble_request_gives_bubble_response(self):
        ic = self.make()
        assert ic.step({"cu_ic": None}) == {"ic_cu": None}

    def test_fetch_returns_stored_word(self):
        ic = self.make()
        response = ic.step({"cu_ic": FetchRequest(address=2)})["ic_cu"]
        assert isinstance(response, FetchResponse)
        assert response.address == 2
        assert response.word == encode(isa.li(1, 2))

    def test_out_of_range_address_rejected(self):
        ic = self.make()
        with pytest.raises(SimulationError):
            ic.step({"cu_ic": FetchRequest(address=99)})

    def test_empty_image_rejected(self):
        with pytest.raises(SimulationError):
            InstructionCache([])

    def test_reads_counted_and_reset(self):
        ic = self.make()
        ic.step({"cu_ic": FetchRequest(address=0)})
        assert ic.reads == 1
        ic.reset()
        assert ic.reads == 0 and ic.firings == 0

    def test_no_oracle(self):
        assert self.make().required_ports() is None


class TestRegisterFile:
    def bubble_inputs(self, **overrides):
        inputs = {"cu_rf": None, "alu_rf": None, "dc_rf": None}
        inputs.update(overrides)
        return inputs

    def test_bubble_command_produces_bubbles(self):
        rf = RegisterFile()
        outputs = rf.step(self.bubble_inputs())
        assert outputs == {"rf_alu": None, "rf_dc": None}

    def test_read_operands(self):
        rf = RegisterFile()
        rf.registers[3] = 42
        rf.registers[4] = 7
        outputs = rf.step(self.bubble_inputs(cu_rf=RegCommand(read_a=3, read_b=4)))
        assert outputs["rf_alu"] == Operands(a=42, b=7)

    def test_unread_operand_defaults_to_zero(self):
        rf = RegisterFile()
        outputs = rf.step(self.bubble_inputs(cu_rf=RegCommand(read_a=None, read_b=None)))
        assert outputs["rf_alu"] == Operands(a=0, b=0)

    def test_store_data_forwarded(self):
        rf = RegisterFile()
        rf.registers[5] = 99
        outputs = rf.step(self.bubble_inputs(cu_rf=RegCommand(store_data=5)))
        assert outputs["rf_dc"] == StoreData(value=99)

    def test_alu_writeback_scheduled_and_applied(self):
        rf = RegisterFile()
        rf.step(self.bubble_inputs(cu_rf=RegCommand(alu_writeback=2)))
        # Writeback arrives two firings later.
        assert rf.required_ports() == frozenset({"cu_rf"})
        rf.step(self.bubble_inputs())
        assert "alu_rf" in rf.required_ports()
        rf.step(self.bubble_inputs(alu_rf=AluResult(value=123)))
        assert rf.registers[2] == 123

    def test_mem_writeback_scheduled_and_applied(self):
        rf = RegisterFile()
        rf.step(self.bubble_inputs(cu_rf=RegCommand(mem_writeback=6)))
        rf.step(self.bubble_inputs())
        rf.step(self.bubble_inputs())
        assert "dc_rf" in rf.required_ports()
        rf.step(self.bubble_inputs(dc_rf=LoadResult(value=-5)))
        assert rf.registers[6] == -5

    def test_write_to_r0_discarded(self):
        rf = RegisterFile()
        rf.step(self.bubble_inputs(cu_rf=RegCommand(alu_writeback=0)))
        rf.step(self.bubble_inputs())
        rf.step(self.bubble_inputs(alu_rf=AluResult(value=55)))
        assert rf.registers[0] == 0

    def test_missing_scheduled_writeback_detected(self):
        rf = RegisterFile()
        rf.step(self.bubble_inputs(cu_rf=RegCommand(alu_writeback=2)))
        rf.step(self.bubble_inputs())
        with pytest.raises(SimulationError):
            rf.step(self.bubble_inputs(alu_rf=None))

    def test_write_then_read_within_same_firing(self):
        rf = RegisterFile()
        rf.step(self.bubble_inputs(cu_rf=RegCommand(alu_writeback=2)))
        rf.step(self.bubble_inputs())
        outputs = rf.step(
            self.bubble_inputs(
                alu_rf=AluResult(value=88), cu_rf=RegCommand(read_a=2)
            )
        )
        assert outputs["rf_alu"].a == 88

    def test_reset_clears_registers_and_schedule(self):
        rf = RegisterFile()
        rf.registers[1] = 9
        rf.step(self.bubble_inputs(cu_rf=RegCommand(alu_writeback=1)))
        rf.reset()
        assert rf.registers[1] == 0
        assert rf.required_ports() == frozenset({"cu_rf"})


class TestAlu:
    def test_bubble_command_gives_bubbles(self):
        alu = Alu()
        outputs = alu.step({"cu_alu": None, "rf_alu": None})
        assert outputs == {"alu_cu": None, "alu_rf": None, "alu_dc": None}

    @pytest.mark.parametrize(
        "function,a,b,expected",
        [
            (Opcode.ADD, 3, 4, 7),
            (Opcode.SUB, 3, 4, -1),
            (Opcode.MUL, 3, 4, 12),
            (Opcode.AND, 0b1100, 0b1010, 0b1000),
            (Opcode.OR, 0b1100, 0b1010, 0b1110),
            (Opcode.XOR, 0b1100, 0b1010, 0b0110),
            (Opcode.SLT, 1, 2, 1),
            (Opcode.SLT, 2, 1, 0),
        ],
    )
    def test_compute(self, function, a, b, expected):
        assert Alu.compute(function, a, b) == expected

    def test_compute_wraps_to_32_bits(self):
        assert Alu.compute(Opcode.MUL, 2**20, 2**20) == 0

    def test_compute_unknown_function_rejected(self):
        with pytest.raises(SimulationError):
            Alu.compute(Opcode.BEQ, 1, 2)

    @pytest.mark.parametrize(
        "branch,a,b,expected",
        [
            (Opcode.BEQ, 5, 5, True),
            (Opcode.BEQ, 5, 6, False),
            (Opcode.BNE, 5, 6, True),
            (Opcode.BLT, -1, 0, True),
            (Opcode.BLT, 0, 0, False),
            (Opcode.BGE, 0, 0, True),
            (Opcode.BGE, -1, 0, False),
        ],
    )
    def test_branch_taken(self, branch, a, b, expected):
        assert Alu.branch_taken(branch, a, b) is expected

    def test_branch_unknown_condition_rejected(self):
        with pytest.raises(SimulationError):
            Alu.branch_taken(Opcode.ADD, 1, 2)

    def test_register_operation_outputs(self):
        alu = Alu()
        outputs = alu.step(
            {
                "cu_alu": AluCommand(function=Opcode.ADD),
                "rf_alu": Operands(a=2, b=3),
            }
        )
        assert outputs["alu_rf"] == AluResult(value=5)
        assert outputs["alu_dc"].address == 5
        assert outputs["alu_cu"].taken is False

    def test_immediate_operand_used_when_selected(self):
        alu = Alu()
        outputs = alu.step(
            {
                "cu_alu": AluCommand(function=Opcode.ADD, use_immediate=True, immediate=10),
                "rf_alu": Operands(a=2, b=999),
            }
        )
        assert outputs["alu_rf"].value == 12

    def test_branch_outcome_reported(self):
        alu = Alu()
        outputs = alu.step(
            {
                "cu_alu": AluCommand(function=Opcode.SUB, branch=Opcode.BEQ),
                "rf_alu": Operands(a=4, b=4),
            }
        )
        assert outputs["alu_cu"].taken is True
        assert outputs["alu_cu"].zero is True

    def test_command_without_operands_rejected(self):
        alu = Alu()
        with pytest.raises(SimulationError):
            alu.step({"cu_alu": AluCommand(function=Opcode.ADD), "rf_alu": None})

    def test_no_oracle(self):
        assert Alu().required_ports() is None


class TestDataCache:
    def bubble_inputs(self, **overrides):
        inputs = {"cu_dc": None, "rf_dc": None, "alu_dc": None}
        inputs.update(overrides)
        return inputs

    def test_idle_firing(self):
        dc = DataCache([0] * 8)
        assert dc.step(self.bubble_inputs()) == {"dc_rf": None}
        assert dc.required_ports() == frozenset({"cu_dc"})

    def test_load_sequence(self):
        dc = DataCache([10, 11, 12, 13])
        dc.step(self.bubble_inputs(cu_dc=MemCommand(read=True)))
        assert dc.required_ports() == frozenset({"cu_dc"})
        dc.step(self.bubble_inputs())
        assert "alu_dc" in dc.required_ports()
        outputs = dc.step(self.bubble_inputs(alu_dc=MemAddress(address=2)))
        assert outputs["dc_rf"] == LoadResult(value=12)
        assert dc.loads == 1

    def test_store_sequence(self):
        dc = DataCache([0] * 4)
        dc.step(self.bubble_inputs(cu_dc=MemCommand(write=True)))
        assert "rf_dc" in dc.required_ports()
        dc.step(self.bubble_inputs(rf_dc=StoreData(value=77)))
        assert "alu_dc" in dc.required_ports()
        outputs = dc.step(self.bubble_inputs(alu_dc=MemAddress(address=3)))
        assert outputs["dc_rf"] is None
        assert dc.memory[3] == 77
        assert dc.stores == 1

    def test_out_of_range_access_rejected(self):
        dc = DataCache([0] * 4)
        dc.step(self.bubble_inputs(cu_dc=MemCommand(read=True)))
        dc.step(self.bubble_inputs())
        with pytest.raises(SimulationError):
            dc.step(self.bubble_inputs(alu_dc=MemAddress(address=9)))

    def test_missing_address_detected(self):
        dc = DataCache([0] * 4)
        dc.step(self.bubble_inputs(cu_dc=MemCommand(read=True)))
        dc.step(self.bubble_inputs())
        with pytest.raises(SimulationError):
            dc.step(self.bubble_inputs(alu_dc=None))

    def test_missing_store_data_detected(self):
        dc = DataCache([0] * 4)
        dc.step(self.bubble_inputs(cu_dc=MemCommand(write=True)))
        with pytest.raises(SimulationError):
            dc.step(self.bubble_inputs(rf_dc=None))

    def test_reset_restores_initial_image(self):
        dc = DataCache([5, 6])
        dc.memory[0] = 99
        dc.reset()
        assert dc.memory == [5, 6]


class TestControlUnitBasics:
    def make_cu(self, pipelined=True):
        return ControlUnit(pipelined=pipelined)

    def bubble_inputs(self, **overrides):
        inputs = {"ic_cu": None, "alu_cu": None}
        inputs.update(overrides)
        return inputs

    def test_initial_oracle_needs_nothing(self):
        cu = self.make_cu()
        assert cu.required_ports() == frozenset()

    def test_first_firing_issues_a_fetch(self):
        cu = self.make_cu()
        outputs = cu.step(self.bubble_inputs())
        assert outputs["cu_ic"] == FetchRequest(address=0)
        assert outputs["cu_rf"] is None

    def test_fetch_response_expected_two_firings_later(self):
        cu = self.make_cu()
        cu.step(self.bubble_inputs())        # firing 0: fetch address 0
        assert cu.required_ports() == frozenset()
        cu.step(self.bubble_inputs())        # firing 1: fetch address 1
        assert "ic_cu" in cu.required_ports()

    def test_halt_sets_done(self):
        cu = self.make_cu()
        halt_word = encode(isa.halt())
        cu.step(self.bubble_inputs())
        cu.step(self.bubble_inputs())
        cu.step(self.bubble_inputs(ic_cu=FetchResponse(address=0, word=halt_word)))
        # The HALT word arrives at firing 2 and issues within the same firing.
        assert cu.is_done()
        assert cu.required_ports() == frozenset()

    def test_invalid_fetch_response_rejected(self):
        cu = self.make_cu()
        cu.step(self.bubble_inputs())
        cu.step(self.bubble_inputs())
        with pytest.raises(SimulationError):
            cu.step(self.bubble_inputs(ic_cu=None))

    def test_fetch_buffer_must_be_positive(self):
        with pytest.raises(SimulationError):
            ControlUnit(fetch_buffer=0)

    def test_reset_restores_initial_state(self):
        cu = self.make_cu()
        cu.step(self.bubble_inputs())
        cu.reset()
        assert cu.pc == 0
        assert cu.firings == 0
        assert not cu.is_done()


class TestScheduleSummaries:
    """Complete schedule_state summaries of the five units, which the golden
    run's loop search compares (DESIGN.md §5)."""

    def test_all_units_declare_complete_summaries(self):
        units = (
            ControlUnit(),
            InstructionCache([encode(isa.nop())]),
            RegisterFile(),
            Alu(),
            DataCache([0] * 8),
        )
        for unit in units:
            assert unit.schedule_complete
            assert unit.schedule_state() is not None

    def test_summaries_are_canonical_in_the_firing_counter(self):
        """Shifting firings and absolute-tag state together changes nothing."""
        rf = RegisterFile()
        rf.registers[3] = 42
        rf.pending_alu_writeback = {7: 3}
        rf.pending_mem_writeback = {8: 4}
        rf.firings = 5
        before = rf.schedule_state()
        rf.firings += 1000
        rf.pending_alu_writeback = {1007: 3}
        rf.pending_mem_writeback = {1008: 4}
        assert rf.schedule_state() == before

        dc = DataCache([0] * 8)
        dc.pending_access = {6: "read"}
        dc.pending_store_data = {5: 6}
        dc.store_values = {6: 9}
        dc.firings = 4
        before = dc.schedule_state()
        dc.firings += 250
        dc.pending_access = {256: "read"}
        dc.pending_store_data = {255: 256}
        dc.store_values = {256: 9}
        assert dc.schedule_state() == before

        cu = ControlUnit()
        cu.step({"ic_cu": None, "alu_cu": None})
        cu.scoreboard = {3: cu.firings + 2}
        before = cu.schedule_state()
        cu.firings += 77
        cu.scoreboard = {3: cu.firings + 2}
        assert cu.schedule_state() == before

    def test_expired_scoreboard_entries_do_not_change_the_summary(self):
        cu = ControlUnit()
        cu.firings = 10
        base = cu.schedule_state()
        cu.scoreboard = {5: 3}  # ready tags <= firings can never gate issue
        assert cu.schedule_state() == base

    def test_data_cache_summary_carries_the_memory_image(self):
        dc = DataCache([1, 2, 3])
        assert dc.schedule_state()[0] == (1, 2, 3)
        dc.pending_access[dc.firings] = "write"
        dc.store_values[dc.firings] = 99
        dc.step({"cu_dc": None, "rf_dc": None, "alu_dc": MemAddress(address=1)})
        assert dc.schedule_state()[0] == (1, 99, 3)
        dc.reset()
        assert dc.schedule_state()[0] == (1, 2, 3) and dc.memory == [1, 2, 3]


# Reference formulations of the three dynamic summaries, kept verbatim from
# before the summaries were made cheaper: the fast versions must agree with
# them at every instant of a real run.
def _reference_cu_summary(cu):
    tag = cu.firings
    wait = cu.branch_wait
    return (
        cu.pc,
        cu.halted,
        tuple(cu.fetch_slots),
        tuple(cu.ibuf),
        None if wait is None else (wait.resolve_at - tag, wait.target),
        tuple(
            sorted(
                (register, ready - tag)
                for register, ready in cu.scoreboard.items()
                if ready > tag
            )
        ),
        0 if cu.pipelined else max(cu.busy_until - tag, 0),
        cu.alu_command_register,
    )


def _reference_rf_summary(rf):
    tag = rf.firings
    return (
        tuple(rf.registers),
        tuple(
            sorted(
                (due - tag, register)
                for due, register in rf.pending_alu_writeback.items()
            )
        ),
        tuple(
            sorted(
                (due - tag, register)
                for due, register in rf.pending_mem_writeback.items()
            )
        ),
    )


def _reference_dc_summary(dc):
    tag = dc.firings
    return (
        tuple(dc.memory),
        tuple(sorted((due - tag, kind) for due, kind in dc.pending_access.items())),
        tuple(
            sorted(
                (due - tag, access - tag)
                for due, access in dc.pending_store_data.items()
            )
        ),
        tuple(sorted((due - tag, value) for due, value in dc.store_values.items())),
    )


class TestSummariesMatchReferenceFormulations:
    @pytest.mark.parametrize("relaxed", [False, True], ids=["WP1", "WP2"])
    @pytest.mark.parametrize("workload_kind", ["sort", "matmul"])
    def test_every_cycle_of_a_looped_run(self, relaxed, workload_kind):
        from repro.core import RSConfiguration, run_lid
        from repro.cpu import build_pipelined_cpu
        from repro.cpu.workloads import make_extraction_sort, make_matrix_multiply

        if workload_kind == "sort":
            workload = make_extraction_sort(length=4, seed=5, repeat=True)
        else:
            workload = make_matrix_multiply(size=2, seed=5, repeat=True)
        cpu = build_pipelined_cpu(workload.program)
        pairs = (
            (cpu.control_unit, _reference_cu_summary),
            (cpu.register_file, _reference_rf_summary),
            (cpu.data_cache, _reference_dc_summary),
        )
        checked = []

        def observe(cycle, fired):
            for unit, reference in pairs:
                assert unit.schedule_state() == reference(unit), (cycle, unit.name)
            checked.append(cycle)

        kwargs = dict(
            configuration=RSConfiguration.uniform(1, exclude=("CU-IC",)),
            relaxed=relaxed, record_trace=False, horizon=3_000,
        )
        observed = run_lid(cpu.netlist, on_cycle=observe, **kwargs)
        assert len(checked) == 3_000
        # Dropping expired scoreboard entries inside the summary is invisible
        # to the run itself.
        plain = run_lid(cpu.netlist, steady_state=False, **kwargs)
        assert (observed.cycles, observed.firings) == (plain.cycles, plain.firings)
        assert observed.shell_stats == plain.shell_stats
