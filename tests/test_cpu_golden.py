"""Functional tests of the golden (un-pipelined) processor on real programs."""

from __future__ import annotations

import pytest

from repro.core import Channel, Netlist, Process, RSConfiguration, golden
from repro.core.golden import run_golden
from repro.cpu import Program, build_multicycle_cpu, build_pipelined_cpu
from repro.cpu.workloads import (
    make_extraction_sort,
    make_matrix_multiply,
    reference_product,
)
from repro.engine import BatchRunner


class TestSmallPrograms:
    def run_program(self, text, data=None, pipelined=True, max_cycles=20_000):
        program = Program.from_assembly("test", text, data=data)
        builder = build_pipelined_cpu if pipelined else build_multicycle_cpu
        cpu = builder(program)
        result = cpu.run_golden(drain=True, max_cycles=max_cycles)
        assert result.halted, "program did not reach HALT"
        return cpu, result

    def test_store_immediate(self):
        cpu, _ = self.run_program("LI r1, 42\nST r1, 5(r0)\nHALT")
        assert cpu.memory_word(5) == 42

    def test_arithmetic_chain(self):
        cpu, _ = self.run_program(
            """
            LI r1, 10
            LI r2, 4
            SUB r3, r1, r2
            MUL r4, r3, r3
            ST  r4, 0(r0)
            HALT
            """
        )
        assert cpu.memory_word(0) == 36

    def test_load_then_use(self):
        cpu, _ = self.run_program(
            """
            LD  r1, 0(r0)
            ADDI r2, r1, 1
            ST  r2, 1(r0)
            HALT
            """,
            data={0: 99},
        )
        assert cpu.memory_word(1) == 100

    def test_back_to_back_dependency(self):
        cpu, _ = self.run_program(
            """
            LI r1, 1
            ADD r2, r1, r1
            ADD r3, r2, r2
            ADD r4, r3, r3
            ST  r4, 0(r0)
            HALT
            """
        )
        assert cpu.memory_word(0) == 8

    def test_taken_branch_skips_code(self):
        cpu, _ = self.run_program(
            """
            LI  r1, 1
            BEQ r1, r1, target
            LI  r2, 99
        target:
            ST  r2, 0(r0)
            HALT
            """
        )
        assert cpu.memory_word(0) == 0

    def test_not_taken_branch_falls_through(self):
        cpu, _ = self.run_program(
            """
            LI  r1, 1
            LI  r2, 2
            BEQ r1, r2, skip
            LI  r3, 7
        skip:
            ST  r3, 0(r0)
            HALT
            """
        )
        assert cpu.memory_word(0) == 7

    def test_loop_accumulates(self):
        cpu, _ = self.run_program(
            """
            LI r1, 0      ; i
            LI r2, 5      ; n
            LI r3, 0      ; sum
        loop:
            BGE r1, r2, done
            ADD r3, r3, r1
            ADDI r1, r1, 1
            JMP loop
        done:
            ST r3, 0(r0)
            HALT
            """
        )
        assert cpu.memory_word(0) == 10

    def test_jump_redirects_control_flow(self):
        cpu, _ = self.run_program(
            """
            LI r1, 5
            JMP over
            LI r1, 99
        over:
            ST r1, 0(r0)
            HALT
            """
        )
        assert cpu.memory_word(0) == 5

    def test_store_then_load_same_address(self):
        cpu, _ = self.run_program(
            """
            LI r1, 123
            ST r1, 4(r0)
            LD r2, 4(r0)
            ADDI r2, r2, 1
            ST r2, 5(r0)
            HALT
            """
        )
        assert cpu.memory_word(5) == 124

    def test_slt_and_branch_combination(self):
        cpu, _ = self.run_program(
            """
            LI r1, 3
            LI r2, 8
            SLT r3, r1, r2
            BEQ r3, r0, not_less
            LI r4, 1
            JMP store
        not_less:
            LI r4, 0
        store:
            ST r4, 0(r0)
            HALT
            """
        )
        assert cpu.memory_word(0) == 1

    def test_negative_numbers(self):
        cpu, _ = self.run_program(
            """
            LI r1, -5
            LI r2, 3
            ADD r3, r1, r2
            ST r3, 0(r0)
            MUL r4, r1, r2
            ST r4, 1(r0)
            HALT
            """
        )
        assert cpu.memory_word(0) == -2
        assert cpu.memory_word(1) == -15

    def test_multicycle_control_produces_same_results(self):
        text = """
            LI r1, 6
            LI r2, 7
            MUL r3, r1, r2
            ST r3, 0(r0)
            HALT
        """
        pipelined_cpu, pipelined = self.run_program(text, pipelined=True)
        multicycle_cpu, multicycle = self.run_program(text, pipelined=False)
        assert pipelined_cpu.memory_word(0) == 42
        assert multicycle_cpu.memory_word(0) == 42
        # The multicycle machine needs more cycles for the same work.
        assert multicycle.cycles > pipelined.cycles


class TestWorkloadsOnGolden:
    @pytest.mark.parametrize("length", [4, 8])
    def test_extraction_sort_sorts(self, length):
        workload = make_extraction_sort(length=length, seed=3)
        cpu = build_pipelined_cpu(workload.program)
        result = cpu.run_golden(drain=True)
        assert result.halted
        assert cpu.check_memory(workload.expected_memory) == {}

    def test_extraction_sort_with_explicit_values(self):
        workload = make_extraction_sort(length=5, values=[5, 1, 4, 2, 3])
        cpu = build_pipelined_cpu(workload.program)
        cpu.run_golden(drain=True)
        assert cpu.memory_slice(0, 5) == [1, 2, 3, 4, 5]

    def test_extraction_sort_already_sorted_input(self):
        workload = make_extraction_sort(length=4, values=[1, 2, 3, 4])
        cpu = build_pipelined_cpu(workload.program)
        cpu.run_golden(drain=True)
        assert cpu.memory_slice(0, 4) == [1, 2, 3, 4]

    def test_extraction_sort_reverse_sorted_input(self):
        workload = make_extraction_sort(length=4, values=[4, 3, 2, 1])
        cpu = build_pipelined_cpu(workload.program)
        cpu.run_golden(drain=True)
        assert cpu.memory_slice(0, 4) == [1, 2, 3, 4]

    def test_extraction_sort_with_duplicates(self):
        workload = make_extraction_sort(length=6, values=[2, 2, 1, 3, 1, 2])
        cpu = build_pipelined_cpu(workload.program)
        cpu.run_golden(drain=True)
        assert cpu.memory_slice(0, 6) == [1, 1, 2, 2, 2, 3]

    @pytest.mark.parametrize("size", [2, 3])
    def test_matrix_multiply_matches_reference(self, size):
        workload = make_matrix_multiply(size=size, seed=11)
        cpu = build_pipelined_cpu(workload.program)
        result = cpu.run_golden(drain=True)
        assert result.halted
        assert cpu.check_memory(workload.expected_memory) == {}

    def test_matrix_multiply_identity(self):
        size = 3
        identity = [1 if i == j else 0 for i in range(size) for j in range(size)]
        values = list(range(1, size * size + 1))
        workload = make_matrix_multiply(size=size, a_values=values, b_values=identity)
        cpu = build_pipelined_cpu(workload.program)
        cpu.run_golden(drain=True)
        c_base = 2 * size * size
        assert cpu.memory_slice(c_base, size * size) == values

    def test_matrix_multiply_on_multicycle_cpu(self):
        workload = make_matrix_multiply(size=2, seed=5)
        cpu = build_multicycle_cpu(workload.program)
        result = cpu.run_golden(drain=True, max_cycles=100_000)
        assert result.halted
        assert cpu.check_memory(workload.expected_memory) == {}

    def test_reference_product_helper(self):
        a = [1, 2, 3, 4]
        b = [5, 6, 7, 8]
        assert reference_product(a, b, 2) == [19, 22, 43, 50]


class _Ticker(Process):
    """Never done; alternates its output between 0 and 1."""

    schedule_complete = True

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.input_ports = ("in",)
        self.output_ports = ("out",)

    def fire(self, inputs):
        return {"out": self.firings % 2}

    def schedule_state(self):
        return self.firings % 2


class _Stopper(Process):
    """Done after three firings; its oracle always requires its input."""

    schedule_complete = True

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.input_ports = ("x",)
        self.output_ports = ("y",)

    def fire(self, inputs):
        return {"y": 0}

    def required_ports(self):
        return frozenset({"x"})

    def is_done(self) -> bool:
        return self.firings >= 3

    def schedule_state(self):
        return min(self.firings, 3)


class TestLoopSearch:
    """A looped program's golden run stops at its loop (DESIGN.md §5)."""

    @pytest.mark.parametrize(
        "builder", [build_pipelined_cpu, build_multicycle_cpu],
        ids=["pipelined", "multicycle"],
    )
    @pytest.mark.parametrize(
        "workload",
        [make_extraction_sort(length=4, seed=5), make_matrix_multiply(size=2, seed=5)],
        ids=["sort", "matmul"],
    )
    def test_loop_lookup_equals_a_raw_run(self, builder, workload, monkeypatch):
        """Answers read through the loop equal a run three periods longer.

        The loop starts at the smallest index the answers repeat from.
        """
        program = workload.looped().program
        cpu = builder(program)
        result = cpu.run_golden(record_trace=False)
        looped = cpu.netlist.firing_trace
        assert not result.halted and looped.loop_start is not None
        start, period = looped.loop_start, looped.firings - looped.loop_start
        # The run stopped one period after Brent's power-of-two save point;
        # the trace's loop start is at or before that point.
        saved = result.cycles - period
        assert saved & (saved - 1) == 0 and period <= max(saved, 1)
        assert start <= saved
        done = [at for at in looped.done_at if at is not None]
        assert all(start >= at for at in done)
        oracles = [answers for answers in looped.oracle if answers is not None]
        assert all(len(answers) == looped.firings + 1 for answers in oracles)
        assert (
            start == 0
            or start == max(done, default=None)
            or any(
                answers[start - 1] != answers[start - 1 + period]
                for answers in oracles
            )
        )
        horizon = looped.firings + 3 * period

        monkeypatch.setattr(golden, "_searches_loop", lambda netlist, stop: False)
        raw_cpu = builder(program)
        raw_cpu.run_golden(record_trace=False, max_cycles=horizon)
        raw = raw_cpu.netlist.firing_trace
        assert raw.loop_start is None and raw.firings == horizon
        assert raw.done_at == looped.done_at
        for answers, loop_answers in zip(raw.oracle, looped.oracle):
            if answers is None:
                assert loop_answers is None
                continue
            assert list(answers) == [
                loop_answers[looped.position(k)] for k in range(horizon + 1)
            ]

    def test_loop_start_stays_at_a_done_index(self):
        """Answers that repeat from index 0 still loop from the done index.

        A process done after three firings, whose oracle answer never
        changes, beside a stop process that never stops: a loop start below
        three would wrap the replay back to "not done".
        """
        netlist = Netlist(
            [_Ticker("tick"), _Stopper("stop")],
            [
                Channel("a", "tick", "out", "stop", "x", initial=0),
                Channel("b", "stop", "y", "tick", "in", initial=0),
            ],
        )
        run_golden(netlist, stop_process="tick", record_trace=False)
        looped = netlist.firing_trace
        assert looped.done_at == (None, 3)
        assert looped.loop_start == 3 and looped.firings == 5
        for relaxed in (False, True):
            rows = [
                BatchRunner(netlist, relaxed=relaxed, kernel=kernel).run_many(
                    [RSConfiguration.uniform(1)], stop_process="tick",
                    horizon=500, steady_state_window=500,
                )[0]
                for kernel in ("compiled", "reference")
            ]
            replayed, full = (
                (row.cycles, row.firings, row.halted) for row in rows
            )
            assert rows[0].kernel == "replay" and replayed == full
            assert full[1]["stop"] == 3

    def test_done_stop_run_computes_no_summary(self, monkeypatch):
        cpu = build_pipelined_cpu(make_extraction_sort(length=4, seed=5).program)
        calls = []
        for process in cpu.netlist.processes.values():
            monkeypatch.setattr(process, "schedule_state", lambda: calls.append(1))
        result = cpu.run_golden(record_trace=False)
        assert result.halted and not calls
        assert cpu.netlist.firing_trace.loop_start is None
