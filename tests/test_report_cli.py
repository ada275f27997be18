"""Tests for the result exporters and the ``python -m repro`` CLI."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.__main__ import build_parser, main
from repro.experiments import run_table1_sort, uniform_depth_sweep
from repro.experiments.report import (
    sweep_to_csv,
    sweep_to_markdown,
    table1_to_csv,
    table1_to_json,
    table1_to_markdown,
    table1_to_rows,
    write_text,
)
from repro.cpu.workloads import make_extraction_sort


@pytest.fixture(scope="module")
def tiny_table():
    return run_table1_sort(length=4, seed=1)


@pytest.fixture(scope="module")
def tiny_sweep():
    return uniform_depth_sweep(
        workload=make_extraction_sort(length=4, seed=1), depths=(0, 1)
    )


class TestTable1Exports:
    def test_rows_carry_workload_metadata(self, tiny_table):
        rows = table1_to_rows(tiny_table)
        assert len(rows) == len(tiny_table.rows)
        assert all(row["workload"] == "Extraction Sort" for row in rows)

    def test_markdown_contains_every_label(self, tiny_table):
        text = table1_to_markdown(tiny_table)
        for row in tiny_table.rows:
            assert row.label in text
        assert "|---|---|---|---|---|" in text

    def test_markdown_with_paper_reference_columns(self, tiny_table):
        text = table1_to_markdown(
            tiny_table, paper={"Only CU-IC": {"wp1": 0.5, "wp2": 0.5}}
        )
        assert "Th WP1 paper" in text
        assert "0.5" in text

    def test_csv_parses_back(self, tiny_table):
        parsed = list(csv.DictReader(io.StringIO(table1_to_csv(tiny_table))))
        assert len(parsed) == len(tiny_table.rows)
        assert parsed[0]["label"] == "All 0 (ideal)"

    def test_json_roundtrip(self, tiny_table):
        payload = json.loads(table1_to_json({"sort": tiny_table}))
        assert payload["sort"]["golden_cycles"] == tiny_table.golden_cycles
        assert len(payload["sort"]["rows"]) == len(tiny_table.rows)

    def test_json_writes_unchecked_equivalence_as_null(self, tiny_table):
        text = table1_to_json({"sort": tiny_table})
        assert '"equivalent": null' in text
        rows = json.loads(text)["sort"]["rows"]
        assert all(row["equivalent"] is None for row in rows)


class TestSweepExports:
    def test_csv_has_header_and_rows(self, tiny_sweep):
        parsed = list(csv.reader(io.StringIO(sweep_to_csv(tiny_sweep))))
        assert parsed[0][0] == tiny_sweep.parameter_name
        assert len(parsed) == len(tiny_sweep.points) + 1

    def test_markdown_table(self, tiny_sweep):
        text = sweep_to_markdown(tiny_sweep)
        assert "Th WP1" in text and "Th WP2" in text

    def test_write_text(self, tmp_path, tiny_sweep):
        path = tmp_path / "sweep.csv"
        write_text(str(path), sweep_to_csv(tiny_sweep))
        assert path.read_text().startswith(tiny_sweep.parameter_name)


class TestCli:
    def test_parser_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure1_command(self, capsys):
        assert main(["figure1"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_area_command(self, capsys):
        assert main(["area"]) == 0
        output = capsys.readouterr().out
        assert "100 kgate" in output and "%" in output

    def test_table1_command_text(self, capsys):
        assert main(["table1", "--sort-length", "4"]) == 0
        assert "Only CU-IC" in capsys.readouterr().out

    def test_table1_command_json(self, capsys):
        assert main(["table1", "--sort-length", "4", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "sort" in payload

    def test_sweep_command_csv(self, capsys):
        assert main(["sweep", "depth", "--sort-length", "4", "--format", "csv"]) == 0
        assert "wp2_throughput" in capsys.readouterr().out


class TestKernelOption:
    def test_parser_accepts_kernel_choice(self):
        parser = build_parser()
        args = parser.parse_args(["table1", "--kernel", "reference"])
        assert args.kernel == "reference"
        args = parser.parse_args(["sweep", "depth", "--kernel", "fast"])
        assert args.kernel == "fast"
        args = parser.parse_args(["multicycle", "--kernel", "fast"])
        assert args.kernel == "fast"

    def test_parser_rejects_unknown_kernel(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["table1", "--kernel", "warp"])

    def test_table1_runs_under_both_kernels(self, capsys):
        for kernel in ("reference", "fast"):
            assert main(["table1", "--sort-length", "3", "--kernel", kernel]) == 0
        out = capsys.readouterr().out
        assert "All 0 (ideal)" in out


class TestSteadyStateOptions:
    def test_parser_accepts_horizon_and_steady_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["table1", "--horizon", "5000", "--no-steady-state"]
        )
        assert args.horizon == 5000 and args.no_steady_state
        args = parser.parse_args(["sweep", "mixed", "--no-steady-state"])
        assert args.kind == "mixed" and args.no_steady_state

    def test_no_steady_state_prints_the_same_table(self, capsys):
        argv = ["table1", "--sort-length", "3", "--horizon", "4000"]
        assert main(argv) == 0
        detected = capsys.readouterr().out
        assert main(argv + ["--no-steady-state"]) == 0
        assert capsys.readouterr().out == detected

    def test_table1_horizon_runs(self, capsys):
        assert main(["table1", "--sort-length", "3", "--horizon", "400"]) == 0
        assert "All 0 (ideal)" in capsys.readouterr().out

    def test_sweep_mixed_runs(self, capsys):
        assert main(
            ["sweep", "mixed", "--sort-length", "3", "--matmul-size", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "Extraction Sort" in out and "Matrix Multiply" in out
