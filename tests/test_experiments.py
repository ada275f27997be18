"""Tests for the experiment harnesses (Table 1, Figure 1, claims, sweeps).

The harnesses are exercised on reduced workload sizes so the whole suite stays
fast; the benchmark directory runs the paper-scale versions.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.core import RSConfiguration, throughput_bound
from repro.cpu import build_pipelined_cpu
from repro.cpu.topology import TABLE1_LINK_ORDER
from repro.cpu.workloads import make_extraction_sort, make_matrix_multiply
from repro.experiments import (
    build_figure1_netlist,
    clock_frequency_sweep,
    default_floorplan,
    evaluate_configuration,
    evaluate_rows,
    matmul_row_configurations,
    optimal_configuration,
    queue_capacity_sweep,
    reference_wrapper_overhead_percent,
    run_area_overhead,
    run_figure1,
    run_multicycle_study,
    run_table1_sort,
    single_link_rows,
    sort_row_configurations,
    uniform_depth_sweep,
)


@pytest.fixture(scope="module")
def small_sort_table():
    return run_table1_sort(length=6, seed=3)


class TestTable1Harness:
    def test_row_definitions_match_paper_counts(self):
        cpu = build_pipelined_cpu(make_extraction_sort(length=4).program)
        assert len(sort_row_configurations(cpu)) == 13
        assert len(matmul_row_configurations(cpu)) == 25
        assert len(single_link_rows()) == len(TABLE1_LINK_ORDER)

    def test_sort_table_rows_evaluated(self, small_sort_table):
        assert len(small_sort_table.rows) == 13
        assert small_sort_table.golden_cycles > 0
        assert small_sort_table.workload == "Extraction Sort"

    def test_ideal_row_has_unit_throughput(self, small_sort_table):
        ideal = small_sort_table.rows[0]
        assert ideal.wp1_throughput == pytest.approx(1.0, abs=0.02)
        assert ideal.wp2_throughput == pytest.approx(1.0, abs=0.02)

    def test_wp2_never_worse_than_wp1(self, small_sort_table):
        for row in small_sort_table.rows:
            assert row.wp2_throughput >= row.wp1_throughput - 1e-9
            assert row.improvement_percent >= -1e-9

    def test_wp1_close_to_static_bound(self, small_sort_table):
        for row in small_sort_table.rows:
            assert row.wp1_throughput <= row.static_bound + 0.03

    def test_cu_ic_row_matches_paper_wp1_value(self, small_sort_table):
        row = small_sort_table.row("Only CU-IC")
        assert row.wp1_throughput == pytest.approx(0.5, abs=0.02)

    def test_row_lookup_by_label_raises_for_unknown(self, small_sort_table):
        with pytest.raises(KeyError):
            small_sort_table.row("Only GHOST")

    def test_row_as_dict_and_format(self, small_sort_table):
        row_dict = small_sort_table.rows[1].as_dict()
        assert {"label", "wp1_throughput", "wp2_throughput"} <= set(row_dict)
        text = small_sort_table.format()
        assert "RS Configuration" in text
        assert "Only CU-IC" in text

    def test_optimal_configuration_improves_on_uniform(self):
        cpu = build_pipelined_cpu(make_extraction_sort(length=4).program)
        optimal = optimal_configuration(cpu, per_link_max=1)
        uniform = RSConfiguration.uniform(1, exclude=("CU-IC",))
        optimal_bound = throughput_bound(cpu.netlist, configuration=optimal).bound
        uniform_bound = throughput_bound(cpu.netlist, configuration=uniform).bound
        assert optimal_bound > uniform_bound
        # The redistribution keeps the same total number of relay stations.
        assert optimal.total_relay_stations(cpu.netlist) >= uniform.total_relay_stations(cpu.netlist)

    def test_evaluate_rows_with_equivalence_check(self):
        workload = make_extraction_sort(length=4, seed=1)
        result = evaluate_rows(
            workload,
            [RSConfiguration.ideal(), RSConfiguration.only("RF-DC")],
            check_equivalence=True,
        )
        assert all(row.equivalent for row in result.rows)

    def test_unchecked_rows_report_equivalence_unknown(self):
        workload = make_extraction_sort(length=4, seed=1)
        result = evaluate_rows(
            workload, [RSConfiguration.ideal(), RSConfiguration.only("RF-DC")]
        )
        assert [row.equivalent for row in result.rows] == [None, None]
        assert all(row.as_dict()["equivalent"] is None for row in result.rows)
        cpu = build_pipelined_cpu(workload.program)
        row = evaluate_configuration(
            cpu, RSConfiguration.ideal(), cpu.run_golden(record_trace=False)
        )
        assert row.equivalent is None

    def test_progress_callback_invoked(self):
        workload = make_extraction_sort(length=4, seed=1)
        messages = []
        evaluate_rows(
            workload,
            [RSConfiguration.ideal()],
            progress=messages.append,
        )
        assert len(messages) == 1


class TestFigure1Harness:
    def test_report_structure(self):
        report = run_figure1()
        assert sorted(report.blocks) == ["ALU", "CU", "DC", "IC", "RF"]
        assert len(report.channels) == 11
        assert report.loop_count == 7

    def test_two_block_loops_identified(self):
        report = run_figure1()
        shortest = report.shortest_loops()
        assert all(loop.length == 2 for loop in shortest)
        assert len(shortest) == 4

    def test_per_link_bounds_match_static_analysis(self):
        report = run_figure1()
        netlist = build_figure1_netlist()
        for link, bound in report.per_link_bound.items():
            expected = throughput_bound(
                netlist, configuration=RSConfiguration.only(link)
            ).bound
            assert bound == expected

    def test_cu_ic_is_the_most_sensitive_link(self):
        report = run_figure1()
        assert report.per_link_bound["CU-IC"] == Fraction(1, 2)
        assert min(report.per_link_bound.values()) == Fraction(1, 2)

    def test_format_lists_blocks_channels_loops(self):
        text = run_figure1().format()
        assert "blocks (5)" in text
        assert "cu_ic" in text
        assert "Only CU-IC" in text


class TestMulticycleStudy:
    def test_multicycle_fetch_gain_exceeds_pipelined(self):
        workload = make_extraction_sort(length=6, seed=2)
        study = run_multicycle_study(workload=workload, links=["CU-IC", "RF-DC"])
        assert study.gain("multicycle", "CU-IC") > study.gain("pipelined", "CU-IC")

    def test_format_contains_links(self):
        workload = make_extraction_sort(length=4, seed=2)
        study = run_multicycle_study(workload=workload, links=["CU-IC"])
        assert "CU-IC" in study.format()

    def test_all_gains_non_negative(self):
        workload = make_extraction_sort(length=5, seed=2)
        study = run_multicycle_study(workload=workload, links=["CU-IC", "ALU-CU"])
        for link in study.links:
            assert study.gain("multicycle", link) >= -1e-9
            assert study.gain("pipelined", link) >= -1e-9


class TestAreaOverheadClaim:
    def test_reference_wrapper_under_one_percent(self):
        assert reference_wrapper_overhead_percent() < 1.0

    def test_wp2_reference_only_slightly_larger_than_wp1(self):
        wp1 = reference_wrapper_overhead_percent(relaxed=False)
        wp2 = reference_wrapper_overhead_percent(relaxed=True)
        assert wp1 < wp2 < wp1 * 1.3

    def test_system_report(self):
        result = run_area_overhead()
        assert 0.0 < result.wp1.wrapper_overhead_fraction < 0.05
        assert result.wp2.total_wrapper_ge > result.wp1.total_wrapper_ge
        assert "%" in result.format()

    def test_worst_block_overhead_is_small(self):
        result = run_area_overhead()
        assert result.worst_block_overhead_percent < 10.0


class TestSweeps:
    def test_queue_capacity_sweep_monotone_non_decreasing(self):
        result = queue_capacity_sweep(
            workload=make_extraction_sort(length=5, seed=1), capacities=(2, 4, 8)
        )
        wp2 = result.wp2_series()
        assert all(later >= earlier - 0.02 for earlier, later in zip(wp2, wp2[1:]))

    def test_uniform_depth_sweep_decreasing(self):
        result = uniform_depth_sweep(
            workload=make_extraction_sort(length=5, seed=1), depths=(0, 1, 2)
        )
        wp1 = result.wp1_series()
        assert wp1[0] == pytest.approx(1.0, abs=0.02)
        assert wp1[2] <= wp1[1] <= wp1[0] + 1e-9

    def test_clock_sweep_reports_relay_station_counts(self):
        result = clock_frequency_sweep(
            workload=make_extraction_sort(length=5, seed=1),
            frequencies_ghz=(0.5, 2.0),
        )
        low, high = result.points
        assert low.detail["total_relay_stations"] <= high.detail["total_relay_stations"]
        assert "effective_wp2_ghz" in high.detail

    def test_default_floorplan_places_all_blocks(self):
        plan = default_floorplan()
        assert set(plan.blocks) == {"CU", "IC", "RF", "ALU", "DC"}

    def test_sweep_format(self):
        result = uniform_depth_sweep(
            workload=make_extraction_sort(length=4, seed=1), depths=(0, 1)
        )
        assert "Th WP1" in result.format()
