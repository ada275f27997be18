"""Unit tests for loop enumeration and throughput bounds."""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction

import networkx as nx
import pytest

from repro.core.config import RSConfiguration
from repro.core.exceptions import ConfigurationError
from repro.core.netlist import ring_netlist
from repro.core.static_analysis import (
    critical_links,
    enumerate_loops,
    make_link_bound_evaluator,
    maximum_cycle_mean,
    maximum_cycle_ratio,
    per_link_sensitivity,
    throughput_bound,
    throughput_bound_mcm,
)
from repro.cpu import build_pipelined_cpu, make_extraction_sort


@pytest.fixture(scope="module")
def cpu_netlist():
    return build_pipelined_cpu(make_extraction_sort(length=4).program).netlist


class TestEnumerateLoops:
    def test_ring_has_one_loop(self):
        netlist, rs_counts = ring_netlist(4, rs_total=2)
        loops = enumerate_loops(netlist, rs_counts=rs_counts)
        assert len(loops) == 1
        assert loops[0].length == 4
        assert loops[0].relay_stations == 2

    def test_loop_throughput_bound_fraction(self):
        netlist, rs_counts = ring_netlist(3, rs_total=1)
        loop = enumerate_loops(netlist, rs_counts=rs_counts)[0]
        assert loop.throughput_bound == Fraction(3, 4)

    def test_loop_describe_mentions_processes(self):
        netlist, rs_counts = ring_netlist(2, rs_total=1)
        text = enumerate_loops(netlist, rs_counts=rs_counts)[0].describe()
        assert "stage0" in text and "RS" in text

    def test_cpu_netlist_loop_count(self, cpu_netlist):
        loops = enumerate_loops(cpu_netlist)
        # CU-IC, CU-ALU-CU, CU-RF-ALU-CU, CU-DC-RF-ALU-CU, RF-ALU-RF,
        # RF-DC-RF, ALU-DC-RF-ALU.
        assert len(loops) == 7
        lengths = sorted(loop.length for loop in loops)
        assert lengths == [2, 2, 2, 2, 3, 3, 4]

    def test_loops_start_at_their_smallest_process_in_sorted_order(
        self, cpu_netlist
    ):
        loops = enumerate_loops(cpu_netlist)
        assert all(loop.processes[0] == min(loop.processes) for loop in loops)
        assert [loop.processes for loop in loops] == sorted(
            loop.processes for loop in loops
        )

    @pytest.mark.parametrize(
        "command", [["figure1"], ["topology", "describe", "ring"]],
        ids=["figure1", "topology-describe-ring"],
    )
    def test_reports_do_not_depend_on_the_hash_seed(self, command):
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-m", "repro", *command],
                capture_output=True,
                timeout=120,
                check=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("0", "1")
        ]
        assert outputs[0] and outputs[0] == outputs[1]

    def test_rejects_both_counts_and_configuration(self, cpu_netlist):
        with pytest.raises(ConfigurationError):
            enumerate_loops(
                cpu_netlist,
                rs_counts={"cu_ic": 1},
                configuration=RSConfiguration.ideal(),
            )


class TestThroughputBound:
    def test_ring_bound_matches_formula(self):
        netlist, rs_counts = ring_netlist(3, rs_total=2)
        report = throughput_bound(netlist, rs_counts=rs_counts)
        assert report.bound == Fraction(3, 5)
        assert report.critical_loops

    def test_acyclic_netlist_bound_is_one(self):
        from repro.core.channel import Channel
        from repro.core.netlist import Netlist
        from repro.core.process import CounterSource, SinkProcess

        netlist = Netlist(
            [CounterSource("src"), SinkProcess("sink")],
            [Channel("d", "src", "out", "sink", "in", initial=0)],
        )
        report = throughput_bound(netlist, rs_counts={"d": 5})
        assert report.bound == 1
        assert report.loops == []

    def test_ideal_configuration_bound_is_one(self, cpu_netlist):
        report = throughput_bound(cpu_netlist, configuration=RSConfiguration.ideal())
        assert report.bound == 1

    @pytest.mark.parametrize(
        "link,expected",
        [
            ("CU-IC", Fraction(1, 2)),   # both directions pipelined -> 2/(2+2)
            ("CU-AL", Fraction(2, 3)),
            ("CU-RF", Fraction(3, 4)),
            ("RF-ALU", Fraction(2, 3)),
            ("RF-DC", Fraction(2, 3)),
            ("ALU-CU", Fraction(2, 3)),
            ("ALU-RF", Fraction(2, 3)),
            ("DC-RF", Fraction(2, 3)),
            ("CU-DC", Fraction(4, 5)),
            ("ALU-DC", Fraction(3, 4)),
        ],
    )
    def test_single_link_bounds_on_cpu(self, cpu_netlist, link, expected):
        report = throughput_bound(
            cpu_netlist, configuration=RSConfiguration.only(link)
        )
        assert report.bound == expected

    def test_describe_flags_critical_loops(self, cpu_netlist):
        report = throughput_bound(
            cpu_netlist, configuration=RSConfiguration.only("CU-IC")
        )
        assert "*" in report.describe()

    def test_uniform_configuration_bound(self, cpu_netlist):
        report = throughput_bound(
            cpu_netlist,
            configuration=RSConfiguration.uniform(1, exclude=("CU-IC",)),
        )
        assert report.bound == Fraction(1, 2)


class TestMcmAndMcr:
    def test_mcm_simple_cycle(self):
        graph = nx.DiGraph()
        graph.add_edge("a", "b", weight=2.0)
        graph.add_edge("b", "a", weight=0.0)
        assert maximum_cycle_mean(graph) == pytest.approx(1.0)

    def test_mcm_picks_worst_cycle(self):
        graph = nx.DiGraph()
        graph.add_edge("a", "b", weight=1.0)
        graph.add_edge("b", "a", weight=1.0)
        graph.add_edge("c", "c", weight=5.0)
        assert maximum_cycle_mean(graph) == pytest.approx(5.0)

    def test_mcm_acyclic_graph(self):
        graph = nx.DiGraph()
        graph.add_edge("a", "b", weight=3.0)
        assert maximum_cycle_mean(graph) == float("-inf")

    def test_mcr_matches_manual_ratio(self):
        graph = nx.DiGraph()
        graph.add_edge("a", "b", cost=3.0, time=1.0)
        graph.add_edge("b", "a", cost=1.0, time=1.0)
        assert maximum_cycle_ratio(graph) == pytest.approx(2.0, abs=1e-6)

    def test_mcr_acyclic(self):
        graph = nx.DiGraph()
        graph.add_edge("a", "b", cost=3.0, time=1.0)
        assert maximum_cycle_ratio(graph) == float("-inf")

    def test_mcr_requires_positive_times(self):
        graph = nx.DiGraph()
        graph.add_edge("a", "b", cost=1.0, time=0.0)
        graph.add_edge("b", "a", cost=1.0, time=1.0)
        with pytest.raises(ConfigurationError):
            maximum_cycle_ratio(graph)

    def test_bound_mcm_agrees_with_enumeration_on_cpu(self, cpu_netlist):
        for link in ("CU-IC", "RF-DC", "CU-DC"):
            config = RSConfiguration.only(link)
            exact = float(throughput_bound(cpu_netlist, configuration=config).bound)
            fast = throughput_bound_mcm(cpu_netlist, configuration=config)
            assert fast == pytest.approx(exact, abs=1e-6)

    def test_bound_mcm_acyclic_is_one(self):
        from repro.core.channel import Channel
        from repro.core.netlist import Netlist
        from repro.core.process import CounterSource, SinkProcess

        netlist = Netlist(
            [CounterSource("src"), SinkProcess("sink")],
            [Channel("d", "src", "out", "sink", "in", initial=0)],
        )
        assert throughput_bound_mcm(netlist) == 1.0


class TestSensitivityAndCriticalLinks:
    def test_critical_links_of_cu_ic_config(self, cpu_netlist):
        links = critical_links(cpu_netlist, configuration=RSConfiguration.only("CU-IC"))
        assert links == ["CU-IC"]

    def test_per_link_sensitivity_orders_links(self, cpu_netlist):
        sensitivity = per_link_sensitivity(cpu_netlist)
        assert sensitivity["CU-IC"] == Fraction(1, 2)
        assert sensitivity["CU-DC"] == Fraction(4, 5)
        assert min(sensitivity.values()) == Fraction(1, 2)

    def test_link_bound_evaluator_matches_throughput_bound(self, cpu_netlist):
        evaluator = make_link_bound_evaluator(cpu_netlist)
        for link in ("CU-IC", "RF-DC", "ALU-RF"):
            config = RSConfiguration.only(link)
            expected = float(throughput_bound(cpu_netlist, configuration=config).bound)
            assert evaluator(config.per_link(cpu_netlist.link_names())) == pytest.approx(expected)

    def test_link_bound_evaluator_on_acyclic_netlist(self):
        from repro.core.channel import Channel
        from repro.core.netlist import Netlist
        from repro.core.process import CounterSource, SinkProcess

        netlist = Netlist(
            [CounterSource("src"), SinkProcess("sink")],
            [Channel("d", "src", "out", "sink", "in", initial=0)],
        )
        evaluator = make_link_bound_evaluator(netlist)
        assert evaluator({"d": 10}) == 1.0
