"""Exporting experiment results to Markdown, CSV and JSON.

The harnesses in this package return structured result objects; this module
turns them into artefacts a user can drop into a paper, a spreadsheet or a
regression-tracking system.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from .sweeps import SweepResult
from .table1 import Table1Result, Table1Row


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

TABLE1_COLUMNS = (
    "index",
    "label",
    "wp2_cycles",
    "wp1_throughput",
    "wp2_throughput",
    "improvement_percent",
    "static_bound",
)


def table1_to_rows(result: Table1Result) -> List[Dict[str, Any]]:
    """Flatten a :class:`Table1Result` into plain dictionaries."""
    rows = []
    for row in result.rows:
        data = row.as_dict()
        data["workload"] = result.workload
        data["control_style"] = result.control_style
        rows.append(data)
    return rows


def table1_to_markdown(result: Table1Result, paper: Optional[Mapping[str, Mapping[str, float]]] = None) -> str:
    """Render a Table 1 section as a GitHub-flavoured Markdown table.

    *paper* may map row labels to ``{"wp1": ..., "wp2": ...}`` reference
    values; when provided, two extra columns show the paper's numbers next to
    the measured ones.
    """
    if paper:
        header = ("| RS configuration | Th WP1 paper | Th WP1 meas. | Th WP2 paper "
                  "| Th WP2 meas. | gain meas. |")
        separator = "|---|---|---|---|---|---|"
    else:
        header = "| RS configuration | WP2 cycles | Th WP1 | Th WP2 | gain |"
        separator = "|---|---|---|---|---|"
    lines = [
        f"**{result.workload}** ({result.control_style} case, "
        f"golden = {result.golden_cycles} cycles)",
        "",
        header,
        separator,
    ]
    for row in result.rows:
        if paper:
            reference = paper.get(row.label, {})
            wp1_ref = reference.get("wp1")
            wp2_ref = reference.get("wp2")
            lines.append(
                f"| {row.label} | {wp1_ref if wp1_ref is not None else '—'} "
                f"| {row.wp1_throughput:.3f} "
                f"| {wp2_ref if wp2_ref is not None else '—'} "
                f"| {row.wp2_throughput:.3f} | {row.improvement_percent:+.0f}% |"
            )
        else:
            lines.append(
                f"| {row.label} | {row.wp2_cycles} | {row.wp1_throughput:.3f} "
                f"| {row.wp2_throughput:.3f} | {row.improvement_percent:+.0f}% |"
            )
    return "\n".join(lines)


def table1_to_csv(result: Table1Result) -> str:
    """Render a Table 1 section as CSV text (one row per configuration)."""
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer, fieldnames=("workload", "control_style", *TABLE1_COLUMNS)
    )
    writer.writeheader()
    for data in table1_to_rows(result):
        writer.writerow({key: data[key] for key in writer.fieldnames})
    return buffer.getvalue()


def table1_to_json(results: Mapping[str, Table1Result], indent: int = 2) -> str:
    """Serialise one or more Table 1 sections (e.g. ``run_table1`` output)."""
    payload = {
        key: {
            "workload": result.workload,
            "control_style": result.control_style,
            "golden_cycles": result.golden_cycles,
            "rows": table1_to_rows(result),
        }
        for key, result in results.items()
    }
    return json.dumps(payload, indent=indent)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def sweep_to_csv(result: SweepResult) -> str:
    """Render a sweep as CSV (parameter, WP1, WP2, plus any detail columns)."""
    detail_keys: List[str] = sorted(
        {key for point in result.points for key in point.detail}
    )
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([result.parameter_name, "wp1_throughput", "wp2_throughput", *detail_keys])
    for point in result.points:
        writer.writerow(
            [point.parameter, point.wp1_throughput, point.wp2_throughput]
            + [point.detail.get(key, "") for key in detail_keys]
        )
    return buffer.getvalue()


def sweep_to_markdown(result: SweepResult) -> str:
    """Render a sweep as a Markdown table."""
    lines = [
        f"**{result.name}**",
        "",
        f"| {result.parameter_name} | Th WP1 | Th WP2 |",
        "|---|---|---|",
    ]
    for point in result.points:
        lines.append(
            f"| {point.parameter:g} | {point.wp1_throughput:.3f} | {point.wp2_throughput:.3f} |"
        )
    return "\n".join(lines)


def write_text(path: str, content: str) -> None:
    """Write *content* to *path* (tiny helper so callers avoid open() plumbing)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
