"""Sweep reporting: frontier tables and per-point detail.

Renders a :class:`~repro.dse.sweep.SweepResult` as

* an ASCII :class:`~repro.experiments.common.ExperimentResult` table
  (what the CLI prints),
* CSV / JSON / markdown exports of all points or just the frontier,
* a per-point detail dict carrying the full
  :class:`~repro.hw.simulator.SimResult`-shaped timing and
  :class:`~repro.hw.energy.EnergyBreakdown` fields.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List, Optional, Sequence

from repro.dse.pareto import pareto_front
from repro.dse.sweep import SweepResult
from repro.experiments.common import ExperimentResult

__all__ = [
    "DEFAULT_OBJECTIVES",
    "DEFAULT_SENSES",
    "SUMMARY_COLUMNS",
    "frontier_records",
    "frontier_table",
    "to_csv",
    "to_json",
    "to_markdown",
]

#: The Fig. 9 objectives: quality vs energy-delay product.
DEFAULT_OBJECTIVES = ("ppl", "edp")
DEFAULT_SENSES = ("min", "min")

#: Columns of the summary/frontier tables, in print order.
SUMMARY_COLUMNS = [
    "model",
    "task",
    "dtype",
    "bits",
    "weight_mb",
    "pe_lanes",
    "pes_per_tile",
    "n_pes",
    "dram_gbps",
    "wbuf_kb",
    "mesh",
    "area_mm2",
    "time_ms",
    "total_uj",
    "edp",
    "speedup",
    "ppl",
    "dppl",
]


def _summary_row(r: Dict) -> List:
    a = r["arch"]
    ppl = r["ppl"] if r["ppl"] is not None else float("nan")
    dppl = r["dppl"] if r["dppl"] is not None else float("nan")
    # Policy records label themselves by their solver instead of a
    # single datatype name.
    dtype = r.get("policy") or r["dtype"] or "-"
    weight_mb = r.get("weight_mb")
    # Multi-chip points say which mesh they ran on ("4x ring");
    # single-chip records (including pre-v3 ones) print "1x".
    shards = r.get("shards", 1)
    topology = r.get("topology")
    mesh = f"{shards}x {topology}" if topology else f"{shards}x"
    return [
        r["model"],
        r["task"],
        dtype,
        r["bits"],
        float("nan") if weight_mb is None else weight_mb,
        a["pe_lanes"],
        a["pes_per_tile"],
        a["n_pes"],
        a["dram_gbps"],
        a["weight_buffer_kb"],
        mesh,
        r["area_mm2"],
        r["time_ms"],
        r["total_uj"],
        r["edp"],
        r["speedup"],
        ppl,
        dppl,
    ]


def frontier_records(
    result: SweepResult,
    objectives: Sequence[str] = DEFAULT_OBJECTIVES,
    senses: Sequence[str] = DEFAULT_SENSES,
    per_workload: bool = True,
) -> List[Dict]:
    """Non-dominated records of a sweep.

    With ``per_workload=True`` (the default) the frontier is computed
    independently per (model, task) pair — comparing EDP across
    different models would mix incomparable workloads.
    """
    if not per_workload:
        return pareto_front(result.records, objectives, senses)
    groups: Dict[tuple, List[Dict]] = {}
    for r in result.records:
        groups.setdefault((r["model"], r["task"]), []).append(r)
    out: List[Dict] = []
    for key in sorted(groups):
        out.extend(pareto_front(groups[key], objectives, senses))
    return out


def frontier_table(
    result: SweepResult,
    objectives: Sequence[str] = DEFAULT_OBJECTIVES,
    senses: Sequence[str] = DEFAULT_SENSES,
    frontier_only: bool = True,
    records: Optional[Sequence[Dict]] = None,
) -> ExperimentResult:
    """The sweep (or its frontier) as a printable experiment table.

    Pass ``records`` to render an already-computed frontier instead of
    filtering again (the CLI reuses its ``frontier_records`` result).
    """
    if records is None:
        records = (
            frontier_records(result, objectives, senses)
            if frontier_only
            else result.records
        )
    scope = "Pareto frontier" if frontier_only else "all points"
    obj = ", ".join(f"{o}:{s}" for o, s in zip(objectives, senses))
    table = ExperimentResult(
        experiment=f"dse-{result.space.name}",
        title=(
            f"DSE sweep '{result.space.name}': {scope} "
            f"({len(records)}/{len(result.records)} points; objectives {obj})"
        ),
        columns=list(SUMMARY_COLUMNS),
        notes=(
            f"{result.computed} computed / {result.cached} cached / "
            f"{len(result.skipped)} skipped by constraints; "
            f"speedup and edp are vs the iso-area FP16 baseline."
        ),
    )
    for r in records:
        table.add_row(*_summary_row(r))
    return table


def _flat(records: Sequence[Dict]) -> List[Dict]:
    """Flatten the nested ``arch`` dict for tabular exports.

    The nested per-layer ``plan`` dict of policy records is dropped —
    it has no tabular shape; the JSON export carries it in full.
    """
    out = []
    for r in records:
        flat = {k: v for k, v in r.items() if k not in ("arch", "plan")}
        flat.update({f"arch_{k}": v for k, v in r["arch"].items()})
        out.append(flat)
    return out


def to_csv(records: Sequence[Dict]) -> str:
    """Records as CSV text (flattened arch columns)."""
    flat = _flat(records)
    if not flat:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(flat[0]))
    writer.writeheader()
    writer.writerows(flat)
    return buf.getvalue()


def to_json(
    result: SweepResult, records: Optional[Sequence[Dict]] = None
) -> str:
    """Sweep stats + records (default: all) as pretty JSON."""
    payload = {
        "stats": result.stats(),
        "space": result.space.to_dict(),
        "skipped": [
            {"params": params, "reason": reason}
            for params, reason in result.skipped
        ],
        "records": list(records if records is not None else result.records),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def to_markdown(records: Sequence[Dict]) -> str:
    """Records as a GitHub-flavored markdown table."""
    lines = [
        "| " + " | ".join(SUMMARY_COLUMNS) + " |",
        "| " + " | ".join("---" for _ in SUMMARY_COLUMNS) + " |",
    ]
    for r in records:
        cells = []
        for v in _summary_row(r):
            if isinstance(v, float):
                cells.append("-" if v != v else f"{v:.4g}")
            else:
                cells.append(str(v))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)
