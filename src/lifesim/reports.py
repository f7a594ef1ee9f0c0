"""CSV emission for aggregate and comparison reports.

One file per report section, plain deterministic formatting (no timestamps),
shaped so reform/baseline tables can be diffed column-wise.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .reform import CONFIDENCE, ComparisonReport
from .simulate import DURATION_AGE_BANDS, INCENTIVE_BINS, AggregateReport
from .states import EmploymentState


def _fmt(x: float) -> str:
    if isinstance(x, float) and (np.isnan(x)):
        return "nan"
    return f"{x:.10g}"


def write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    """``rows`` under ``header`` at ``path``, floats as ``%.10g``."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
    return path


def write_report_csvs(report: AggregateReport, outdir: str | Path) -> list[Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    ages = [int(a) for a in report.ages]
    by_gender = {"employment_rate": report.employment_rate, "unemployment_rate": report.unemployment_rate,
                 "parttime_share": report.parttime_share, "disability_rate": report.disability_rate}
    shares = {"workforce_share_narrow": report.workforce_share_narrow,
              "workforce_share_broad": report.workforce_share_broad, "alive_share": report.alive_share}
    written = [
        write_csv(outdir / "occupancy_by_age.csv", ["age"] + [s.name.lower() for s in EmploymentState],
                   [[a] + report.occupancy[i].tolist() for i, a in enumerate(ages)]),
        write_csv(outdir / "rates_by_age.csv",
                   ["age"] + [f"{name}_{g}" for name in by_gender for g in ("men", "women")] + list(shares),
                   [[a] + [x for rate in by_gender.values() for x in rate[i].tolist()]
                    + [float(share[i]) for share in shares.values()] for i, a in enumerate(ages)]),
        write_csv(outdir / "expenditures.csv", ["flow", "eur"],
                   [[k, float(v)] for k, v in sorted(report.flows.items())]),
        write_csv(outdir / "fte.csv", ["class", "fte"], [[k, float(v)] for k, v in report.fte.items()]),
        write_csv(outdir / "hours_histogram.csv", ["weekly_hours", "agent_years"],
                   [[h, float(v)] for h, v in sorted(report.hours_histogram.items())]),
        write_csv(outdir / "unemployment_durations.csv",
                   ["age_band", "0_6m", "6_12m", "12_18m", "18_24m", "over_24m", "spells"],
                   [[f"{lo}-{hi}"] + report.duration_bins[b].tolist() + [float(report.duration_counts[b].sum())]
                    for b, (lo, hi) in enumerate(DURATION_AGE_BANDS)]),
    ]

    # The first row counts the samples below the bins, the last those above.
    edges = [-np.inf] + INCENTIVE_BINS.tolist() + [np.inf]
    for name in ("emtr", "ptr"):
        counts = ([getattr(report, f"{name}_underflow")] + getattr(report, f"{name}_histogram").tolist()
                  + [getattr(report, f"{name}_overflow")])
        if sum(counts) > 0:
            written.append(write_csv(outdir / f"{name}_histogram.csv", ["bin_low", "bin_high", "count"],
                                      [[edges[i], edges[i + 1], float(count)] for i, count in enumerate(counts)]))

    summary = {name: getattr(report, name) for name in (
        "cohort_size", "scaled", "public_net", "fte", "emtr_median", "ptr_median", "emtr_underflow",
        "emtr_overflow", "ptr_underflow", "ptr_overflow")}
    path = outdir / "summary.json"
    with open(path, "w") as f:
        json.dump({**summary, "cells": report.cells()}, f, indent=2, sort_keys=True, allow_nan=True)
        f.write("\n")
    return written + [path]


def write_comparison_csvs(cmp: ComparisonReport, outdir: str | Path) -> list[Path]:
    """The comparison rows in four files: the FTE, the flow and the
    duration cells, then the other cells."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    header = ["cell", "reform", "baseline", "difference", "pooled_se", f"threshold_{round(100 * CONFIDENCE)}",
              "significant"]
    files = {"fte_": "comparison_fte.csv", "flow_": "comparison_financial.csv", "duration_": "comparison_durations.csv"}
    tables: dict[str, list[list]] = {name: [] for name in (*files.values(), "comparison_other.csv")}
    for r in cmp.rows:
        name = next((files[prefix] for prefix in files if r.cell.startswith(prefix)), "comparison_other.csv")
        tables[name].append([r.cell, float(r.reform), float(r.baseline), float(r.difference), float(r.pooled_se),
                             float(r.threshold), int(r.significant)])
    return [write_csv(outdir / name, header, rows) for name, rows in tables.items()]
