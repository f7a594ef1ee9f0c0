"""CSV emission for aggregate and comparison reports.

One file per report section, plain deterministic formatting (no timestamps),
shaped so reform/baseline tables can be diffed column-wise.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .reform import ComparisonReport
from .simulate import DURATION_AGE_BANDS, INCENTIVE_BINS, AggregateReport
from .states import EmploymentState


def _fmt(x: float) -> str:
    if isinstance(x, float) and (np.isnan(x)):
        return "nan"
    return f"{x:.10g}"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def write_report_csvs(report: AggregateReport, outdir: str | Path) -> list[Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    path = outdir / "occupancy_by_age.csv"
    header = ["age"] + [s.name.lower() for s in EmploymentState]
    rows = [[int(a)] + [float(report.occupancy[i, j]) for j in range(16)]
            for i, a in enumerate(report.ages)]
    _write_csv(path, header, rows)
    written.append(path)

    path = outdir / "rates_by_age.csv"
    header = ["age", "employment_rate_men", "employment_rate_women",
              "unemployment_rate_men", "unemployment_rate_women",
              "parttime_share_men", "parttime_share_women",
              "disability_rate_men", "disability_rate_women",
              "workforce_share_narrow", "workforce_share_broad", "alive_share"]
    rows = []
    for i, a in enumerate(report.ages):
        rows.append([int(a),
                     float(report.employment_rate[i, 0]), float(report.employment_rate[i, 1]),
                     float(report.unemployment_rate[i, 0]), float(report.unemployment_rate[i, 1]),
                     float(report.parttime_share[i, 0]), float(report.parttime_share[i, 1]),
                     float(report.disability_rate[i, 0]), float(report.disability_rate[i, 1]),
                     float(report.workforce_share_narrow[i]), float(report.workforce_share_broad[i]),
                     float(report.alive_share[i])])
    _write_csv(path, header, rows)
    written.append(path)

    path = outdir / "expenditures.csv"
    _write_csv(path, ["flow", "eur"], [[k, float(v)] for k, v in sorted(report.flows.items())])
    written.append(path)

    path = outdir / "fte.csv"
    _write_csv(path, ["class", "fte"], [[k, float(v)] for k, v in report.fte.items()])
    written.append(path)

    path = outdir / "hours_histogram.csv"
    _write_csv(path, ["weekly_hours", "agent_years"],
               [[h, float(v)] for h, v in sorted(report.hours_histogram.items())])
    written.append(path)

    path = outdir / "unemployment_durations.csv"
    header = ["age_band", "0_6m", "6_12m", "12_18m", "18_24m", "over_24m", "spells"]
    rows = []
    for b, (lo, hi) in enumerate(DURATION_AGE_BANDS):
        rows.append([f"{lo}-{hi}"] + [float(x) for x in report.duration_bins[b]]
                    + [float(report.duration_counts[b].sum())])
    _write_csv(path, header, rows)
    written.append(path)

    # The first row counts the samples below the bins, the last those above.
    edges = [-np.inf] + INCENTIVE_BINS.tolist() + [np.inf]
    for name in ("emtr", "ptr"):
        counts = ([getattr(report, f"{name}_underflow")] + getattr(report, f"{name}_histogram").tolist()
                  + [getattr(report, f"{name}_overflow")])
        if sum(counts) > 0:
            path = outdir / f"{name}_histogram.csv"
            _write_csv(path, ["bin_low", "bin_high", "count"],
                       [[edges[i], edges[i + 1], float(count)] for i, count in enumerate(counts)])
            written.append(path)

    summary = {
        "cohort_size": report.cohort_size,
        "scaled": report.scaled,
        "public_net": report.public_net,
        "fte": report.fte,
        "emtr_median": report.emtr_median,
        "ptr_median": report.ptr_median,
        "emtr_underflow": report.emtr_underflow,
        "emtr_overflow": report.emtr_overflow,
        "ptr_underflow": report.ptr_underflow,
        "ptr_overflow": report.ptr_overflow,
        "cells": report.cells(),
    }
    path = outdir / "summary.json"
    with open(path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True, allow_nan=True)
        f.write("\n")
    written.append(path)
    return written


def write_comparison_csvs(cmp: ComparisonReport, outdir: str | Path) -> list[Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    def rows_for(prefix: str) -> list[list]:
        rows = []
        for r in cmp.rows:
            if r.cell.startswith(prefix):
                rows.append([r.cell, float(r.reform), float(r.baseline), float(r.difference),
                             float(r.pooled_se), float(r.threshold), int(r.significant)])
        return rows

    header = ["cell", "reform", "baseline", "difference", "pooled_se",
              "threshold_99", "significant"]
    for name, prefix in (("comparison_fte.csv", "fte_"),
                         ("comparison_financial.csv", "flow_"),
                         ("comparison_durations.csv", "duration_")):
        path = outdir / name
        _write_csv(path, header, rows_for(prefix))
        written.append(path)

    other = [r for r in cmp.rows
             if not any(r.cell.startswith(p) for p in ("fte_", "flow_", "duration_"))]
    path = outdir / "comparison_other.csv"
    _write_csv(path, header, [[r.cell, float(r.reform), float(r.baseline), float(r.difference),
                               float(r.pooled_se), float(r.threshold), int(r.significant)]
                              for r in other])
    written.append(path)
    return written
