"""Declarative reform overlays, retrain-and-compare orchestration, and the
significance arithmetic for comparing simulation arms.

A reform is an ordered list of named deltas applied to a rule set through
explicit field paths; the audit log of (path, old, new) makes every
application exactly revertible.  Comparisons report per-cell differences
against the minimal significant difference at ``CONFIDENCE``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist
from typing import Any

import numpy as np

from .errors import ParameterError, ReformError
from .paramfiles import build, load_yaml
from .rules.ruleset import RuleSet, validate_ruleset
from .simulate import AggregateReport, nan_mean, nan_sd

# One-sided confidence of every comparison's significance threshold.
CONFIDENCE = 0.99

# Named in the reform program but outside this model's scope; the schema
# reserves them and refuses to apply them.
RESERVED_UNIMPLEMENTED = frozenset({
    "waiting_period_days",
    "holiday_compensation_periodization",
    "euroized_employment_condition",
    "pay_subsidy_accrual",
    "language_requirement",
    "job_alternation_abolition",
    "adult_education_abolition",
    "index_freeze",
})

# Payload keys of each implemented delta kind, each with the type its value
# is read as: (required, optional).
PAYLOAD_KEYS: dict[str, tuple[dict[str, Any], dict[str, Any]]] = {
    "ub_grading": ({}, {"schedule": tuple[tuple[int, float], ...]}),
    "employment_condition_months": ({"months": int}, {}),
    "remove_extended_er": ({}, {}),
    "remove_earnings_disregards": ({}, {}),
    "income_tax_shift": ({}, {"bracket_scale": float, "rate_delta": float}),
    "housing_benefit_replacement": (
        {}, {"compensation_share": float, "income_deductible_rate": float}),
    "child_benefit_change": ({"delta_monthly": float}, {}),
}


@dataclass(frozen=True)
class ReformDelta:
    kind: str
    payload: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ReformSpec:
    name: str
    deltas: tuple[ReformDelta, ...]


def load_reform(path: str | Path) -> ReformSpec:
    try:
        doc = load_yaml(path)
    except ParameterError as exc:
        raise ReformError(f"reform overlay: {exc}") from exc
    raw_deltas = doc.get("deltas")
    if not isinstance(raw_deltas, list):
        raise ReformError(f"reform overlay must have a 'deltas' list: {path}")
    deltas = []
    for raw in raw_deltas:
        if not isinstance(raw, dict) or raw.get("kind") is None:
            raise ReformError(f"every delta must be a mapping with a kind in {path}: {raw!r}")
        payload = {k: v for k, v in raw.items() if k != "kind"}
        deltas.append(ReformDelta(kind=raw["kind"], payload=payload))
    return ReformSpec(name=str(doc.get("name", Path(path).stem)), deltas=tuple(deltas))


# -- path-based field access -------------------------------------------------

def _get_path(obj: Any, path: str) -> Any:
    cur = obj
    for part in path.split("."):
        if not hasattr(cur, part):
            raise ReformError(f"unknown rule-set field path: {path!r} (missing {part!r})")
        cur = getattr(cur, part)
    return cur


def _set_path(obj: Any, path: str, value: Any) -> Any:
    parts = path.split(".")
    if not hasattr(obj, parts[0]):
        raise ReformError(f"unknown rule-set field path: {path!r} (missing {parts[0]!r})")
    if len(parts) == 1:
        return dataclasses.replace(obj, **{parts[0]: value})
    child = _set_path(getattr(obj, parts[0]), ".".join(parts[1:]), value)
    return dataclasses.replace(obj, **{parts[0]: child})


@dataclass(frozen=True)
class AuditEntry:
    path: str
    old: Any
    new: Any


def _payload(delta: ReformDelta) -> dict[str, Any]:
    """The payload of ``delta``, each value read as the type its kind declares."""
    if delta.kind in RESERVED_UNIMPLEMENTED:
        raise ReformError(f"reform delta {delta.kind!r} is reserved but not implemented in this model")
    if delta.kind not in PAYLOAD_KEYS:
        raise ReformError(f"unknown reform delta kind {delta.kind!r}")
    required, optional = PAYLOAD_KEYS[delta.kind]
    types = required | optional
    unknown = sorted(delta.payload.keys() - types.keys())
    if unknown:
        raise ReformError(f"reform delta {delta.kind!r} has unknown key {unknown[0]!r}")
    missing = sorted(required.keys() - delta.payload.keys())
    if missing:
        raise ReformError(f"reform delta {delta.kind!r} is missing key {missing[0]!r}")
    values = {}
    for key, raw in delta.payload.items():
        try:
            values[key] = build(types[key], raw, key)
        except ParameterError as exc:
            raise ReformError(f"reform delta {delta.kind!r} has a malformed value for key {key!r}: "
                              f"{exc}") from exc
    return values


def _delta_paths(delta: ReformDelta, rules: RuleSet) -> list[tuple[str, Any]]:
    kind, p = delta.kind, _payload(delta)
    if kind == "ub_grading":
        return [("unemployment.er.grading", p.get("schedule", ()))]
    if kind == "employment_condition_months":
        return [("unemployment.er.condition_months", p["months"])]
    if kind == "remove_extended_er":
        return [("unemployment.er.extended_min_age", None)]
    if kind == "remove_earnings_disregards":
        return [
            ("housing_benefit.general.earnings_disregard", 0.0),
            ("housing_benefit.retiree.earnings_disregard", 0.0),
        ]
    if kind == "income_tax_shift":
        scale = p.get("bracket_scale", 1.0)
        rate_delta = p.get("rate_delta", 0.0)
        brackets = tuple(
            (round(lo * scale, 2), max(0.0, rate + rate_delta))
            for lo, rate in rules.tax.state_brackets
        )
        return [("tax.state_brackets", brackets)]
    if kind == "housing_benefit_replacement":
        out = []
        if "compensation_share" in p:
            out.append(("housing_benefit.general.compensation_share", p["compensation_share"]))
        if "income_deductible_rate" in p:
            out.append(("housing_benefit.general.income_deductible_rate", p["income_deductible_rate"]))
        if not out:
            raise ReformError("housing_benefit_replacement delta carries no fields")
        return out
    if kind == "child_benefit_change":
        new_level = rules.family.child_benefit_monthly + p["delta_monthly"]
        return [("family.child_benefit_monthly", round(new_level, 2))]
    raise AssertionError(f"PAYLOAD_KEYS names {kind!r} but no paths are defined for it")


def apply_reform(base: RuleSet, spec: ReformSpec) -> tuple[RuleSet, list[AuditEntry]]:
    """Patched rule set plus the audit log; the base is left untouched."""
    rules = base
    audit: list[AuditEntry] = []
    for delta in spec.deltas:
        for path, value in _delta_paths(delta, rules):
            old = _get_path(rules, path)
            rules = _set_path(rules, path, value)
            audit.append(AuditEntry(path=path, old=old, new=value))
    validate_ruleset(rules)
    return rules, audit


# -- significance machinery ---------------------------------------------------

@dataclass
class ComparisonRow:
    cell: str
    reform: float
    baseline: float
    difference: float
    pooled_se: float
    threshold: float
    significant: bool


@dataclass
class ComparisonReport:
    confidence: float
    n_baseline: int
    n_reform: int
    rows: list[ComparisonRow]

    def row(self, cell: str) -> ComparisonRow:
        for r in self.rows:
            if r.cell == cell:
                return r
        raise KeyError(cell)

    def significant_cells(self) -> list[str]:
        return [r.cell for r in self.rows if r.significant]


def compare_runs(baseline_reports: list[AggregateReport], reform_reports: list[AggregateReport]) -> ComparisonReport:
    if len(baseline_reports) < 2 or len(reform_reports) < 2:
        raise ReformError("comparison needs at least two repeats per arm")
    return compare_cell_lists([r.cells() for r in baseline_reports],
                              [r.cells() for r in reform_reports])


def compare_cell_lists(base_cells: list[dict[str, float]], ref_cells: list[dict[str, float]]) -> ComparisonReport:
    keys = list(base_cells[0].keys())
    if set(keys) != set(ref_cells[0].keys()):
        raise ReformError("mismatched report shapes between arms")

    z = NormalDist().inv_cdf(CONFIDENCE)
    n_b, n_r = len(base_cells), len(ref_cells)
    rows = []
    for k in keys:
        b = np.array([c[k] for c in base_cells], dtype=float)
        r = np.array([c[k] for c in ref_cells], dtype=float)
        if np.isnan(b).all() or np.isnan(r).all():
            continue
        mean_b, mean_r = nan_mean(b), nan_mean(r)
        sd_b, sd_r = nan_sd(b), nan_sd(r)
        se = float(np.sqrt(sd_r ** 2 / n_r + sd_b ** 2 / n_b))
        diff = mean_r - mean_b
        threshold = z * se
        rows.append(ComparisonRow(
            cell=k, reform=mean_r, baseline=mean_b, difference=diff,
            pooled_se=se, threshold=threshold,
            significant=bool(abs(diff) >= threshold and se > 0),
        ))
    return ComparisonReport(confidence=CONFIDENCE, n_baseline=n_b, n_reform=n_r, rows=rows)
