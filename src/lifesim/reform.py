"""Declarative reform overlays, retrain-and-compare orchestration, and the
significance arithmetic for comparing simulation arms.

A reform is an ordered list of named deltas applied to a rule set through
explicit field paths; the audit log of (path, old, new) makes every
application exactly revertible.  Comparisons report per-cell differences
against the minimal significant difference at the configured confidence.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist
from typing import Any

import numpy as np
import yaml

from .errors import ReformError
from .rules.ruleset import RuleSet, validate_ruleset
from .simulate import AggregateReport, nan_mean, nan_sd

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

IMPLEMENTED_KINDS = frozenset({
    "ub_grading",
    "employment_condition_months",
    "remove_extended_er",
    "remove_earnings_disregards",
    "income_tax_shift",
    "housing_benefit_replacement",
    "child_benefit_change",
})


@dataclass(frozen=True)
class ReformDelta:
    kind: str
    payload: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ReformSpec:
    name: str
    deltas: tuple[ReformDelta, ...]


def load_reform(path: str | Path) -> ReformSpec:
    with open(path) as f:
        doc = yaml.safe_load(f)
    if not isinstance(doc, dict) or "deltas" not in doc:
        raise ReformError(f"reform overlay must be a mapping with 'deltas': {path}")
    deltas = []
    for raw in doc["deltas"]:
        kind = raw.get("kind")
        if kind is None:
            raise ReformError(f"delta without a kind in {path}")
        payload = {k: v for k, v in raw.items() if k != "kind"}
        deltas.append(ReformDelta(kind=kind, payload=payload))
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


def _delta_paths(delta: ReformDelta, rules: RuleSet) -> list[tuple[str, Any]]:
    kind, p = delta.kind, delta.payload
    if kind == "ub_grading":
        schedule = p.get("schedule")
        grading = tuple((int(d), float(m)) for d, m in schedule) if schedule else tuple()
        return [("unemployment.er.grading", grading)]
    if kind == "employment_condition_months":
        return [("unemployment.er.condition_months", int(p["months"]))]
    if kind == "remove_extended_er":
        return [("unemployment.er.extended_min_age", None)]
    if kind == "remove_earnings_disregards":
        return [
            ("housing_general.earnings_disregard", 0.0),
            ("housing_retiree.earnings_disregard", 0.0),
        ]
    if kind == "income_tax_shift":
        scale = float(p.get("bracket_scale", 1.0))
        rate_delta = float(p.get("rate_delta", 0.0))
        brackets = tuple(
            (round(lo * scale, 2), max(0.0, rate + rate_delta))
            for lo, rate in rules.tax.state_brackets
        )
        return [("tax.state_brackets", brackets)]
    if kind == "housing_benefit_replacement":
        out = []
        if "compensation_share" in p:
            out.append(("housing_general.compensation_share", float(p["compensation_share"])))
        if "income_deductible_rate" in p:
            out.append(("housing_general.income_deductible_rate", float(p["income_deductible_rate"])))
        if not out:
            raise ReformError("housing_benefit_replacement delta carries no fields")
        return out
    if kind == "child_benefit_change":
        new_level = rules.family.child_benefit_monthly + float(p["delta_monthly"])
        return [("family.child_benefit_monthly", round(new_level, 2))]
    if kind in RESERVED_UNIMPLEMENTED:
        raise ReformError(f"reform delta {kind!r} is reserved but not implemented in this model")
    raise ReformError(f"unknown reform delta kind {kind!r}")


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


def revert_reform(reformed: RuleSet, audit: list[AuditEntry]) -> RuleSet:
    rules = reformed
    for entry in reversed(audit):
        rules = _set_path(rules, entry.path, entry.old)
    return rules


# -- significance machinery ---------------------------------------------------

def minimal_significant_difference(sd_a: float, sd_b: float, n: int,
                                   confidence: float = 0.99) -> float:
    """Smallest mean difference significant at ``confidence`` (one-sided z)
    for two arms of ``n`` repeats with the given per-arm dispersions."""
    if n < 2:
        raise ReformError("significance needs at least two repeats per arm")
    z = NormalDist().inv_cdf(confidence)
    return z * float(np.sqrt((sd_a ** 2 + sd_b ** 2) / n))


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


def compare_runs(
    baseline_reports: list[AggregateReport],
    reform_reports: list[AggregateReport],
    confidence: float = 0.99,
) -> ComparisonReport:
    if len(baseline_reports) < 2 or len(reform_reports) < 2:
        raise ReformError("comparison needs at least two repeats per arm")
    return compare_cell_lists([r.cells() for r in baseline_reports],
                              [r.cells() for r in reform_reports], confidence)


def compare_cell_lists(
    base_cells: list[dict[str, float]],
    ref_cells: list[dict[str, float]],
    confidence: float = 0.99,
) -> ComparisonReport:
    keys = list(base_cells[0].keys())
    if set(keys) != set(ref_cells[0].keys()):
        raise ReformError("mismatched report shapes between arms")

    z = NormalDist().inv_cdf(confidence)
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
    return ComparisonReport(confidence=confidence, n_baseline=n_b, n_reform=n_r, rows=rows)


def paired_one_sided_pvalue(diffs: np.ndarray, alternative: str = "less") -> float:
    """Paired t-test p-value on per-pair differences.

    ``alternative='less'`` tests mean(diff) < 0, ``'greater'`` the opposite.
    Used by the directional checks on paired-seed repeats.
    """
    diffs = np.asarray(diffs, dtype=float)
    n = diffs.size
    if n < 2:
        raise ReformError("paired test needs at least two pairs")
    mean = diffs.mean()
    se = diffs.std(ddof=1) / np.sqrt(n)
    if se == 0:
        hit = mean < 0 if alternative == "less" else mean > 0
        return 0.0 if hit else 1.0
    t = mean / se
    if alternative == "less":
        return _t_sf(-t, n - 1)
    if alternative == "greater":
        return _t_sf(t, n - 1)
    raise ReformError(f"unknown alternative {alternative!r}")


def _t_sf(t: float, df: int) -> float:
    """Survival function of Student's t via numerical integration."""
    # integrate the density from t to a large bound
    from math import gamma, pi, sqrt

    norm = gamma((df + 1) / 2) / (sqrt(df * pi) * gamma(df / 2))

    def pdf(x: float) -> float:
        return norm * (1.0 + x * x / df) ** (-(df + 1) / 2)

    lo, hi = t, max(t + 60.0, 60.0)
    xs = np.linspace(lo, hi, 20001)
    ys = np.array([pdf(x) for x in xs])
    return float(np.trapezoid(ys, xs))
