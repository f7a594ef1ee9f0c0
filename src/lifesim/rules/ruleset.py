"""Rule-set schema: year-indexed tax, contribution and benefit parameters.

The :class:`RuleSet` dataclass tree is the schema of the ``rules_*.yaml``
files: each mapping in a file is one dataclass and each key one field of the
same name, so a reform overlay addresses a parameter by the same dotted path
(``housing_benefit.general.earnings_disregard``) in the file and in the tree.
:func:`ruleset_from_mapping` builds the tree with :func:`lifesim.paramfiles.build`,
which rejects a missing key, an unknown key or a value of the wrong type by
its path.

A :class:`RuleSet` is an immutable snapshot of the institutional environment.
Reform overlays produce patched copies; nothing here mutates in place.  Each
rule set carries the values the rules engine derives from it
(:class:`PricingConstants`), computed from its own fields when it is created,
so a copy made by a reform or by ``dataclasses.replace`` derives its own and a
pickled rule set takes them along.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any

from ..errors import ParameterError
from ..paramfiles import build, load_yaml

MONTHS_PER_QUARTER = 3
# 5 benefit days per week, 13 weeks per quarter.
BENEFIT_DAYS_PER_QUARTER = 65


@dataclass(frozen=True, slots=True)
class YleRules:
    rate: float
    floor: float
    cap: float


@dataclass(frozen=True, slots=True)
class TaxRules:
    state_brackets: tuple[tuple[float, float], ...]  # (lower bound EUR/yr, marginal rate)
    municipal_rate: float
    standard_deduction: float
    yle: YleRules
    vat_rate: float


@dataclass(frozen=True, slots=True)
class EmployeeContrib:
    pension: float
    unemployment: float
    health_medical: float
    health_daily: float

    @property
    def total_rate(self) -> float:
        return self.pension + self.unemployment + self.health_medical + self.health_daily


@dataclass(frozen=True, slots=True)
class EmployerContrib:
    pension: float
    health: float
    unemployment: float
    accident: float

    @property
    def total_rate(self) -> float:
        return self.pension + self.health + self.unemployment + self.accident


@dataclass(frozen=True, slots=True)
class Contributions:
    employee: EmployeeContrib
    employer: EmployerContrib


@dataclass(frozen=True, slots=True)
class ErBenefitRules:
    days_per_month: float
    rate_low: float
    rate_high: float
    breakpoint_monthly: float
    max_days_default: int
    short_career_days: int
    short_career_years: float
    senior_days: int
    senior_age: float
    senior_career_years: float
    condition_months: int
    condition_window_quarters: int
    # Grading: ordered (from-day, multiplier) steps; empty means no grading.
    grading: tuple[tuple[int, float], ...]
    extended_min_age: float | None


@dataclass(frozen=True, slots=True)
class UnemploymentRules:
    basic_daily: float
    er: ErBenefitRules


@dataclass(frozen=True, slots=True)
class BasicPensionRules:
    full: float
    taper: float
    cutoff: float


@dataclass(frozen=True, slots=True)
class PartialEarlyRules:
    min_age: float
    reduction_per_year: float


@dataclass(frozen=True, slots=True)
class PensionRules:
    accrual_rate: float
    life_expectancy_coefficient: float
    basic_pension: BasicPensionRules
    guarantee_level: float
    min_retirement_age: float
    max_insured_age: float
    partial_early: PartialEarlyRules
    survivor_share: float


@dataclass(frozen=True, slots=True)
class HousingBenefitSchedule:
    compensation_share: float
    income_deductible_rate: float
    income_base: float
    per_adult: float
    per_child: float
    earnings_disregard: float
    max_rent_by_size: tuple[float, ...]


@dataclass(frozen=True, slots=True)
class HousingBenefitRules:
    general: HousingBenefitSchedule
    retiree: HousingBenefitSchedule


@dataclass(frozen=True, slots=True)
class SocialAssistanceRules:
    norm_single: float
    norm_couple_each: float
    norm_child_under7: float
    norm_child_7_17: float
    single_parent_supplement: float
    earnings_disregard: float


@dataclass(frozen=True, slots=True)
class DaycareRules:
    rate: float
    income_threshold_monthly: float
    fee_cap_monthly: float
    sibling_share: float


@dataclass(frozen=True, slots=True)
class FamilyRules:
    child_benefit_monthly: float
    child_benefit_single_parent_supplement: float
    home_care_allowance_monthly: float
    parental_replacement: float
    sickness_replacement: float
    student_allowance_monthly: float
    daycare: DaycareRules


@dataclass(frozen=True, slots=True)
class RuleSet:
    year: int
    tax: TaxRules
    contributions: Contributions
    unemployment: UnemploymentRules
    pension: PensionRules
    housing_benefit: HousingBenefitRules
    social_assistance: SocialAssistanceRules
    family: FamilyRules
    rent_table: tuple[float, ...]
    # Derived from the fields above; not a key of the rule files.
    pricing: PricingConstants = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pricing", PricingConstants(self))

    def rent_for_size(self, size: int) -> float:
        idx = min(max(size, 1), len(self.rent_table)) - 1
        return self.rent_table[idx]


class PricingConstants:
    """The values the rules engine derives from a :class:`RuleSet`, once,
    with the same float operations it applied on every call before: the
    state-tax bracket sums, the employer contribution rate, and the fixed
    benefit amounts per quarter and per month.

    ``bracket_below[j]`` is the state tax on an income that fills brackets
    ``0 .. j-1``, added bracket by bracket from 0.0, so the tax on a taxable
    income in bracket ``j`` is ``bracket_below[j]`` plus that bracket's
    term: the sum the bracket loop builds, term for term.
    """

    __slots__ = ("bracket_lows", "bracket_rates", "bracket_below", "employer_rate", "er_max_days",
                 "basic_quarterly", "basic_monthly", "home_care_quarterly", "home_care_monthly",
                 "student_quarterly", "student_monthly")

    def __init__(self, rs: RuleSet) -> None:
        brackets = rs.tax.state_brackets
        self.bracket_lows = tuple(lo for lo, _ in brackets)
        self.bracket_rates = tuple(rate for _, rate in brackets)
        below = [0.0]
        for (lo, rate), (hi, _) in zip(brackets, brackets[1:]):
            below.append(below[-1] + rate * (hi - lo))
        self.bracket_below = tuple(below)
        self.employer_rate = rs.contributions.employer.total_rate
        self.er_max_days = float(rs.unemployment.er.max_days_default)
        self.basic_quarterly = rs.unemployment.basic_daily * BENEFIT_DAYS_PER_QUARTER
        self.basic_monthly = self.basic_quarterly / MONTHS_PER_QUARTER
        self.home_care_quarterly = rs.family.home_care_allowance_monthly * MONTHS_PER_QUARTER
        self.home_care_monthly = self.home_care_quarterly / MONTHS_PER_QUARTER
        self.student_quarterly = rs.family.student_allowance_monthly * MONTHS_PER_QUARTER
        self.student_monthly = self.student_quarterly / MONTHS_PER_QUARTER


def _rates_in_unit_interval(obj: Any, path: str, problems: list[str]) -> None:
    """Collect any rate-like field outside [0, 1]."""
    if is_dataclass(obj):
        for f in fields(obj):
            _rates_in_unit_interval(getattr(obj, f.name), f"{path}.{f.name}", problems)
    elif isinstance(obj, float) and ("rate" in path.split(".")[-1] or path.endswith("share")):
        if not 0.0 <= obj <= 1.0:
            problems.append(f"{path} = {obj} outside [0, 1]")


def validate_ruleset(rs: RuleSet) -> None:
    problems: list[str] = []
    _rates_in_unit_interval(rs, "ruleset", problems)

    bounds = [lo for lo, _ in rs.tax.state_brackets]
    if sorted(set(bounds)) != bounds:
        problems.append("state bracket bounds must be strictly increasing")
    # Together with the unit-interval rates, this makes every tax on a zero
    # wage exactly zero, which lets the engine skip taxing a zero wage.
    tax = rs.tax
    if min([tax.standard_deduction, tax.yle.floor, tax.yle.cap, *bounds[:1]]) < 0:
        problems.append("standard deduction, YLE floor and cap, and state bracket bounds must be non-negative")

    grading = rs.unemployment.er.grading
    if grading:
        days = [d for d, _ in grading]
        mults = [m for _, m in grading]
        if days != sorted(set(days)):
            problems.append("grading day thresholds must be strictly increasing")
        if any(b > a for a, b in zip(mults, mults[1:])):
            problems.append("grading multipliers must be non-increasing")
        if any(not 0.0 < m <= 1.0 for m in mults):
            problems.append("grading multipliers must lie in (0, 1]")

    if rs.pension.basic_pension.cutoff <= 0:
        problems.append("basic pension cutoff must be positive")
    if not 0.0 < rs.pension.life_expectancy_coefficient <= 1.0:
        problems.append("life expectancy coefficient outside (0, 1]")
    if not rs.rent_table:
        problems.append("rent table is empty")

    if problems:
        raise ParameterError("invalid rule set: " + "; ".join(problems))


def ruleset_from_mapping(doc: dict[str, Any]) -> RuleSet:
    rs = build(RuleSet, doc)
    validate_ruleset(rs)
    return rs


def load_ruleset(path: str | Path) -> RuleSet:
    return ruleset_from_mapping(load_yaml(path))
