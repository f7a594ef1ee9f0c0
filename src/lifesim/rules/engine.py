"""Pure rules engine: household snapshot -> quarterly cash flows.

Everything here is a total function of (snapshot, rule set); no hidden state,
safe for concurrent use.  Euro flows are per quarter unless a name says
otherwise.  Evaluation order inside :func:`net_income`:

    gross wage -> taxes and contributions (on wage income only)
    -> primary benefits (unemployment, pensions, sickness, parental,
       student, child, home care)
    -> housing benefit
    -> social assistance (residual guarantee)
    -> VAT on consumption above rent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import reduce
from operator import add, attrgetter

from ..errors import ContractViolation
from ..states import (
    EmploymentState as S,
    LEAVE_STATES,
    PENSION_STATES,
    RETIRED_STATES,
    WORKING_STATES,
)
from .ruleset import (
    BENEFIT_DAYS_PER_QUARTER,
    MONTHS_PER_QUARTER,
    RuleSet,
)

# The states that net_income's per-adult branches test, bound once: looking a
# member up on the enum class costs several times the test that uses it.
_DEAD, _ER_EXTENDED, _BASIC_UNEMPLOYED, _SICK_LEAVE, _HOME_CARE, _STUDENT = (
    S.DEAD, S.ER_EXTENDED, S.BASIC_UNEMPLOYED, S.SICK_LEAVE, S.HOME_CARE, S.STUDENT)
_ER_STATES = frozenset({S.ER_UNEMPLOYED, S.ER_EXTENDED})


@dataclass(slots=True)
class AdultSnapshot:
    """One adult's benefit-relevant state for a single quarter.

    ``age`` is carried for callers; the rules do not read it, so two
    snapshots that differ only in age price alike.
    """

    state: S
    wage_quarterly: float = 0.0     # paid gross wage this quarter
    age: float = 40.0
    ub_basis_monthly: float = 0.0   # earnings-related benefit basis
    ub_days_used: float = 0.0
    ub_max_days: float = 400.0
    fund_member: bool = False
    pension_paid_monthly: float = 0.0    # earnings-related pension in payment
    pension_accrued_monthly: float = 0.0
    partial_early_monthly: float = 0.0   # partial early old-age draw
    wage_basis_monthly: float = 0.0      # previous wage, for sickness/parental


@dataclass(slots=True)
class HouseholdSnapshot:
    adults: tuple[AdultSnapshot, ...]
    children_under3: int = 0
    children_under7: int = 0
    children_under18: int = 0
    partnered: bool = False
    rent_monthly: float = 650.0

    def validate(self) -> None:
        if not (0 <= self.children_under3 <= self.children_under7 <= self.children_under18):
            raise ContractViolation("children band counts must nest: <3 <= <7 <= <18")
        for a in self.adults:
            if a.wage_quarterly < 0 or a.ub_days_used < 0:
                raise ContractViolation("wage and benefit days must be non-negative")


# Flow names grouped by role in the budget identity.
TAX_FIELDS = ("state_tax", "municipal_tax", "yle_tax", "daycare_fee")
CONTRIB_FIELDS = (
    "pension_contrib",
    "unemployment_contrib",
    "health_medical_contrib",
    "health_daily_contrib",
)
BENEFIT_FIELDS = (
    "ub_er",
    "ub_basic",
    "pension_er",
    "pension_basic",
    "pension_guarantee",
    "survivor_pension",
    "sickness_benefit",
    "parental_benefit",
    "home_care_benefit",
    "student_benefit",
    "child_benefit",
    "housing_benefit",
    "social_assistance",
)
# The CashFlows totals add left to right in field order: ``sum`` compensates
# rounding on Python 3.12+, which would change net income in the last bit.
_taxes = attrgetter(*TAX_FIELDS)
_contribs = attrgetter(*CONTRIB_FIELDS)
_benefits = attrgetter(*BENEFIT_FIELDS)
_CHARGE_FIELDS = TAX_FIELDS + CONTRIB_FIELDS
_charges = attrgetter(*_CHARGE_FIELDS)


@dataclass(slots=True)
class CashFlows:
    """Quarterly household cash flows; all amounts EUR/quarter, >= 0."""

    gross_wage: float = 0.0
    state_tax: float = 0.0
    municipal_tax: float = 0.0
    yle_tax: float = 0.0
    daycare_fee: float = 0.0
    pension_contrib: float = 0.0
    unemployment_contrib: float = 0.0
    health_medical_contrib: float = 0.0
    health_daily_contrib: float = 0.0
    employer_contrib: float = 0.0   # reported, not part of net
    ub_er: float = 0.0
    ub_basic: float = 0.0
    pension_er: float = 0.0
    pension_basic: float = 0.0
    pension_guarantee: float = 0.0
    survivor_pension: float = 0.0
    sickness_benefit: float = 0.0
    parental_benefit: float = 0.0
    home_care_benefit: float = 0.0
    student_benefit: float = 0.0
    child_benefit: float = 0.0
    housing_benefit: float = 0.0
    social_assistance: float = 0.0
    net_income: float = 0.0
    vat: float = 0.0
    consumption: float = 0.0
    rent: float = 0.0
    adult_wages: tuple[float, ...] = field(default_factory=tuple)

    def taxes_total(self) -> float:
        return reduce(add, _taxes(self))

    def contribs_total(self) -> float:
        return reduce(add, _contribs(self))

    def benefits_total(self) -> float:
        return reduce(add, _benefits(self))


# Taxes and contributions on one wage, in the order :func:`_wage_taxes`
# returns them.
_WAGE_TAX_NAMES = TAX_FIELDS[:3] + CONTRIB_FIELDS + ("employer_contrib",)


def _wage_taxes(gross_annual: float, rules: RuleSet) -> tuple[float, ...]:
    """Taxes and contributions on annual wage income, EUR/yr, in
    ``_WAGE_TAX_NAMES`` order."""
    tax = rules.tax
    taxable = max(0.0, gross_annual - tax.standard_deduction)

    state = 0.0
    brackets = tax.state_brackets
    for i, (lo, rate) in enumerate(brackets):
        if not taxable > lo:
            break
        hi = brackets[i + 1][0] if i + 1 < len(brackets) else math.inf
        state += rate * (min(taxable, hi) - lo)

    municipal = tax.municipal_rate * taxable
    yle = min(tax.yle.cap, tax.yle.rate * max(0.0, gross_annual - tax.yle.floor))

    ec = rules.contributions.employee
    return (state, municipal, yle, ec.pension * gross_annual, ec.unemployment * gross_annual,
            ec.health_medical * gross_annual, ec.health_daily * gross_annual,
            rules.contributions.employer.total_rate * gross_annual)


def taxes_and_contributions(gross_annual: float, rules: RuleSet) -> dict[str, float]:
    """Taxes and contributions on annual wage income, EUR/yr."""
    if gross_annual < 0:
        raise ContractViolation("gross income must be non-negative")
    return dict(zip(_WAGE_TAX_NAMES, _wage_taxes(gross_annual, rules)))


def er_daily_level(basis_monthly: float, rules: RuleSet) -> float:
    """Earnings-related daily benefit from the replacement schedule."""
    er = rules.unemployment.er
    base = rules.unemployment.basic_daily
    daily_wage = basis_monthly / er.days_per_month
    excess = max(0.0, daily_wage - base)
    break_daily = max(0.0, er.breakpoint_monthly / er.days_per_month - base)
    level = base + er.rate_low * min(excess, break_daily) + er.rate_high * max(0.0, excess - break_daily)
    return level


def grading_multiplier(days_used: float, rules: RuleSet) -> float:
    mult = 1.0
    for from_day, m in rules.unemployment.er.grading:
        if days_used >= from_day:
            mult = m
    return mult


def unemployment_benefit(
    basis_monthly: float,
    days_used: float,
    fund_member: bool,
    rules: RuleSet,
    max_days: float | None = None,
) -> float:
    """Daily unemployment benefit, EUR/day.

    Earnings-related when the claimant is a fund member with entitlement days
    left; the basic allowance otherwise.  Grading multiplies the ER level by
    the step for ``days_used`` and never grades below the basic level.
    """
    if basis_monthly < 0 or days_used < 0:
        raise ContractViolation("benefit basis and days used must be non-negative")
    basic = rules.unemployment.basic_daily
    if max_days is None:
        max_days = float(rules.unemployment.er.max_days_default)
    if not fund_member or days_used >= max_days:
        return basic
    level = er_daily_level(basis_monthly, rules) * grading_multiplier(days_used, rules)
    return max(level, basic)


def entitlement_days(career_years: float, age: float, rules: RuleSet) -> int:
    """ER entitlement (300/400/500 days) from career length and age at onset."""
    er = rules.unemployment.er
    if career_years < er.short_career_years:
        return er.short_career_days
    if age >= er.senior_age and career_years >= er.senior_career_years:
        return er.senior_days
    return er.max_days_default


def pension_benefit(accrued_er_monthly: float, rules: RuleSet) -> dict[str, float]:
    """Monthly pension split: earnings-related, basic, guarantee top-up."""
    if accrued_er_monthly < 0:
        raise ContractViolation("accrued pension must be non-negative")
    bp = rules.pension.basic_pension
    if accrued_er_monthly >= bp.cutoff:
        basic = 0.0
    else:
        basic = max(0.0, bp.full - bp.taper * accrued_er_monthly)
    total = accrued_er_monthly + basic
    guarantee = max(0.0, rules.pension.guarantee_level - total)
    return {"er": accrued_er_monthly, "basic": basic, "guarantee": guarantee}


def _household_size(n_alive: int, children_under18: int) -> int:
    return max(1, n_alive + children_under18)


def housing_benefit(hh: HouseholdSnapshot, income_monthly: float, rules: RuleSet,
                    n_alive: int, retired: bool) -> float:
    """General or retiree housing benefit, EUR/mo.

    ``income_monthly`` is the household's benefit-relevant gross income with
    per-earner disregards already applied by the caller via
    :func:`housing_income`.  ``n_alive`` counts the unit's living adults;
    ``retired`` says whether any of them is retired, which selects the
    retiree schedule.
    """
    if hh.rent_monthly <= 0:
        raise ContractViolation("housing benefit requires positive rent")
    sched = rules.housing_benefit.retiree if retired else rules.housing_benefit.general
    size = _household_size(n_alive, hh.children_under18)
    accepted_rent = min(hh.rent_monthly, sched.max_rent_by_size[min(size, len(sched.max_rent_by_size)) - 1])
    threshold = sched.income_base + sched.per_adult * n_alive + sched.per_child * hh.children_under18
    deductible = max(0.0, sched.income_deductible_rate * (income_monthly - threshold))
    benefit = sched.compensation_share * (accepted_rent - deductible)
    return min(max(0.0, benefit), hh.rent_monthly)


def housing_income(gross_wages_monthly: list[float], other_monthly: float, rules: RuleSet,
                   retired: bool) -> float:
    sched = rules.housing_benefit.retiree if retired else rules.housing_benefit.general
    wages = sum(max(0.0, w - sched.earnings_disregard) for w in gross_wages_monthly if w > 0)
    return wages + other_monthly


def social_assistance(
    hh: HouseholdSnapshot,
    net_wages_monthly: list[float],
    other_net_monthly: float,
    rules: RuleSet,
    n_alive: int,
) -> float:
    """Residual guarantee benefit, EUR/mo.

    Countable income = net wages beyond the per-earner disregard plus all
    other net income (benefits included).  The benefit tops the household up
    to norm + rent; ``n_alive`` living adults set the adult norm.
    """
    if other_net_monthly < 0:
        raise ContractViolation("other net income must be non-negative")
    sa = rules.social_assistance
    n_adults = max(1, n_alive)
    if n_adults == 1:
        norm = sa.norm_single
        if hh.children_under18 > 0:
            norm += sa.single_parent_supplement
    else:
        norm = sa.norm_couple_each * n_adults
    young = hh.children_under7
    older = hh.children_under18 - hh.children_under7
    norm += sa.norm_child_under7 * young + sa.norm_child_7_17 * older

    countable = sum(max(0.0, w - sa.earnings_disregard) for w in net_wages_monthly if w > 0)
    countable += other_net_monthly
    return max(0.0, norm + hh.rent_monthly - countable)


def _daycare_fee_monthly(hh: HouseholdSnapshot, gross_monthly: float, rules: RuleSet,
                         all_working: bool) -> float:
    """Daycare fee, EUR/mo.  Children are in daycare only when every adult
    in the household works: ``all_working`` says that the unit has a living
    adult and that each living adult works."""
    dc = rules.family.daycare
    if not all_working or hh.children_under7 == 0:
        return 0.0
    base = min(dc.fee_cap_monthly, max(0.0, dc.rate * (gross_monthly - dc.income_threshold_monthly)))
    if base <= 0:
        return 0.0
    fee = base
    for _ in range(1, hh.children_under7):
        fee += base * dc.sibling_share
    return fee


def net_income(hh: HouseholdSnapshot, rules: RuleSet) -> CashFlows:
    """Quarterly cash flows for one household snapshot.

    The budget identity ``net = gross + benefits - taxes - contributions``
    holds exactly; the social-assistance residual keeps net income at or
    above the household norm.  One pass over the adults prices each of them
    and collects what the household-level benefits need: the living-adult
    count, whether any living adult is retired, and whether every living
    adult works.  ``AdultSnapshot.age`` is not read.
    """
    hh.validate()
    cf = CashFlows(rent=hh.rent_monthly * MONTHS_PER_QUARTER)

    fam = rules.family
    adult_wages: list[float] = []
    net_wages_monthly: list[float] = []
    gross_wages_monthly: list[float] = []
    other_benefits_monthly = 0.0
    dead_accruals: list[float] = []
    n_alive = 0
    retired = False      # some living adult is retired
    all_working = True   # every living adult works

    for a in hh.adults:
        st = a.state
        if st == _DEAD:
            adult_wages.append(0.0)
            dead_accruals.append(a.pension_accrued_monthly)
            continue
        n_alive += 1
        if st in RETIRED_STATES:
            retired = True
        if st not in WORKING_STATES:
            all_working = False

        wage_q = a.wage_quarterly
        adult_wages.append(wage_q)
        cf.gross_wage += wage_q
        if wage_q:
            state_a, muni_a, yle_a, pens_a, unemp_a, hmed_a, hday_a, employer_a = _wage_taxes(wage_q * 4.0, rules)
            state_q = state_a / 4.0
            muni_q = muni_a / 4.0
            yle_q = yle_a / 4.0
            pens_q = pens_a / 4.0
            unemp_q = unemp_a / 4.0
            hmed_q = hmed_a / 4.0
            hday_q = hday_a / 4.0
            cf.state_tax += state_q
            cf.municipal_tax += muni_q
            cf.yle_tax += yle_q
            cf.pension_contrib += pens_q
            cf.unemployment_contrib += unemp_q
            cf.health_medical_contrib += hmed_q
            cf.health_daily_contrib += hday_q
            cf.employer_contrib += employer_a / 4.0
            net_wage_q = wage_q - (state_q + muni_q + yle_q + pens_q + unemp_q + hmed_q + hday_q)
            net_wages_monthly.append(net_wage_q / MONTHS_PER_QUARTER)
            gross_wages_monthly.append(wage_q / MONTHS_PER_QUARTER)
        else:
            # Every tax and contribution on a zero wage is +0.0 (the rule-set
            # validation keeps the deduction, the YLE floor and cap and the
            # bracket bounds non-negative), and adding it would leave every
            # accumulator as it is.
            net_wages_monthly.append(0.0)
            gross_wages_monthly.append(0.0)

        # Primary benefits by employment state.
        if st in _ER_STATES:
            if st is _ER_EXTENDED:
                # Extended benefit keeps the ER level past normal exhaustion.
                daily = er_daily_level(a.ub_basis_monthly, rules) * grading_multiplier(a.ub_days_used, rules)
                daily = max(daily, rules.unemployment.basic_daily)
                is_er = True
            else:
                is_er = a.fund_member and a.ub_days_used < a.ub_max_days
                daily = unemployment_benefit(a.ub_basis_monthly, a.ub_days_used, a.fund_member, rules, a.ub_max_days)
            amount = daily * BENEFIT_DAYS_PER_QUARTER
            if is_er:
                cf.ub_er += amount
            else:
                cf.ub_basic += amount
            other_benefits_monthly += amount / MONTHS_PER_QUARTER
        elif st is _BASIC_UNEMPLOYED:
            amount = rules.unemployment.basic_daily * BENEFIT_DAYS_PER_QUARTER
            cf.ub_basic += amount
            other_benefits_monthly += amount / MONTHS_PER_QUARTER
        elif st in PENSION_STATES:
            parts = pension_benefit(a.pension_paid_monthly, rules)
            cf.pension_er += parts["er"] * MONTHS_PER_QUARTER
            cf.pension_basic += parts["basic"] * MONTHS_PER_QUARTER
            cf.pension_guarantee += parts["guarantee"] * MONTHS_PER_QUARTER
            other_benefits_monthly += parts["er"] + parts["basic"] + parts["guarantee"]
        elif st is _SICK_LEAVE:
            amount = fam.sickness_replacement * a.wage_basis_monthly * MONTHS_PER_QUARTER
            cf.sickness_benefit += amount
            other_benefits_monthly += amount / MONTHS_PER_QUARTER
        elif st in LEAVE_STATES:
            amount = fam.parental_replacement * a.wage_basis_monthly * MONTHS_PER_QUARTER
            cf.parental_benefit += amount
            other_benefits_monthly += amount / MONTHS_PER_QUARTER
        elif st is _HOME_CARE:
            amount = fam.home_care_allowance_monthly * MONTHS_PER_QUARTER
            cf.home_care_benefit += amount
            other_benefits_monthly += amount / MONTHS_PER_QUARTER
        elif st is _STUDENT:
            amount = fam.student_allowance_monthly * MONTHS_PER_QUARTER
            cf.student_benefit += amount
            other_benefits_monthly += amount / MONTHS_PER_QUARTER

        # Partial early old-age pension can run alongside non-pension states.
        if a.partial_early_monthly > 0 and st not in PENSION_STATES:
            cf.pension_er += a.partial_early_monthly * MONTHS_PER_QUARTER
            other_benefits_monthly += a.partial_early_monthly

    cf.adult_wages = tuple(adult_wages)

    # Survivor's pension from a deceased partner's accrual.
    if dead_accruals and n_alive:
        monthly = rules.pension.survivor_share * max(dead_accruals)
        cf.survivor_pension = monthly * MONTHS_PER_QUARTER
        other_benefits_monthly += monthly

    if n_alive and hh.children_under18 > 0:
        monthly = fam.child_benefit_monthly * hh.children_under18
        if n_alive == 1:
            monthly += fam.child_benefit_single_parent_supplement
        cf.child_benefit = monthly * MONTHS_PER_QUARTER
        other_benefits_monthly += monthly

    if n_alive:
        gross_monthly_total = sum(gross_wages_monthly)
        cf.daycare_fee = _daycare_fee_monthly(hh, gross_monthly_total, rules, all_working) * MONTHS_PER_QUARTER

        hb_income = housing_income(gross_wages_monthly, other_benefits_monthly, rules, retired)
        hb_monthly = housing_benefit(hh, hb_income, rules, n_alive, retired)
        cf.housing_benefit = hb_monthly * MONTHS_PER_QUARTER

        other_net_monthly = other_benefits_monthly + hb_monthly - cf.daycare_fee / MONTHS_PER_QUARTER
        sa_monthly = social_assistance(hh, net_wages_monthly, max(0.0, other_net_monthly), rules, n_alive)
        cf.social_assistance = sa_monthly * MONTHS_PER_QUARTER

    cf.net_income = cf.gross_wage + cf.benefits_total() - cf.taxes_total() - cf.contribs_total()
    cf.vat = rules.tax.vat_rate * max(0.0, cf.net_income - cf.rent)
    cf.consumption = cf.net_income - cf.vat
    return cf


def emtr(hh: HouseholdSnapshot, rules: RuleSet, delta_monthly: float = 100.0, adult: int = 0) -> dict[str, float]:
    """Effective marginal tax rate by perturbing one adult's wage.

    Returns the total plus a per-instrument decomposition whose values sum to
    the total exactly (taxes and contributions enter positively, benefit
    withdrawals as their negative change).
    """
    if delta_monthly <= 0:
        raise ContractViolation("perturbation must be positive")
    base = net_income(hh, rules)
    bumped = _with_wage_bump(hh, adult, delta_monthly * MONTHS_PER_QUARTER)
    after = net_income(bumped, rules)

    dq = delta_monthly * MONTHS_PER_QUARTER
    parts = {name: (x - x0) / dq for name, x, x0 in zip(_CHARGE_FIELDS, _charges(after), _charges(base))}
    for name, x, x0 in zip(BENEFIT_FIELDS, _benefits(after), _benefits(base)):
        parts[name] = -(x - x0) / dq
    parts["total"] = 1.0 - (after.net_income - base.net_income) / dq
    return parts


_ADULT_FIELDS = tuple(f.name for f in fields(AdultSnapshot))
_HOUSEHOLD_FIELDS = tuple(f.name for f in fields(HouseholdSnapshot))
_adult_values = attrgetter(*_ADULT_FIELDS)
_household_values = attrgetter(*_HOUSEHOLD_FIELDS)
_WAGE = _ADULT_FIELDS.index("wage_quarterly")
_ADULTS = _HOUSEHOLD_FIELDS.index("adults")


def _with_wage_bump(hh: HouseholdSnapshot, adult: int, bump_quarterly: float) -> HouseholdSnapshot:
    """``hh`` with ``bump_quarterly`` added to adult ``adult``'s quarterly
    wage, every other field as it is: both snapshots are rebuilt
    positionally from their fields in declaration order."""
    adults = list(hh.adults)
    values = list(_adult_values(adults[adult]))
    values[_WAGE] += bump_quarterly
    adults[adult] = AdultSnapshot(*values)
    values = list(_household_values(hh))
    values[_ADULTS] = tuple(adults)
    return HouseholdSnapshot(*values)


def ptr(employed: HouseholdSnapshot, unemployed: HouseholdSnapshot, rules: RuleSet) -> float:
    """Participation tax rate between an employed and a counterfactual
    unemployed snapshot of the same household."""
    gross = sum(a.wage_quarterly for a in employed.adults if a.state != _DEAD)
    if gross <= 0:
        raise ContractViolation("participation tax rate requires positive gross wage")
    net_e = net_income(employed, rules).net_income
    net_u = net_income(unemployed, rules).net_income
    return 1.0 - (net_e - net_u) / gross
