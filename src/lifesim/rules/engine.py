"""Pure rules engine: a budget unit's adults -> quarterly cash flows.

Everything here is a total function of (unit, rule set); no hidden state,
safe for concurrent use.  Euro flows are per quarter unless a name says
otherwise.

:func:`price_unit` is the scalar pricing core.  It takes one plain row per
adult (the fields of :class:`AdultSnapshot` as a tuple, in declaration
order), the unit's child bands and its rent, and the rule set, whose
``pricing`` holds the values each rule set derives once from its own fields
(:class:`~lifesim.rules.ruleset.PricingConstants`: the state-tax bracket
sums, so the tax is one bisect plus one bracket term; the employer rate; the
fixed benefit amounts; and, for the column pricer, the same as arrays with
the earnings disregards and the housing-benefit rent caps).  It accumulates
every flow in locals and builds the :class:`CashFlows` once.
:func:`price_units` is the same core on columns: many units at once, from
per-adult :class:`AdultColumns` and each unit's adult rows, child bands and
rent, into one matrix with a row per unit and a column per
:data:`FLOW_COLUMNS` field, bit for bit what ``price_unit`` gives.
Two paths price:

* the snapshot API, :func:`net_income` (and :func:`emtr`, :func:`ptr`),
  prices one :class:`HouseholdSnapshot` through ``price_unit``, where a
  numpy batch of one would cost several times more; ``emtr`` adds its wage
  bump inside the priced row;
* the environment prices budget units through ``price_units``, straight
  from a block's columns: ``PricingLedger`` the units of one or many
  recorded quarters at once.

The public helpers (:func:`unemployment_benefit`, :func:`er_daily_level`,
:func:`grading_multiplier`, :func:`entitlement_days`) are functions the
scalar core and the environment call.  ``price_units`` calls the same
functions for the earnings-related and pension benefits
(``unemployment_benefit``, ``_pension_parts``) and writes the other
formulas again on columns; ``tests/test_engine_oracle.py`` holds the two
cores to the same bits.
Evaluation order in both:

    gross wage -> taxes and contributions (on wage income only)
    -> primary benefits (unemployment, pensions, sickness, parental,
       student, child, home care)
    -> housing benefit
    -> social assistance (residual guarantee)
    -> VAT on consumption above rent.

The core writes ``max(a, b)`` as ``b if b > a else a`` and ``min(a, b)`` as
``b if b < a else a``: the builtins return the same operand (the first
unless the second is strictly greater, or smaller), and a call to either
costs several times the comparison.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, fields
from functools import reduce
from operator import add, attrgetter
from typing import NamedTuple

import numpy as np

from ..errors import ContractViolation
from ..states import (
    IS_PENSION,
    EmploymentState as S,
    LEAVE_STATES,
    PENSION_STATES,
    RETIRED_STATES,
    WORKING_STATES,
    state_flags,
)
from .ruleset import (
    BENEFIT_DAYS_PER_QUARTER,
    MONTHS_PER_QUARTER,
    DaycareRules,
    HousingBenefitSchedule,
    RuleSet,
    SocialAssistanceRules,
)

# The states that price_unit's per-adult branches test, bound once: looking a
# member up on the enum class costs several times the test that uses it.
_DEAD, _ER_EXTENDED, _BASIC_UNEMPLOYED, _SICK_LEAVE, _HOME_CARE, _STUDENT = (
    S.DEAD, S.ER_EXTENDED, S.BASIC_UNEMPLOYED, S.SICK_LEAVE, S.HOME_CARE, S.STUDENT)
_ER_STATES = frozenset({S.ER_UNEMPLOYED, S.ER_EXTENDED})
# The monthly wage raise over which an effective marginal tax rate is taken.
EMTR_DELTA_MONTHLY = 100.0


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
        _check_unit(list(map(_adult_row, self.adults)), self.children_under3, self.children_under7,
                    self.children_under18)


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


def _wage_charges(gross_annual: float, rules: RuleSet) -> tuple[float, ...]:
    """Taxes and contributions on annual wage income, EUR/yr: the first
    three ``TAX_FIELDS``, the ``CONTRIB_FIELDS``, then the employer's
    contribution.  The state tax is the sum of the brackets
    below the taxable income's bracket plus that bracket's term."""
    tax = rules.tax
    p = rules.pricing
    taxable = gross_annual - tax.standard_deduction
    taxable = taxable if taxable > 0.0 else 0.0
    k = bisect_left(p.bracket_lows, taxable)   # brackets whose lower bound is below ``taxable``
    state = p.bracket_below[k - 1] + p.bracket_rates[k - 1] * (taxable - p.bracket_lows[k - 1]) if k else 0.0
    yle = tax.yle
    yle_base = gross_annual - yle.floor
    yle_tax = yle.rate * (yle_base if yle_base > 0.0 else 0.0)
    ee = rules.contributions.employee
    return (state, tax.municipal_rate * taxable, yle_tax if yle_tax < yle.cap else yle.cap,
            ee.pension * gross_annual, ee.unemployment * gross_annual, ee.health_medical * gross_annual,
            ee.health_daily * gross_annual, p.employer_rate * gross_annual)


def er_daily_level(basis_monthly: float, rules: RuleSet) -> float:
    """Earnings-related daily benefit from the replacement schedule."""
    er = rules.unemployment.er
    base = rules.unemployment.basic_daily
    excess = basis_monthly / er.days_per_month - base
    excess = excess if excess > 0.0 else 0.0
    break_daily = er.breakpoint_monthly / er.days_per_month - base
    break_daily = break_daily if break_daily > 0.0 else 0.0
    above = excess - break_daily
    return (base + er.rate_low * (break_daily if break_daily < excess else excess)
            + er.rate_high * (above if above > 0.0 else 0.0))


def grading_multiplier(days_used: float, rules: RuleSet) -> float:
    mult = 1.0
    for from_day, m in rules.unemployment.er.grading:
        if days_used >= from_day:
            mult = m
    return mult


def _graded_er_daily(basis_monthly: float, days_used: float, rules: RuleSet) -> float:
    """The ER level graded for ``days_used``, never below the basic allowance."""
    daily = er_daily_level(basis_monthly, rules) * grading_multiplier(days_used, rules)
    basic = rules.unemployment.basic_daily
    return basic if basic > daily else daily


def unemployment_benefit(basis_monthly: float, days_used: float, fund_member: bool, rules: RuleSet,
                         max_days: float) -> float:
    """Daily unemployment benefit, EUR/day.

    Earnings-related when the claimant is a fund member with entitlement days
    left (fewer than ``max_days`` used); the basic allowance otherwise.
    Grading multiplies the ER level by the step for ``days_used`` and never
    grades below the basic level.
    """
    if basis_monthly < 0 or days_used < 0:
        raise ContractViolation("benefit basis and days used must be non-negative")
    if not fund_member or days_used >= max_days:
        return rules.unemployment.basic_daily
    return _graded_er_daily(basis_monthly, days_used, rules)


def entitlement_days(career_years: float, age: float, rules: RuleSet) -> int:
    """ER entitlement (300/400/500 days) from career length and age at onset."""
    er = rules.unemployment.er
    if career_years < er.short_career_years:
        return er.short_career_days
    if age >= er.senior_age and career_years >= er.senior_career_years:
        return er.senior_days
    return er.max_days_default


def _pension_parts(accrued_er_monthly: float, rules: RuleSet) -> tuple[float, float, float]:
    if accrued_er_monthly < 0:
        raise ContractViolation("accrued pension must be non-negative")
    bp = rules.pension.basic_pension
    if accrued_er_monthly >= bp.cutoff:
        basic = 0.0
    else:
        basic = bp.full - bp.taper * accrued_er_monthly
        basic = basic if basic > 0.0 else 0.0
    guarantee = rules.pension.guarantee_level - (accrued_er_monthly + basic)
    return accrued_er_monthly, basic, guarantee if guarantee > 0.0 else 0.0


def _housing_benefit(rent_monthly: float, children_under18: int, income_monthly: float, n_alive: int,
                     sched: HousingBenefitSchedule) -> float:
    if rent_monthly <= 0:
        raise ContractViolation("housing benefit requires positive rent")
    size = n_alive + children_under18
    n_sizes = len(sched.max_rent_by_size)
    size = n_sizes if n_sizes < size else size   # the largest tabled size at most
    max_rent = sched.max_rent_by_size[size - 1 if size > 1 else 0]
    accepted_rent = max_rent if max_rent < rent_monthly else rent_monthly
    threshold = sched.income_base + sched.per_adult * n_alive + sched.per_child * children_under18
    deductible = sched.income_deductible_rate * (income_monthly - threshold)
    benefit = sched.compensation_share * (accepted_rent - (deductible if deductible > 0.0 else 0.0))
    benefit = benefit if benefit > 0.0 else 0.0
    return rent_monthly if rent_monthly < benefit else benefit


def _housing_schedule(rules: RuleSet, retired: bool) -> HousingBenefitSchedule:
    """The retiree schedule when some living adult is retired, else the general one."""
    return rules.housing_benefit.retiree if retired else rules.housing_benefit.general


def _housing_income(gross_wages_monthly: list[float], other_monthly: float,
                    sched: HousingBenefitSchedule) -> float:
    disregard = sched.earnings_disregard
    wages = sum([w - disregard if w > disregard else 0.0 for w in gross_wages_monthly if w > 0])
    return wages + other_monthly


def _social_assistance(rent_monthly: float, children_under7: int, children_under18: int,
                       net_wages_monthly: list[float], other_net_monthly: float, n_alive: int,
                       sa: SocialAssistanceRules) -> float:
    if other_net_monthly < 0:
        raise ContractViolation("other net income must be non-negative")
    n_adults = n_alive if n_alive > 1 else 1
    if n_adults == 1:
        norm = sa.norm_single
        if children_under18 > 0:
            norm += sa.single_parent_supplement
    else:
        norm = sa.norm_couple_each * n_adults
    older = children_under18 - children_under7
    norm += sa.norm_child_under7 * children_under7 + sa.norm_child_7_17 * older

    disregard = sa.earnings_disregard
    countable = sum([w - disregard if w > disregard else 0.0 for w in net_wages_monthly if w > 0])
    countable += other_net_monthly
    benefit = norm + rent_monthly - countable
    return benefit if benefit > 0.0 else 0.0


def _daycare_fee_monthly(children_under7: int, gross_wages_monthly: list[float], all_working: bool,
                         dc: DaycareRules) -> float:
    """Daycare fee, EUR/mo.  Children are in daycare only when every adult
    in the household works: ``all_working`` says that the unit has a living
    adult and that each living adult works."""
    if not all_working or children_under7 == 0:
        return 0.0
    gross_monthly = sum(gross_wages_monthly)
    base = dc.rate * (gross_monthly - dc.income_threshold_monthly)
    base = base if base > 0.0 else 0.0
    base = base if base < dc.fee_cap_monthly else dc.fee_cap_monthly
    if base <= 0:
        return 0.0
    fee = base
    for _ in range(1, children_under7):
        fee += base * dc.sibling_share
    return fee


# A row is one adult's AdultSnapshot fields as a tuple, in declaration order.
_ADULT_FIELDS = tuple(f.name for f in fields(AdultSnapshot))
_adult_row = attrgetter(*_ADULT_FIELDS)
_WAGE = _ADULT_FIELDS.index("wage_quarterly")
_DAYS_USED = _ADULT_FIELDS.index("ub_days_used")


def _check_unit(rows, children_under3: int, children_under7: int, children_under18: int) -> None:
    if not (0 <= children_under3 <= children_under7 <= children_under18):
        raise ContractViolation("children band counts must nest: <3 <= <7 <= <18")
    for row in rows:
        if row[_WAGE] < 0 or row[_DAYS_USED] < 0:
            raise ContractViolation("wage and benefit days must be non-negative")


def price_unit(rows, children_under3: int, children_under7: int, children_under18: int,
               rent_monthly: float, rules: RuleSet) -> CashFlows:
    """Quarterly cash flows of one budget unit: the pricing core.

    ``rows`` holds one tuple per adult with the fields of
    :class:`AdultSnapshot` in declaration order (``age`` unread).  The
    budget identity ``net = gross + benefits - taxes - contributions`` holds
    exactly; the social-assistance residual keeps net income at or above the
    household norm.  One pass over the adults prices each of them and
    collects what the household-level benefits need: the living-adult count,
    whether any living adult is retired, and whether every living adult
    works.  The flows accumulate in locals, in the order the fields add, and
    the :class:`CashFlows` is built once.
    """
    _check_unit(rows, children_under3, children_under7, children_under18)
    p = rules.pricing
    fam = rules.family

    gross = state_tax = municipal_tax = yle_tax = 0.0
    pension_contrib = unemployment_contrib = medical_contrib = daily_contrib = employer_contrib = 0.0
    ub_er = ub_basic = pension_er = pension_basic = pension_guarantee = 0.0
    sickness = parental = home_care = student = 0.0
    other_monthly = 0.0   # benefits so far, EUR/mo
    adult_wages: list[float] = []
    net_wages_monthly: list[float] = []
    gross_wages_monthly: list[float] = []
    dead_accruals: list[float] = []
    n_alive = 0
    retired = False      # some living adult is retired
    all_working = True   # every living adult works

    for st, wage_q, _, ub_basis, days_used, max_days, fund_member, pension_paid, accrued, partial, wage_basis in rows:
        if st == _DEAD:
            adult_wages.append(0.0)
            dead_accruals.append(accrued)
            continue
        n_alive += 1
        if st in RETIRED_STATES:
            retired = True
        if st not in WORKING_STATES:
            all_working = False

        adult_wages.append(wage_q)
        gross += wage_q
        if wage_q:
            state_a, muni_a, yle_a, pens_a, unemp_a, hmed_a, hday_a, employer_a = _wage_charges(wage_q * 4.0, rules)
            state_q = state_a / 4.0
            muni_q = muni_a / 4.0
            yle_q = yle_a / 4.0
            pens_q = pens_a / 4.0
            unemp_q = unemp_a / 4.0
            hmed_q = hmed_a / 4.0
            hday_q = hday_a / 4.0
            state_tax += state_q
            municipal_tax += muni_q
            yle_tax += yle_q
            pension_contrib += pens_q
            unemployment_contrib += unemp_q
            medical_contrib += hmed_q
            daily_contrib += hday_q
            employer_contrib += employer_a / 4.0
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
                daily = _graded_er_daily(ub_basis, days_used, rules)
                is_er = True
            else:
                is_er = fund_member and days_used < max_days
                daily = unemployment_benefit(ub_basis, days_used, fund_member, rules, max_days)
            amount = daily * BENEFIT_DAYS_PER_QUARTER
            if is_er:
                ub_er += amount
            else:
                ub_basic += amount
            other_monthly += amount / MONTHS_PER_QUARTER
        elif st is _BASIC_UNEMPLOYED:
            ub_basic += p.basic_quarterly
            other_monthly += p.basic_monthly
        elif st in PENSION_STATES:
            er, basic, guarantee = _pension_parts(pension_paid, rules)
            pension_er += er * MONTHS_PER_QUARTER
            pension_basic += basic * MONTHS_PER_QUARTER
            pension_guarantee += guarantee * MONTHS_PER_QUARTER
            other_monthly += er + basic + guarantee
        elif st is _SICK_LEAVE:
            amount = fam.sickness_replacement * wage_basis * MONTHS_PER_QUARTER
            sickness += amount
            other_monthly += amount / MONTHS_PER_QUARTER
        elif st in LEAVE_STATES:
            amount = fam.parental_replacement * wage_basis * MONTHS_PER_QUARTER
            parental += amount
            other_monthly += amount / MONTHS_PER_QUARTER
        elif st is _HOME_CARE:
            home_care += p.home_care_quarterly
            other_monthly += p.home_care_monthly
        elif st is _STUDENT:
            student += p.student_quarterly
            other_monthly += p.student_monthly

        # Partial early old-age pension can run alongside non-pension states.
        if partial > 0 and st not in PENSION_STATES:
            pension_er += partial * MONTHS_PER_QUARTER
            other_monthly += partial

    # Survivor's pension from a deceased partner's accrual.
    survivor = 0.0
    if dead_accruals and n_alive:
        monthly = rules.pension.survivor_share * max(dead_accruals)
        survivor = monthly * MONTHS_PER_QUARTER
        other_monthly += monthly

    child = 0.0
    if n_alive and children_under18 > 0:
        monthly = fam.child_benefit_monthly * children_under18
        if n_alive == 1:
            monthly += fam.child_benefit_single_parent_supplement
        child = monthly * MONTHS_PER_QUARTER
        other_monthly += monthly

    daycare = housing = assistance = 0.0
    if n_alive:
        daycare = _daycare_fee_monthly(children_under7, gross_wages_monthly, all_working,
                                       fam.daycare) * MONTHS_PER_QUARTER
        sched = _housing_schedule(rules, retired)
        hb_monthly = _housing_benefit(rent_monthly, children_under18,
                                      _housing_income(gross_wages_monthly, other_monthly, sched), n_alive, sched)
        housing = hb_monthly * MONTHS_PER_QUARTER
        other_net_monthly = other_monthly + hb_monthly - daycare / MONTHS_PER_QUARTER
        assistance = _social_assistance(rent_monthly, children_under7, children_under18, net_wages_monthly,
                                        other_net_monthly if other_net_monthly > 0.0 else 0.0, n_alive,
                                        rules.social_assistance) * MONTHS_PER_QUARTER

    # Each total adds left to right in CashFlows field order.
    net = (gross
           + (ub_er + ub_basic + pension_er + pension_basic + pension_guarantee + survivor + sickness
              + parental + home_care + student + child + housing + assistance)
           - (state_tax + municipal_tax + yle_tax + daycare)
           - (pension_contrib + unemployment_contrib + medical_contrib + daily_contrib))
    rent = rent_monthly * MONTHS_PER_QUARTER
    above_rent = net - rent
    vat = rules.tax.vat_rate * (above_rent if above_rent > 0.0 else 0.0)
    return CashFlows(gross, state_tax, municipal_tax, yle_tax, daycare, pension_contrib, unemployment_contrib,
                     medical_contrib, daily_contrib, employer_contrib, ub_er, ub_basic, pension_er, pension_basic,
                     pension_guarantee, survivor, sickness, parental, home_care, student, child, housing,
                     assistance, net, vat, net - vat, rent, tuple(adult_wages))


class AdultColumns(NamedTuple):
    """The :class:`AdultSnapshot` fields the rules read, one array each with
    an entry per adult: ``state`` as :class:`EmploymentState` codes, the
    amounts in the snapshot's units."""

    state: np.ndarray
    wage_quarterly: np.ndarray
    ub_basis_monthly: np.ndarray
    ub_days_used: np.ndarray
    ub_max_days: np.ndarray
    fund_member: np.ndarray
    pension_paid_monthly: np.ndarray
    pension_accrued_monthly: np.ndarray
    partial_early_monthly: np.ndarray
    wage_basis_monthly: np.ndarray


# The CashFlows float fields in declaration order: the columns of the matrix
# price_units returns.
FLOW_COLUMNS = tuple(f.name for f in fields(CashFlows) if f.name != "adult_wages")


# The states whose primary benefit a formula of the adult's own amounts gives.
_BY_FORMULA = state_flags(_ER_STATES | PENSION_STATES | LEAVE_STATES | {S.SICK_LEAVE})
_ER_CODES, _PENSION_CODES = frozenset(map(int, _ER_STATES)), frozenset(map(int, PENSION_STATES))
_DEAD_CODE, _ER_EXTENDED_CODE, _SICK_CODE = map(int, (_DEAD, _ER_EXTENDED, _SICK_LEAVE))

# price_units' work matrix has a row per CashFlows float field, in
# FLOW_COLUMNS order (per adult, the unit-level ones stay 0.0), then: the
# monthly gross wage; the wages the housing benefit counts under the general
# and the retiree schedule, and the net wages social assistance counts; the
# monthly benefits so far and the partial early pension, which the unit adds
# in the scalar core's order; the pension accrual; and four flags (1.0 or
# 0.0): living, living and retired, living and not working, dead.
(_GROSS, _STATE, _MUNI, _YLE, _DAYCARE, _PENS, _UNEMP, _HMED, _HDAY, _EMPLOYER, _UB_ER, _UB_BASIC, _PENSION_ER,
 _PENSION_BASIC, _GUARANTEE, _SURVIVOR, _SICKNESS, _PARENTAL, _HOME_CARE_Q, _STUDENT_Q, _CHILD, _HOUSING,
 _ASSISTANCE, _NET, _VAT, _CONSUMPTION, _RENT, _GROSS_M, _HB_WAGES, _HB_WAGES_RETIREE, _SA_WAGES, _PRIMARY,
 _PARTIAL, _ACCRUED, _ALIVE, _RETIRED, _IDLE, _DEAD_FLAG) = range(38)
_NET_WAGE_CHARGES = [_STATE, _MUNI, _YLE, _PENS, _UNEMP, _HMED, _HDAY]
# The rows of a unit adult's own column that its unit's formulas read.
_UNIT_READS = np.array([_PRIMARY, _PARTIAL, _DEAD_FLAG, _ACCRUED])[:, None]
# The flags of each state code, as the rows _ALIVE .. _DEAD_FLAG.
_STATE_FLAGS = np.array([[s is not _DEAD, s in RETIRED_STATES, s is not _DEAD and s not in WORKING_STATES,
                          s is _DEAD] for s in S], dtype=float).T


def _sum_rows(rows: np.ndarray) -> np.ndarray:
    """The rows of ``rows`` added one after another.  ``np.add.accumulate``
    adds in turn whatever the layout; ``np.add.reduce`` adds pairwise where
    the rows are contiguous (a single column)."""
    return np.add.accumulate(rows, axis=0)[-1]


def _housing_benefit_columns(rent_monthly: np.ndarray, children_under18: np.ndarray, income_monthly: np.ndarray,
                             n_alive: np.ndarray, sched: HousingBenefitSchedule, table: np.ndarray) -> np.ndarray:
    """:func:`_housing_benefit` of every unit under ``sched``; ``table`` is
    its ``max_rent_by_size`` led by a copy of the first entry, so it is
    indexed by the size, capped at the largest (the caller checks the
    rent)."""
    max_rent = table[np.minimum(n_alive + children_under18, len(table) - 1).astype(np.intp)]
    accepted_rent = np.where(max_rent < rent_monthly, max_rent, rent_monthly)
    threshold = sched.income_base + sched.per_adult * n_alive + sched.per_child * children_under18
    deductible = sched.income_deductible_rate * (income_monthly - threshold)
    benefit = sched.compensation_share * (accepted_rent - np.where(deductible > 0.0, deductible, 0.0))
    benefit = np.where(benefit > 0.0, benefit, 0.0)
    return np.where(rent_monthly < benefit, rent_monthly, benefit)


def price_units(adults: AdultColumns, first: np.ndarray, second: np.ndarray, children_under3: np.ndarray,
                children_under7: np.ndarray, children_under18: np.ndarray, rent_monthly: np.ndarray,
                rules: RuleSet) -> np.ndarray:
    """Quarterly cash flows of many budget units at once: :func:`price_unit`
    on columns.

    Unit ``i`` holds adult ``first[i]`` and, unless ``second[i]`` is -1,
    adult ``second[i]`` of ``adults``, with the child bands and monthly rent
    at ``i``.  Returns a row-major ``(units, len(FLOW_COLUMNS))`` float64
    matrix, every entry the bits ``price_unit`` gives that field: the same
    formulas, constants and operation order.  Each adult is priced once,
    into a column of a work matrix: the wage charges on columns, the
    earnings-related, pension, sickness and parental benefits through the
    scalar core's own helpers for just the adults in those states.  A unit's
    sums start from 0.0 and add its first adult's column, then its
    second's, and the totals add left to right (never ``np.sum``, which adds
    pairwise); the state tax finds its bracket with
    ``searchsorted(side="left")``, as ``bisect_left`` does; and every
    ``x if c else y`` is a ``np.where``.  There is no ``exp`` or ``log``, so
    numpy's arithmetic gives Python's bits.  A zero or dead adult's wage is
    priced as +0.0, whose charges the rule-set validation makes exactly
    +0.0, so it adds nothing, as the scalar core skips it.  A negative wage
    or benefit days of any adult, child bands that do not nest, and the
    scalar core's other contract breaches raise the same
    :class:`ContractViolation`.
    """
    u3, u7, u18, rent = children_under3, children_under7, children_under18, rent_monthly
    st, wage_q, basis, days, max_days, fund, paid, accrued, partial, wage_basis = adults
    if np.count_nonzero((u3 < 0) | (u7 < u3) | (u18 < u7)):
        raise ContractViolation("children band counts must nest: <3 <= <7 <= <18")
    if np.count_nonzero((wage_q < 0) | (days < 0)):
        raise ContractViolation("wage and benefit days must be non-negative")
    p = rules.pricing
    fam = rules.family
    tax = rules.tax
    n = len(st)
    # One column per adult, and a last column of zeros for the absent second
    # adults (index -1).
    work = np.zeros((_DEAD_FLAG + 1, n + 1))
    per_adult = work[:, :n]
    per_adult[_ALIVE:] = _STATE_FLAGS[:, st]
    alive = st != _DEAD_CODE

    # Wage income and its charges, quarterly.
    wage = per_adult[_GROSS] = np.where(alive & (wage_q != 0.0), wage_q, 0.0)
    gross_annual = wage * 4.0
    taxable = gross_annual - tax.standard_deduction
    taxable = np.where(taxable > 0.0, taxable, 0.0)
    # Bracket k - 1 of the scalar core is column k here; column 0, no
    # bracket, taxes 0.0 + 0.0 * taxable = 0.0.
    low, rate, below = p.brackets[:, p.brackets[0, 1:].searchsorted(taxable, side="left")]
    per_adult[_STATE] = below + rate * (taxable - low)
    per_adult[_MUNI] = tax.municipal_rate * taxable
    yle_base = gross_annual - tax.yle.floor
    yle_tax = tax.yle.rate * np.where(yle_base > 0.0, yle_base, 0.0)
    per_adult[_YLE] = np.where(yle_tax < tax.yle.cap, yle_tax, tax.yle.cap)
    ee = rules.contributions.employee
    np.multiply.outer((ee.pension, ee.unemployment, ee.health_medical, ee.health_daily, p.employer_rate),
                      gross_annual, out=per_adult[_PENS:_EMPLOYER + 1])
    per_adult[_STATE:_EMPLOYER + 1] /= 4.0
    net_wage_m = (wage - _sum_rows(per_adult[_NET_WAGE_CHARGES])) / MONTHS_PER_QUARTER
    gross_m = per_adult[_GROSS_M] = wage / MONTHS_PER_QUARTER

    # Primary benefits by state, quarterly, and each adult's monthly amount
    # for the household-level benefits.  The fixed amounts are looked up by
    # state code (0.0 for the other states); the adults on an earnings-
    # related or pension benefit, or on sick or parental leave, are priced
    # one at a time by the scalar core's own formulas: they are few, and a
    # numpy pass per formula would cost more than the loop.
    per_adult[[_UB_BASIC, _HOME_CARE_Q, _STUDENT_Q, _PRIMARY]] = p.fixed_by_state[:, st]
    formula = _BY_FORMULA[st].nonzero()[0]
    if formula.size:
        rows, columns, amounts = [], [], []
        # The formula adults' fields, gathered at once as float64 (exact for
        # the state codes and the membership flags).
        gathered = np.array((st, basis, days, max_days, fund, paid, wage_basis), dtype=float)[:, formula]
        for r, code, ub_basis, used, entitled, member, pension_paid, basis_m in zip(
                formula.tolist(), *gathered.tolist()):
            if code in _ER_CODES:
                if code == _ER_EXTENDED_CODE:
                    # Extended benefit keeps the ER level past normal exhaustion.
                    daily, is_er = _graded_er_daily(ub_basis, used, rules), True
                else:
                    daily = unemployment_benefit(ub_basis, used, member, rules, entitled)
                    is_er = member and used < entitled
                amount = daily * BENEFIT_DAYS_PER_QUARTER
                rows += _UB_ER if is_er else _UB_BASIC, _PRIMARY
                amounts += amount, amount / MONTHS_PER_QUARTER
            elif code in _PENSION_CODES:
                er, basic, guarantee = _pension_parts(pension_paid, rules)
                rows += _PENSION_ER, _PENSION_BASIC, _GUARANTEE, _PRIMARY
                amounts += (er * MONTHS_PER_QUARTER, basic * MONTHS_PER_QUARTER, guarantee * MONTHS_PER_QUARTER,
                            er + basic + guarantee)
            else:
                sick = code == _SICK_CODE
                amount = ((fam.sickness_replacement if sick else fam.parental_replacement) * basis_m
                          * MONTHS_PER_QUARTER)
                rows += _SICKNESS if sick else _PARENTAL, _PRIMARY
                amounts += amount, amount / MONTHS_PER_QUARTER
            columns += [r] * (len(rows) - len(columns))
        per_adult[rows, columns] = amounts
    pension = IS_PENSION[st]
    # Partial early old-age pension can run alongside non-pension states.
    partial_on = alive & (partial > 0) & ~pension
    if np.count_nonzero(partial_on):
        np.copyto(per_adult[_PENSION_ER], partial * MONTHS_PER_QUARTER, where=partial_on)
        np.copyto(per_adult[_PARTIAL], partial, where=partial_on)
    per_adult[_ACCRUED] = accrued

    # The wages counted against the housing benefit and social assistance:
    # each positive one's part above the disregard.
    counted = np.array((gross_m, gross_m, net_wage_m))
    per_adult[_HB_WAGES:_SA_WAGES + 1] = np.where((counted > 0.0) & (counted > p.disregards), counted - p.disregards,
                                                  0.0)

    # Each unit's sums: 0.0, then its first adult, then its second; of each
    # adult's own column only the _UNIT_READS rows.
    unit = work[:, first]
    unit += 0.0
    unit += work[:, second]
    primary1, partial1, dead1, acc1 = work[_UNIT_READS, first]
    primary2, partial2, dead2, acc2 = work[_UNIT_READS, second]
    other = primary1 + 0.0   # benefits so far, EUR/mo, added as the scalar core adds them
    other += partial1
    other += primary2
    other += partial2
    n_alive = unit[_ALIVE]
    living = n_alive > 0.0

    # Survivor's pension from a deceased partner's accrual.
    survives = living & (unit[_DEAD_FLAG] > 0.0)
    if np.count_nonzero(survives):
        top = np.where(dead1 > 0.0, np.where((dead2 > 0.0) & (acc2 > acc1), acc2, acc1), acc2)
        monthly = rules.pension.survivor_share * top
        unit[_SURVIVOR] = np.where(survives, monthly * MONTHS_PER_QUARTER, 0.0)
        other += np.where(survives, monthly, 0.0)

    with_children = living & (u18 > 0)
    monthly = fam.child_benefit_monthly * u18
    monthly = np.where(n_alive == 1.0, monthly + fam.child_benefit_single_parent_supplement, monthly)
    unit[_CHILD] = np.where(with_children, monthly * MONTHS_PER_QUARTER, 0.0)
    other += np.where(with_children, monthly, 0.0)

    # Daycare: children are in daycare only when every living adult works.
    dc = fam.daycare
    in_daycare = living & (unit[_IDLE] == 0.0) & (u7 > 0)
    if np.count_nonzero(in_daycare):
        base = dc.rate * (unit[_GROSS_M] - dc.income_threshold_monthly)
        base = np.where(base > 0.0, base, 0.0)
        base = np.where(base < dc.fee_cap_monthly, base, dc.fee_cap_monthly)
        fee = base
        sibling = base * dc.sibling_share
        for n_children in range(2, int(u7.max()) + 1):
            fee = np.where(u7 >= n_children, fee + sibling, fee)
        unit[_DAYCARE] = np.where(in_daycare & (base > 0.0), fee * MONTHS_PER_QUARTER, 0.0)

    if np.count_nonzero(living & (rent <= 0)):
        raise ContractViolation("housing benefit requires positive rent")
    hb = rules.housing_benefit
    hb_monthly = _housing_benefit_columns(rent, u18, unit[_HB_WAGES] + other, n_alive, hb.general,
                                          p.max_rent_general)
    retired = unit[_RETIRED] > 0.0
    if np.count_nonzero(retired):
        hb_monthly = np.where(retired, _housing_benefit_columns(rent, u18, unit[_HB_WAGES_RETIREE] + other,
                                                                n_alive, hb.retiree, p.max_rent_retiree), hb_monthly)
    unit[_HOUSING] = np.where(living, hb_monthly * MONTHS_PER_QUARTER, 0.0)
    other_net = other + hb_monthly - unit[_DAYCARE] / MONTHS_PER_QUARTER
    sa = rules.social_assistance
    norm = np.where(n_alive > 1.0, sa.norm_couple_each * n_alive,
                    np.where(u18 > 0, sa.norm_single + sa.single_parent_supplement, sa.norm_single))
    norm = norm + (sa.norm_child_under7 * u7 + sa.norm_child_7_17 * (u18 - u7))
    assistance = norm + rent - (unit[_SA_WAGES] + np.where(other_net > 0.0, other_net, 0.0))
    unit[_ASSISTANCE] = np.where(living & (assistance > 0.0), assistance * MONTHS_PER_QUARTER, 0.0)

    # Each total adds left to right in CashFlows field order.
    net = unit[_NET] = (unit[_GROSS] + _sum_rows(unit[_UB_ER:_ASSISTANCE + 1]) - _sum_rows(unit[_STATE:_DAYCARE + 1])
                        - _sum_rows(unit[_PENS:_HDAY + 1]))
    rent_q = unit[_RENT] = rent * MONTHS_PER_QUARTER
    above_rent = net - rent_q
    vat = unit[_VAT] = tax.vat_rate * np.where(above_rent > 0.0, above_rent, 0.0)
    unit[_CONSUMPTION] = net - vat
    return np.ascontiguousarray(unit[:_RENT + 1].T)


def net_income(hh: HouseholdSnapshot, rules: RuleSet) -> CashFlows:
    """Quarterly cash flows for one household snapshot: :func:`price_unit`
    on its adults' rows.  ``AdultSnapshot.age`` and ``partnered`` are not
    read."""
    return price_unit(list(map(_adult_row, hh.adults)), hh.children_under3, hh.children_under7,
                      hh.children_under18, hh.rent_monthly, rules)


def emtr(hh: HouseholdSnapshot, rules: RuleSet, delta_monthly: float = EMTR_DELTA_MONTHLY,
         adult: int = 0) -> dict[str, float]:
    """Effective marginal tax rate by perturbing one adult's wage.

    Returns the total plus a per-instrument decomposition whose values sum to
    the total exactly (taxes and contributions enter positively, benefit
    withdrawals as their negative change).
    """
    if delta_monthly <= 0:
        raise ContractViolation("perturbation must be positive")
    unit = hh.children_under3, hh.children_under7, hh.children_under18, hh.rent_monthly
    rows = list(map(_adult_row, hh.adults))
    base = price_unit(rows, *unit, rules)
    dq = delta_monthly * MONTHS_PER_QUARTER
    bumped = list(rows[adult])
    bumped[_WAGE] += dq
    rows[adult] = tuple(bumped)
    after = price_unit(rows, *unit, rules)

    parts = {name: (x - x0) / dq for name, x, x0 in zip(_CHARGE_FIELDS, _charges(after), _charges(base))}
    for name, x, x0 in zip(BENEFIT_FIELDS, _benefits(after), _benefits(base)):
        parts[name] = -(x - x0) / dq
    parts["total"] = 1.0 - (after.net_income - base.net_income) / dq
    return parts


def ptr(employed: HouseholdSnapshot, unemployed: HouseholdSnapshot, rules: RuleSet) -> float:
    """Participation tax rate between an employed and a counterfactual
    unemployed snapshot of the same household."""
    gross = sum(a.wage_quarterly for a in employed.adults if a.state != _DEAD)
    if gross <= 0:
        raise ContractViolation("participation tax rate requires positive gross wage")
    net_e = net_income(employed, rules).net_income
    net_u = net_income(unemployed, rules).net_income
    return 1.0 - (net_e - net_u) / gross
