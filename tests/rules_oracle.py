"""The scalar rules engine as it stood before the single-pass rewrite, kept
verbatim as a test oracle: ``net_income`` and every helper it calls.

The tests assert that ``lifesim.rules.net_income`` returns the same bits as
this copy on seeded snapshots for every packaged year and for the reformed
rule set.  Do not edit the functions below; they pin today's behaviour.
"""

from __future__ import annotations

from lifesim.errors import ContractViolation
from lifesim.rules.engine import CashFlows, HouseholdSnapshot
from lifesim.rules.ruleset import BENEFIT_DAYS_PER_QUARTER, MONTHS_PER_QUARTER, RuleSet
from lifesim.states import (
    EmploymentState as S,
    PENSION_STATES,
    RETIRED_STATES,
    WORKING_STATES,
)


def taxes_and_contributions(gross_annual: float, rules: RuleSet) -> dict[str, float]:
    """Taxes and contributions on annual wage income, EUR/yr."""
    if gross_annual < 0:
        raise ContractViolation("gross income must be non-negative")
    tax = rules.tax
    taxable = max(0.0, gross_annual - tax.standard_deduction)

    state = 0.0
    brackets = tax.state_brackets
    for i, (lo, rate) in enumerate(brackets):
        hi = brackets[i + 1][0] if i + 1 < len(brackets) else float("inf")
        if taxable > lo:
            state += rate * (min(taxable, hi) - lo)
        else:
            break

    municipal = tax.municipal_rate * taxable
    yle = min(tax.yle.cap, tax.yle.rate * max(0.0, gross_annual - tax.yle.floor))

    ec = rules.contributions.employee
    er = rules.contributions.employer
    return {
        "state_tax": state,
        "municipal_tax": municipal,
        "yle_tax": yle,
        "pension_contrib": ec.pension * gross_annual,
        "unemployment_contrib": ec.unemployment * gross_annual,
        "health_medical_contrib": ec.health_medical * gross_annual,
        "health_daily_contrib": ec.health_daily * gross_annual,
        "employer_contrib": er.total_rate * gross_annual,
    }


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


def _household_size(hh: HouseholdSnapshot) -> int:
    alive = sum(1 for a in hh.adults if a.state != S.DEAD)
    return max(1, alive + hh.children_under18)


def housing_benefit(hh: HouseholdSnapshot, income_monthly: float, rules: RuleSet) -> float:
    """General or retiree housing benefit, EUR/mo.

    ``income_monthly`` is the household's benefit-relevant gross income with
    per-earner disregards already applied by the caller via
    :func:`housing_income`.
    """
    if hh.rent_monthly <= 0:
        raise ContractViolation("housing benefit requires positive rent")
    retired = any(a.state in RETIRED_STATES for a in hh.adults if a.state != S.DEAD)
    sched = rules.housing_benefit.retiree if retired else rules.housing_benefit.general
    alive_adults = sum(1 for a in hh.adults if a.state != S.DEAD)
    size = _household_size(hh)
    accepted_rent = min(hh.rent_monthly, sched.max_rent_by_size[min(size, len(sched.max_rent_by_size)) - 1])
    threshold = sched.income_base + sched.per_adult * alive_adults + sched.per_child * hh.children_under18
    deductible = max(0.0, sched.income_deductible_rate * (income_monthly - threshold))
    benefit = sched.compensation_share * (accepted_rent - deductible)
    return min(max(0.0, benefit), hh.rent_monthly)


def housing_income(hh: HouseholdSnapshot, gross_wages_monthly: list[float], other_monthly: float, rules: RuleSet) -> float:
    retired = any(a.state in RETIRED_STATES for a in hh.adults if a.state != S.DEAD)
    sched = rules.housing_benefit.retiree if retired else rules.housing_benefit.general
    wages = sum(max(0.0, w - sched.earnings_disregard) for w in gross_wages_monthly if w > 0)
    return wages + other_monthly


def social_assistance(
    hh: HouseholdSnapshot,
    net_wages_monthly: list[float],
    other_net_monthly: float,
    rules: RuleSet,
) -> float:
    """Residual guarantee benefit, EUR/mo.

    Countable income = net wages beyond the per-earner disregard plus all
    other net income (benefits included).  The benefit tops the household up
    to norm + rent.
    """
    if other_net_monthly < 0:
        raise ContractViolation("other net income must be non-negative")
    sa = rules.social_assistance
    alive = [a for a in hh.adults if a.state != S.DEAD]
    n_adults = max(1, len(alive))
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


def _daycare_fee_monthly(hh: HouseholdSnapshot, gross_monthly: float, rules: RuleSet) -> float:
    dc = rules.family.daycare
    alive = [a for a in hh.adults if a.state != S.DEAD]
    if not alive or hh.children_under7 == 0:
        return 0.0
    # Children are in daycare only when every adult in the household works.
    if not all(a.state in WORKING_STATES for a in alive):
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
    above the household norm.
    """
    hh.validate()
    cf = CashFlows(rent=hh.rent_monthly * MONTHS_PER_QUARTER)
    cf.adult_wages = tuple(a.wage_quarterly if a.state != S.DEAD else 0.0 for a in hh.adults)

    fam = rules.family
    net_wages_monthly: list[float] = []
    gross_wages_monthly: list[float] = []
    other_benefits_monthly = 0.0

    alive = [a for a in hh.adults if a.state != S.DEAD]
    dead = [a for a in hh.adults if a.state == S.DEAD]

    for a in alive:
        wage_q = a.wage_quarterly
        cf.gross_wage += wage_q
        tc = taxes_and_contributions(wage_q * 4.0, rules)
        state_q = tc["state_tax"] / 4.0
        muni_q = tc["municipal_tax"] / 4.0
        yle_q = tc["yle_tax"] / 4.0
        pens_q = tc["pension_contrib"] / 4.0
        unemp_q = tc["unemployment_contrib"] / 4.0
        hmed_q = tc["health_medical_contrib"] / 4.0
        hday_q = tc["health_daily_contrib"] / 4.0
        cf.state_tax += state_q
        cf.municipal_tax += muni_q
        cf.yle_tax += yle_q
        cf.pension_contrib += pens_q
        cf.unemployment_contrib += unemp_q
        cf.health_medical_contrib += hmed_q
        cf.health_daily_contrib += hday_q
        cf.employer_contrib += tc["employer_contrib"] / 4.0
        net_wage_q = wage_q - (state_q + muni_q + yle_q + pens_q + unemp_q + hmed_q + hday_q)
        net_wages_monthly.append(net_wage_q / MONTHS_PER_QUARTER)
        gross_wages_monthly.append(wage_q / MONTHS_PER_QUARTER)

        # Primary benefits by employment state.
        st = a.state
        if st in (S.ER_UNEMPLOYED, S.ER_EXTENDED):
            if st is S.ER_EXTENDED:
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
        elif st is S.BASIC_UNEMPLOYED:
            amount = rules.unemployment.basic_daily * BENEFIT_DAYS_PER_QUARTER
            cf.ub_basic += amount
            other_benefits_monthly += amount / MONTHS_PER_QUARTER
        elif st in PENSION_STATES:
            parts = pension_benefit(a.pension_paid_monthly, rules)
            cf.pension_er += parts["er"] * MONTHS_PER_QUARTER
            cf.pension_basic += parts["basic"] * MONTHS_PER_QUARTER
            cf.pension_guarantee += parts["guarantee"] * MONTHS_PER_QUARTER
            other_benefits_monthly += parts["er"] + parts["basic"] + parts["guarantee"]
        elif st is S.SICK_LEAVE:
            amount = fam.sickness_replacement * a.wage_basis_monthly * MONTHS_PER_QUARTER
            cf.sickness_benefit += amount
            other_benefits_monthly += amount / MONTHS_PER_QUARTER
        elif st in (S.MOTHERS_LEAVE, S.FATHERS_LEAVE):
            amount = fam.parental_replacement * a.wage_basis_monthly * MONTHS_PER_QUARTER
            cf.parental_benefit += amount
            other_benefits_monthly += amount / MONTHS_PER_QUARTER
        elif st is S.HOME_CARE:
            amount = fam.home_care_allowance_monthly * MONTHS_PER_QUARTER
            cf.home_care_benefit += amount
            other_benefits_monthly += amount / MONTHS_PER_QUARTER
        elif st is S.STUDENT:
            amount = fam.student_allowance_monthly * MONTHS_PER_QUARTER
            cf.student_benefit += amount
            other_benefits_monthly += amount / MONTHS_PER_QUARTER

        # Partial early old-age pension can run alongside non-pension states.
        if a.partial_early_monthly > 0 and st not in PENSION_STATES:
            cf.pension_er += a.partial_early_monthly * MONTHS_PER_QUARTER
            other_benefits_monthly += a.partial_early_monthly

    # Survivor's pension from a deceased partner's accrual.
    if dead and alive:
        monthly = rules.pension.survivor_share * max(a.pension_accrued_monthly for a in dead)
        cf.survivor_pension = monthly * MONTHS_PER_QUARTER
        other_benefits_monthly += monthly

    if alive and hh.children_under18 > 0:
        monthly = fam.child_benefit_monthly * hh.children_under18
        if len(alive) == 1:
            monthly += fam.child_benefit_single_parent_supplement
        cf.child_benefit = monthly * MONTHS_PER_QUARTER
        other_benefits_monthly += monthly

    gross_monthly_total = sum(gross_wages_monthly)
    if alive:
        cf.daycare_fee = _daycare_fee_monthly(hh, gross_monthly_total, rules) * MONTHS_PER_QUARTER

        hb_income = housing_income(hh, gross_wages_monthly, other_benefits_monthly, rules)
        hb_monthly = housing_benefit(hh, hb_income, rules)
        cf.housing_benefit = hb_monthly * MONTHS_PER_QUARTER

        other_net_monthly = other_benefits_monthly + hb_monthly - cf.daycare_fee / MONTHS_PER_QUARTER
        sa_monthly = social_assistance(hh, net_wages_monthly, max(0.0, other_net_monthly), rules)
        cf.social_assistance = sa_monthly * MONTHS_PER_QUARTER

    cf.net_income = cf.gross_wage + cf.benefits_total() - cf.taxes_total() - cf.contribs_total()
    cf.vat = rules.tax.vat_rate * max(0.0, cf.net_income - cf.rent)
    cf.consumption = cf.net_income - cf.vat
    return cf
