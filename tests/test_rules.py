"""Rules-engine tests.

Derived expectations are computed by independent oracles in this file (plain
re-implementations of the shipped schedules), never by calling the code under
test twice.
"""

import dataclasses

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from lifesim.paramfiles import load_yaml, params_dir, ruleset_path
from lifesim.rules import (
    AdultSnapshot,
    HouseholdSnapshot,
    emtr,
    entitlement_days,
    load_ruleset,
    net_income,
    ptr,
    ruleset_from_mapping,
    unemployment_benefit,
)
from lifesim.rules.engine import (BENEFIT_FIELDS, CONTRIB_FIELDS, TAX_FIELDS, _housing_benefit, _housing_schedule,
                                  _pension_parts, _social_assistance, _wage_charges)
from lifesim.errors import ContractViolation, ParameterError
from lifesim.states import EmploymentState as S


def single(state, wage_q=0.0, **kw):
    return HouseholdSnapshot(adults=(AdultSnapshot(state=state, wage_quarterly=wage_q, **kw),), rent_monthly=650.0)


# ---------------------------------------------------------------------------
# taxes and contributions on a wage
# ---------------------------------------------------------------------------

def wage_charges(gross_annual, rules):
    """``_wage_charges`` by name."""
    return dict(zip(TAX_FIELDS[:3] + CONTRIB_FIELDS + ("employer_contrib",), _wage_charges(gross_annual, rules)))


def bracket_tax_oracle(gross, year):
    """Independent bracket evaluation straight from the YAML file."""
    doc = yaml.safe_load(open(ruleset_path(year)))
    taxable = max(0.0, gross - doc["tax"]["standard_deduction"])
    rows = doc["tax"]["state_brackets"]
    tax = 0.0
    for (lo, rate), nxt in zip(rows, rows[1:] + [[float("inf"), 0.0]]):
        if taxable > lo:
            tax += rate * (min(taxable, nxt[0]) - lo)
    return tax, doc["tax"]["municipal_rate"] * taxable


def test_zero_income_all_zero(rules2023):
    tc = wage_charges(0.0, rules2023)
    assert all(v == 0.0 for v in tc.values())


def test_bracket_bound_state_tax_zero(rules2023):
    # Gross equal to the first positive-rate bound (after the deduction)
    first_bound = rules2023.tax.state_brackets[1][0]
    gross = first_bound + rules2023.tax.standard_deduction
    tc = wage_charges(gross, rules2023)
    oracle_state, oracle_muni = bracket_tax_oracle(gross, 2023)
    assert tc["state_tax"] == pytest.approx(oracle_state, abs=1e-9)
    assert tc["municipal_tax"] == pytest.approx(oracle_muni, abs=1e-9)


@pytest.mark.parametrize("gross", [12000.0, 28000.0, 40000.0, 66000.0, 120000.0])
def test_state_tax_matches_bracket_oracle(rules2023, gross):
    tc = wage_charges(gross, rules2023)
    oracle_state, oracle_muni = bracket_tax_oracle(gross, 2023)
    assert tc["state_tax"] == pytest.approx(oracle_state, rel=1e-12)
    assert tc["municipal_tax"] == pytest.approx(oracle_muni, rel=1e-12)


def test_marginal_rate_constant_inside_bracket(rules2023):
    # Finite differences at two points inside the same bracket interior agree.
    lo = rules2023.tax.state_brackets[2][0] + rules2023.tax.standard_deduction
    hi = rules2023.tax.state_brackets[3][0] + rules2023.tax.standard_deduction
    g1, g2 = lo + 1000.0, (lo + hi) / 2
    eps = 10.0

    def slope(g):
        a = wage_charges(g + eps, rules2023)["state_tax"]
        b = wage_charges(g - eps, rules2023)["state_tax"]
        return (a - b) / (2 * eps)

    assert slope(g1) == pytest.approx(slope(g2), abs=1e-10)
    assert slope(g1) == pytest.approx(rules2023.tax.state_brackets[2][1], abs=1e-10)


def test_state_tax_convex_in_gross(rules2023):
    grid = [i * 2500.0 for i in range(60)]
    taxes = [wage_charges(g, rules2023)["state_tax"] for g in grid]
    slopes = [b - a for a, b in zip(taxes, taxes[1:])]
    assert all(s2 >= s1 - 1e-9 for s1, s2 in zip(slopes, slopes[1:]))
    assert all(t >= 0 for t in taxes)


def test_negative_gross_rejected(rules2023):
    with pytest.raises(ContractViolation):
        net_income(single(S.FULL_TIME, wage_q=-1.0), rules2023)


# ---------------------------------------------------------------------------
# unemployment_benefit
# ---------------------------------------------------------------------------

def default_entitlement_benefit(basis_monthly, days_used, fund_member, rules):
    """``unemployment_benefit`` with the rule set's default entitlement."""
    return unemployment_benefit(basis_monthly, days_used, fund_member, rules, rules.unemployment.er.max_days_default)


@pytest.fixture(scope="module")
def graded_rules():
    doc = yaml.safe_load(open(ruleset_path(2023)))
    doc["unemployment"]["er"]["grading"] = [[40, 0.80], [170, 0.75]]
    return ruleset_from_mapping(doc)


def test_grading_multipliers_exact(graded_rules):
    basis = 3500.0
    initial = default_entitlement_benefit(basis, 0, True, graded_rules)
    assert default_entitlement_benefit(basis, 10, True, graded_rules) / initial == pytest.approx(1.00)
    assert default_entitlement_benefit(basis, 100, True, graded_rules) / initial == pytest.approx(0.80)
    assert default_entitlement_benefit(basis, 200, True, graded_rules) / initial == pytest.approx(0.75)


def test_non_member_gets_basic(rules2023):
    for basis in (0.0, 2000.0, 9000.0):
        assert default_entitlement_benefit(basis, 0, False, rules2023) == rules2023.unemployment.basic_daily


def test_exhaustion_returns_basic(rules2023):
    md = rules2023.unemployment.er.max_days_default
    assert default_entitlement_benefit(4000.0, md, True, rules2023) == rules2023.unemployment.basic_daily


def test_er_at_least_basic(rules2023):
    for basis in (0.0, 500.0, 1500.0, 4000.0, 9000.0):
        level = default_entitlement_benefit(basis, 0, True, rules2023)
        assert level >= rules2023.unemployment.basic_daily


@given(d1=st.floats(0, 600), d2=st.floats(0, 600))
@settings(max_examples=60, deadline=None)
def test_grading_monotone_in_days(graded_rules, d1, d2):
    lo, hi = sorted((d1, d2))
    b_lo = default_entitlement_benefit(3000.0, lo, True, graded_rules)
    b_hi = default_entitlement_benefit(3000.0, hi, True, graded_rules)
    assert b_hi <= b_lo + 1e-12


def test_entitlement_days_menu(rules2023):
    er = rules2023.unemployment.er
    assert entitlement_days(1.0, 30.0, rules2023) == er.short_career_days
    assert entitlement_days(10.0, 40.0, rules2023) == er.max_days_default
    assert entitlement_days(20.0, 59.0, rules2023) == er.senior_days


# ---------------------------------------------------------------------------
# pension parts
# ---------------------------------------------------------------------------

def pension_benefit(accrued_er_monthly, rules):
    """``_pension_parts`` by name."""
    return dict(zip(("er", "basic", "guarantee"), _pension_parts(accrued_er_monthly, rules)))


def test_pension_no_accrual(rules2023):
    parts = pension_benefit(0.0, rules2023)
    assert parts["basic"] == rules2023.pension.basic_pension.full
    total = parts["er"] + parts["basic"] + parts["guarantee"]
    assert total == pytest.approx(rules2023.pension.guarantee_level)


def test_pension_zero_at_cutoff(rules2023):
    cutoff = rules2023.pension.basic_pension.cutoff
    assert pension_benefit(cutoff, rules2023)["basic"] == 0.0
    assert pension_benefit(cutoff + 500.0, rules2023)["basic"] == 0.0


def test_pension_taper_arithmetic(rules2023):
    parts = pension_benefit(800.0, rules2023)
    assert parts["basic"] == pytest.approx(rules2023.pension.basic_pension.full - 400.0)


def test_pension_taper_slope_by_finite_differences(rules2023):
    bp = rules2023.pension.basic_pension
    eps = 1.0
    for accrued in (200.0, 700.0, 1200.0):
        hi = pension_benefit(accrued + eps, rules2023)["basic"]
        lo = pension_benefit(accrued - eps, rules2023)["basic"]
        assert (hi - lo) / (2 * eps) == pytest.approx(-bp.taper, abs=1e-12)
    outside = bp.cutoff + 200.0
    hi = pension_benefit(outside + eps, rules2023)["basic"]
    lo = pension_benefit(outside - eps, rules2023)["basic"]
    assert hi == lo == 0.0


@given(a1=st.floats(0, 4000), a2=st.floats(0, 4000))
@settings(max_examples=60, deadline=None)
def test_pension_total_monotone(rules2023, a1, a2):
    lo, hi = sorted((a1, a2))
    t = lambda a: sum(pension_benefit(a, rules2023).values())
    assert t(hi) >= t(lo) - 1e-9


# ---------------------------------------------------------------------------
# housing benefit and social assistance
# ---------------------------------------------------------------------------

def housing_benefit(hh, income_monthly, rules, n_alive, retired):
    return _housing_benefit(hh.rent_monthly, hh.children_under18, income_monthly, n_alive,
                            _housing_schedule(rules, retired))


def social_assistance(hh, net_wages_monthly, other_net_monthly, rules, n_alive):
    return _social_assistance(hh.rent_monthly, hh.children_under7, hh.children_under18, net_wages_monthly,
                              other_net_monthly, n_alive, rules.social_assistance)


def test_housing_benefit_floor_and_ceiling(rules2023):
    hh = single(S.BASIC_UNEMPLOYED)
    sched = rules2023.housing_benefit.general
    maximal = housing_benefit(hh, 0.0, rules2023, 1, False)
    assert maximal == pytest.approx(sched.compensation_share * sched.max_rent_by_size[0])
    assert housing_benefit(hh, 50000.0, rules2023, 1, False) == 0.0
    assert 0.0 <= maximal <= hh.rent_monthly


def test_housing_benefit_taper_matches_schedule(rules2023):
    hh = single(S.BASIC_UNEMPLOYED)
    sched = rules2023.housing_benefit.general
    # Two incomes inside the taper: difference = share * rate * d(income)
    i1, i2 = 1500.0, 1700.0
    b1 = housing_benefit(hh, i1, rules2023, 1, False)
    b2 = housing_benefit(hh, i2, rules2023, 1, False)
    assert b1 > b2 > 0
    expected = sched.compensation_share * sched.income_deductible_rate * (i2 - i1)
    assert b1 - b2 == pytest.approx(expected, rel=1e-12)


def test_housing_retiree_schedule_used_for_retirees(rules2023):
    retiree = single(S.RETIRED)
    expected = rules2023.housing_benefit.retiree.compensation_share * rules2023.housing_benefit.retiree.max_rent_by_size[0]
    assert housing_benefit(retiree, 0.0, rules2023, 1, True) == pytest.approx(expected)


def test_social_assistance_disregard(rules2023):
    hh = single(S.OUTSIDE_WF)
    base = social_assistance(hh, [0.0], 0.0, rules2023, 1)
    at_disregard = social_assistance(hh, [150.0], 0.0, rules2023, 1)
    above = social_assistance(hh, [250.0], 0.0, rules2023, 1)
    assert at_disregard == pytest.approx(base)          # disregard absorbs the wage
    assert above == pytest.approx(at_disregard - 100.0)  # euro-for-euro beyond it


def test_social_assistance_ceiling(rules2023):
    hh = single(S.OUTSIDE_WF)
    sa = rules2023.social_assistance
    assert social_assistance(hh, [0.0], sa.norm_single + hh.rent_monthly, rules2023, 1) == 0.0


# ---------------------------------------------------------------------------
# net_income composition
# ---------------------------------------------------------------------------

def assert_identity(cf):
    lhs = cf.net_income
    rhs = cf.gross_wage + cf.benefits_total() - cf.taxes_total() - cf.contribs_total()
    assert abs(lhs - rhs) < 1e-6
    assert abs((cf.consumption + cf.vat) - cf.net_income) < 1e-9


def test_zero_snapshot_floored_by_social_assistance(rules2023):
    hh = single(S.OUTSIDE_WF)
    cf = net_income(hh, rules2023)
    sa = rules2023.social_assistance
    expected_net_q = (sa.norm_single + hh.rent_monthly) * 3.0
    assert cf.net_income == pytest.approx(expected_net_q)
    expected_vat = rules2023.tax.vat_rate * max(0.0, cf.net_income - cf.rent)
    assert cf.vat == pytest.approx(expected_vat)
    assert cf.consumption == pytest.approx(cf.net_income - cf.vat)
    assert_identity(cf)


def test_high_earner_no_benefits(rules2023):
    hh = single(S.FULL_TIME, wage_q=20000.0)
    cf = net_income(hh, rules2023)
    assert cf.benefits_total() == 0.0
    assert cf.net_income == pytest.approx(cf.gross_wage - cf.taxes_total() - cf.contribs_total())
    assert_identity(cf)


def test_deceased_agent_only_survivor_pension(rules2023):
    hh = HouseholdSnapshot(
        adults=(
            AdultSnapshot(state=S.RETIRED, pension_paid_monthly=1600.0, age=80.0),
            AdultSnapshot(state=S.DEAD, pension_accrued_monthly=1200.0),
        ),
        partnered=True,
        rent_monthly=650.0,
    )
    cf = net_income(hh, rules2023)
    assert cf.survivor_pension == pytest.approx(rules2023.pension.survivor_share * 1200.0 * 3.0)
    assert cf.adult_wages[1] == 0.0
    assert_identity(cf)

    all_dead = HouseholdSnapshot(
        adults=(AdultSnapshot(state=S.DEAD), AdultSnapshot(state=S.DEAD)), rent_monthly=650.0
    )
    cf0 = net_income(all_dead, rules2023)
    assert cf0.net_income == 0.0 and cf0.benefits_total() == 0.0 and cf0.consumption == 0.0


def test_invalid_children_banding_rejected(rules2023):
    hh = single(S.FULL_TIME, wage_q=9000.0)
    bad = dataclasses.replace(hh, children_under3=2, children_under7=1, children_under18=3)
    with pytest.raises(ContractViolation):
        net_income(bad, rules2023)


@st.composite
def snapshots(draw):
    n_adults = draw(st.integers(1, 2))
    adults = []
    for _ in range(n_adults):
        state = draw(st.sampled_from(sorted(S)))
        adults.append(
            AdultSnapshot(
                state=state,
                wage_quarterly=draw(st.floats(0, 30000)) if state in (S.FULL_TIME, S.PART_TIME, S.RETIRED_PT, S.RETIRED_FT) else 0.0,
                age=draw(st.floats(18, 100)),
                ub_basis_monthly=draw(st.floats(0, 6000)),
                ub_days_used=draw(st.floats(0, 500)),
                ub_max_days=draw(st.sampled_from([300.0, 400.0, 500.0])),
                fund_member=draw(st.booleans()),
                pension_paid_monthly=draw(st.floats(0, 4000)),
                pension_accrued_monthly=draw(st.floats(0, 4000)),
                partial_early_monthly=draw(st.sampled_from([0.0, 0.0, 150.0, 400.0])),
                wage_basis_monthly=draw(st.floats(0, 5000)),
            )
        )
    u3 = draw(st.integers(0, 2))
    u7 = u3 + draw(st.integers(0, 2))
    u18 = u7 + draw(st.integers(0, 2))
    return HouseholdSnapshot(
        adults=tuple(adults),
        children_under3=u3,
        children_under7=u7,
        children_under18=u18,
        partnered=n_adults == 2 and draw(st.booleans()),
        rent_monthly=draw(st.floats(300, 1600)),
    )


@given(hh=snapshots())
@settings(max_examples=150, deadline=None)
def test_budget_identity_randomized(rules2023, hh):
    cf = net_income(hh, rules2023)
    assert_identity(cf)
    for name in TAX_FIELDS + CONTRIB_FIELDS + BENEFIT_FIELDS:
        assert getattr(cf, name) >= 0.0
    if any(a.state != S.DEAD for a in hh.adults):
        assert cf.net_income > 0.0


@given(w1=st.floats(0, 20000), w2=st.floats(0, 20000))
@settings(max_examples=80, deadline=None)
def test_net_income_monotone_in_gross(rules2023, w1, w2):
    lo, hi = sorted((w1, w2))
    net = lambda w: net_income(single(S.FULL_TIME, wage_q=w), rules2023).net_income
    assert net(hi) >= net(lo) - 1e-6


# ---------------------------------------------------------------------------
# EMTR / PTR
# ---------------------------------------------------------------------------

def test_emtr_social_assistance_region_is_one(rules2023):
    hh = single(S.FULL_TIME, wage_q=800.0 * 3)
    parts = emtr(hh, rules2023)
    assert parts["total"] == pytest.approx(1.0, abs=1e-9)


def test_emtr_top_wedge_matches_statutory_rates(rules2023):
    hh = single(S.FULL_TIME, wage_q=40000.0)
    parts = emtr(hh, rules2023)
    expected = (
        rules2023.tax.state_brackets[-1][1]
        + rules2023.tax.municipal_rate
        + rules2023.contributions.employee.total_rate
    )
    assert parts["total"] == pytest.approx(expected, abs=1e-6)


def test_emtr_zero_benefit_component_inside_disregard(rules2023):
    # A wage bump that stays inside the social-assistance earnings disregard
    # does not move the benefit at all.
    hh = single(S.FULL_TIME, wage_q=0.0)
    parts = emtr(hh, rules2023, delta_monthly=100.0)
    assert parts["social_assistance"] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("wage_monthly", [300.0, 900.0, 1800.0, 3200.0, 5200.0])
def test_emtr_decomposition_sums(rules2023, wage_monthly):
    hh = single(S.FULL_TIME, wage_q=wage_monthly * 3)
    parts = emtr(hh, rules2023)
    total = parts.pop("total")
    assert sum(parts.values()) == pytest.approx(total, abs=1e-9)


def test_ptr_degenerate_cases(rules2023):
    emp = single(S.FULL_TIME, wage_q=9000.0)
    assert ptr(emp, emp, rules2023) == pytest.approx(1.0)
    with pytest.raises(ContractViolation):
        ptr(single(S.BASIC_UNEMPLOYED), single(S.BASIC_UNEMPLOYED), rules2023)


def test_ptr_full_keep_is_zero(rules2023):
    # No taxes/benefits on either side: engineer by comparing a dead-partner
    # household against itself is degenerate, so check the identity directly:
    # net difference equal to gross implies ptr == 0.
    emp = single(S.FULL_TIME, wage_q=9000.0)
    un = single(S.OUTSIDE_WF)
    cf_e = net_income(emp, rules2023)
    cf_u = net_income(un, rules2023)
    expected = 1.0 - (cf_e.net_income - cf_u.net_income) / cf_e.gross_wage
    assert ptr(emp, un, rules2023) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# Rule-set validation and all shipped years
# ---------------------------------------------------------------------------

def test_all_years_pass_identity_and_emtr(all_year_rules):
    for rs in all_year_rules:
        hh = single(S.FULL_TIME, wage_q=9000.0)
        cf = net_income(hh, rs)
        assert_identity(cf)
        parts = emtr(hh, rs)
        total = parts.pop("total")
        assert sum(parts.values()) == pytest.approx(total, abs=1e-9)


@pytest.mark.parametrize("path, value", [
    (("tax", "standard_deduction"), -1.0),
    (("tax", "yle", "floor"), -1.0),
    (("tax", "yle", "cap"), -1.0),
    (("tax", "state_brackets"), [[-100.0, 0.1264], [19900.0, 0.19]]),
])
def test_negative_tax_thresholds_rejected(rules2023, path, value):
    """A zero wage owes exactly zero tax under every accepted rule set."""
    doc = yaml.safe_load(open(ruleset_path(2023)))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ParameterError, match="non-negative"):
        ruleset_from_mapping(doc)
    tc = wage_charges(0.0, rules2023)
    assert all(str(v) == "0.0" for v in tc.values())


def test_invalid_grading_rejected():
    doc = yaml.safe_load(open(ruleset_path(2023)))
    doc["unemployment"]["er"]["grading"] = [[40, 0.80], [170, 0.90]]  # increasing
    with pytest.raises(ParameterError):
        ruleset_from_mapping(doc)


def test_invalid_brackets_rejected():
    doc = yaml.safe_load(open(ruleset_path(2023)))
    doc["tax"]["state_brackets"] = [[0, 0.1], [50000, 0.2], [30000, 0.3]]
    with pytest.raises(ParameterError):
        ruleset_from_mapping(doc)


# ---------------------------------------------------------------------------
# strict rule-file loading: the RuleSet dataclasses are the file schema
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("path", sorted(params_dir().glob("rules_*.yaml")), ids=lambda p: p.name)
def test_packaged_rule_files_load_strictly(path):
    rs = load_ruleset(path)
    assert f"rules_{rs.year}.yaml" == path.name


@pytest.mark.parametrize("path", sorted(params_dir().rglob("*.yaml")), ids=lambda p: p.name)
def test_load_yaml_matches_pure_python_safe_load(path):
    # repr tells 1 from 1.0 and True, so equal reprs mean equal, same-typed documents.
    assert repr(load_yaml(path)) == repr(yaml.safe_load(path.read_text()))


def _set(doc, dotted, value):
    *parents, last = dotted.split(".")
    for key in parents:
        doc = doc[key]
    doc[last] = value


def _misspell_grading(doc):
    er = doc["unemployment"]["er"]
    er["gradng"] = er.pop("grading")


def _drop_yle_cap(doc):
    del doc["tax"]["yle"]["cap"]


@pytest.mark.parametrize("mutate, path", [
    (_misspell_grading, "unemployment.er.gradng"),
    (lambda d: _set(d, "pension.partial_early.shares", [0.25, 0.5]), "pension.partial_early.shares"),
    (_drop_yle_cap, "tax.yle.cap"),
    (lambda d: _set(d, "unemployment.er.grading", None), "unemployment.er.grading"),
    (lambda d: _set(d, "unemployment.er.condition_months", 6.5), "unemployment.er.condition_months"),
    (lambda d: _set(d, "tax.municipal_rate", "0.07"), "tax.municipal_rate"),
    (lambda d: _set(d, "tax.vat_rate", True), "tax.vat_rate"),
    (lambda d: _set(d, "tax.yle", 0.025), "tax.yle"),
    (lambda d: _set(d, "tax.state_brackets", [[0, 0.1], [20000]]), r"tax.state_brackets\[1\]"),
    (lambda d: _set(d, "housing_benefit.general.max_rent_by_size", [537, "778"]),
     r"housing_benefit.general.max_rent_by_size\[1\]"),
], ids=["unknown-key", "dropped-key", "missing-key", "null-grading", "float-for-int", "string-for-float",
        "bool-for-float", "scalar-for-mapping", "short-pair", "string-in-list"])
def test_malformed_rule_file_rejected_by_path(mutate, path):
    doc = yaml.safe_load(open(ruleset_path(2023)))
    mutate(doc)
    with pytest.raises(ParameterError, match=path):
        ruleset_from_mapping(doc)


def cashflow_record(cf):
    """Flat key/value view of a CashFlows, as a CSV row would hold it."""
    return {f.name: getattr(cf, f.name) for f in dataclasses.fields(cf) if f.name != "adult_wages"}


def test_cashflow_record_roundtrip(rules2023):
    cf = net_income(single(S.FULL_TIME, wage_q=9000.0), rules2023)
    rec = cashflow_record(cf)
    assert rec["net_income"] == cf.net_income
    assert "adult_wages" not in rec
    assert all(isinstance(v, float) for v in rec.values())
