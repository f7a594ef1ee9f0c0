"""The environment's pricing path against the verbatim earlier engine.

``LifecycleEnv.household_flows`` prices each budget unit from rows read
straight from the agents' state.  Here every ``CashFlows`` field it returns
must equal, bit for bit, ``rules_oracle.net_income`` on the unit's snapshot
built the way the environment built it before (``oracle_units`` below), and
``budget_units`` must return those snapshots.  The households are
random-policy trajectories of singles and pairs (with partners dying,
working retirees, and earnings-related and extended unemployment spells),
run through the decision and static phases under every packaged year and
2023 with the packaged ``orpo`` reform, plus four hand-built units.  The
last tests check that each rule set prices with the constants derived from
its own fields, also when a dropped rule set's ``id`` is reused and after
pickling.
"""

import dataclasses
import gc
import pickle
import struct

import numpy as np
import pytest

import rules_oracle
from lifesim.agent import AgentState, HouseholdState, mother_of
from lifesim.env import LifecycleEnv, load_utility_params
from lifesim.env.actions import N_ACTIONS
from lifesim.env.features import OBS_DIM
from lifesim.env.mdp import DECISION_END_AGE, DT
from lifesim.env.vector import observe_households, step_households
from lifesim.paramfiles import params_dir, ruleset_path
from lifesim.population import init_population, load_demographics
from lifesim.reform import apply_reform, load_reform
from lifesim.rules import AdultSnapshot, HouseholdSnapshot, load_ruleset, net_income
from lifesim.states import WORKING_STATES, EmploymentState as S
from lifesim.wage import load_wage_params

RULE_NAMES = [str(year) for year in range(2018, 2025)] + ["2023+orpo"]
STATIC_QUARTERS = 12


def _rules(name):
    if name == "2023+orpo":
        return apply_reform(load_ruleset(ruleset_path(2023)),
                            load_reform(params_dir() / "reforms" / "orpo.yaml"))[0]
    return load_ruleset(ruleset_path(int(name)))


def _env(rules):
    return LifecycleEnv(rules, load_utility_params(), load_wage_params(), load_demographics())


def bits(cf) -> dict:
    """Every CashFlows field as raw float64 bits, so 0.0 and -0.0 differ."""
    out = {}
    for f in dataclasses.fields(cf):
        value = getattr(cf, f.name)
        values = value if isinstance(value, tuple) else (value,)
        out[f.name] = tuple(struct.pack("<d", v) for v in values)
    return out


def oracle_units(hh: HouseholdState, rules) -> list[tuple[HouseholdSnapshot, tuple[int, ...]]]:
    """The budget units as the environment built their snapshots before it
    priced rows from the agents' state."""
    def snapshot(a: AgentState) -> AdultSnapshot:
        return AdultSnapshot(
            state=a.state,
            wage_quarterly=a.paid_wage / 4.0 if a.state in WORKING_STATES else 0.0,
            age=a.age,
            ub_basis_monthly=a.ub_basis,
            ub_days_used=a.ub_days_used,
            ub_max_days=a.ub_max_days,
            fund_member=a.fund_member,
            pension_paid_monthly=a.pension_paid,
            pension_accrued_monthly=a.pension_accrued,
            partial_early_monthly=a.partial_early_paid,
            wage_basis_monthly=a.prev_paid_wage / 12.0,
        )

    adults = hh.adults
    bands = hh.bands
    if len(adults) == 2 and hh.partnered:
        groups = [((0, 1), bands)]
    else:
        mother = mother_of(hh)
        custodian = mother if mother is not None and mother.alive else next(
            (a for a in adults if a.alive), None)
        groups = [((i,), bands if a is custodian else (0, 0, 0))
                  for i, a in enumerate(adults) if a.alive]
    units = []
    for slots, (u3, u7, u18) in groups:
        alive = sum(1 for i in slots if adults[i].alive)
        units.append((HouseholdSnapshot(
            adults=tuple(snapshot(adults[i]) for i in slots),
            children_under3=u3, children_under7=u7, children_under18=u18,
            partnered=hh.partnered and alive == 2,
            rent_monthly=rules.rent_for_size(alive + u18),
        ), slots))
    return units


def check_flows(env: LifecycleEnv, hh: HouseholdState) -> None:
    units = oracle_units(hh, env.rules)
    assert env.budget_units(hh) == units
    flows, consumptions = env.household_flows(hh)
    assert [bits(cf) for cf in flows] == [bits(rules_oracle.net_income(snap, env.rules)) for snap, _ in units]
    want = [0.0] * len(hh.adults)
    for cf, (_, slots) in zip(flows, units):
        living = [i for i in slots if hh.adults[i].alive]
        for i in living:
            want[i] = cf.consumption / len(living)
    assert [struct.pack("<d", c) for c in consumptions] == [struct.pack("<d", c) for c in want]


def _late_starters(seed: int) -> list[HouseholdState]:
    """Pairs that enter the trajectory with the man at 60.5 on
    earnings-related benefit close to its end and the woman at 62 in work."""
    households = []
    for k in range(6):
        a = AgentState(gender="men", group=k % 3, age=60.5, state=S.ER_UNEMPLOYED, ub_basis=2600.0,
                       ub_days_used=270.0 + 10.0 * k, ub_max_days=400.0, prev_paid_wage=36000.0,
                       pension_accrued=1400.0, career_quarters=140, work_window=[(True, 9000.0)] * 4)
        b = AgentState(gender="women", group=1, age=62.0, state=S.FULL_TIME, hours=40,
                       paid_wage=30000.0, prev_paid_wage=30000.0, pension_accrued=1100.0)
        for x in (a, b):
            x.life_left = 400
        households.append(HouseholdState(adults=(a, b), partnered=k % 2 == 0,
                                         rng_exo=np.random.default_rng((seed, k, 0)),
                                         rng_act=np.random.default_rng((seed, k, 1))))
    return households


@pytest.mark.parametrize("rules_name", RULE_NAMES)
def test_household_flows_match_oracle_along_trajectories(rules_name):
    env = _env(_rules(rules_name))
    seed = 40 + RULE_NAMES.index(rules_name)
    households = init_population(21, env.tables, seed=seed).households + _late_starters(seed)
    rng = np.random.default_rng(seed)
    decision_quarters = int(round((DECISION_END_AGE - 18.0) / DT))
    for hh in households[:-6]:
        for a in hh.adults:
            if rng.random() < 0.3:
                a.life_left = int(rng.integers(1, decision_quarters))
    n_rows = sum(len(hh.adults) for hh in households)
    obs = np.empty((n_rows, OBS_DIM))
    masks = np.empty((n_rows, N_ACTIONS), dtype=bool)
    seen = dict.fromkeys(("single", "pair", "dead_partner", "working_retiree", "er", "er_extended"), 0)

    live = households
    for _ in range(decision_quarters):
        live = [hh for hh in live if max(a.age for a in hh.adults) < DECISION_END_AGE]
        if not live:
            break
        rows = sum(len(hh.adults) for hh in live)
        observe_households(live, env, obs[:rows], masks[:rows])
        acts = [int(rng.choice(np.flatnonzero(m))) for m in masks[:rows]]
        step_households(live, env, acts, masks[:rows])
        for hh in live:
            check_flows(env, hh)
            states = [a.state for a in hh.adults]
            seen["single"] += len(hh.adults) == 1
            seen["pair"] += len(hh.adults) == 2
            seen["dead_partner"] += len(hh.adults) == 2 and states.count(S.DEAD) == 1
            seen["working_retiree"] += S.RETIRED_PT in states or S.RETIRED_FT in states
            seen["er"] += S.ER_UNEMPLOYED in states
            seen["er_extended"] += S.ER_EXTENDED in states

    for hh in households:
        env.freeze_for_static_phase(hh)
        check_flows(env, hh)
        last = None
        for _ in range(STATIC_QUARTERS):
            last = env.static_quarter(hh, last)
            check_flows(env, hh)

    if env.rules.unemployment.er.extended_min_age is None:
        del seen["er_extended"]
    assert all(seen.values()), seen


def _unit_household(case: str) -> HouseholdState:
    def agent(state, gender, age, **kw):
        a = AgentState(gender=gender, group=1, age=age, state=state, **kw)
        a.life_left = 400
        return a

    m = agent(S.FULL_TIME, "men", 40.0, hours=40, paid_wage=42000.0, prev_paid_wage=41000.0)
    f = agent(S.FULL_TIME, "women", 38.0, hours=40, paid_wage=30000.0, prev_paid_wage=29000.0)
    if case == "married":
        return HouseholdState(adults=(m, f), partnered=True, child_ages=[2.0])
    if case == "unmarried_with_child":
        return HouseholdState(adults=(m, f), child_ages=[2.0])
    if case == "unmarried_mother_dead":
        return HouseholdState(adults=(m, agent(S.DEAD, "women", 38.0)), child_ages=[2.0])
    retiree = agent(S.RETIRED, "men", 80.0, pension_paid=1500.0, pension_accrued=1600.0)
    return HouseholdState(adults=(retiree, agent(S.DEAD, "women", 78.0, pension_accrued=1200.0)),
                          partnered=True)


@pytest.mark.parametrize("rules_name", ["2023", "2023+orpo", "2018"])
@pytest.mark.parametrize("case", ["married", "unmarried_with_child", "unmarried_mother_dead", "widowed"])
def test_household_flows_match_oracle_on_hand_built_units(rules_name, case):
    env = _env(_rules(rules_name))
    hh = _unit_household(case)
    check_flows(env, hh)
    flows, _ = env.household_flows(hh)
    assert len(flows) == (2 if case == "unmarried_with_child" else 1)
    assert sum(cf.child_benefit > 0 for cf in flows) == (case != "widowed")
    if case == "widowed":
        assert flows[0].survivor_pension > 0.0


def _snapshot() -> HouseholdSnapshot:
    return HouseholdSnapshot(
        adults=(AdultSnapshot(state=S.FULL_TIME, wage_quarterly=11_000.0),
                AdultSnapshot(state=S.ER_UNEMPLOYED, ub_basis_monthly=3_100.0, ub_days_used=130.0,
                              fund_member=True),
                AdultSnapshot(state=S.DEAD, pension_accrued_monthly=700.0)),
        children_under7=1, children_under18=2, rent_monthly=900.0)


def _variant(base, i: int):
    """A copy of ``base`` that differs in the state-tax brackets, the ER
    grading and the general housing benefit: by reform for even ``i``, by
    ``dataclasses.replace`` for odd ``i``."""
    if i % 2 == 0:
        return apply_reform(base, load_reform(params_dir() / "reforms" / "orpo.yaml"))[0]
    scale = 1.0 + 0.05 * i
    tax = dataclasses.replace(base.tax, state_brackets=tuple(
        (lo * scale, rate) for lo, rate in base.tax.state_brackets))
    er = dataclasses.replace(base.unemployment.er, grading=((20 * i, 0.9),))
    general = dataclasses.replace(base.housing_benefit.general, compensation_share=0.5 + 0.02 * i)
    return dataclasses.replace(
        base, tax=tax, unemployment=dataclasses.replace(base.unemployment, er=er),
        housing_benefit=dataclasses.replace(base.housing_benefit, general=general))


def test_each_rule_set_prices_with_its_own_constants():
    """Rule sets made one after another, each after the last was dropped,
    so their ids repeat: an id-keyed cache of derived constants would hand a
    copy the constants of a dead rule set."""
    hh = _snapshot()
    ids, prices = [], set()
    for i in range(12):
        base = load_ruleset(ruleset_path(2018 + i % 7))
        rules = _variant(base, i)
        del base
        gc.collect()
        assert bits(net_income(hh, rules)) == bits(rules_oracle.net_income(hh, rules)), i
        prices.add(net_income(hh, rules).net_income)
        ids.append(id(rules))
        del rules
        gc.collect()
    assert len(set(ids)) < len(ids)
    assert len(prices) > 6


def test_pickled_rule_set_keeps_its_constants():
    rules = _variant(load_ruleset(ruleset_path(2023)), 3)
    restored = pickle.loads(pickle.dumps(rules))
    slots = type(rules.pricing).__slots__
    assert [getattr(restored.pricing, s) for s in slots] == [getattr(rules.pricing, s) for s in slots]
    hh = _snapshot()
    assert bits(net_income(hh, restored)) == bits(rules_oracle.net_income(hh, rules))
    env = pickle.loads(pickle.dumps(_env(rules)))
    assert env.rules.pricing.bracket_below == rules.pricing.bracket_below
