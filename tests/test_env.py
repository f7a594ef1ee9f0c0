import copy
import dataclasses
import math

import numpy as np
import pytest

import lifesim.env.mdp as mdp
import population_oracle
from lifesim.agent import NO_EVENT, AgentState, HouseholdState, child_bands
from lifesim.env.mdp import DT, MAX_AGE
from lifesim.env import (
    ACTIONS,
    LifecycleEnv,
    N_ACTIONS,
    encode,
    OBS_DIM,
    legal_mask,
    load_utility_params,
)
from lifesim.env.actions import (
    A_FT,
    A_HOME_CARE,
    A_PARTIAL25,
    A_PT,
    A_QUIT,
    A_RETIRE,
    A_STAY,
    Decision,
)
from lifesim.errors import ContractViolation
from lifesim.paramfiles import params_dir
from lifesim.reform import apply_reform, load_reform
from lifesim.rules import net_income
from lifesim.population import ExogenousHazards, Gompertz, load_demographics
from lifesim.states import WORKING_STATES, EmploymentState as S
from lifesim.wage import load_wage_params
from one_household import budget_units, household_flows, kappa, legal_actions, mu_term, utility
from transition_table import is_legal


@pytest.fixture(scope="module")
def uparams():
    return load_utility_params(params_dir() / "utility.yaml")


@pytest.fixture(scope="module")
def tables():
    return load_demographics(params_dir() / "demographics.yaml")


@pytest.fixture(scope="module")
def env(rules2023, uparams, tables):
    return LifecycleEnv(rules2023, uparams, load_wage_params(params_dir() / "wages.yaml"), tables)


def make_agent(state=S.FULL_TIME, gender="men", age=40.0, hours=40, **kw):
    a = AgentState(gender=gender, group=1, age=age, state=state, hours=hours, **kw)
    a.life_left = 400
    return a


def make_household(*agents, partnered=False, children=()):
    return HouseholdState(adults=tuple(agents), partnered=partnered, child_ages=list(children), key=(1, 0))


# ---------------------------------------------------------------------------
# utility, kappa, mu
# ---------------------------------------------------------------------------

def test_dead_agent_zero_utility(uparams):
    assert utility(0.0, S.DEAD, "men", 0, 80.0, False, False, 64.0, uparams) == 0.0


def test_unit_consumption_retired_zero(uparams):
    c_q = uparams.deflator.at() / 4.0
    u = utility(c_q, S.RETIRED, "men", 0, 50.0, False, False, 64.0, uparams)
    assert u == pytest.approx(0.0, abs=1e-12)


def test_full_time_kappa_value(uparams):
    c_q = uparams.deflator.at() / 4.0
    u = utility(c_q, S.FULL_TIME, "men", 40, 40.0, False, False, 64.0, uparams)
    assert u == pytest.approx(-0.705)


def test_kappa_pink_slip_zero(uparams):
    k_quit = kappa(S.BASIC_UNEMPLOYED, "men", 0, 40.0, False, False, uparams)
    k_laid_off = kappa(S.BASIC_UNEMPLOYED, "men", 0, 40.0, True, False, uparams)
    assert k_quit == pytest.approx(-0.150)
    assert k_laid_off == 0.0


def test_kappa_unemployment_age_bands(uparams):
    assert kappa(S.ER_UNEMPLOYED, "men", 0, 25.0, False, False, uparams) == pytest.approx(-0.250)
    assert kappa(S.ER_UNEMPLOYED, "men", 0, 40.0, False, False, uparams) == pytest.approx(-0.150)
    assert kappa(S.ER_UNEMPLOYED, "men", 0, 60.0, False, False, uparams) == pytest.approx(-0.100)


def test_kappa_hours_ordering(uparams):
    for gender in ("men", "women"):
        ks = [kappa(S.FULL_TIME, gender, h, 40.0, False, False, uparams) for h in (32, 40, 48)]
        ks = [kappa(S.PART_TIME, gender, h, 40.0, False, False, uparams) for h in (8, 16, 24)] + ks
        assert all(b <= a + 1e-12 for a, b in zip(ks, ks[1:]))


def test_nonpositive_consumption_rejected(uparams):
    with pytest.raises(ContractViolation):
        utility(0.0, S.FULL_TIME, "men", 40, 40.0, False, False, 64.0, uparams)


def test_mu_kink_is_zero(uparams):
    # Men: S_age = r_age - 5
    assert mu_term(59.0, "men", 40, 64.0, uparams) == 0.0
    assert mu_term(45.0, "men", 40, 64.0, uparams) == 0.0


def test_mu_at_retirement_age(uparams):
    # q1 = 0.075 at 40 h; five years past S_age.
    assert mu_term(64.0, "men", 40, 64.0, uparams) == pytest.approx(0.375)


def test_mu_saturates(uparams):
    p = uparams.mu["men"]
    r_age = 64.0
    cap = p.q1 * (r_age - (r_age + p.s_age_offset)) + p.q2 * ((r_age + p.s_ret_offset) - r_age)
    assert mu_term(r_age + p.s_ret_offset + 10.0, "men", 40, r_age, uparams) == pytest.approx(cap)


def test_mu_zero_when_not_working(uparams):
    assert mu_term(64.0, "men", 0, 64.0, uparams) == 0.0


# ---------------------------------------------------------------------------
# legal actions
# ---------------------------------------------------------------------------

def test_retired_actions(rules2023):
    a = make_agent(S.RETIRED, age=66.0, hours=0)
    hh = make_household(a)
    kinds = {ACTIONS[i].decision for i, ok in enumerate(legal_mask(a, hh, rules2023)) if ok}
    assert kinds == {Decision.STAY, Decision.WORK_PT, Decision.WORK_FT}


def test_student_part_time_only(rules2023):
    a = make_agent(S.STUDENT, age=20.0, hours=0)
    a.spell_left = 8
    hh = make_household(a)
    kinds = {ACTIONS[i].decision for i, ok in enumerate(legal_mask(a, hh, rules2023)) if ok}
    assert kinds == {Decision.STAY, Decision.WORK_PT}


def test_retire_age_gated(rules2023):
    young = make_agent(S.FULL_TIME, age=45.0)
    old = make_agent(S.FULL_TIME, age=64.5)
    hh_y, hh_o = make_household(young), make_household(old)
    assert not legal_mask(young, hh_y, rules2023)[A_RETIRE]
    assert legal_mask(old, hh_o, rules2023)[A_RETIRE]


def test_partial_early_gates(rules2023):
    a = make_agent(S.FULL_TIME, age=62.0)
    a.pension_accrued = 1500.0
    hh = make_household(a)
    assert legal_mask(a, hh, rules2023)[A_PARTIAL25]
    a2 = make_agent(S.FULL_TIME, age=59.0)
    a2.pension_accrued = 1500.0
    assert not legal_mask(a2, make_household(a2), rules2023)[A_PARTIAL25]
    a3 = make_agent(S.FULL_TIME, age=62.0)
    a3.pension_accrued = 1500.0
    a3.partial_early_share = 0.25
    assert not legal_mask(a3, make_household(a3), rules2023)[A_PARTIAL25]


def test_home_care_needs_young_child(rules2023):
    a = make_agent(S.FULL_TIME, age=30.0)
    assert not legal_mask(a, make_household(a), rules2023)[A_HOME_CARE]
    hh = make_household(make_agent(S.FULL_TIME, age=30.0), children=(1.0,))
    assert legal_mask(hh.adults[0], hh, rules2023)[A_HOME_CARE]


def test_mask_never_empty_and_stay_always_legal(rules2023):
    for state in S:
        a = make_agent(state, age=40.0, hours=40 if state in (S.FULL_TIME,) else 0)
        hh = make_household(a)
        mask = legal_mask(a, hh, rules2023)
        assert mask[A_STAY]
        assert mask.sum() >= 1


def test_legal_actions_returns_action_objects(rules2023):
    a = make_agent(S.FULL_TIME)
    acts = legal_actions(a, make_household(a), rules2023)
    assert all(hasattr(x, "decision") for x in acts)
    assert ACTIONS[A_STAY] in acts


# ---------------------------------------------------------------------------
# exogenous transitions
# ---------------------------------------------------------------------------

def zeroed_env(env, **overrides):
    zeros = {f.name: 0.0 for f in dataclasses.fields(ExogenousHazards)
             if f.name.endswith("quarterly") or f.name in ("disability_after_sick", "father_leave_at_birth")}
    exo = dataclasses.replace(env.tables.exogenous, **zeros, sick_max_quarters=4,
                              mother_leave_quarters=3, father_leave_quarters=1)
    exo = dataclasses.replace(exo, **overrides)
    tables = dataclasses.replace(
        env.tables,
        exogenous=exo,
        mortality={g: Gompertz(0.0, 0.0) for g in env.tables.mortality},
        fertility_annual=[(18.0, 0.0)],
        marriage_annual=[(18.0, 0.0)],
        divorce_annual=[(18.0, 0.0)],
    )
    return LifecycleEnv(env.rules, env.uparams, env.wparams, tables)


def test_zero_hazards_no_forced_transitions(env):
    quiet = zeroed_env(env)
    a = make_agent(S.FULL_TIME, age=40.0)
    hh = make_household(a)
    for _ in range(12):
        out = quiet.step(hh, (A_STAY,))
    assert a.state is S.FULL_TIME
    assert "layoff" not in out.events


def test_sick_leave_one_year_then_disability(env):
    sick_env = zeroed_env(env, disability_after_sick=1.0, sick_continue_quarterly=1.0)
    a = make_agent(S.SICK_LEAVE, age=40.0, hours=0)
    a.sick_quarters = 0
    a.prev_paid_wage = 30000.0
    hh = make_household(a)
    for _ in range(4):
        sick_env.step(hh, (A_STAY,))
    assert a.state is S.DISABLED


def test_sick_leave_recovery_returns_to_decision(env):
    well_env = zeroed_env(env, disability_after_sick=0.0, sick_continue_quarterly=0.0)
    a = make_agent(S.SICK_LEAVE, age=40.0, hours=0)
    a.prev_paid_wage = 30000.0
    hh = make_household(a)
    well_env.step(hh, (A_STAY,))
    assert a.returning and a.state is S.SICK_LEAVE
    mask = legal_mask(a, hh, env.rules)
    assert mask[A_FT[1]] and mask[A_PT[1]]
    well_env.step(hh, (A_FT[1],), masks=[mask])
    assert a.state is S.FULL_TIME and a.hours == 40


def test_layoff_sets_pink_slip_and_er(env):
    layoff_env = zeroed_env(env, layoff_quarterly=1.0)
    a = make_agent(S.FULL_TIME, age=40.0)
    a.fund_member = True
    a.work_window = [(True, 9000.0)] * 9
    a.career_quarters = 40
    hh = make_household(a)
    layoff_env.step(hh, (A_STAY,))
    assert a.state is S.ER_UNEMPLOYED
    assert a.pink_slip
    assert a.ub_basis == pytest.approx(3000.0)
    assert a.ub_max_days == 400.0


def test_quit_goes_to_basic_with_penalty(env):
    quiet = zeroed_env(env)
    a = make_agent(S.FULL_TIME, age=40.0)
    a.fund_member = True
    a.work_window = [(True, 9000.0)] * 9
    hh = make_household(a)
    quiet.step(hh, (A_QUIT,))
    assert a.state is S.BASIC_UNEMPLOYED
    assert not a.pink_slip


def test_er_exhaustion_routes_to_tunnel_by_age(env):
    quiet = zeroed_env(env)
    for age, want in ((45.0, S.BASIC_UNEMPLOYED), (61.5, S.ER_EXTENDED)):
        a = make_agent(S.ER_UNEMPLOYED, age=age, hours=0)
        a.fund_member = True
        a.ub_basis = 2500.0
        a.ub_days_used = 390.0
        a.ub_max_days = 400.0
        hh = make_household(a)
        quiet.step(hh, (A_STAY,))
        assert a.state is want, (age, a.state)


def test_birth_forces_parental_leaves(env):
    birth_env = zeroed_env(env, father_leave_at_birth=1.0)
    dad = make_agent(S.FULL_TIME, gender="men", age=30.0)
    mom = make_agent(S.FULL_TIME, gender="women", age=30.0)
    hh = make_household(dad, mom, partnered=True)
    hh.until_birth = 1
    birth_env.step(hh, (A_STAY, A_STAY))
    assert mom.state is S.MOTHERS_LEAVE
    assert dad.state is S.FATHERS_LEAVE
    assert hh.bands == (1, 1, 1)
    # The maternity spell runs three quarters, then a return decision opens.
    leave_quarters = 1
    while not mom.returning:
        birth_env.step(hh, (A_STAY, A_STAY))
        leave_quarters += mom.state is S.MOTHERS_LEAVE
    assert leave_quarters == 3


def test_clock_decrements_exactly_one_per_step(env):
    quiet = zeroed_env(env)
    a = make_agent(S.FULL_TIME, age=40.0)
    a.until_disability = 10
    a.until_student = 7
    a.until_outsider = 5
    a.life_left = 300
    hh = make_household(a)
    quiet.step(hh, (A_STAY,))
    assert (a.until_disability, a.until_student, a.until_outsider, a.life_left) == (9, 6, 4, 299)


def test_friction_lookup_value(tables):
    assert tables.job_find_prob("full_time", "men", 1, 40.0) == 0.25
    assert tables.job_find_prob("part_time", "women", 2, 62.0) == 0.45


def test_job_search_friction_statistics(env):
    quiet = zeroed_env(env)
    trials, successes = 600, 0
    for i in range(trials):
        a = make_agent(S.BASIC_UNEMPLOYED, age=40.0, hours=0)
        hh = make_household(a)
        hh.key = (1000 + i, 0)
        out = quiet.step(hh, (A_FT[1],))
        successes += a.state is S.FULL_TIME
    p = successes / trials
    # success = direct FT (0.25) or PT fallback; count only FT landings
    assert p == pytest.approx(0.25, abs=0.06)


def test_failed_ft_search_may_land_pt(env):
    quiet = zeroed_env(env)
    landed = {S.FULL_TIME: 0, S.PART_TIME: 0, S.BASIC_UNEMPLOYED: 0}
    for i in range(900):
        a = make_agent(S.BASIC_UNEMPLOYED, age=40.0, hours=0)
        hh = make_household(a)
        hh.key = (5000 + i, 0)
        quiet.step(hh, (A_FT[1],))
        landed[a.state] += 1
    assert landed[S.PART_TIME] > 0
    assert landed[S.FULL_TIME] > 0


def test_stay_retired_pays_pension(env):
    quiet = zeroed_env(env)
    a = make_agent(S.RETIRED, age=70.0, hours=0)
    a.pension_paid = 1500.0
    hh = make_household(a)
    out = quiet.step(hh, (A_STAY,))
    assert a.state is S.RETIRED
    assert out.flows[0].pension_er == pytest.approx(1500.0 * 3)
    assert out.rewards[0] != 0.0


def test_retire_action_converts_accrual(env):
    quiet = zeroed_env(env)
    a = make_agent(S.FULL_TIME, age=64.5)
    a.pension_accrued = 2000.0
    hh = make_household(a)
    quiet.step(hh, (A_RETIRE,))
    lec = env.rules.pension.life_expectancy_coefficient
    assert a.state is S.RETIRED
    assert a.pension_paid == pytest.approx(2000.0 * lec)


def test_illegal_action_raises(env):
    a = make_agent(S.RETIRED, age=70.0, hours=0)
    hh = make_household(a)
    with pytest.raises(ContractViolation):
        env.step(hh, (A_QUIT,))


def test_couple_splits_consumption_equally(env):
    quiet = zeroed_env(env)
    m = make_agent(S.FULL_TIME, gender="men", age=40.0)
    f = make_agent(S.FULL_TIME, gender="women", age=40.0)
    hh = make_household(m, f, partnered=True)
    out = quiet.step(hh, (A_STAY, A_STAY))
    assert out.consumptions[0] == pytest.approx(out.consumptions[1])
    assert out.consumptions[0] == pytest.approx(out.flows[0].consumption / 2)


def _unit_household(case):
    m = make_agent(S.FULL_TIME, gender="men", age=40.0, paid_wage=42000.0)
    f = make_agent(S.FULL_TIME, gender="women", age=38.0, paid_wage=30000.0)
    if case == "married":
        return make_household(m, f, partnered=True, children=(2.0,))
    if case == "unmarried_with_child":
        return make_household(m, f, children=(2.0,))
    if case == "unmarried_mother_dead":
        return make_household(m, make_agent(S.DEAD, gender="women", hours=0), children=(2.0,))
    m = make_agent(S.RETIRED, gender="men", age=80.0, hours=0, pension_paid=1500.0)
    widow = make_agent(S.DEAD, gender="women", age=78.0, hours=0, pension_accrued=1200.0)
    return make_household(m, widow, partnered=True)


# (slots, children under 18, partnered, rent household size) per unit
@pytest.mark.parametrize("case, expected", [
    ("married", [((0, 1), 1, True, 3)]),
    ("unmarried_with_child", [((0,), 0, False, 1), ((1,), 1, False, 2)]),
    ("unmarried_mother_dead", [((0,), 1, False, 2)]),
    ("widowed", [((0, 1), 0, False, 1)]),
])
def test_budget_units_are_the_priced_units(env, case, expected):
    hh = _unit_household(case)
    units = budget_units(env, hh)
    assert [(slots, s.children_under18, s.partnered, s.rent_monthly) for s, slots in units] == [
        (slots, kids, partnered, env.rules.rent_for_size(size))
        for slots, kids, partnered, size in expected]
    for snap, slots in units:
        assert [a.state for a in snap.adults] == [hh.adults[i].state for i in slots]
    flows, consumptions = household_flows(env, hh)
    assert flows == [net_income(snap, env.rules) for snap, _ in units]
    for cf, (_, slots) in zip(flows, units):
        living = [i for i in slots if hh.adults[i].alive]
        for i in slots:
            assert consumptions[i] == (cf.consumption / len(living) if i in living else 0.0)
    if case == "widowed":
        assert flows[0].survivor_pension > 0.0


# ---------------------------------------------------------------------------
# static phase and terminal value
# ---------------------------------------------------------------------------

def test_static_phase_freezes_states(env):
    a = make_agent(S.RETIRED, age=75.0, hours=0)
    a.pension_paid = 1400.0
    hh = make_household(a)
    total_pension = 0.0
    for _ in range(100):
        out = env.static_quarter(hh)
        assert a.state in (S.RETIRED, S.DEAD)
        for cf in out.flows:
            total_pension += cf.pension_er
    if a.alive:
        assert a.age == pytest.approx(100.0)
    assert total_pension > 0


def test_static_phase_dead_stays_dead(env):
    a = make_agent(S.DEAD, age=80.0, hours=0)
    hh = make_household(a)
    out = env.static_quarter(hh)
    assert a.state is S.DEAD
    assert out.consumptions[0] == 0.0


def test_static_phase_accounting_identity(env):
    a = make_agent(S.RETIRED, age=75.0, hours=0)
    a.pension_paid = 1100.0
    a.life_left = 1000
    hh = make_household(a)
    per_quarter = household_flows(env, hh)[0][0].pension_er
    total = sum(cf.pension_er for _ in range(100) for cf in env.static_quarter(hh).flows)
    assert total == pytest.approx(per_quarter * 100)


def test_static_quarter_prices_each_segment_once(env, monkeypatch):
    """Chained static quarters reuse the last outcome until an adult dies or a
    child changes band, and every outcome equals a fresh pricing."""
    man = make_agent(S.RETIRED, age=75.0, hours=0, pension_paid=1500.0, pension_accrued=1800.0)
    woman = make_agent(S.RETIRED_PT, gender="women", age=75.0, hours=16, paid_wage=9000.0,
                       pension_paid=1100.0, pension_accrued=1300.0)
    man.life_left, woman.life_left = 30, 70
    # The child turns 7 in the 2nd static quarter and 18 in the 46th.
    hh = make_household(man, woman, partnered=True, children=(6.6,))
    pricings = []
    priced = mdp.price_units
    monkeypatch.setattr(mdp, "price_units", lambda *args: pricings.append(1) or priced(*args))

    segments = 0
    key = None
    last = None
    for _ in range(100):
        out = env.static_quarter(hh, last)
        new_key = (tuple(a.state for a in hh.adults), child_bands(hh.child_ages))
        segments += new_key != key
        key = new_key
        fresh_flows, fresh_consumptions = household_flows(env, copy.deepcopy(hh))
        assert out.flows == fresh_flows
        assert out.consumptions == tuple(fresh_consumptions)
        last = out
    assert segments == 5   # first quarter, child turns 7, man dies, child turns 18, woman dies
    assert len(pricings) == segments


def test_terminal_value_matches_explicit_survival_loop(env):
    """The cached survival weights sum to the bits of the explicit loop."""
    from one_household import utility as utility_fn

    for gender, state, age in (("men", S.RETIRED, 75.0), ("women", S.RETIRED_FT, 75.0),
                               ("women", S.DISABLED, 80.5)):
        a = make_agent(state, gender=gender, age=age, hours=40 if state is S.RETIRED_FT else 0,
                       pension_paid=1300.0, paid_wage=20000.0)
        hh = make_household(a)
        env.freeze_for_static_phase(hh)
        consumption = household_flows(env, hh)[1][0]
        u_now = utility_fn(consumption, a.state, a.gender, a.hours, a.age, a.pink_slip, False,
                           env.rules.pension.min_retirement_age, env.uparams, year=env.rules.year) * DT
        total, survival, disc = 0.0, 1.0, 1.0
        for k in range(1, int((MAX_AGE - a.age) / DT) + 1):
            survival *= 1.0 - env.tables.mortality_quarterly(a.gender, a.age + k * DT)
            disc *= env.uparams.step_discount
            total += disc * survival * u_now
        for _ in range(2):   # the second call reads the cached weights
            assert env.terminal_value(hh) == (total,)


def test_condition_feature_scaled_by_rule_window(env, uparams):
    a = make_agent(S.FULL_TIME)
    a.work_window = [(True, 9000.0)] * 9
    hh = make_household(a)
    er = env.rules.unemployment.er
    longer = dataclasses.replace(env.rules, unemployment=dataclasses.replace(
        env.rules.unemployment, er=dataclasses.replace(er, condition_window_quarters=12)))
    i = 16 + 13
    assert er.condition_window_quarters == 9
    assert encode(a, None, hh, uparams, env.rules)[i] == 1.0
    assert encode(a, None, hh, uparams, longer)[i] == 0.75


def test_freeze_moves_nonworkers_to_retirement(env):
    a = make_agent(S.BASIC_UNEMPLOYED, age=75.0, hours=0)
    a.pension_accrued = 900.0
    hh = make_household(a)
    env.freeze_for_static_phase(hh)
    assert a.state is S.RETIRED
    assert a.pension_paid > 0


def test_terminal_value_positive_and_dead_zero(env):
    a = make_agent(S.RETIRED, age=75.0, hours=0)
    a.pension_paid = 1400.0
    d = make_agent(S.DEAD, age=75.0, hours=0)
    hh = make_household(a, d)
    bonus = env.terminal_value(hh)
    assert bonus[0] > 0.0
    assert bonus[1] == 0.0


# ---------------------------------------------------------------------------
# transition legality audit (unit-scale; the full audit runs in acceptance)
# ---------------------------------------------------------------------------

def _assert_unpaid_outside_work(hh):
    for x in hh.adults:
        if x.state not in WORKING_STATES:
            assert (x.hours, x.paid_wage) == (0, 0.0), (x.state.name, x.hours, x.paid_wage)


def test_random_policy_legality_audit(env):
    """Random legal play moves along legal transitions only, and an adult
    outside work has no hours and no paid wage after every step, the freeze
    at the decision horizon and every static quarter."""
    rng = np.random.default_rng(0)
    pop = population_oracle.records(60, env, seed=21)
    for _ in range(229):
        for hh in pop.households:
            prev = [x.state for x in hh.adults]
            masks = [legal_mask(x, hh, env.rules) for x in hh.adults]
            acts = tuple(int(rng.choice(np.flatnonzero(m))) for m in masks)
            env.step(hh, acts, masks=masks)
            for x, p in zip(hh.adults, prev):
                assert is_legal(p, x.state), (p.name, x.state.name)
            _assert_unpaid_outside_work(hh)
    for hh in pop.households:
        env.freeze_for_static_phase(hh)
        _assert_unpaid_outside_work(hh)
        for _ in range(100):
            env.static_quarter(hh)
            _assert_unpaid_outside_work(hh)


def test_feature_encoding_shape_and_range(env, uparams):
    pop = population_oracle.records(40, env, seed=22)
    for hh in pop.households:
        for i, a in enumerate(hh.adults):
            partner = hh.adults[1 - i] if len(hh.adults) == 2 else None
            v = encode(a, partner, hh, uparams, env.rules)
            assert v.shape == (OBS_DIM,)
            assert np.isfinite(v).all()


def test_reform_env_shares_only_the_tables_of_shared_inputs(env):
    """``with_rules`` hands the new env every table built from the tables,
    preferences and wages alone, and none built from the rules."""
    reformed, _ = apply_reform(env.rules, load_reform(params_dir() / "reforms" / "orpo.yaml"))
    twin = env.with_rules(reformed)
    assert twin.rules is reformed
    assert (twin.uparams, twin.wparams, twin.tables) == (env.uparams, env.wparams, env.tables)
    assert twin._curve_cache is env._curve_cache
    assert twin._survival_cache is env._survival_cache
    assert twin._wage_profile is env._wage_profile
    assert twin._utility is not env._utility and twin._rent is not env._rent
