import copy
import dataclasses
import math
import warnings

import numpy as np
import pytest

import lifesim.pipelines as pipelines
import lifesim.simulate as simulate
from lifesim.agent import AgentState, HouseholdState
from lifesim.env import LifecycleEnv, load_utility_params
from lifesim.paramfiles import ruleset_path
from lifesim.population import init_population, load_demographics
from lifesim.reform import compare_runs
from lifesim.rules import emtr, load_ruleset, ptr
from lifesim.simulate import (
    AGE_MIN,
    DURATION_BIN_EDGES,
    SimulationLog,
    aggregate,
    run_cohort,
    scale_to_population,
    scan_unemployment_spells,
    summarize_reports,
)
from lifesim.solver import PolicyValueNet
from lifesim.states import EmploymentState as S
from lifesim.wage import load_wage_params


@pytest.fixture(scope="module")
def env(rules2023):
    return LifecycleEnv(rules2023, load_utility_params(), load_wage_params(), load_demographics())


@pytest.fixture(scope="module")
def small_net(env):
    from lifesim.env.features import OBS_DIM
    from lifesim.env.actions import N_ACTIONS

    return PolicyValueNet(OBS_DIM, N_ACTIONS, hidden=(16,), seed=0)


@pytest.fixture(scope="module")
def small_log(env, small_net):
    pop = init_population(60, env.tables, seed=3)
    return run_cohort(small_net, pop, env, mode="sample", collect_incentives=True)


def test_single_agent_trace_reproducible(env, small_net):
    def run():
        pop = init_population(1, env.tables, seed=9)
        log = run_cohort(small_net, pop, env, mode="sample")
        return log.states.copy(), log.paid_wage.copy()

    s1, w1 = run()
    s2, w2 = run()
    np.testing.assert_array_equal(s1, s2)
    np.testing.assert_array_equal(w1, w2)


def test_everyone_dead_or_100_at_end(small_log):
    final = small_log.states[:, -1]
    assert small_log.n_quarters == (100 - 18) * 4
    assert set(np.unique(final)) <= {int(S.DEAD), int(S.RETIRED), int(S.RETIRED_PT),
                                     int(S.RETIRED_FT), int(S.FULL_TIME), int(S.PART_TIME)}


def test_quarter_accounting(small_log):
    # Total recorded agent-quarters equal agents x quarters; alive quarters
    # equal the sum over agents of quarters before death.
    n_agents, n_q = small_log.states.shape
    alive = small_log.states != int(S.DEAD)
    per_agent_alive = alive.sum(axis=1)
    assert alive.sum() == per_agent_alive.sum()
    assert small_log.states.size == n_agents * n_q


def test_aggregate_shapes_and_bounds(small_log):
    rep = aggregate(small_log)
    assert rep.occupancy.shape == (82, 16)
    alive_rows = rep.alive_share > 0
    np.testing.assert_allclose(rep.occupancy[alive_rows, :15].sum(axis=1), 1.0, atol=1e-9)
    for arr in (rep.employment_rate, rep.unemployment_rate, rep.parttime_share):
        vals = arr[np.isfinite(arr)]
        assert ((0.0 <= vals) & (vals <= 1.0)).all()
    assert rep.fte["total"] <= small_log.states.shape[0] * 82 * 1.2
    assert rep.fte["part_time"] + rep.fte["full_time"] == pytest.approx(rep.fte["total"], rel=1e-9)
    rows = rep.duration_bins.sum(axis=1)
    for r in rows:
        assert r == pytest.approx(1.0, abs=1e-9) or r == 0.0


def test_empty_employment_rate_zero(env):
    # A synthetic log with nobody working.
    n, q = 4, 328
    states = np.full((n, q), int(S.OUTSIDE_WF), dtype=np.int8)
    log = SimulationLog(
        cohort_size=n, seed=0, n_quarters=q,
        states=states, hours=np.zeros((n, q), np.int8),
        paid_wage=np.zeros((n, q), np.float32),
        er_days_used=np.zeros((n, q), np.float32),
        gender=np.zeros(n, np.int8), group=np.zeros(n, np.int8),
        flows_by_age={k: np.zeros(82) for k in aggregate.__globals__["FLOW_NAMES"]},
        consumption_by_age=np.zeros(82),
        emtr_samples=np.array([]), ptr_samples=np.array([]),
    )
    rep = aggregate(log)
    assert rep.fte["total"] == 0.0
    assert np.nanmax(rep.employment_rate) == 0.0


def test_single_full_time_agent_year_is_one_fte():
    n, q = 1, 328
    states = np.full((n, q), int(S.DEAD), dtype=np.int8)
    hours = np.zeros((n, q), np.int8)
    states[0, :4] = int(S.FULL_TIME)
    hours[0, :4] = 40
    log = SimulationLog(
        cohort_size=n, seed=0, n_quarters=q,
        states=states, hours=hours,
        paid_wage=np.zeros((n, q), np.float32),
        er_days_used=np.zeros((n, q), np.float32),
        gender=np.zeros(n, np.int8), group=np.zeros(n, np.int8),
        flows_by_age={k: np.zeros(82) for k in aggregate.__globals__["FLOW_NAMES"]},
        consumption_by_age=np.zeros(82),
        emtr_samples=np.array([]), ptr_samples=np.array([]),
    )
    rep = aggregate(log)
    assert rep.fte["total"] == pytest.approx(1.0)


def independent_spell_scan(states, er_days, horizon):
    """Second implementation: boundary detection via diff on a padded mask."""
    unemp_codes = {int(S.ER_UNEMPLOYED), int(S.BASIC_UNEMPLOYED), int(S.ER_EXTENDED)}
    results = []
    for i in range(states.shape[0]):
        mask = np.isin(states[i, :horizon], list(unemp_codes)).astype(int)
        padded = np.concatenate([[0], mask, [0]])
        d = np.diff(padded)
        starts = np.flatnonzero(d == 1)
        ends = np.flatnonzero(d == -1)
        for s0, s1 in zip(starts, ends):
            used0 = er_days[i, s0 - 1] if s0 > 0 else 0.0
            used1 = er_days[i, s1 - 1]
            results.append((AGE_MIN + s0 * 0.25, max(0.0, used1 - used0)))
    return results


def test_duration_bins_match_independent_scanner(small_log):
    horizon = (75 - 18) * 4
    ours = sorted(scan_unemployment_spells(small_log.states, small_log.er_days_used, horizon))
    theirs = sorted(independent_spell_scan(small_log.states, small_log.er_days_used, horizon))
    assert len(ours) == len(theirs)
    for (a1, d1), (a2, d2) in zip(ours, theirs):
        assert a1 == pytest.approx(a2)
        assert d1 == pytest.approx(d2)


def test_flows_accounting_closure(small_log):
    rep = aggregate(small_log)
    # The report's totals are exactly the by-age sums.
    for name, total in rep.flows.items():
        assert total == pytest.approx(float(small_log.flows_by_age[name].sum()), abs=1e-3)


def test_scale_identity_and_linearity(small_log):
    rep = aggregate(small_log)
    n = rep.cohort_size
    unit = scale_to_population(rep, lambda a: float(n))
    for name in rep.flows:
        assert unit.flows[name] == pytest.approx(rep.flows[name], rel=1e-12)
    doubled = scale_to_population(rep, lambda a: 2.0 * n)
    for name in rep.flows:
        assert doubled.flows[name] == pytest.approx(2 * rep.flows[name], rel=1e-12)
    np.testing.assert_allclose(doubled.employment_rate, rep.employment_rate, equal_nan=True)


def test_scale_three_cohort_toy():
    flows = {k: np.zeros(82) for k in aggregate.__globals__["FLOW_NAMES"]}
    flows["gross_wage"][0] = 100.0   # age 18
    flows["gross_wage"][1] = 200.0   # age 19
    flows["gross_wage"][2] = 300.0   # age 20
    n, q = 10, 328
    states = np.full((n, q), int(S.OUTSIDE_WF), np.int8)
    hours = np.zeros((n, q), np.int8)
    states[0, 4:8] = int(S.FULL_TIME)   # one full-time agent-year at age 19
    hours[0, 4:8] = 40
    log = SimulationLog(
        cohort_size=n, seed=0, n_quarters=q, states=states, hours=hours,
        paid_wage=np.zeros((n, q), np.float32),
        er_days_used=np.zeros((n, q), np.float32),
        gender=np.zeros(n, np.int8), group=np.zeros(n, np.int8),
        flows_by_age=flows, consumption_by_age=np.zeros(82),
        emtr_samples=np.array([]), ptr_samples=np.array([]),
    )
    rep = aggregate(log)
    weights = {18: 50.0, 19: 20.0, 20: 10.0}
    scaled = scale_to_population(rep, lambda a: weights.get(int(a), 0.0))
    expected = (100 * 50 + 200 * 20 + 300 * 10) / n
    assert scaled.flows["gross_wage"] == pytest.approx(expected)
    assert scaled.fte["total"] == 20 / 10


def test_broad_workforce_share_counts_working_retirees_once():
    n, q = 4, 328
    log = SimulationLog(
        cohort_size=n, seed=0, n_quarters=q,
        states=np.full((n, q), int(S.RETIRED_FT), np.int8), hours=np.full((n, q), 40, np.int8),
        paid_wage=np.zeros((n, q), np.float32), er_days_used=np.zeros((n, q), np.float32),
        gender=np.zeros(n, np.int8), group=np.zeros(n, np.int8),
        flows_by_age={k: np.zeros(82) for k in simulate.FLOW_NAMES}, consumption_by_age=np.zeros(82),
        emtr_samples=np.array([]), ptr_samples=np.array([]),
    )
    np.testing.assert_array_equal(aggregate(log).workforce_share_broad, 1.0)


def test_summarize_identical_reports_zero_sd(small_log):
    rep = aggregate(small_log)
    res = summarize_reports([rep, rep])
    assert all(v == 0.0 for v in res.sd_cells.values())
    res_perm = summarize_reports([rep, rep, rep])
    for k in res.mean_cells:
        assert res.mean_cells[k] == pytest.approx(res_perm.mean_cells[k], nan_ok=True)


def test_incentive_samples_collected(small_log):
    assert small_log.emtr_samples.size > 0
    assert small_log.ptr_samples.size > 0
    assert np.isfinite(small_log.emtr_samples).all()
    # EMTR median lands in a plausible statutory band.
    med = float(np.median(small_log.emtr_samples))
    assert 0.2 < med < 0.9
    assert 0.3 < float(np.median(small_log.ptr_samples)) <= 1.0


def _working_adult(gender, age, wage):
    a = AgentState(gender=gender, group=1, age=age, state=S.FULL_TIME, hours=40, paid_wage=wage,
                   prev_paid_wage=wage)
    a.life_left = 400
    return a


@pytest.mark.parametrize("case", ["unmarried_pair_with_child", "widowed_pair"])
def test_incentive_samples_taken_on_budget_units(env, case):
    man = _working_adult("men", 40.0, 42000.0)
    if case == "unmarried_pair_with_child":
        woman = _working_adult("women", 36.0, 30000.0)
        hh = HouseholdState(adults=(man, woman), child_ages=[2.0])
    else:
        woman = AgentState(gender="women", group=1, age=41.0, state=S.DEAD, pension_accrued=900.0)
        hh = HouseholdState(adults=(man, woman), partnered=True)
    emtrs, ptrs = [], []
    simulate._incentive_samples(env, hh, emtrs, ptrs)

    expected_emtr, expected_ptr = [], []
    for snap, slots in env.budget_units(hh):
        for pos, slot in enumerate(slots):
            if hh.adults[slot].alive:
                jobless = list(snap.adults)
                jobless[pos] = dataclasses.replace(jobless[pos], state=S.BASIC_UNEMPLOYED,
                                                   wage_quarterly=0.0, ub_days_used=0.0)
                expected_emtr.append(emtr(snap, env.rules, adult=pos)["total"])
                expected_ptr.append(ptr(snap, dataclasses.replace(snap, adults=tuple(jobless)),
                                        env.rules))
    assert len(expected_emtr) == (2 if case == "unmarried_pair_with_child" else 1)
    assert emtrs == expected_emtr
    assert ptrs == expected_ptr


def test_parallel_log_identical_for_any_worker_count(env, small_net, monkeypatch):
    # Small blocks keep the run cheap while the cohort spans several blocks.
    monkeypatch.setattr(simulate, "BLOCK_HOUSEHOLDS", 4)
    logs = []
    for workers in (1, 2, 3):
        pop = init_population(30, env.tables, seed=12, wparams=env.wparams)
        assert len(pop.households) >= 3 * simulate.BLOCK_HOUSEHOLDS
        logs.append(simulate.run_cohort_parallel(small_net, pop, env, workers=workers,
                                                 collect_incentives=True))
    ref = logs[0]
    assert ref.emtr_samples.size > 0
    for log in logs[1:]:
        for f in dataclasses.fields(SimulationLog):
            a, b = getattr(ref, f.name), getattr(log, f.name)
            if isinstance(a, dict):
                assert a.keys() == b.keys()
                assert all(np.array_equal(a[k], b[k]) for k in a), f.name
            else:
                assert np.array_equal(a, b), f.name


def test_repeat_protocol_population_uses_env_wage_params(env, small_net, monkeypatch):
    wp = env.wparams
    doubled = dataclasses.replace(
        wp, profiles={g: {lvl: dataclasses.replace(p, base=2.0 * p.base) for lvl, p in levels.items()}
                      for g, levels in wp.profiles.items()})
    populations = []

    def first_population(make_refit, make_population, env, n_repeats, **kwargs):
        populations.append(make_population(0))

    monkeypatch.setattr(pipelines, "repeat_protocol", first_population)
    protocol = pipelines.ProtocolConfig(refit_steps=0, n_repeats=1, cohort_size=10, seed=4)
    for wparams in (wp, doubled):
        arm = LifecycleEnv(env.rules, env.uparams, wparams, env.tables)
        pipelines.run_repeat_protocol(small_net, arm, protocol)
    base, scaled = ([a.potential_wage for a in pop.agents()] for pop in populations)
    # At 18 the age profile equals its base, so the same draws give twice the wage.
    np.testing.assert_allclose(scaled, 2.0 * np.asarray(base), rtol=1e-12)


def test_repeat_protocol_population_uses_the_rule_year(small_net, monkeypatch):
    """Under 2024 rules the protocol draws its cohort with the 2024 group
    shares, as ``train_policy`` does."""
    rules2024 = load_ruleset(ruleset_path(2024))
    env = LifecycleEnv(rules2024, load_utility_params(), load_wage_params(), load_demographics())
    populations = []

    def first_population(make_refit, make_population, env, n_repeats, **kwargs):
        populations.append(make_population(0))

    monkeypatch.setattr(pipelines, "repeat_protocol", first_population)
    protocol = pipelines.ProtocolConfig(refit_steps=0, n_repeats=1, cohort_size=400, seed=4)
    pipelines.run_repeat_protocol(small_net, env, protocol)
    seed = int(np.random.SeedSequence((protocol.seed, 0)).generate_state(1)[0])
    want = init_population(protocol.cohort_size, env.tables, seed=seed, year=2024, wparams=env.wparams)
    default_year = init_population(protocol.cohort_size, env.tables, seed=seed, wparams=env.wparams)
    drawn = [[(a.gender, a.group, a.state, a.potential_wage) for a in pop.agents()]
             for pop in (populations[0], want, default_year)]
    assert drawn[0] == drawn[1]
    assert drawn[1] != drawn[2]   # the 2023 shares draw another cohort


def test_nan_cells_summarize_and_compare_without_warnings(small_log):
    rep = aggregate(small_log)
    no_samples = copy.deepcopy(rep)
    no_samples.emtr_median = float("nan")
    no_samples.ptr_median = float("nan")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = summarize_reports([no_samples, no_samples])
        comparison = compare_runs([no_samples, no_samples], [rep, no_samples])
        single = compare_runs([rep, no_samples], [rep, rep])
    assert math.isnan(res.mean_cells["emtr_median"]) and math.isnan(res.sd_cells["emtr_median"])
    assert res.mean_cells["public_net"] == rep.public_net and res.sd_cells["public_net"] == 0.0
    # An all-NaN arm drops the cell; one value per arm gives no spread.
    assert "emtr_median" not in {row.cell for row in comparison.rows}
    row = next(r for r in single.rows if r.cell == "emtr_median")
    assert row.baseline == rep.emtr_median and row.difference == 0.0
    assert math.isnan(row.pooled_se) and not row.significant
