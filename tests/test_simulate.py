import copy
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

import lifesim.pipelines as pipelines
import lifesim.simulate as simulate
from lifesim.agent import AgentState, HouseholdState
from lifesim.env import LifecycleEnv, load_utility_params
from lifesim.paramfiles import params_dir, ruleset_path
from lifesim.population import init_population, load_demographics
from lifesim.reform import apply_reform, compare_runs, load_reform
from lifesim.reports import write_report_csvs
from lifesim.rules import load_ruleset
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
from one_household import _incentive_samples as scalar_incentive_samples


@pytest.fixture(scope="module")
def env(rules2023):
    return LifecycleEnv(rules2023, load_utility_params(params_dir() / "utility.yaml"),
                        load_wage_params(params_dir() / "wages.yaml"),
                        load_demographics(params_dir() / "demographics.yaml"))


@pytest.fixture(scope="module")
def small_net(env):
    from lifesim.env.features import OBS_DIM
    from lifesim.env.actions import N_ACTIONS

    return PolicyValueNet(OBS_DIM, N_ACTIONS, hidden=(16,), seed=0)


@pytest.fixture(scope="module")
def small_log(env, small_net):
    pop = init_population(60, env, seed=3)
    return run_cohort(small_net, pop, env, mode="sample", collect_incentives=True)


def test_single_agent_trace_reproducible(env, small_net):
    def run():
        pop = init_population(1, env, seed=9)
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


def test_each_incentive_histogram_written_on_its_own_counts(small_log, tmp_path):
    """EMTR samples can all fall outside the histogram's bins while PTR
    samples do not; each file is written when its own histogram, underflow
    or overflow has counts."""
    report = aggregate(small_log)
    assert report.ptr_histogram.sum() > 0
    no_emtr = dataclasses.replace(report, emtr_histogram=np.zeros_like(report.emtr_histogram))
    names = {path.name for path in write_report_csvs(no_emtr, tmp_path)}
    assert "ptr_histogram.csv" in names and "emtr_histogram.csv" not in names
    assert (tmp_path / "ptr_histogram.csv").exists() and not (tmp_path / "emtr_histogram.csv").exists()


def test_incentive_samples_outside_the_bins_are_counted_and_written(tmp_path):
    """Every EMTR and PTR sample is accounted for: the ones below 0 and
    above 1.5 (1.5 itself is in the last bin) as the histogram's underflow
    and overflow, in the CSVs' first and last rows and in the summary."""
    n, q = 1, 328
    log = SimulationLog(
        cohort_size=n, seed=0, n_quarters=q,
        states=np.full((n, q), int(S.DEAD), dtype=np.int8), hours=np.zeros((n, q), np.int8),
        paid_wage=np.zeros((n, q), np.float32), er_days_used=np.zeros((n, q), np.float32),
        gender=np.zeros(n, np.int8), group=np.zeros(n, np.int8),
        flows_by_age={k: np.zeros(82) for k in aggregate.__globals__["FLOW_NAMES"]},
        consumption_by_age=np.zeros(82),
        emtr_samples=np.array([-0.2, 0.3, 1.5]), ptr_samples=np.array([0.7, 1.99, 1.6, -0.1, 0.0]),
    )
    rep = aggregate(log)
    assert (rep.emtr_underflow, rep.emtr_overflow, rep.emtr_histogram.sum()) == (1, 0, 2)
    assert (rep.ptr_underflow, rep.ptr_overflow, rep.ptr_histogram.sum()) == (1, 2, 2)
    write_report_csvs(rep, tmp_path)
    for name, under, over in (("emtr", "1", "0"), ("ptr", "1", "2")):
        rows = (tmp_path / f"{name}_histogram.csv").read_text().splitlines()
        assert rows[1] == f"-inf,0,{under}" and rows[-1] == f"1.5,inf,{over}"
        assert len(rows) == 1 + 30 + 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [summary[k] for k in ("emtr_underflow", "emtr_overflow", "ptr_underflow", "ptr_overflow")] == [1, 0, 1, 2]


def test_summarize_reports_builds_each_reports_cells_once(small_log, monkeypatch):
    reports = [aggregate(small_log) for _ in range(4)]
    calls = []
    cells = simulate.AggregateReport.cells
    monkeypatch.setattr(simulate.AggregateReport, "cells", lambda self: calls.append(id(self)) or cells(self))
    result = summarize_reports(reports)
    assert sorted(calls) == sorted(map(id, reports))
    assert result.mean_cells.keys() == cells(reports[0]).keys()


def _adult(gender, age, state, wage=0.0, hours=0, **fields):
    a = AgentState(gender=gender, group=1, age=age, state=state, hours=hours, paid_wage=wage, prev_paid_wage=wage,
                   **fields)
    a.life_left = 400
    return a


def _working_adult(gender, age, wage):
    return _adult(gender, age, S.FULL_TIME, wage, hours=40)


def _incentive_case(case):
    """The households of one block and how many of their adults are sampled."""
    if case == "unmarried_pair_with_child":
        return [HouseholdState(adults=(_working_adult("men", 40.0, 42000.0), _working_adult("women", 36.0, 30000.0)),
                               child_ages=[2.0])], 2
    if case == "widowed_pair":
        widow = AgentState(gender="women", group=1, age=41.0, state=S.DEAD, pension_accrued=900.0)
        return [HouseholdState(adults=(_working_adult("men", 40.0, 42000.0), widow), partnered=True)], 1
    if case == "full_and_part_time_pair":
        part_time = _adult("women", 38.0, S.PART_TIME, 16000.0, hours=20)
        return [HouseholdState(adults=(_working_adult("men", 41.0, 39000.0), part_time), partnered=True,
                               child_ages=[1.5, 6.0, 12.0])], 2
    if case == "er_unemployed_partner":
        jobless = _adult("men", 45.0, S.ER_UNEMPLOYED, ub_basis=2800.0, ub_days_used=130.0, ub_max_days=400.0)
        return [HouseholdState(adults=(jobless, _working_adult("women", 43.0, 33000.0)), partnered=True,
                               child_ages=[5.0])], 1
    if case == "retired_partner":
        retiree = _adult("men", 67.0, S.RETIRED, pension_paid=1500.0, pension_accrued=1500.0)
        return [HouseholdState(adults=(retiree, _working_adult("women", 61.0, 35000.0)), partnered=True)], 1
    # A partially retired worker and a full-time adult with no paid wage are
    # not sampled.
    unsampled = HouseholdState(adults=(
        _adult("men", 66.0, S.RETIRED_PT, 14000.0, hours=20, pension_paid=1100.0),
        _adult("women", 50.0, S.FULL_TIME, hours=40)), partnered=True)
    if case == "retired_part_time_and_unpaid":
        return [unsampled, HouseholdState(adults=(_working_adult("men", 30.0, 28000.0),))], 1
    if case == "no_sampled_adult":
        return [unsampled, HouseholdState(adults=(_adult("women", 30.0, S.BASIC_UNEMPLOYED),))], 0
    assert case == "all_in_one_block"
    blocks = [_incentive_case(name) for name in INCENTIVE_CASES[:-1]]
    return [hh for households, _ in blocks for hh in households], sum(count for _, count in blocks)


INCENTIVE_CASES = ["unmarried_pair_with_child", "widowed_pair", "full_and_part_time_pair", "er_unemployed_partner",
                   "retired_partner", "retired_part_time_and_unpaid", "no_sampled_adult", "all_in_one_block"]
RULE_NAMES = [str(year) for year in range(2018, 2025)] + ["2023+orpo"]


@pytest.fixture(scope="module")
def rule_envs(env):
    orpo, _ = apply_reform(env.rules, load_reform(params_dir() / "reforms" / "orpo.yaml"))
    return {"2023+orpo": env.with_rules(orpo),
            **{str(year): env.with_rules(load_ruleset(ruleset_path(year))) for year in range(2018, 2025)}}


@pytest.mark.parametrize("case", INCENTIVE_CASES)
def test_incentive_samples_taken_on_budget_units(rule_envs, monkeypatch, case):
    """Under every packaged rule set and 2023 + ``orpo``, the column sampler
    gives the scalar sampler's samples (``rules.emtr`` and ``rules.ptr`` on
    each unit's snapshot) as raw bits, in the same order, with one
    ``price_units`` call when it samples and none when not."""
    calls = []
    price_units = simulate.price_units
    monkeypatch.setattr(simulate, "price_units", lambda *args: calls.append(1) or price_units(*args))
    for rules_name in RULE_NAMES:
        env = rule_envs[rules_name]
        households, sampled = _incentive_case(case)
        want_emtr, want_ptr = [], []
        scalar_incentive_samples(env, env.block(copy.deepcopy(households)), want_emtr, want_ptr)
        emtrs, ptrs = [], []
        calls.clear()
        simulate._incentive_samples(env, env.block(households), emtrs, ptrs)
        assert len(want_emtr) == len(want_ptr) == sampled, rules_name
        assert np.array(emtrs).tobytes() == np.array(want_emtr).tobytes(), rules_name
        assert np.array(ptrs).tobytes() == np.array(want_ptr).tobytes(), rules_name
        assert len(calls) == (1 if sampled else 0), rules_name


def test_parallel_log_identical_for_any_worker_count(env, small_net, monkeypatch):
    # Small blocks keep the run cheap while the cohort spans several blocks.
    monkeypatch.setattr(simulate, "BLOCK_HOUSEHOLDS", 4)
    logs = []
    for workers in (1, 2, 3):
        pop = init_population(30, env, seed=12)
        assert pop.block.m >= 3 * simulate.BLOCK_HOUSEHOLDS
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
    base, scaled = (pop.block.potential_wage for pop in populations)
    # At 18 the age profile equals its base, so the same draws give twice the wage.
    np.testing.assert_allclose(scaled, 2.0 * base, rtol=1e-12)


def test_repeat_protocol_population_uses_the_rule_year(small_net, monkeypatch):
    """Under 2024 rules the protocol draws its cohort with the 2024 group
    shares, as ``train_policy`` does."""
    rules2024 = load_ruleset(ruleset_path(2024))
    env = LifecycleEnv(rules2024, load_utility_params(params_dir() / "utility.yaml"),
                       load_wage_params(params_dir() / "wages.yaml"),
                       load_demographics(params_dir() / "demographics.yaml"))
    populations = []

    def first_population(make_refit, make_population, env, n_repeats, **kwargs):
        populations.append(make_population(0))

    monkeypatch.setattr(pipelines, "repeat_protocol", first_population)
    protocol = pipelines.ProtocolConfig(refit_steps=0, n_repeats=1, cohort_size=400, seed=4)
    pipelines.run_repeat_protocol(small_net, env, protocol)
    seed = int(np.random.SeedSequence((protocol.seed, 0)).generate_state(1)[0])
    want = init_population(protocol.cohort_size, env, seed=seed)
    default_year = init_population(protocol.cohort_size, env.with_rules(load_ruleset(ruleset_path(2023))), seed=seed)
    drawn = [[getattr(pop.block, name).tobytes() for name in ("women", "group", "state", "potential_wage")]
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


def test_sample_mode_draws_each_households_action_uniforms_as_per_quarter_draws(env, small_net, monkeypatch):
    """Every quarter's uniforms are, for each household, one ``random(2)``
    per quarter of its ``default_rng((seed, household, 3))`` stream (the
    slot's entry), whatever the block split; and a second run of the same
    population is fed the same uniforms."""
    monkeypatch.setattr(simulate, "BLOCK_HOUSEHOLDS", 4)
    pop = init_population(14, env, seed=21)
    fed = []
    sample = simulate.sample_masked
    monkeypatch.setattr(simulate, "sample_masked", lambda logits, masks, u: fed.append(u.copy()) or sample(
        logits, masks, u))
    log = run_cohort(small_net, pop, env, mode="sample")

    decision_q = (75 - 18) * 4
    want = []
    households = list(range(pop.block.m))
    for lo in range(0, pop.block.m, simulate.BLOCK_HOUSEHOLDS):
        block = households[lo:lo + simulate.BLOCK_HOUSEHOLDS]
        slots = [(h, k) for h in block for k in range(pop.block.size[h])]
        streams = {h: np.random.default_rng((21, h, 3)) for h in block}
        draws = {h: [streams[h].random(2) for _ in range(decision_q)] for h in block}
        want += [np.array([draws[h][q][k] for h, k in slots]) for q in range(decision_q)]
    assert len(fed) == len(want) == len(simulate._blocks(pop.block)) * decision_q
    assert all(np.array_equal(a, b) for a, b in zip(fed, want))
    assert log.states.shape[0] == pop.size
    first = fed[:]
    fed.clear()
    run_cohort(small_net, pop, env, mode="sample")
    assert all(np.array_equal(a, b) for a, b in zip(fed, first)) and len(fed) == len(first)


def test_greedy_mode_draws_no_action_uniforms(env, small_net, monkeypatch):
    def forbidden(*args):
        raise AssertionError("greedy mode drew action uniforms")

    monkeypatch.setattr(simulate, "action_uniforms", forbidden)
    log = run_cohort(small_net, init_population(6, env, seed=22), env, mode="greedy")
    assert log.states.shape[0] == 6
