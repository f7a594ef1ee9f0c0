"""The cohort simulator, which prices a block's quarters together after they
ran, against the simulator that priced each quarter as it ran
(``cohort_oracle``): every ``SimulationLog`` array bit for bit, under 2023
and 2023 + ``orpo``, in sample and greedy mode, with and without incentive
samples, through ``run_cohort`` and ``run_cohort_parallel``.

The cohorts span several blocks, and some households die or give birth in
the static phase, so the static phase records new pricing inputs mid-way.
With ``PRICING_ROWS`` unbounded each block prices its life in one call;
at the default and at a small bound it prices in several calls, split
inside an age cell and across static quarters that repeat their rows.  Also here:
the contract checks that utility evaluation made on every decision quarter
still raise from ``run_cohort``.
"""

import copy
import dataclasses

import numpy as np
import pytest

import cohort_oracle
import lifesim.env.mdp as mdp
import population_oracle
import lifesim.simulate as simulate
from lifesim.agent import AgentState, HouseholdState
from lifesim.env import LifecycleEnv, load_utility_params
from lifesim.env.actions import N_ACTIONS
from lifesim.env.features import OBS_DIM
from lifesim.errors import ContractViolation
from lifesim.paramfiles import params_dir
from lifesim.population import load_demographics
from lifesim.reform import apply_reform, load_reform
from lifesim.rules import FLOW_COLUMNS
from lifesim.simulate import SimulationLog, run_cohort, run_cohort_parallel
from lifesim.solver import PolicyValueNet
from lifesim.states import EmploymentState as S
from lifesim.wage import load_wage_params

DECISION_Q = (75 - 18) * 4
DEAD = int(S.DEAD)
CONSUMPTION = FLOW_COLUMNS.index("consumption")
UNBOUNDED = 10 ** 9


@pytest.fixture(scope="module")
def envs(rules2023):
    env = LifecycleEnv(rules2023, load_utility_params(params_dir() / "utility.yaml"),
                       load_wage_params(params_dir() / "wages.yaml"),
                       load_demographics(params_dir() / "demographics.yaml"))
    orpo, _ = apply_reform(rules2023, load_reform(params_dir() / "reforms" / "orpo.yaml"))
    return {"2023": env, "2023+orpo": env.with_rules(orpo)}


@pytest.fixture(scope="module")
def net():
    return PolicyValueNet(OBS_DIM, N_ACTIONS, hidden=(16,), seed=5)


def population(env: LifecycleEnv, seed: int):
    """A seeded 14-agent cohort in which some adults die in the decision
    phase, some in the static phase, and two mothers give birth at 78 (so
    their child bands change in the static phase too), as records."""
    pop = population_oracle.records(14, env, seed=seed)
    rng = np.random.default_rng(seed)
    for hh in pop.households:
        for a in hh.adults:
            if rng.random() < 0.4:
                a.life_left = int(rng.integers(20, 320))
    mothers = [hh for hh in pop.households if any(a.gender == "women" for a in hh.adults)]
    for hh in mothers[:2]:
        hh.until_birth = DECISION_Q + 12
        for a in hh.adults:
            if a.gender == "women":
                a.life_left = DECISION_Q + 80
    return pop


def assert_same_log(got: SimulationLog, want: SimulationLog) -> None:
    for f in dataclasses.fields(SimulationLog):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, dict):
            assert a.keys() == b.keys(), f.name
            for k in b:
                assert a[k].dtype == b[k].dtype and a[k].tobytes() == b[k].tobytes(), (f.name, k)
        elif isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(simulate, "BLOCK_HOUSEHOLDS", 3)


@pytest.mark.parametrize("rules_name, mode, incentives, pricing_rows", [
    ("2023", "sample", False, UNBOUNDED),
    ("2023", "greedy", False, 37),
    ("2023", "sample", True, 37),
    ("2023+orpo", "sample", True, None),
    ("2023+orpo", "greedy", False, 37),
])
def test_run_cohort_matches_per_quarter_pricing(envs, net, small_blocks, monkeypatch, rules_name, mode, incentives,
                                                pricing_rows):
    env = envs[rules_name]
    pop = population(env, seed=31)
    cohort = population_oracle.cohort(pop, env)
    assert len(simulate._blocks(cohort.block)) >= 2
    static_births = []
    fertility = mdp.fertility_phase

    def counted(b, *args):
        births = fertility(b, *args)
        static_births.extend(h for h in births.nonzero()[0].tolist() if b.age[b.mother[h]] > 75.0)
        return births

    monkeypatch.setattr(mdp, "fertility_phase", counted)
    want = cohort_oracle.run_cohort(net, copy.deepcopy(pop), env, mode=mode, collect_incentives=incentives)
    assert len(static_births) == 2
    dead_at = np.argmax(want.states == DEAD, axis=1)
    assert (dead_at >= DECISION_Q).any() and ((dead_at > 0) & (dead_at < DECISION_Q)).any()
    assert want.emtr_samples.size > 0 if incentives else want.emtr_samples.size == 0

    if pricing_rows is not None:
        monkeypatch.setattr(mdp, "PRICING_ROWS", pricing_rows)
    calls = []
    for module in (mdp, simulate):   # the ledger's calls and the incentive samples'
        monkeypatch.setattr(module, "price_units",
                            lambda *args, _price=module.price_units: calls.append(1) or _price(*args))
    got = run_cohort(net, cohort, env, mode=mode, collect_incentives=incentives)
    assert_same_log(got, want)
    blocks = len(simulate._blocks(cohort.block))
    if pricing_rows == UNBOUNDED:
        assert len(calls) == blocks
    else:
        assert len(calls) > (2 * blocks if pricing_rows == 37 else blocks)


def test_parallel_run_matches_per_quarter_pricing(envs, net, small_blocks, monkeypatch):
    env = envs["2023+orpo"]
    pop = population(env, seed=32)
    want = cohort_oracle.run_cohort(net, copy.deepcopy(pop), env, mode="sample", collect_incentives=True)
    monkeypatch.setattr(mdp, "PRICING_ROWS", 37)
    got = run_cohort_parallel(net, population_oracle.cohort(pop, env), env, workers=2, collect_incentives=True)
    assert_same_log(got, want)


def _patched_consumption(monkeypatch, living: bool, value: float) -> list[int]:
    """Make ``price_units`` in the pricing ledger return ``value`` as the
    consumption of every unit that has (``living``) or lacks a living
    adult; the count of rows changed, per call."""
    changed = []
    price_units = mdp.price_units

    def patched(adults, first, second, *rest):
        flows = price_units(adults, first, second, *rest)
        alive = adults.state != DEAD
        has_living = alive[first] | ((second >= 0) & alive[second])
        rows = has_living if living else ~has_living
        flows[rows, CONSUMPTION] = value
        changed.append(int(rows.sum()))
        return flows

    monkeypatch.setattr(mdp, "price_units", patched)
    return changed


@pytest.mark.parametrize("value", [0.0, -1.0])
def test_non_positive_consumption_of_a_living_adult_raises(envs, net, monkeypatch, value):
    env = envs["2023"]
    changed = _patched_consumption(monkeypatch, living=True, value=value)
    with pytest.raises(ContractViolation, match="positive consumption"):
        run_cohort(net, population_oracle.cohort(population(env, seed=33), env), env)
    assert changed and changed[0] > 0


def test_units_without_a_living_adult_need_no_positive_consumption(envs, net, monkeypatch):
    """A pair whose adults both died stays a budget unit; its consumption
    is nobody's, so it is not checked."""
    env = envs["2023"]
    changed = _patched_consumption(monkeypatch, living=False, value=0.0)
    run_cohort(net, population_oracle.cohort(population(env, seed=33), env), env)
    assert sum(changed) > 0


def test_an_age_past_100_raises(envs, net):
    env = envs["2023"]
    old = AgentState(gender="men", group=1, age=99.0, state=S.RETIRED, pension_paid=1500.0, life_left=400)
    hh = HouseholdState(adults=(old,), key=(1, 0))
    pop = population_oracle.records(2, env, seed=3)
    pop.households.append(hh)
    with pytest.raises(ContractViolation, match="outside model range"):
        run_cohort(net, population_oracle.cohort(pop, env), env)
