"""Populations are block columns from the draw on.

``HouseholdBlock.take`` copies a run of households, keys and quarters
included, as a block of its own, equal to packing the same households'
records.  No production path builds,
packs or writes back a record: with the record constructors, ``pack`` and
``write_back`` made to raise, a toy reform comparison, a training run and
a cohort simulation still run.  A cohort runs only under rules with the
work window it was drawn with.
"""

import dataclasses

import pytest

import population_oracle
from lifesim.agent import AgentState, HouseholdBlock, HouseholdState
from lifesim.env import LifecycleEnv, load_utility_params
from lifesim.env.actions import N_ACTIONS
from lifesim.env.features import OBS_DIM
from lifesim.errors import ContractViolation
from lifesim.paramfiles import params_dir
from lifesim.pipelines import ProtocolConfig, reform_pipeline, train_policy
from lifesim.population import init_population, load_demographics
from lifesim.reform import load_reform
from lifesim.simulate import run_cohort
from lifesim.solver import PolicyValueNet, TrainConfig
from lifesim.states import EmploymentState as S
from lifesim.wage import load_wage_params


@pytest.fixture(scope="module")
def env(rules2023):
    return LifecycleEnv(rules2023, load_utility_params(params_dir() / "utility.yaml"),
                        load_wage_params(params_dir() / "wages.yaml"),
                        load_demographics(params_dir() / "demographics.yaml"))


def _households(env):
    """A seeded cohort's records, then households with a work window and
    children, of whom one has left home."""
    households = population_oracle.records(23, env, seed=6).households
    for k in range(3):
        a = AgentState(gender="women", group=k, age=40.0 + k, state=S.FULL_TIME, hours=40, paid_wage=30000.0,
                       work_window=[(True, 7500.0)] * (k + 2))
        b = AgentState(gender="men", group=1, age=44.0, state=S.ER_UNEMPLOYED, ub_basis=2100.0)
        households.append(HouseholdState(adults=(a, b)[:k % 2 + 1], partnered=k == 1,
                                         child_ages=[17.0, 9.5, 2.0][:k + 1], until_birth=5 + k, key=(k, k + 9),
                                         quarter=40 + k))
    households[-1].child_ages[0] = float("nan")
    return households


@pytest.mark.parametrize("lo, hi", [(0, 1), (0, 5), (7, 15), (12, 15), (14, 15), (3, 13)])
def test_take_equals_packing_the_same_records(env, lo, hi):
    households = _households(env)
    b = HouseholdBlock.of(households, env.window)
    assert b.m == 15
    part = b.take(lo, hi)
    population_oracle.assert_same_block(part, HouseholdBlock.of(households[lo:hi], env.window))
    # A copy: stepping the part leaves the whole as it was.
    part.age += 1.0
    part.child_age[:] = 0.0
    part.quarter += 1
    population_oracle.assert_same_block(b, HouseholdBlock.of(households, env.window))


def _forbidden(*args, **kwargs):
    raise AssertionError("a production path built, packed or wrote back a record")


def test_production_paths_build_pack_and_write_back_no_record(env, monkeypatch):
    for owner, name in ((HouseholdBlock, "pack"), (HouseholdBlock, "write_back"),
                        (AgentState, "__init__"), (HouseholdState, "__init__")):
        monkeypatch.setattr(owner, name, _forbidden)
    net = PolicyValueNet(OBS_DIM, N_ACTIONS, hidden=(8,), seed=0)
    protocol = ProtocolConfig(refit_steps=64, n_repeats=2, cohort_size=4, n_households=2, seed=1)
    run = reform_pipeline(net, load_reform(params_dir() / "reforms" / "orpo.yaml"), env, protocol)
    assert len(run.baseline.reports) == len(run.reform.reports) == 2
    # Past one 228-quarter episode, so the pool is drawn afresh.
    result = train_policy(env, TrainConfig(total_steps=2 * 228 * 4, hidden=(8,), seed=2), n_households=2)
    assert result.steps_done > 228 * 4
    log = run_cohort(net, init_population(130, env, seed=3), env, mode="greedy", collect_incentives=True)
    assert log.states.shape[0] == 130


def test_a_cohort_runs_only_under_its_work_window(env):
    er = env.rules.unemployment.er
    wider = dataclasses.replace(env.rules.unemployment, er=dataclasses.replace(
        er, condition_window_quarters=er.condition_window_quarters + 4))
    other = env.with_rules(dataclasses.replace(env.rules, unemployment=wider))
    pop = init_population(4, env, seed=1)
    with pytest.raises(ContractViolation, match="work window"):
        run_cohort(PolicyValueNet(OBS_DIM, N_ACTIONS, hidden=(8,), seed=0), pop, other)
