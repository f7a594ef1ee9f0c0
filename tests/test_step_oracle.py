"""The block step against the per-household step it replaced
(``tests/step_oracle.py``): a seeded random-legal-policy trajectory through
the 228 decision quarters, the terminal value, the freeze and the static
phase, under every packaged rule set and 2023 + ``orpo``.  Every agent and
household field, flow, consumption, reward, event, key and quarter must
match bit for bit, for households stepped as one block and for
households stepped alone through ``LifecycleEnv.step``."""

from __future__ import annotations

import copy
import dataclasses
import struct

import numpy as np
import pytest

import population_oracle
import step_oracle
from lifesim.agent import DECISION_END_AGE, DT, AgentState, HouseholdState
from lifesim.env import LifecycleEnv, load_utility_params
from lifesim.env.actions import N_ACTIONS
from lifesim.env.features import OBS_DIM
from lifesim.env.mdp import event_names
from lifesim.env.vector import observe
from lifesim.paramfiles import params_dir, ruleset_path
from lifesim.population import load_demographics
from lifesim.reform import apply_reform, load_reform
from lifesim.rules import load_ruleset
from lifesim.states import EmploymentState as S
from lifesim.wage import load_wage_params
from price_oracle import price, static_block, unit_cash_flows
from train_oracle import step_block

RULE_NAMES = ["2018", "2019", "2020", "2021", "2022", "2023", "2024", "2023+orpo"]
DECISION_QUARTERS = int(round((DECISION_END_AGE - 18.0) / DT))
STATIC_QUARTERS = 100


def _rules(name: str):
    if name == "2023+orpo":
        return apply_reform(load_ruleset(ruleset_path(2023)),
                            load_reform(params_dir() / "reforms" / "orpo.yaml"))[0]
    return load_ruleset(ruleset_path(int(name)))


def _bits(value):
    """``value`` with every float replaced by its bytes, so -0.0 and 0.0 differ."""
    if isinstance(value, float):
        return struct.pack("d", value)
    if isinstance(value, (list, tuple)):
        return type(value)(_bits(v) for v in value)
    return value


def _agent(a: AgentState):
    return [(f.name, type(getattr(a, f.name)).__name__, _bits(getattr(a, f.name)))
            for f in dataclasses.fields(AgentState)]


def _household(hh: HouseholdState):
    return ([_agent(a) for a in hh.adults], hh.partnered, _bits(hh.child_ages), hh.until_birth,
            hh.until_marriage, hh.until_divorce, hh.bands, hh.key, hh.quarter)


def _flows(flows):
    return [_bits(dataclasses.astuple(cf)) for cf in flows]


def _env_2023(env: LifecycleEnv) -> LifecycleEnv:
    """``env`` under the 2023 rules, whose year the cohorts are drawn for."""
    return env.with_rules(_rules("2023"))


def _population(env: LifecycleEnv, seed: int) -> list[HouseholdState]:
    """A seeded cohort (singles and pairs), some adults with an early death,
    and the first adult of each of the first four households with a
    student clock due at 19, so that student entries occur."""
    households = population_oracle.records(19, _env_2023(env), seed=seed).households
    rng = np.random.default_rng(seed)
    for hh in households:
        for a in hh.adults:
            if rng.random() < 0.3:
                a.life_left = int(rng.integers(1, DECISION_QUARTERS))
    for hh in households[:4]:
        hh.adults[0].until_student = 4
    return households


@pytest.mark.parametrize("rules_name", RULE_NAMES)
def test_block_step_matches_per_household_oracle(rules_name):
    env = LifecycleEnv(_rules(rules_name), load_utility_params(params_dir() / "utility.yaml"),
                       load_wage_params(params_dir() / "wages.yaml"),
                       load_demographics(params_dir() / "demographics.yaml"))
    oracle = step_oracle.OracleEnv(env)
    seed = 70 + RULE_NAMES.index(rules_name)
    households = _population(env, seed)
    want = copy.deepcopy(households)      # stepped by the oracle
    alone = copy.deepcopy(households[:3])  # stepped one at a time by LifecycleEnv.step
    b = population_oracle.with_life(env.block(households), DECISION_QUARTERS + STATIC_QUARTERS)
    obs = np.empty((b.n, OBS_DIM))
    masks = np.empty((b.n, N_ACTIONS), dtype=bool)
    policy = np.random.default_rng(seed)
    events: dict[str, int] = {}
    sizes = [len(hh.adults) for hh in households]
    starts = np.cumsum([0] + sizes)

    def check(outcomes, outcomes_alone):
        b.write_back(households)
        for h, (got, hh, out) in enumerate(zip(households, want, outcomes)):
            assert _household(got) == _household(hh), (rules_name, h)
            rows = slice(starts[h], starts[h + 1])
            assert _bits(tuple(b.consumption[rows].tolist())) == _bits(out.consumptions), (rules_name, h)
            assert _bits(tuple(b.reward[rows].tolist())) == _bits(out.rewards), (rules_name, h)
            assert _flows(unit_cash_flows(b, h)) == _flows(out.flows), (rules_name, h)
        for got, hh, out, out_alone in zip(alone, want, outcomes, outcomes_alone):
            assert _household(got) == _household(hh)
            assert _bits(dataclasses.astuple(out_alone)) == _bits(dataclasses.astuple(out))

    for _ in range(DECISION_QUARTERS):
        observe(b, env, obs, masks)
        acts = [int(policy.choice(np.flatnonzero(m))) for m in masks]
        step_block(env, b, acts, masks)
        outcomes = [oracle.step(hh, tuple(acts[starts[h]:starts[h + 1]]), masks=masks[starts[h]:starts[h + 1]])
                    for h, hh in enumerate(want)]
        outcomes_alone = [env.step(hh, tuple(acts[starts[h]:starts[h + 1]]), masks=masks[starts[h]:starts[h + 1]])
                          for h, hh in enumerate(alone)]
        for h, out in enumerate(outcomes):
            assert event_names(b, h) == out.events, (rules_name, h)
            for name in out.events:
                events[name] = events.get(name, 0) + 1
        check(outcomes, outcomes_alone)

    # The terminal value freezes its households: take it on copies.
    terminal = env.terminal_block(copy.deepcopy(b))
    for h, hh in enumerate(copy.deepcopy(want)):
        values = oracle.terminal_value(hh)
        assert _bits(tuple(terminal[starts[h]:starts[h + 1]].tolist())) == _bits(values), (rules_name, h)
        if h < len(alone):
            assert _bits(env.terminal_value(copy.deepcopy(alone[h]))) == _bits(values)

    env.freeze_block(b)
    for hh in want:
        oracle.freeze_for_static_phase(hh)
    for hh in alone:
        env.freeze_for_static_phase(hh)
    last = [None] * len(want)
    last_alone = [None] * len(alone)
    for _ in range(STATIC_QUARTERS):
        if static_block(env, b).size:
            price(env, b)
        last = [oracle.static_quarter(hh, prev) for hh, prev in zip(want, last)]
        last_alone = [env.static_quarter(hh, prev) for hh, prev in zip(alone, last_alone)]
        check(last, last_alone)

    seen = {"birth", "mothers_leave", "layoff", "job_started", "search_failed", "quit", "partial_early",
            "sick_onset", "student_entry", "outside_entry", "auto_retire"}
    assert seen <= events.keys(), (rules_name, sorted(seen - events.keys()))
    assert {len(hh.adults) for hh in households} == {1, 2}
    assert any(a.state is S.DEAD for hh in households for a in hh.adults)
