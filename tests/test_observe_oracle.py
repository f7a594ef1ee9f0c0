"""The block encoder and masks against the per-row oracle, bit for bit.

Random-policy trajectories of singles and pairs run through the decision
phase under 2023, 2023 with the packaged ``orpo`` reform, and 2019.  Some
lives are shortened so that partners die mid-trajectory.  Every quarter the
rows ``observe_households`` writes for the whole block, and the one-adult
``encode``/``legal_mask`` on a sample of adults, must equal the oracle's bits.
"""

import numpy as np
import pytest

from lifesim.agent import AgentState, HouseholdState
from lifesim.env import LifecycleEnv, encode, legal_mask, load_utility_params
from lifesim.env.actions import A_HOME_CARE, A_PARTIAL25, A_RETIRE, N_ACTIONS
from lifesim.env.features import OBS_DIM
from lifesim.env.mdp import DECISION_END_AGE, DT
from lifesim.env.vector import observe_households, step_households
from lifesim.paramfiles import params_dir, ruleset_path
from lifesim.population import init_population, load_demographics
from lifesim.reform import apply_reform, load_reform
from lifesim.rules import load_ruleset
from lifesim.states import EmploymentState as S
from lifesim.wage import load_wage_params

import observe_oracle as oracle

DECISION_QUARTERS = int(round((DECISION_END_AGE - 18.0) / DT))


def _rules(name):
    if name == "2023+orpo":
        return apply_reform(load_ruleset(ruleset_path(2023)),
                            load_reform(params_dir() / "reforms" / "orpo.yaml"))[0]
    return load_ruleset(ruleset_path(int(name)))


def _bits(a):
    return a.view(np.uint64) if a.dtype == np.float64 else a


@pytest.mark.parametrize("rules_name, seed", [("2023", 31), ("2023+orpo", 32), ("2019", 33)])
def test_block_rows_match_per_row_oracle(rules_name, seed):
    env = LifecycleEnv(_rules(rules_name), load_utility_params(), load_wage_params(), load_demographics())
    households = init_population(41, env.tables, seed=seed).households
    rng = np.random.default_rng(seed)
    for hh in households:
        for a in hh.adults:
            if rng.random() < 0.25:
                a.life_left = int(rng.integers(1, DECISION_QUARTERS))
    adults = [(a, hh, hh.adults[1 - slot] if len(hh.adults) == 2 else None)
              for hh in households for slot, a in enumerate(hh.adults)]
    obs = np.empty((len(adults), OBS_DIM))
    masks = np.empty((len(adults), N_ACTIONS), dtype=bool)
    seen = dict.fromkeys(("single", "dead_partner", "returning", "retire", "partial", "home_care"), 0)

    for q in range(DECISION_QUARTERS):
        observe_households(households, env, obs, masks)
        want_obs = np.array([oracle.encode(a, p, hh, env.uparams, env.rules) for a, hh, p in adults])
        want_masks = np.array([oracle.legal_mask(a, hh, env.rules) for a, hh, _ in adults])
        assert np.array_equal(_bits(obs), _bits(want_obs)), (rules_name, q)
        assert np.array_equal(masks, want_masks), (rules_name, q)
        for row in range(q % 7, len(adults), 7):
            a, hh, p = adults[row]
            assert np.array_equal(_bits(encode(a, p, hh, env.uparams, env.rules)), _bits(want_obs[row]))
            assert np.array_equal(legal_mask(a, hh, env.rules), want_masks[row])

        for a, _, p in adults:
            seen["single"] += p is None
            seen["dead_partner"] += p is not None and not p.alive and a.alive
            seen["returning"] += a.returning and a.alive
        seen["retire"] += int(masks[:, A_RETIRE].sum())
        seen["partial"] += int(masks[:, A_PARTIAL25].sum())
        seen["home_care"] += int(masks[:, A_HOME_CARE].sum())

        acts = [int(rng.choice(np.flatnonzero(m))) for m in masks]
        step_households(households, env, acts, masks)

    assert all(seen.values()), seen


@pytest.mark.parametrize("rules_name", ["2023", "2023+orpo", "2019"])
def test_block_rows_match_oracle_on_every_state_and_gate(rules_name):
    """Every state, alone and beside a partner in every state or dead, on
    either side of each age gate, returning or not, with and without a child
    under 3, a partial pension drawn or not, and some pension accrued or not."""
    env = LifecycleEnv(_rules(rules_name), load_utility_params(), load_wage_params(), load_demographics())
    pension = env.rules.pension
    ages = sorted({40.0, pension.partial_early.min_age - DT, pension.partial_early.min_age,
                   pension.min_retirement_age - DT, pension.min_retirement_age, 70.0})
    households = []
    for state in S:
        for age in ages:
            for returning in (False, True):
                for under3 in (False, True):
                    for share, accrued in ((0.0, 0.0), (0.0, 900.0), (0.25, 900.0)):
                        a = AgentState(gender="women", group=2, age=age, state=state, returning=returning,
                                       partial_early_share=share, pension_accrued=accrued,
                                       work_window=[(True, 8000.0)] * 5)
                        households.append(HouseholdState(adults=(a,), child_ages=[1.0] if under3 else []))
        for partner_state in S:
            a = AgentState(gender="men", group=0, age=45.0, state=state)
            p = AgentState(gender="women", group=1, age=43.0, state=partner_state, paid_wage=30000.0,
                           pension_paid=100.0, pension_accrued=300.0)
            households.append(HouseholdState(adults=(a, p), partnered=True, child_ages=[5.0, 12.0]))
    rows = [(a, hh, hh.adults[1 - slot] if len(hh.adults) == 2 else None)
            for hh in households for slot, a in enumerate(hh.adults)]
    obs = np.empty((len(rows), OBS_DIM))
    masks = np.empty((len(rows), N_ACTIONS), dtype=bool)
    observe_households(households, env, obs, masks)
    want_obs = np.array([oracle.encode(a, p, hh, env.uparams, env.rules) for a, hh, p in rows])
    want_masks = np.array([oracle.legal_mask(a, hh, env.rules) for a, hh, _ in rows])
    assert np.array_equal(_bits(obs), _bits(want_obs))
    assert np.array_equal(masks, want_masks)
