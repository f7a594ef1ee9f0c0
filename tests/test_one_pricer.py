"""One pricer and one population source.

``terminal_block`` and the one-household ``step``, ``static_quarter`` and
``terminal_value`` price their quarter through ``PricingLedger``; every
outcome they give (rewards, consumptions, flows, events), every terminal
value and every record they write must equal, bit for bit, the per-block
pricer they used before (``price_oracle``).  The households include a
single adult, adults who die in the decision and the static phase, a child
under 3 and a pink slip, each asserted to occur in a priced quarter.

``init_population`` and ``spawn_pair_household`` read their inputs from
the env and draw into block columns; given the same env and seed they must
draw the block that packing the records drawn with the inputs passed one
by one gives (``population_oracle``), and a training pool's life draws
must be its households' keyed draws.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

import population_oracle
import price_oracle
from lifesim.agent import AgentState, HouseholdBlock, HouseholdState
from lifesim.env import LifecycleEnv, load_utility_params
from lifesim.env.actions import legal_mask
from lifesim.env.vector import LifecycleVectorEnv
from lifesim.paramfiles import params_dir, ruleset_path
from lifesim.population import init_population, load_demographics
from lifesim.rules import load_ruleset
from lifesim.states import EmploymentState as S
from lifesim.wage import load_wage_params
from test_step_oracle import _bits, _household

DECISION_QUARTERS = 40
STATIC_QUARTERS = 40


@pytest.fixture(scope="module")
def env(rules2023):
    return LifecycleEnv(rules2023, load_utility_params(params_dir() / "utility.yaml"),
                        load_wage_params(params_dir() / "wages.yaml"),
                        load_demographics(params_dir() / "demographics.yaml"))


def _adult(state, gender="men", age=30.0, hours=0, life_left=400, **kw) -> AgentState:
    paid = {40: 36000.0, 16: 14000.0}.get(hours, 0.0)
    a = AgentState(gender=gender, group=1, age=age, state=state, hours=hours, paid_wage=paid,
                   prev_paid_wage=paid or 30000.0, pension_accrued=900.0, **kw)
    a.life_left = life_left
    a.work_window = [(True, 9000.0)] * 8
    return a


def _households(env: LifecycleEnv) -> list[HouseholdState]:
    """Hand-built households first, then a seeded cohort."""
    built = [
        # a single adult
        (_adult(S.FULL_TIME, "women", hours=40),),
        # a pair with a child under 3; the father dies in the first quarter
        (_adult(S.FULL_TIME, hours=40, life_left=1), _adult(S.MOTHERS_LEAVE, "women", spell_left=3)),
        # a pink slip on the earnings-related benefit beside a part-time worker
        (_adult(S.ER_UNEMPLOYED, pink_slip=True, ub_basis=2100.0, ub_days_used=20.0),
         _adult(S.PART_TIME, "women", hours=16)),
        # retirees, one dying in the static phase
        (_adult(S.RETIRED, age=70.0, pension_paid=1500.0, life_left=60),
         _adult(S.RETIRED, "women", age=70.0, pension_paid=1200.0)),
    ]
    households = []
    for k, adults in enumerate(built):
        households.append(HouseholdState(adults=adults, partnered=len(adults) == 2,
                                         child_ages=[1.0] if k == 1 else [], key=(5, k)))
    return households + population_oracle.records(9, env, seed=17).households


def test_one_household_api_keeps_the_per_block_pricers_bits(env):
    ledger = _households(env)
    oracle = copy.deepcopy(ledger)
    policy = np.random.default_rng(23)
    seen = set()

    def note(households):
        for hh in households:
            living = [a for a in hh.adults if a.alive]
            cases = {"single": len(hh.adults) == 1, "child_under_3": hh.bands[0] > 0,
                     "pink_slip": any(a.pink_slip for a in living), "dead": len(living) < len(hh.adults)}
            seen.update(name for name, occurs in cases.items() if occurs)

    for _ in range(DECISION_QUARTERS):
        for got, want in zip(ledger, oracle):
            masks = [legal_mask(a, got, env.rules) for a in got.adults]
            acts = tuple(int(policy.choice(np.flatnonzero(m))) for m in masks)
            out = env.step(got, acts, masks=masks)
            assert _bits(dataclasses.astuple(out)) == _bits(dataclasses.astuple(
                price_oracle.step(env, want, acts, masks=masks)))
            assert _household(got) == _household(want)
        note(ledger)
    assert seen == {"single", "child_under_3", "pink_slip", "dead"}

    for got, want in zip(ledger, oracle):
        assert _bits(env.terminal_value(copy.deepcopy(got))) == _bits(
            price_oracle.terminal_value(env, copy.deepcopy(want)))
    block, oracle_block = env.block(copy.deepcopy(ledger)), env.block(copy.deepcopy(oracle))
    assert np.array_equal(env.terminal_block(block).view(np.uint64),
                          price_oracle.terminal_block(env, oracle_block).view(np.uint64))

    for got, want in zip(ledger, oracle):
        env.freeze_for_static_phase(got)
        env.freeze_for_static_phase(want)
    last, last_oracle = [None] * len(ledger), [None] * len(oracle)
    deaths = sum(not a.alive for hh in ledger for a in hh.adults)
    for _ in range(STATIC_QUARTERS):
        last = [env.static_quarter(hh, prev) for hh, prev in zip(ledger, last)]
        last_oracle = [price_oracle.static_quarter(env, hh, prev) for hh, prev in zip(oracle, last_oracle)]
        for got, want, out, out_oracle in zip(ledger, oracle, last, last_oracle):
            assert _household(got) == _household(want)
            assert _bits(dataclasses.astuple(out)) == _bits(dataclasses.astuple(out_oracle))
    assert sum(not a.alive for hh in ledger for a in hh.adults) > deaths


@pytest.mark.parametrize("year, n, seed", [(2023, 25, 3), (2024, 41, 11), (2018, 7, 12)])
def test_population_draws_from_the_env_as_from_its_parts(env, year, n, seed):
    arm = env.with_rules(load_ruleset(ruleset_path(year)))
    got = init_population(n, arm, seed=seed)
    want = population_oracle.init_population(n, arm.tables, seed, year=year, wparams=arm.wparams,
                                             draws=arm.initial_draws)
    assert (got.seed, got.size) == (want.seed, want.size)
    population_oracle.assert_same_block(got.block, HouseholdBlock.of(want.households, arm.window))
    assert set(got.block.size.tolist()) == {1, 2}

    # The training pool's fresh blocks, drawn by ``spawn_pair_household``, the
    # second taking the next six household ids.
    venv = LifecycleVectorEnv(arm, n_households=6, seed=seed)
    for first in (0, 6):
        pairs = [population_oracle.spawn_pair_household(seed, first + k, arm.tables, arm.wparams,
                                                        arm.initial_draws, year) for k in range(6)]
        want = population_oracle.with_life(HouseholdBlock.of(pairs, arm.window), venv.episode_quarters)
        population_oracle.assert_same_block(venv._fresh_block(), want)


def test_population_default_year_and_wages_were_the_packaged_2023_env(env):
    """The removed defaults (year 2023, ``wages.yaml`` parsed per call, the
    initial draw tables built per call) drew what the packaged 2023 env draws."""
    got = init_population(30, env, seed=5)
    want = population_oracle.init_population(30, env.tables, 5)
    population_oracle.assert_same_block(got.block, HouseholdBlock.of(want.households, env.window))
