"""Keyed draws: every random number of a household is a function of its key
(population seed, household id), its purpose and the quarter.

* A block's life draws, action uniforms and quarter slots are
  ``default_rng((seed, household, purpose))`` draws of the documented layout
  (``population_oracle.life_draws``).
* A cohort's genders, groups and pairs come from the master stream as they
  did when each household owned two generators (pinned below).
* An event drawn in one quarter moves no later draw of the household.
* Under one net, the 2023 and the 2023 + ``orpo`` arms of a 1,024-agent
  cohort read the same draws in every quarter.
* A population is a value: running it again simulates the same cohort.
"""

import copy
import dataclasses
import hashlib

import numpy as np
import pytest

import lifesim.env.mdp as mdp
import population_oracle
from lifesim.agent import NO_EVENT, AgentState
from lifesim.env import LifecycleEnv, load_utility_params
from lifesim.env.actions import N_ACTIONS
from lifesim.env.features import OBS_DIM
from lifesim.paramfiles import params_dir
from lifesim.population import action_uniforms, draw_life, init_population, load_demographics, quarter_draws
from lifesim.reform import apply_reform, load_reform
from lifesim.simulate import run_cohort
from lifesim.solver import PolicyValueNet
from lifesim.states import EmploymentState as S
from lifesim.wage import load_wage_params


@pytest.fixture(scope="module")
def env(rules2023):
    return LifecycleEnv(rules2023, load_utility_params(params_dir() / "utility.yaml"),
                        load_wage_params(params_dir() / "wages.yaml"),
                        load_demographics(params_dir() / "demographics.yaml"))


@pytest.fixture(scope="module")
def net():
    return PolicyValueNet(OBS_DIM, N_ACTIONS, hidden=(16,), seed=5)


def test_block_draws_are_the_keyed_streams_of_the_documented_layout(env):
    b = init_population(9, env, seed=12).block
    assert b.seed.tolist() == [12] * b.m and b.ids.tolist() == list(range(b.m))
    draw_life(b, 40)
    want = population_oracle.with_life(copy.copy(b), 40)
    assert b.uniforms.tobytes() == want.uniforms.tobytes() and b.normals.tobytes() == want.normals.tobytes()
    actions = action_uniforms(b, 30)
    for r, (h, slot) in enumerate(zip(b.hh.tolist(), b.slot.tolist())):
        assert actions[:, r].tobytes() == np.random.default_rng((12, h, 3)).random((30, 2))[:, slot].tobytes()
    # Each household reads the row of its own quarter: nine uniforms and a
    # normal per adult slot, three uniforms per household.
    b.quarter[:] = np.arange(b.m) * 3
    u, u_house, shocks = quarter_draws(b)
    for r, (h, slot) in enumerate(zip(b.hh.tolist(), b.slot.tolist())):
        life_u, life_z = population_oracle.life_draws(12, h, 40)
        row = life_u[3 * h]
        assert u[r].tolist() == row[9 * slot:9 * slot + 9].tolist() and shocks[r] == life_z[3 * h, slot]
        assert u_house[h].tolist() == row[18:].tolist()


def test_cohort_groups_and_pairs_are_the_master_streams_as_before(env):
    """The values the two-generator population drew for this seed."""
    b = init_population(25, env, seed=9).block
    assert b.size.tolist() == [2] * 12 + [1]
    assert b.women.tolist() == [0, 1] * 12 + [1]
    assert b.group.tolist() == [0, 1, 1, 0, 2, 1, 0, 2, 1, 1, 1, 0, 0, 2, 1, 2, 0, 0, 0, 0, 0, 1, 1, 1, 2]


def test_a_households_draws_do_not_depend_on_its_earlier_events(env):
    """A hand-built pair, its man's student clock firing in the first quarter
    or never: in the second quarter both adults draw the same wage shock,
    so their potential wages stay equal."""
    hh = population_oracle.records(2, env, seed=4).households[0]
    adults = [AgentState(gender=g, group=1, age=30.0, state=S.FULL_TIME, hours=40, paid_wage=30000.0,
                         potential_wage=30000.0, life_left=400) for g in ("men", "women")]
    fires, quiet = copy.deepcopy(hh), copy.deepcopy(hh)
    fires.adults, quiet.adults = copy.deepcopy(adults), copy.deepcopy(adults)
    fires.adults[0].until_student, quiet.adults[0].until_student = 1, NO_EVENT
    events = [env.step(household, (0, 0)).events for household in (fires, quiet)]
    assert "student_entry" in events[0] and "student_entry" not in events[1]
    assert fires.adults[0].state is S.STUDENT and quiet.adults[0].state is S.FULL_TIME
    for household in (fires, quiet):
        env.step(household, (0, 0))
    assert [a.potential_wage for a in fires.adults] == [a.potential_wage for a in quiet.adults]
    assert fires.adults[1] == quiet.adults[1]


def _reads(env: LifecycleEnv, net, monkeypatch) -> dict:
    """sha256 of the draws each block call reads, by its households' ids and quarters."""
    reads = {}

    def recorded(b):
        draws = quarter_draws(b)
        key = (tuple(b.ids.tolist()), tuple(b.quarter.tolist()))
        assert key not in reads
        reads[key] = hashlib.sha256(b"".join(np.ascontiguousarray(d).tobytes() for d in draws)).hexdigest()
        return draws

    monkeypatch.setattr(mdp, "quarter_draws", recorded)
    run_cohort(net, init_population(1024, env, seed=8), env, mode="sample")
    monkeypatch.undo()
    return reads


def test_both_arms_of_a_comparison_read_the_same_draws_in_every_quarter(env, net, monkeypatch):
    orpo, _ = apply_reform(env.rules, load_reform(params_dir() / "reforms" / "orpo.yaml"))
    base, reform = _reads(env, net, monkeypatch), _reads(env.with_rules(orpo), net, monkeypatch)
    assert len(base) == 8 * 328   # every quarter of every 64-household block
    assert base == reform


def test_running_a_population_again_simulates_the_same_cohort(env, net):
    pop = init_population(4, env, seed=3)
    drawn = {name: value.copy() for name, value in vars(pop.block).items() if isinstance(value, np.ndarray)}
    first, second = run_cohort(net, pop, env), run_cohort(net, pop, env)
    fresh = run_cohort(net, init_population(4, env, seed=3), env)
    for log in (second, fresh):
        for field in dataclasses.fields(log):
            got, want = getattr(log, field.name), getattr(first, field.name)
            if isinstance(want, np.ndarray):
                assert got.tobytes() == want.tobytes(), field.name
    assert all(getattr(pop.block, name).tobytes() == value.tobytes() for name, value in drawn.items())
    assert pop.block.uniforms is None
