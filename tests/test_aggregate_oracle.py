"""``aggregate`` and the spell scan on whole matrices against their per-age
and per-agent forms (``aggregate_oracle``), bit for bit.

The logs are a simulated 24-agent cohort, seeded synthetic 1,024-agent
cohorts (deaths absorbing, hours only in work, ER days counting up through
spells), a cohort that is all dead from some age on (every rate NaN there),
one where one gender dies out first, and a one-gender cohort.  Every field
of the report must have the oracle's bits, NaNs in the same places.
"""

import dataclasses
import struct

import numpy as np
import pytest

import aggregate_oracle as oracle
from lifesim.env import LifecycleEnv, load_utility_params
from lifesim.env.actions import N_ACTIONS
from lifesim.env.features import OBS_DIM
from lifesim.errors import ContractViolation
from lifesim.paramfiles import params_dir
from lifesim.population import init_population, load_demographics
from lifesim.simulate import FLOW_NAMES, N_AGES, SimulationLog, aggregate, run_cohort, scan_unemployment_spells
from lifesim.solver import PolicyValueNet
from lifesim.states import ALLOWED_HOURS, UNEMPLOYMENT_STATES, WORKING_STATES, EmploymentState as S
from lifesim.wage import load_wage_params

QUARTERS = 4 * N_AGES
HORIZON = (75 - 18) * 4


def _bits(value):
    """A report field as comparable raw bits: float arrays by their bytes,
    so NaNs compare equal and 0.0 differs from -0.0."""
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


def assert_same_report(log: SimulationLog) -> None:
    got, want = aggregate(log), oracle.aggregate(log)
    for f in dataclasses.fields(want):
        assert _bits(getattr(got, f.name)) == _bits(getattr(want, f.name)), f.name


def synthetic_log(n: int, seed: int, gender=None, dead_from: int | None = None) -> SimulationLog:
    """A seeded cohort log: each agent lives to a drawn quarter (dead from
    ``dead_from`` at the latest), moves between states in spells, works
    allowed hours only in work, and counts ER days up through each
    unemployment spell."""
    rng = np.random.default_rng(seed)
    codes = np.array([int(s) for s in S if s is not S.DEAD])
    spell_state = rng.choice(codes, size=(n, QUARTERS // 8 + 1))
    states = np.repeat(spell_state, 8, axis=1)[:, :QUARTERS].astype(np.int8)
    death = rng.integers(QUARTERS // 3, QUARTERS + 40, size=n)
    if dead_from is not None:
        death = np.minimum(death, dead_from)
    states[np.arange(QUARTERS) >= death[:, None]] = int(S.DEAD)
    working = np.isin(states, [int(s) for s in WORKING_STATES])
    hours = np.where(working, rng.choice(np.array(ALLOWED_HOURS, dtype=np.int8), size=states.shape), 0)
    unemployed = np.isin(states, [int(s) for s in UNEMPLOYMENT_STATES])
    er_days = np.cumsum(np.where(unemployed, rng.choice([0.0, 65.0], size=states.shape), 0.0), axis=1)
    return SimulationLog(
        cohort_size=n, seed=seed, n_quarters=QUARTERS, states=states, hours=hours.astype(np.int8),
        paid_wage=rng.uniform(0.0, 60_000.0, size=states.shape).astype(np.float32),
        er_days_used=er_days.astype(np.float32),
        gender=(rng.integers(0, 2, size=n) if gender is None else np.full(n, gender)).astype(np.int8),
        group=rng.integers(0, 3, size=n).astype(np.int8),
        flows_by_age={k: rng.uniform(0.0, 1e6, size=N_AGES) for k in FLOW_NAMES},
        consumption_by_age=rng.uniform(0.0, 1e6, size=N_AGES),
        emtr_samples=rng.uniform(0.0, 1.2, size=3 * n), ptr_samples=rng.uniform(0.0, 1.2, size=3 * n))


@pytest.fixture(scope="module")
def simulated_log(rules2023):
    env = LifecycleEnv(rules2023, load_utility_params(params_dir() / "utility.yaml"),
                       load_wage_params(params_dir() / "wages.yaml"),
                       load_demographics(params_dir() / "demographics.yaml"))
    net = PolicyValueNet(OBS_DIM, N_ACTIONS, hidden=(16,), seed=11)
    return run_cohort(net, init_population(24, env, seed=11), env,
                      mode="sample", collect_incentives=True)


def test_simulated_cohort_aggregates_like_the_oracle(simulated_log):
    assert simulated_log.states.shape == (24, QUARTERS)
    assert (simulated_log.states == int(S.DEAD)).any() and np.isin(simulated_log.states, [2, 3, 4]).any()
    assert_same_report(simulated_log)


@pytest.mark.parametrize("seed", [1, 2])
def test_large_synthetic_cohort_aggregates_like_the_oracle(seed):
    """1,024 agents: up to 4,096 working cells per age, so each FTE sum runs
    numpy's blocked pairwise summation."""
    log = synthetic_log(1024, seed)
    assert np.count_nonzero(np.isin(log.states[:, :4], [int(s) for s in WORKING_STATES])) > 128
    assert_same_report(log)


def test_all_dead_ages_are_nan_like_the_oracle():
    log = synthetic_log(24, 3, dead_from=200)
    rep = aggregate(log)
    assert np.isnan(rep.employment_rate[50:]).all() and (rep.alive_share[50:] == 0.0).all()
    assert (rep.occupancy[50:] == 0.0).all()
    assert_same_report(log)


def test_one_gender_dying_out_first_is_nan_like_the_oracle():
    log = synthetic_log(24, 4)
    log.states[log.gender == 1, 120:] = int(S.DEAD)
    rep = aggregate(log)
    assert np.isnan(rep.employment_rate[30:, 1]).all() and not np.isnan(rep.employment_rate[30:40, 0]).all()
    assert_same_report(log)


@pytest.mark.parametrize("gender", [0, 1])
def test_one_gender_cohort_aggregates_like_the_oracle(gender):
    log = synthetic_log(40, 5 + gender, gender=gender)
    assert np.isnan(aggregate(log).employment_rate[:, 1 - gender]).all()
    assert_same_report(log)


@pytest.mark.parametrize("quarters", [QUARTERS - 1, QUARTERS + 4])
def test_aggregate_rejects_a_log_of_another_length(quarters):
    log = synthetic_log(4, 7)
    cut = {name: np.resize(getattr(log, name), (4, quarters))
           for name in ("states", "hours", "paid_wage", "er_days_used")}
    with pytest.raises(ContractViolation, match="quarters"):
        aggregate(dataclasses.replace(log, n_quarters=quarters, **cut))


def _spell_bits(spells):
    return [struct.pack("<dd", age, used) for age, used in spells]


@pytest.mark.parametrize("horizon", [None, HORIZON, 1])
def test_spell_scan_matches_the_oracle(simulated_log, horizon):
    for log in (simulated_log, synthetic_log(1024, 8)):
        got = scan_unemployment_spells(log.states, log.er_days_used,
                                       log.states.shape[1] if horizon is None else horizon)
        want = oracle.scan_unemployment_spells(log.states, log.er_days_used, horizon)
        assert _spell_bits(got) == _spell_bits(want)
    assert got or horizon == 1


def test_spell_scan_floors_a_falling_day_count_and_keeps_float32_bits():
    states = np.full((2, 12), int(S.FULL_TIME), dtype=np.int8)
    states[0, 0:3] = states[0, 5:7] = states[1, 10:] = int(S.ER_UNEMPLOYED)
    er_days = np.zeros((2, 12), dtype=np.float32)
    er_days[0, :3] = (65.1, 130.2, 195.3)
    er_days[0, 4:7] = (400.0, 300.0, 350.0)   # the second spell ends below where it started
    er_days[1, 9:] = (1.0, 66.7, 131.9)
    got = scan_unemployment_spells(states, er_days, states.shape[1])
    assert _spell_bits(got) == _spell_bits(oracle.scan_unemployment_spells(states, er_days))
    assert got == [(18.0, float(np.float32(195.3))), (19.25, 0.0),
                   (20.5, float(np.float32(131.9) - np.float32(1.0)))]
