import dataclasses
import functools

import numpy as np
import pytest

from lifesim.agent import NO_EVENT, child_bands
from lifesim.env import LifecycleEnv, load_utility_params
from lifesim.errors import ContractViolation
from lifesim.paramfiles import params_dir, ruleset_path
from lifesim.population import DemographicTables, Gompertz, init_population, load_demographics
from lifesim.rules import load_ruleset
from lifesim.wage import load_wage_params
from lifesim.states import EmploymentState as S
import population_oracle
from step_oracle import fertility_events, mortality_events, partnership_events


@functools.cache
def _packaged_parts():
    return (load_ruleset(ruleset_path(2023)), load_utility_params(params_dir() / "utility.yaml"),
            load_wage_params(params_dir() / "wages.yaml"))


def _env(tables):
    """An env of the packaged 2023 rules, preferences and wages, and ``tables``."""
    rules, uparams, wparams = _packaged_parts()
    return LifecycleEnv(rules, uparams, wparams, tables)


def draw(n, tables, seed):
    """``init_population`` from ``_env(tables)``."""
    return init_population(n, _env(tables), seed=seed)


def draw_records(n, tables, seed):
    """The same cohort as records, for the per-record event oracle."""
    return population_oracle.records(n, _env(tables), seed=seed)


# One demographic event phase over a whole population, each household's
# next clock drawn with a uniform of its own from ``rng``.
def partnership_step(pop, tables, rng):
    for hh, u in zip(pop.households, rng.random(len(pop.households)).tolist()):
        partnership_events(hh, tables, u)
    return pop


def fertility_step(pop, tables, rng):
    for hh, u in zip(pop.households, rng.random(len(pop.households)).tolist()):
        fertility_events(hh, tables, u)
    return pop


def mortality_step(pop, tables):
    for hh in pop.households:
        mortality_events(hh)
    return pop


@pytest.fixture(scope="module")
def tables():
    return load_demographics(params_dir() / "demographics.yaml")


def zero_hazard_tables(tables) -> DemographicTables:
    return dataclasses.replace(
        tables,
        mortality={g: Gompertz(0.0, 0.0) for g in tables.mortality},
        fertility_annual=[(18.0, 0.0)],
        marriage_annual=[(18.0, 0.0)],
        divorce_annual=[(18.0, 0.0)],
    )


def test_single_agent_reproducible(tables):
    a = draw(1, tables, seed=42).block
    b = draw(1, tables, seed=42).block
    for name in ("women", "group", "state", "potential_wage", "life_left"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.age.tolist() == [18.0]


def test_zero_population_rejected(tables):
    with pytest.raises(ContractViolation):
        draw(0, tables, seed=1)


def test_group_shares_concentrate(tables):
    b = draw(100_000, tables, seed=7).block
    for women, gender in enumerate(("men", "women")):
        groups = b.group[b.women == women]
        expected = tables.shares_for_year(2023, gender)
        for g in range(3):
            observed = np.count_nonzero(groups == g) / len(groups)
            assert observed == pytest.approx(expected[g], abs=0.01)


def test_initial_state_distribution(tables):
    b = draw(100_000, tables, seed=8).block
    for women, gender in enumerate(("men", "women")):
        states = b.state[b.women == women]
        dist = tables.initial_states[gender]
        total = sum(dist.values())
        student_share = np.count_nonzero(states == S.STUDENT) / len(states)
        assert student_share == pytest.approx(dist[S.STUDENT] / total, abs=0.01)


def test_partnership_zero_hazard_no_change(tables):
    rng = np.random.default_rng(3)
    zt = zero_hazard_tables(tables)
    pop = draw_records(500, zt, seed=3)
    before = [hh.partnered for hh in pop.households]
    for _ in range(8):
        partnership_step(pop, zt, rng)
    assert [hh.partnered for hh in pop.households] == before
    assert all(not p for p in before)


def test_marriage_certain_event(tables):
    rng = np.random.default_rng(4)
    certain = dataclasses.replace(
        zero_hazard_tables(tables), marriage_annual=[(18.0, 4.0)]
    )  # quarterly hazard 1.0
    pop = draw_records(2, certain, seed=4)
    pair = next(hh for hh in pop.households if len(hh.adults) == 2)
    assert pair.until_marriage == 1
    partnership_step(pop, certain, rng)
    assert pair.partnered


def test_partnership_formation_count_within_3_sigma(tables):
    rng = np.random.default_rng(9)
    # Constant quarterly hazard p: expected formations over one year among
    # pairs follows the geometric first-event law.
    p = 0.05
    t = dataclasses.replace(zero_hazard_tables(tables), marriage_annual=[(18.0, 4 * p)])
    pop = draw_records(100_000, t, seed=9)
    pairs = [hh for hh in pop.households if len(hh.adults) == 2]
    for _ in range(4):
        partnership_step(pop, t, rng)
    formed = sum(1 for hh in pairs if hh.partnered)
    expect = len(pairs) * (1 - (1 - p) ** 4)
    sigma = np.sqrt(len(pairs) * (1 - (1 - p) ** 4) * (1 - p) ** 4)
    assert abs(formed - expect) < 3 * sigma


def test_fertility_zero_and_certain(tables):
    rng = np.random.default_rng(5)
    zt = zero_hazard_tables(tables)
    pop = draw_records(200, zt, seed=5)
    fertility_step(pop, zt, rng)
    assert all(not hh.child_ages for hh in pop.households)

    certain = dataclasses.replace(zt, fertility_annual=[(18.0, 4.0)])
    pop2 = draw_records(200, certain, seed=5)
    fertility_step(pop2, certain, rng)
    with_mother = [hh for hh in pop2.households if any(a.gender == "women" for a in hh.adults)]
    assert all(len(hh.child_ages) == 1 for hh in with_mother)


def test_fertility_count_within_3_sigma(tables):
    rng = np.random.default_rng(10)
    p = 0.02
    t = dataclasses.replace(zero_hazard_tables(tables), fertility_annual=[(18.0, 4 * p)])
    pop = draw_records(60_000, t, seed=10)
    mothers = sum(1 for hh in pop.households if any(a.gender == "women" for a in hh.adults))
    births = 0
    for _ in range(4):
        fertility_step(pop, t, rng)
    births = sum(len(hh.child_ages) for hh in pop.households)
    expect = mothers * (1 - (1 - p) ** 4)
    sigma = np.sqrt(expect)
    assert abs(births - expect) < 4 * sigma


def test_children_age_out_at_18(tables):
    rng = np.random.default_rng(6)
    zt = zero_hazard_tables(tables)
    pop = draw_records(2, zt, seed=6)
    hh = pop.households[0]
    hh.child_ages = [17.8]
    fertility_step(pop, zt, rng)
    assert hh.child_ages == []


def test_mortality_zero_and_certain(tables):
    zt = zero_hazard_tables(tables)
    pop = draw_records(300, zt, seed=11)
    for _ in range(8):
        mortality_step(pop, zt)
    assert all(a.alive for a in pop.agents())

    lethal = dataclasses.replace(tables, mortality={g: Gompertz(1.0, 0.0) for g in tables.mortality})
    pop2 = draw_records(300, lethal, seed=11)
    mortality_step(pop2, lethal)
    assert all(not a.alive for a in pop2.agents())


def test_survival_curve_matches_table_product(tables):
    b = draw(80_000, tables, seed=12).block
    life_left = b.life_left[b.women == 0]
    horizon = 120  # quarters = 30 years
    # Independent product of the quarterly survival probabilities.
    s = 1.0
    expected = []
    for k in range(1, horizon + 1):
        s *= 1.0 - tables.mortality_quarterly("men", 18.0 + 0.25 * k)
        expected.append(s)
    for k in (40, 80, 120):
        observed = np.count_nonzero((life_left == NO_EVENT) | (life_left > k)) / len(life_left)
        se = np.sqrt(expected[k - 1] * (1 - expected[k - 1]) / len(life_left))
        assert abs(observed - expected[k - 1]) < 4 * se + 1e-12


def test_partner_symmetry_and_conservation(tables):
    rng = np.random.default_rng(13)
    pop = draw_records(2_000, tables, seed=13)
    n_agents = sum(len(hh.adults) for hh in pop.households)
    assert n_agents == 2_000
    for _ in range(40):
        partnership_step(pop, tables, rng)
        fertility_step(pop, tables, rng)
        mortality_step(pop, tables)
    # Pair records keep symmetry by construction; agents are conserved.
    assert sum(len(hh.adults) for hh in pop.households) == n_agents
    for hh in pop.households:
        u3, u7, u18 = hh.bands
        assert 0 <= u3 <= u7 <= u18
        if hh.partnered:
            assert len(hh.adults) == 2


def test_stored_child_bands_follow_fertility_events(tables):
    """``hh.bands`` is stored, not recomputed: after every step of a
    random birth sequence it equals the bands recomputed from ``child_ages``."""
    rng = np.random.default_rng(7)
    births = dataclasses.replace(zero_hazard_tables(tables), fertility_annual=[(18.0, 0.4)])
    no_births = zero_hazard_tables(tables)
    pop = draw_records(40, births, seed=8)
    with_mother = [hh for hh in pop.households if any(a.gender == "women" for a in hh.adults)]
    assert with_mother
    born = 0
    for _ in range(120):
        for hh in pop.households:
            if rng.random() < 0.15:
                hh.until_birth = int(rng.integers(1, 4))
            born += fertility_events(hh, births if rng.random() < 0.5 else no_births, rng.random())
            assert hh.bands == child_bands(hh.child_ages)
    assert born > 0
    assert {hh.bands for hh in pop.households} != {(0, 0, 0)}
