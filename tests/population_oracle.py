"""Population draws as they stood when a cohort was drawn as records:
``init_population`` and ``spawn_pair_household`` with the demographic
tables, wage parameters, initial draw tables and year passed one by one
(with the fallbacks that built the missing ones), and the record helpers
they called, ``CohortPopulation`` of records included.  Kept verbatim as a
test oracle; the tests assert that ``lifesim.population`` draws the same
households into block columns.  Do not edit the functions below; only the
import of ``load_wage_params`` is absolute here.  ``records``, ``cohort``
and ``assert_same_block`` below them are the tests' helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import lifesim.population as population
from lifesim.agent import DT, MAX_AGE, NO_EVENT, AgentState, HouseholdState
from lifesim.env import LifecycleEnv
from lifesim.errors import ContractViolation
from lifesim.population import (DemographicTables, InitialDraws, draw_from_curve, draw_geometric,
                                initial_draw_tables)
from lifesim.states import EmploymentState as S
from lifesim.wage import WageParams, paid_wage


@dataclass
class CohortPopulation:
    households: list[HouseholdState]
    seed: int
    size: int

    def agents(self):
        for hh in self.households:
            yield from hh.adults


def mother_of(hh: HouseholdState) -> AgentState | None:
    women = [a for a in hh.adults if a.gender == "women"]
    return women[0] if women else None


def _draw_initial_clocks(
    agent: AgentState, tables: DemographicTables, rng: np.random.Generator, curves: dict[str, np.ndarray]
) -> None:
    horizon = int((MAX_AGE - agent.age) / DT)
    agent.life_left = draw_from_curve(curves["mort_" + agent.gender], rng)
    if agent.life_left == NO_EVENT:
        agent.life_left = horizon  # censored at the model's maximum age
    dis = tables.exogenous.disability_clock_quarterly
    agent.until_disability = draw_geometric(dis, rng, cap=10_000)
    agent.until_student = NO_EVENT
    if agent.state is not S.STUDENT:
        agent.until_student = draw_geometric(tables.exogenous.student_entry_quarterly, rng, cap=10_000)
    agent.until_outsider = draw_geometric(tables.exogenous.outsider_entry_quarterly, rng, cap=10_000)


def _pick(options, cdf: np.ndarray, rng: np.random.Generator):
    return options[int(np.searchsorted(cdf, rng.random(), side="right"))]


def _initial_agent(
    gender: str,
    group: int,
    tables: DemographicTables,
    wparams: WageParams,
    rng: np.random.Generator,
    curves: dict[str, np.ndarray],
    state_cdf: dict[str, tuple[list[S], np.ndarray]],
) -> AgentState:
    states, cdf = state_cdf[gender]
    state = _pick(states, cdf, rng)

    disp = wparams.initial_dispersion
    shock = rng.standard_normal() * disp - 0.5 * disp * disp
    potential = wparams.mean_wage(gender, group, 18.0) * math.exp(shock)

    agent = AgentState(gender=gender, group=group, age=18.0, state=state, potential_wage=potential)
    agent.fund_member = bool(rng.random() < tables.fund_membership_share)
    if state is S.FULL_TIME:
        agent.hours = 40
    elif state is S.PART_TIME:
        agent.hours = 16
    if agent.hours:
        agent.paid_wage = paid_wage(potential, agent.hours, 0.0)
    if state is S.STUDENT:
        agent.spell_left = draw_geometric(tables.exogenous.student_spell_end_quarterly, rng)
    if state is S.SICK_LEAVE:
        agent.spell_left = 1
        agent.wage_reduction = 0.0
    _draw_initial_clocks(agent, tables, rng, curves)
    return agent


def _draw_household_clocks(hh: HouseholdState, curves: dict[str, np.ndarray]) -> None:
    """First birth and marriage clocks of a household formed at age 18;
    ``curves`` holds the failure curves from 18 (``initial_draw_tables``)."""
    if mother_of(hh) is not None:
        hh.until_birth = draw_from_curve(curves["fertility"], hh.rng_exo)
    if len(hh.adults) == 2:
        hh.until_marriage = draw_from_curve(curves["marriage"], hh.rng_exo)


def init_population(
    n: int,
    tables: DemographicTables,
    seed: int,
    year: int = 2023,
    wparams: WageParams | None = None,
    draws: InitialDraws | None = None,
) -> CohortPopulation:
    """A cohort of ``n`` agents aged 18, paired into household records.
    ``draws`` is ``initial_draw_tables(tables)``, built here when None."""
    if n < 1:
        raise ContractViolation("population size must be at least 1")
    if wparams is None:
        from lifesim.wage import load_wage_params   # was a relative import

        wparams = load_wage_params()
    ss = np.random.SeedSequence(seed)
    master = np.random.default_rng(ss.spawn(1)[0])
    curves, state_cdf = draws if draws is not None else initial_draw_tables(tables)

    n_men = int(np.round(n * tables.gender_shares["men"]))
    n_men = min(max(n_men, 0), n)
    n_women = n - n_men

    def draw_groups(count: int, gender: str) -> np.ndarray:
        cdf = np.cumsum(tables.shares_for_year(year, gender))
        return np.searchsorted(cdf, master.random(count), side="right")

    men_groups = draw_groups(n_men, "men")
    women_groups = draw_groups(n_women, "women")

    # Assortative pairing: for each man, draw the partner's group by the
    # weight row conditioned on remaining availability.
    buckets: dict[int, list[int]] = {g: [] for g in range(3)}
    for i, g in enumerate(women_groups):
        buckets[int(g)].append(i)
    for g in buckets:
        master.shuffle(buckets[g])

    pair_of_man: list[int | None] = []
    for g_m in men_groups:
        weights = np.asarray(tables.assortative_weights[g_m]) * [len(buckets[g]) for g in range(3)]
        total = weights.sum()
        if total <= 0:
            pair_of_man.append(None)
            continue
        g_w = int(np.searchsorted(np.cumsum(weights / total), master.random(), side="right"))
        pair_of_man.append(buckets[min(g_w, 2)].pop())

    households: list[HouseholdState] = []
    hh_seeds = ss.spawn(n)  # generous: one per agent is enough for pairs
    used_women: set[int] = set()

    def make_rngs(i: int) -> tuple[np.random.Generator, np.random.Generator]:
        child = hh_seeds[i].spawn(2)
        return np.random.default_rng(child[0]), np.random.default_rng(child[1])

    for m, g_m in enumerate(men_groups):
        rng_exo, rng_act = make_rngs(len(households))
        man = _initial_agent("men", int(g_m), tables, wparams, rng_exo, curves, state_cdf)
        w = pair_of_man[m]
        if w is None:
            hh = HouseholdState(adults=(man,), rng_exo=rng_exo, rng_act=rng_act)
        else:
            used_women.add(w)
            woman = _initial_agent("women", int(women_groups[w]), tables, wparams, rng_exo, curves, state_cdf)
            hh = HouseholdState(adults=(man, woman), rng_exo=rng_exo, rng_act=rng_act)
        _draw_household_clocks(hh, curves)
        households.append(hh)

    for w, g_w in enumerate(women_groups):
        if w in used_women:
            continue
        rng_exo, rng_act = make_rngs(len(households))
        woman = _initial_agent("women", int(g_w), tables, wparams, rng_exo, curves, state_cdf)
        hh = HouseholdState(adults=(woman,), rng_exo=rng_exo, rng_act=rng_act)
        _draw_household_clocks(hh, curves)
        households.append(hh)

    return CohortPopulation(households=households, seed=seed, size=n)


def spawn_pair_household(
    seed_seq: np.random.SeedSequence,
    tables: DemographicTables,
    wparams: WageParams,
    draws: InitialDraws,
    year: int = 2023,
) -> HouseholdState:
    """One fresh pair household at age 18 (training reservoir use);
    ``draws`` is ``initial_draw_tables(tables)``."""
    child = seed_seq.spawn(2)
    rng_exo = np.random.default_rng(child[0])
    rng_act = np.random.default_rng(child[1])
    curves, state_cdf = draws

    g_m = int(np.searchsorted(np.cumsum(tables.shares_for_year(year, "men")), rng_exo.random(),
                              side="right"))
    w_shares = np.array(tables.shares_for_year(year, "women"))
    weights = np.asarray(tables.assortative_weights[min(g_m, 2)]) * w_shares
    g_w = int(np.searchsorted(np.cumsum(weights / weights.sum()), rng_exo.random(), side="right"))
    man = _initial_agent("men", min(g_m, 2), tables, wparams, rng_exo, curves, state_cdf)
    woman = _initial_agent("women", min(g_w, 2), tables, wparams, rng_exo, curves, state_cdf)
    hh = HouseholdState(adults=(man, woman), rng_exo=rng_exo, rng_act=rng_act)
    _draw_household_clocks(hh, curves)
    return hh


# ---------------------------------------------------------------------------
# Test helpers: the oracle's records drawn from an env, and a record cohort
# as the population ``lifesim.simulate.run_cohort`` runs.
# ---------------------------------------------------------------------------

def records(n: int, env: LifecycleEnv, seed: int) -> CohortPopulation:
    """The record cohort ``lifesim.population.init_population(n, env, seed)`` draws."""
    return init_population(n, env.tables, seed, year=env.rules.year, wparams=env.wparams,
                           draws=env.initial_draws)


def cohort(pop: CohortPopulation, env: LifecycleEnv) -> population.CohortPopulation:
    """The records of ``pop`` packed as the block of a population ``env`` runs
    (sharing their generators)."""
    return population.CohortPopulation(block=env.block(pop.households), seed=pop.seed, size=pop.size)


def assert_same_block(got, want) -> None:
    """Every column of block ``got`` has the dtype, shape and bits of
    ``want``'s, and its generators are at ``want``'s states."""
    assert vars(got).keys() == vars(want).keys()
    for name, column in vars(want).items():
        value = getattr(got, name)
        if isinstance(column, np.ndarray):
            assert (value.dtype, value.shape) == (column.dtype, column.shape), name
            assert value.tobytes() == column.tobytes(), name
        elif name in ("rng_exo", "rng_act"):
            assert [rng.bit_generator.state for rng in value] == [rng.bit_generator.state for rng in column], name
        else:
            assert value == column, name
