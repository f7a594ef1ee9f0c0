"""Population draws as records, one household and one adult at a time:
``init_population`` and ``spawn_pair_household`` with the demographic
tables, wage parameters, initial draw tables and year passed one by one
(with the fallbacks that built the missing ones), and the record helpers
they call, ``CohortPopulation`` of records included.  The master stream
(groups and pairs) is as it stood when a cohort was drawn as records; each
household's draws at 18 are read from its key by the documented layout
(``initial_draws``).  The tests assert that ``lifesim.population`` draws
the same households into block columns.  ``records``, ``cohort`` and
``assert_same_block`` below are the tests' helpers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

import lifesim.population as population
from lifesim.agent import DT, MAX_AGE, NO_EVENT, AgentState, HouseholdBlock, HouseholdState
from lifesim.env import LifecycleEnv
from lifesim.errors import ContractViolation
from lifesim.paramfiles import params_dir
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


def initial_draws(seed: int, household: int) -> tuple[list[float], list[float]]:
    """A household's draws at 18: ``default_rng((seed, household, 0))``'s
    ``random(18)`` (per adult slot: state, fund membership, student spell,
    life, disability, student and outsider clocks; then the man's and the
    woman's group, the first birth and marriage clocks), then its
    ``standard_normal(2)`` (each slot's wage shock)."""
    rng = np.random.default_rng((seed, household, 0))
    return rng.random(18).tolist(), rng.standard_normal(2).tolist()


def _draw_initial_clocks(agent: AgentState, tables: DemographicTables, u: list[float],
                         curves: dict[str, np.ndarray]) -> None:
    horizon = int((MAX_AGE - agent.age) / DT)
    agent.life_left = int(draw_from_curve(curves["mort_" + agent.gender], u[3]))
    if agent.life_left == NO_EVENT:
        agent.life_left = horizon  # censored at the model's maximum age
    dis = tables.exogenous.disability_clock_quarterly
    agent.until_disability = draw_geometric(dis, u[4], cap=10_000)
    agent.until_student = NO_EVENT
    if agent.state is not S.STUDENT:
        agent.until_student = draw_geometric(tables.exogenous.student_entry_quarterly, u[5], cap=10_000)
    agent.until_outsider = draw_geometric(tables.exogenous.outsider_entry_quarterly, u[6], cap=10_000)


def _initial_agent(
    gender: str,
    group: int,
    tables: DemographicTables,
    wparams: WageParams,
    u: list[float],
    z: float,
    curves: dict[str, np.ndarray],
    state_cdf: dict[str, tuple[list[S], np.ndarray]],
) -> AgentState:
    """An adult at 18 from its slot's seven uniforms ``u`` and wage shock ``z``."""
    states, cdf = state_cdf[gender]
    state = states[int(np.searchsorted(cdf, u[0], side="right"))]

    disp = wparams.initial_dispersion
    shock = z * disp - 0.5 * disp * disp
    potential = wparams.mean_wage(gender, group, 18.0) * math.exp(shock)

    agent = AgentState(gender=gender, group=group, age=18.0, state=state, potential_wage=potential)
    agent.fund_member = bool(u[1] < tables.fund_membership_share)
    if state is S.FULL_TIME:
        agent.hours = 40
    elif state is S.PART_TIME:
        agent.hours = 16
    if agent.hours:
        agent.paid_wage = paid_wage(potential, agent.hours, 0.0)
    if state is S.STUDENT:
        agent.spell_left = draw_geometric(tables.exogenous.student_spell_end_quarterly, u[2])
    if state is S.SICK_LEAVE:
        agent.spell_left = 1
        agent.wage_reduction = 0.0
    _draw_initial_clocks(agent, tables, u, curves)
    return agent


def _household(adults: list[tuple[str, int]], key: tuple[int, int], tables: DemographicTables,
               wparams: WageParams, draws: InitialDraws, u: list[float], z: list[float]) -> HouseholdState:
    """A household at 18 of ``adults`` (gender, group) in slot order, from
    its initial draws ``u`` and ``z``."""
    curves, state_cdf = draws
    people = tuple(_initial_agent(gender, group, tables, wparams, u[7 * k:7 * k + 7], z[k], curves, state_cdf)
                   for k, (gender, group) in enumerate(adults))
    hh = HouseholdState(adults=people, key=key)
    if mother_of(hh) is not None:
        hh.until_birth = int(draw_from_curve(curves["fertility"], u[16]))
    if len(people) == 2:
        hh.until_marriage = int(draw_from_curve(curves["marriage"], u[17]))
    return hh


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

        wparams = load_wage_params(params_dir() / "wages.yaml")
    ss = np.random.SeedSequence(seed)
    master = np.random.default_rng(ss.spawn(1)[0])
    draws = draws if draws is not None else initial_draw_tables(tables)

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

    groups = [[("men", int(g_m))] + ([] if w is None else [("women", int(women_groups[w]))])
              for g_m, w in zip(men_groups, pair_of_man)]
    used_women = set(pair_of_man)
    groups += [[("women", int(g_w))] for w, g_w in enumerate(women_groups) if w not in used_women]
    households = [_household(adults, (seed, h), tables, wparams, draws, *initial_draws(seed, h))
                  for h, adults in enumerate(groups)]
    return CohortPopulation(households=households, seed=seed, size=n)


def spawn_pair_household(
    seed: int,
    household: int,
    tables: DemographicTables,
    wparams: WageParams,
    draws: InitialDraws,
    year: int = 2023,
) -> HouseholdState:
    """Pair household ``household`` of a training pool drawn with ``seed``,
    at age 18; ``draws`` is ``initial_draw_tables(tables)``."""
    u, z = initial_draws(seed, household)
    g_m = int(np.searchsorted(np.cumsum(tables.shares_for_year(year, "men")), u[14], side="right"))
    w_shares = np.array(tables.shares_for_year(year, "women"))
    weights = np.asarray(tables.assortative_weights[min(g_m, 2)]) * w_shares
    g_w = int(np.searchsorted(np.cumsum(weights / weights.sum()), u[15], side="right"))
    return _household([("men", min(g_m, 2)), ("women", min(g_w, 2))], (seed, household), tables, wparams, draws,
                      u, z)


# ---------------------------------------------------------------------------
# Test helpers: the oracle's records drawn from an env, and a record cohort
# as the population ``lifesim.simulate.run_cohort`` runs.
# ---------------------------------------------------------------------------

def records(n: int, env: LifecycleEnv, seed: int) -> CohortPopulation:
    """The record cohort ``lifesim.population.init_population(n, env, seed)`` draws."""
    return init_population(n, env.tables, seed, year=env.rules.year, wparams=env.wparams,
                           draws=env.initial_draws)


def cohort(pop: CohortPopulation, env: LifecycleEnv) -> population.CohortPopulation:
    """The records of ``pop`` packed as the block of a population ``env`` runs."""
    return population.CohortPopulation(block=HouseholdBlock.of(pop.households, env.window), seed=pop.seed,
                                       size=pop.size)


@functools.lru_cache(maxsize=4096)
def life_draws(seed: int, household: int, quarters: int) -> tuple[np.ndarray, np.ndarray]:
    """A household's life draws of its first ``quarters`` quarters:
    ``default_rng((seed, household, 1)).random((quarters, 21))`` (per adult
    slot: layoff, sick, misc, friction and spare uniforms, student spell
    and clock, outsider spell and clock; then the father-leave uniform, the
    partnership clock and the birth clock) and ``default_rng((seed,
    household, 2)).standard_normal((quarters, 2))`` (each slot's wage
    shock).  Read only."""
    u = np.random.default_rng((seed, household, 1)).random((quarters, 21))
    z = np.random.default_rng((seed, household, 2)).standard_normal((quarters, 2))
    u.flags.writeable = z.flags.writeable = False
    return u, z


def with_life(b, quarters: int):
    """Block ``b`` with the life draws of ``quarters`` quarters that
    :func:`life_draws` gives its households' keys."""
    draws = [life_draws(seed, h, quarters) for seed, h in zip(b.seed.tolist(), b.ids.tolist())]
    b.uniforms, b.normals = (np.array(column).reshape(b.m, quarters, -1) for column in zip(*draws))
    return b


def assert_same_block(got, want) -> None:
    """Every column of block ``got`` has the dtype, shape and bits of
    ``want``'s."""
    assert vars(got).keys() == vars(want).keys()
    for name, column in vars(want).items():
        value = getattr(got, name)
        if isinstance(column, np.ndarray):
            assert (value.dtype, value.shape) == (column.dtype, column.shape), name
            assert value.tobytes() == column.tobytes(), name
        else:
            assert value == column, name
