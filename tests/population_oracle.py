"""Population draws as they stood before ``init_population`` and
``spawn_pair_household`` read their inputs from the env: the demographic
tables, wage parameters, initial draw tables and year passed one by one,
with the fallbacks that built the missing ones.  Kept verbatim as a test
oracle; ``tests/test_one_pricer.py`` asserts that the env-driven draws give
the same records.  Do not edit the functions below; only the import of
``load_wage_params`` is absolute here.
"""

from __future__ import annotations

import numpy as np

from lifesim.agent import HouseholdState
from lifesim.errors import ContractViolation
from lifesim.population import (CohortPopulation, DemographicTables, InitialDraws, _draw_household_clocks,
                                _initial_agent, initial_draw_tables)
from lifesim.wage import WageParams


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
