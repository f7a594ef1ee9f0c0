"""Demographics: cohort initialization and exogenous life events.

Households are fixed opposite-sex pairs (or single-slot leftovers); marriage
and divorce toggle partnership inside the pair.  Every random life event is
drawn in advance and surfaced as a time-to-event clock, so agents can see the
next transition coming; firing an event redraws the next clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .agent import NO_EVENT, AgentState, HouseholdState, mother_of
from .errors import ContractViolation, ParameterError
from .paramfiles import load_yaml, params_dir
from .states import EmploymentState as S
from .wage import WageParams

GENDERS = ("men", "women")
MAX_AGE = 100.0
QUARTER = 0.25


def _banded(table: list[tuple[float, float]], age: float) -> float:
    """Step-function lookup on [age lower bound, value] rows."""
    value = table[0][1]
    for lo, v in table:
        if age >= lo:
            value = v
        else:
            break
    return value


@dataclass(frozen=True)
class DemographicTables:
    group_shares: dict[int, dict[str, tuple[float, ...]]]
    gender_shares: dict[str, float]
    mortality: dict[str, tuple[float, float]]          # gender -> (a, b) Gompertz
    fertility_annual: list[tuple[float, float]]
    marriage_annual: list[tuple[float, float]]
    divorce_annual: list[tuple[float, float]]
    assortative: np.ndarray
    initial_states: dict[str, dict[S, float]]
    exogenous: dict[str, float]
    job_search: dict[str, dict[str, list[tuple[float, tuple[float, ...]]]]]
    pt_on_failed_ft: float
    switch_ft_pt: float
    population_weights: list[tuple[float, float]]
    fund_membership_share: float = 0.85

    def shares_for_year(self, year: int, gender: str) -> tuple[float, ...]:
        years = sorted(self.group_shares)
        chosen = years[0]
        for y in years:
            if year >= y:
                chosen = y
        raw = self.group_shares[chosen][gender]
        total = sum(raw)
        return tuple(v / total for v in raw)

    def mortality_quarterly(self, gender: str, age: float) -> float:
        a, b = self.mortality[gender]
        annual = min(1.0, a * math.exp(b * age))
        return 1.0 - (1.0 - annual) ** QUARTER

    def fertility_quarterly(self, age: float) -> float:
        return _banded(self.fertility_annual, age) * QUARTER

    def marriage_quarterly(self, age: float) -> float:
        return _banded(self.marriage_annual, age) * QUARTER

    def divorce_quarterly(self, age: float) -> float:
        return _banded(self.divorce_annual, age) * QUARTER

    def job_find_prob(self, kind: str, gender: str, group: int, age: float) -> float:
        table = self.job_search[kind][gender]
        return _banded([(lo, row[group]) for lo, row in table], age)

    def weight_at_age(self, age: float) -> float:
        return _banded(self.population_weights, age)


def load_demographics(path: str | Path | None = None) -> DemographicTables:
    doc = load_yaml(path or params_dir() / "demographics.yaml")
    try:
        def rows(raw) -> list[tuple[float, float]]:
            return [(float(lo), float(v)) for lo, v in raw]

        initial = {
            gender: {S[name]: float(p) for name, p in dist.items()}
            for gender, dist in doc["initial_states"].items()
        }
        js = {
            kind: {
                gender: [(float(lo), tuple(float(x) for x in row)) for lo, row in table]
                for gender, table in doc["job_search"][kind].items()
            }
            for kind in ("full_time", "part_time")
        }
        tables = DemographicTables(
            group_shares={
                int(y): {g: tuple(float(x) for x in v[g]) for g in GENDERS}
                for y, v in doc["group_shares"].items()
            },
            gender_shares={g: float(v) for g, v in doc["gender_shares"].items()},
            mortality={
                g: (float(v["a"]), float(v["b"])) for g, v in doc["mortality_gompertz"].items()
            },
            fertility_annual=rows(doc["fertility_annual"]),
            marriage_annual=rows(doc["marriage_annual"]),
            divorce_annual=rows(doc["divorce_annual"]),
            assortative=np.asarray(doc["assortative_weights"], dtype=float),
            initial_states=initial,
            exogenous={k: float(v) for k, v in doc["exogenous"].items()},
            job_search=js,
            pt_on_failed_ft=float(doc["job_search"]["pt_on_failed_ft"]),
            switch_ft_pt=float(doc["job_search"]["switch_ft_pt"]),
            population_weights=rows(doc["population_weights"]),
            fund_membership_share=float(doc.get("fund_membership_share", 0.85)),
        )
    except (KeyError, ValueError) as exc:
        raise ParameterError(f"malformed demographics file: {exc!r}") from exc
    for gender, dist in tables.initial_states.items():
        if abs(sum(dist.values()) - 1.0) > 1e-6:
            raise ParameterError(f"initial state distribution for {gender} must sum to 1")
    return tables


@dataclass
class CohortPopulation:
    households: list[HouseholdState]
    seed: int
    size: int

    def agents(self):
        for hh in self.households:
            yield from hh.adults


# ---------------------------------------------------------------------------
# Event-time draws: one uniform inverted against the cumulative survival of a
# time-varying quarterly hazard.
# ---------------------------------------------------------------------------

def failure_curve(hazard_at, age: float, horizon_q: int) -> np.ndarray:
    """Cumulative failure probability by quarter 1..horizon."""
    h = np.array([hazard_at(age + k * QUARTER) for k in range(1, horizon_q + 1)])
    return 1.0 - np.cumprod(1.0 - h)


def draw_from_curve(curve: np.ndarray, rng: np.random.Generator) -> int:
    u = rng.random()
    if curve.size == 0 or u >= curve[-1]:
        return NO_EVENT
    return int(np.searchsorted(curve, u, side="left")) + 1


def draw_event_time(hazard_at, age: float, rng: np.random.Generator, horizon_q: int) -> int:
    u = rng.random()
    survival = 1.0
    for k in range(1, horizon_q + 1):
        survival *= 1.0 - hazard_at(age + k * QUARTER)
        if 1.0 - survival >= u:
            return k
    return NO_EVENT


def draw_geometric(p: float, rng: np.random.Generator, cap: int = 200) -> int:
    if p <= 0.0:
        return NO_EVENT
    u = rng.random()
    k = int(math.ceil(math.log1p(-u) / math.log1p(-p))) if p < 1.0 else 1
    return min(max(k, 1), cap)


InitialDraws = tuple[dict[str, np.ndarray], dict[str, tuple[list[S], np.ndarray]]]


def initial_draw_tables(tables: DemographicTables) -> InitialDraws:
    """Failure curves from age 18 and initial-state CDFs by gender, shared
    by every agent drawn at age 18 from ``tables``."""
    horizon = int((MAX_AGE - 18.0) / QUARTER)
    curves = {
        "mort_men": failure_curve(lambda a: tables.mortality_quarterly("men", a), 18.0, horizon),
        "mort_women": failure_curve(lambda a: tables.mortality_quarterly("women", a), 18.0, horizon),
        "fertility": failure_curve(tables.fertility_quarterly, 18.0, horizon),
        "marriage": failure_curve(tables.marriage_quarterly, 18.0, horizon),
    }
    state_cdf = {}
    for gender, dist in tables.initial_states.items():
        states = list(dist)
        probs = np.array([dist[s] for s in states])
        state_cdf[gender] = (states, np.cumsum(probs / probs.sum()))
    return curves, state_cdf


def _draw_initial_clocks(
    agent: AgentState, tables: DemographicTables, rng: np.random.Generator, curves: dict[str, np.ndarray]
) -> None:
    horizon = int((MAX_AGE - agent.age) / QUARTER)
    agent.life_left = draw_from_curve(curves["mort_" + agent.gender], rng)
    if agent.life_left == NO_EVENT:
        agent.life_left = horizon  # censored at the model's maximum age
    dis = tables.exogenous["disability_clock_quarterly"]
    agent.until_disability = draw_geometric(dis, rng, cap=10_000)
    agent.until_student = NO_EVENT
    if agent.state is not S.STUDENT:
        agent.until_student = draw_geometric(tables.exogenous["student_entry_quarterly"], rng, cap=10_000)
    agent.until_outsider = draw_geometric(tables.exogenous["outsider_entry_quarterly"], rng, cap=10_000)


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

    profile = wparams.profile(gender, group)
    disp = wparams.initial_dispersion
    potential = profile.at(18.0) * math.exp(rng.standard_normal() * disp - 0.5 * disp * disp)

    agent = AgentState(gender=gender, group=group, age=18.0, state=state, potential_wage=potential)
    agent.fund_member = bool(rng.random() < tables.fund_membership_share)
    if state is S.FULL_TIME:
        agent.hours = 40
    elif state is S.PART_TIME:
        agent.hours = 16
    if agent.hours:
        agent.paid_wage = (agent.hours / 40.0) * potential
    if state is S.STUDENT:
        agent.spell_left = draw_geometric(tables.exogenous["student_spell_end_quarterly"], rng)
    if state is S.SICK_LEAVE:
        agent.spell_left = 1
        agent.wage_reduction = 0.0
    _draw_initial_clocks(agent, tables, rng, curves)
    return agent


def init_population(
    n: int,
    tables: DemographicTables,
    seed: int,
    year: int = 2023,
    wparams: WageParams | None = None,
) -> CohortPopulation:
    """A cohort of ``n`` agents aged 18, paired into household records."""
    if n < 1:
        raise ContractViolation("population size must be at least 1")
    if wparams is None:
        from .wage import load_wage_params

        wparams = load_wage_params()
    ss = np.random.SeedSequence(seed)
    master = np.random.default_rng(ss.spawn(1)[0])
    curves, state_cdf = initial_draw_tables(tables)

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
        weights = tables.assortative[g_m] * [len(buckets[0]), len(buckets[1]), len(buckets[2])]
        total = weights.sum()
        if total <= 0:
            pair_of_man.append(None)
            continue
        g_w = int(np.searchsorted(np.cumsum(weights / total), master.random(), side="right"))
        pair_of_man.append(buckets[min(g_w, 2)].pop())

    households: list[HouseholdState] = []
    hh_seeds = ss.spawn(n)  # generous: one per agent is enough for pairs
    used_women: set[int] = set()
    idx = 0

    def make_rngs(i: int) -> tuple[np.random.Generator, np.random.Generator]:
        child = hh_seeds[i].spawn(2)
        return np.random.default_rng(child[0]), np.random.default_rng(child[1])

    for m, g_m in enumerate(men_groups):
        rng_exo, rng_act = make_rngs(idx)
        man = _initial_agent("men", int(g_m), tables, wparams, rng_exo, curves, state_cdf)
        w = pair_of_man[m]
        if w is None:
            hh = HouseholdState(index=idx, adults=(man,), rng_exo=rng_exo, rng_act=rng_act)
        else:
            used_women.add(w)
            woman = _initial_agent("women", int(women_groups[w]), tables, wparams, rng_exo, curves, state_cdf)
            hh = HouseholdState(index=idx, adults=(man, woman), rng_exo=rng_exo, rng_act=rng_act)
        _draw_household_clocks(hh, tables, curves)
        households.append(hh)
        idx += 1

    for w, g_w in enumerate(women_groups):
        if w in used_women:
            continue
        rng_exo, rng_act = make_rngs(idx)
        woman = _initial_agent("women", int(g_w), tables, wparams, rng_exo, curves, state_cdf)
        hh = HouseholdState(index=idx, adults=(woman,), rng_exo=rng_exo, rng_act=rng_act)
        _draw_household_clocks(hh, tables, curves)
        households.append(hh)
        idx += 1

    return CohortPopulation(households=households, seed=seed, size=n)


def _draw_household_clocks(
    hh: HouseholdState, tables: DemographicTables, curves: dict[str, np.ndarray] | None = None
) -> None:
    rng = hh.rng_exo
    mother = mother_of(hh)
    horizon = int((MAX_AGE - 18.0) / QUARTER)
    if mother is not None:
        if curves is not None and mother.age == 18.0:
            hh.until_birth = draw_from_curve(curves["fertility"], rng)
        else:
            hh.until_birth = draw_event_time(tables.fertility_quarterly, mother.age, rng, horizon)
    if len(hh.adults) == 2:
        youngest = min(a.age for a in hh.adults)
        if curves is not None and youngest == 18.0:
            hh.until_marriage = draw_from_curve(curves["marriage"], rng)
        else:
            hh.until_marriage = draw_event_time(tables.marriage_quarterly, youngest, rng, horizon)


def spawn_pair_household(
    index: int,
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
    weights = tables.assortative[min(g_m, 2)] * w_shares
    g_w = int(np.searchsorted(np.cumsum(weights / weights.sum()), rng_exo.random(), side="right"))
    man = _initial_agent("men", min(g_m, 2), tables, wparams, rng_exo, curves, state_cdf)
    woman = _initial_agent("women", min(g_w, 2), tables, wparams, rng_exo, curves, state_cdf)
    hh = HouseholdState(index=index, adults=(man, woman), rng_exo=rng_exo, rng_act=rng_act)
    _draw_household_clocks(hh, tables, curves)
    return hh


# ---------------------------------------------------------------------------
# Per-household event primitives (used standalone and inside the env step).
# ---------------------------------------------------------------------------

def partnership_events(hh: HouseholdState, tables: DemographicTables) -> None:
    if len(hh.adults) != 2:
        return
    a, b = hh.adults
    if hh.until_marriage > 0:
        hh.until_marriage -= 1
    if hh.until_divorce > 0:
        hh.until_divorce -= 1
    youngest = min(a.age, b.age)
    if not hh.partnered and hh.until_marriage == 0:
        if a.alive and b.alive:
            hh.partnered = True
            hh.until_divorce = draw_event_time(tables.divorce_quarterly, youngest, hh.rng_exo,
                                               int((MAX_AGE - youngest) / QUARTER))
        hh.until_marriage = NO_EVENT
    elif hh.partnered and hh.until_divorce == 0 and a.alive and b.alive:
        hh.partnered = False
        hh.until_divorce = NO_EVENT
        hh.until_marriage = draw_event_time(tables.marriage_quarterly, youngest, hh.rng_exo,
                                            int((MAX_AGE - youngest) / QUARTER))


def fertility_events(hh: HouseholdState, tables: DemographicTables) -> bool:
    """Age children, fire scheduled births; returns True when a birth happened."""
    hh.child_ages = [age + QUARTER for age in hh.child_ages if age + QUARTER < 18.0]
    mother = mother_of(hh)
    if mother is None:
        return False
    if hh.until_birth > 0:
        hh.until_birth -= 1
    birth = hh.until_birth == 0 and mother.alive
    if hh.until_birth == 0:
        hh.until_birth = NO_EVENT
    if birth:
        hh.child_ages.append(0.0)
        horizon = int((MAX_AGE - mother.age) / QUARTER)
        hh.until_birth = draw_event_time(tables.fertility_quarterly, mother.age, hh.rng_exo, horizon)
    return birth


def mortality_events(hh: HouseholdState) -> None:
    for agent in hh.adults:
        if not agent.alive:
            continue
        if agent.life_left > 0:
            agent.life_left -= 1
        if agent.life_left == 0:
            agent.state = S.DEAD
            agent.hours = 0
            agent.paid_wage = 0.0
            agent.returning = False
            agent.spell_left = 0


# ---------------------------------------------------------------------------
# Population-level steps (spec operations).
# ---------------------------------------------------------------------------

def partnership_step(pop: CohortPopulation, tables: DemographicTables) -> CohortPopulation:
    for hh in pop.households:
        partnership_events(hh, tables)
    return pop


def fertility_step(pop: CohortPopulation, tables: DemographicTables) -> CohortPopulation:
    for hh in pop.households:
        fertility_events(hh, tables)
    return pop


def mortality_step(pop: CohortPopulation, tables: DemographicTables) -> CohortPopulation:
    for hh in pop.households:
        mortality_events(hh)
    return pop
