"""Demographics: cohort initialization and exogenous life events.

Households are fixed opposite-sex pairs (or single-slot leftovers); marriage
and divorce toggle partnership inside the pair.  Every random life event is
drawn in advance and surfaced as a time-to-event clock, so agents can see the
next transition coming; firing an event redraws the next clock.

:class:`DemographicTables` is the schema of ``demographics.yaml`` (see
:mod:`lifesim.paramfiles`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .agent import DT, MAX_AGE, NO_EVENT, AgentState, HouseholdBlock, HouseholdState, child_bands, mother_of
from .errors import ContractViolation, ParameterError
from .paramfiles import build, load_yaml, params_dir
from .states import EmploymentState as S, Gender
from .wage import WageParams, paid_wage

_DEAD = int(S.DEAD)


# [age lower bound, value] rows of a step function of age.
AgeTable = tuple[tuple[float, float], ...]


def _banded(table: AgeTable, age: float) -> float:
    """Step-function lookup on [age lower bound, value] rows."""
    value = table[0][1]
    for lo, v in table:
        if age >= lo:
            value = v
        else:
            break
    return value


@dataclass(frozen=True, slots=True)
class Gompertz:
    """Annual mortality q(age) = a * exp(b * age)."""

    a: float
    b: float


@dataclass(frozen=True, slots=True)
class ExogenousHazards:
    layoff_quarterly: float
    sick_onset_quarterly: float
    sick_continue_quarterly: float
    sick_max_quarters: int
    disability_after_sick: float
    disability_clock_quarterly: float
    outsider_entry_quarterly: float
    outsider_spell_end_quarterly: float
    student_entry_quarterly: float
    student_spell_end_quarterly: float
    father_leave_at_birth: float
    mother_leave_quarters: int
    father_leave_quarters: int


# [age lower bound, [low, mid, high]] rows: job-finding probability by group.
JobTable = tuple[tuple[float, tuple[float, float, float]], ...]


@dataclass(frozen=True, slots=True)
class JobSearch:
    full_time: dict[Gender, JobTable]
    part_time: dict[Gender, JobTable]
    pt_on_failed_ft: float
    switch_ft_pt: float


@dataclass(frozen=True, slots=True)
class DemographicTables:
    group_shares: dict[int, dict[Gender, tuple[float, float, float]]]   # by year
    gender_shares: dict[Gender, float]
    mortality: dict[Gender, Gompertz]
    fertility_annual: AgeTable
    marriage_annual: AgeTable
    divorce_annual: AgeTable
    assortative_weights: tuple[tuple[float, float, float], ...]      # [man's group][woman's group]
    initial_states: dict[Gender, dict[S, float]]
    exogenous: ExogenousHazards
    job_search: JobSearch
    population_weights: AgeTable
    fund_membership_share: float

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
        g = self.mortality[gender]
        annual = min(1.0, g.a * math.exp(g.b * age))
        return 1.0 - (1.0 - annual) ** DT

    def fertility_quarterly(self, age: float) -> float:
        return _banded(self.fertility_annual, age) * DT

    def marriage_quarterly(self, age: float) -> float:
        return _banded(self.marriage_annual, age) * DT

    def divorce_quarterly(self, age: float) -> float:
        return _banded(self.divorce_annual, age) * DT

    def job_find_prob(self, kind: str, gender: str, group: int, age: float) -> float:
        """``kind`` is ``"full_time"`` or ``"part_time"``."""
        table = getattr(self.job_search, kind)[gender]
        return _banded([(lo, row[group]) for lo, row in table], age)

    def weight_at_age(self, age: float) -> float:
        return _banded(self.population_weights, age)


def load_demographics(path: str | Path | None = None) -> DemographicTables:
    tables = build(DemographicTables, load_yaml(path or params_dir() / "demographics.yaml"))
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
    h = np.array([hazard_at(age + k * DT) for k in range(1, horizon_q + 1)])
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
        survival *= 1.0 - hazard_at(age + k * DT)
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
    horizon = int((MAX_AGE - 18.0) / DT)
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


def _draw_household_clocks(hh: HouseholdState, curves: dict[str, np.ndarray]) -> None:
    """First birth and marriage clocks of a household formed at age 18;
    ``curves`` holds the failure curves from 18 (``initial_draw_tables``)."""
    if mother_of(hh) is not None:
        hh.until_birth = draw_from_curve(curves["fertility"], hh.rng_exo)
    if len(hh.adults) == 2:
        hh.until_marriage = draw_from_curve(curves["marriage"], hh.rng_exo)


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
# Demographic phases of the quarter step, over a household block.  Each
# household draws from its own ``rng_exo``, so looping over the households
# that draw keeps every stream as it is when households step one at a time.
# ---------------------------------------------------------------------------

def mortality_phase(b: HouseholdBlock) -> None:
    """Count down every living adult's life clock; at zero the adult dies."""
    alive = b.state != _DEAD
    b.life_left -= alive & (b.life_left > 0)
    dies = alive & (b.life_left == 0)
    if np.count_nonzero(dies):
        b.stop_work(dies, _DEAD)
        b.returning[dies] = False
        b.spell_left[dies] = 0


def partnership_phase(b: HouseholdBlock, tables: DemographicTables) -> None:
    """Marriage and divorce of the pair households: count the clocks down;
    a fired clock toggles the partnership (when both adults live) and draws
    the other clock from the younger adult's age."""
    pairs = b.pairs
    if not pairs.size:
        return
    for clock in (b.until_marriage, b.until_divorce):
        clock[pairs] -= clock[pairs] > 0
    r0 = b.first[pairs]
    alive = b.state != _DEAD
    both = alive[r0] & alive[r0 + 1]
    partnered = b.partnered[pairs]
    marry = ~partnered & (b.until_marriage[pairs] == 0)
    divorce = partnered & (b.until_divorce[pairs] == 0) & both
    for i in (marry | divorce).nonzero()[0].tolist():
        h, rng = int(pairs[i]), b.rng_exo[pairs[i]]
        youngest = min(float(b.age[r0[i]]), float(b.age[r0[i] + 1]))
        horizon = int((MAX_AGE - youngest) / DT)
        if marry[i]:
            if both[i]:
                b.partnered[h] = True
                b.until_divorce[h] = draw_event_time(tables.divorce_quarterly, youngest, rng, horizon)
            b.until_marriage[h] = NO_EVENT
        else:
            b.partnered[h] = False
            b.until_divorce[h] = NO_EVENT
            b.until_marriage[h] = draw_event_time(tables.marriage_quarterly, youngest, rng, horizon)


def fertility_phase(b: HouseholdBlock, tables: DemographicTables) -> np.ndarray:
    """Age every child a quarter (a child leaves at 18) and fire the
    scheduled births of households with a living mother; the per-household
    birth flags.  The only writer of the child columns and bands."""
    ages = b.child_age + DT
    b.child_age = np.where(ages < 18.0, ages, np.nan)
    birth = np.zeros(b.m, dtype=bool)
    with_mother = b.with_mother
    if with_mother.size:
        clock = b.until_birth[with_mother]
        clock -= clock > 0
        fired = clock == 0
        birth[with_mother] = fired & (b.state[b.mother[with_mother]] != _DEAD)
        clock[fired] = NO_EVENT
        b.until_birth[with_mother] = clock
        for h in birth.nonzero()[0].tolist():
            if b.child_used[h] == b.child_age.shape[1]:
                b.child_age = np.pad(b.child_age, ((0, 0), (0, b.child_age.shape[1])), constant_values=np.nan)
            b.child_age[h, b.child_used[h]] = 0.0
            b.child_used[h] += 1
            age = float(b.age[b.mother[h]])
            b.until_birth[h] = draw_event_time(tables.fertility_quarterly, age, b.rng_exo[h],
                                               int((MAX_AGE - age) / DT))
    ages = b.child_age
    b.under3, b.under7, b.under18 = (ages < 3.0).sum(1), (ages < 7.0).sum(1), (ages < 18.0).sum(1)
    return birth


# One household record: the same rules, one household at a time.  The block
# phases above must leave every field and stream as these do
# (tests/test_step_oracle.py).

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
                                               int((MAX_AGE - youngest) / DT))
        hh.until_marriage = NO_EVENT
    elif hh.partnered and hh.until_divorce == 0 and a.alive and b.alive:
        hh.partnered = False
        hh.until_divorce = NO_EVENT
        hh.until_marriage = draw_event_time(tables.marriage_quarterly, youngest, hh.rng_exo,
                                            int((MAX_AGE - youngest) / DT))


def fertility_events(hh: HouseholdState, tables: DemographicTables) -> bool:
    """Age children, fire scheduled births; returns True when a birth happened.
    The only writer of ``hh.child_ages``, so it also refreshes ``hh.bands``."""
    ages = [age + DT for age in hh.child_ages if age + DT < 18.0]
    mother = mother_of(hh)
    birth = False
    if mother is not None:
        if hh.until_birth > 0:
            hh.until_birth -= 1
        birth = hh.until_birth == 0 and mother.alive
        if hh.until_birth == 0:
            hh.until_birth = NO_EVENT
        if birth:
            ages.append(0.0)
            horizon = int((MAX_AGE - mother.age) / DT)
            hh.until_birth = draw_event_time(tables.fertility_quarterly, mother.age, hh.rng_exo, horizon)
    hh.child_ages = ages
    hh.bands = child_bands(ages)
    return birth


def mortality_events(hh: HouseholdState) -> None:
    for agent in hh.adults:
        if not agent.alive:
            continue
        if agent.life_left > 0:
            agent.life_left -= 1
        if agent.life_left == 0:
            agent.state, agent.hours, agent.paid_wage = S.DEAD, 0, 0.0
            agent.returning = False
            agent.spell_left = 0
