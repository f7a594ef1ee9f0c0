"""Demographics: cohort initialization and exogenous life events.

Households are fixed opposite-sex pairs (or single-slot leftovers); marriage
and divorce toggle partnership inside the pair.  Every random life event is
drawn in advance and surfaced as a time-to-event clock, so agents can see the
next transition coming; firing an event redraws the next clock.  Death,
marriage, divorce and birth clocks are drawn one way: one uniform inverted
against a failure curve, built once per hazard and start age (from 18 for a
new household, see :func:`initial_draw_tables`; later ones by
:func:`draw_event_clock`).

A cohort (:func:`init_population`) and each household of a training pool
(:func:`spawn_pair_household`) are drawn straight into the columns of a
new :class:`~lifesim.agent.HouseholdBlock`, a household at a time from its
own ``rng_exo``: each adult in slot order (state, wage shock, fund
membership, student spell, then the life, disability, student and outsider
clocks), then the first birth and marriage clocks.

The demographic events run over a household block, phase by phase.  The
per-record events they replaced, with the survival-loop draw, are the
reference the block phases are checked against, in ``tests/step_oracle.py``.

:class:`DemographicTables` is the schema of ``demographics.yaml`` (see
:mod:`lifesim.paramfiles`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .agent import DT, MAX_AGE, NO_EVENT, HouseholdBlock
from .errors import ContractViolation, ParameterError
from .paramfiles import build, load_yaml, params_dir
from .states import EmploymentState as S, Gender
from .wage import paid_wage

if TYPE_CHECKING:
    from .env.mdp import LifecycleEnv

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
        total = reduce(operator.add, raw, 0.0)   # left to right: builtin ``sum`` compensates from 3.12
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
    block: HouseholdBlock   # every household at 18, drawn into its columns
    seed: int
    size: int


# ---------------------------------------------------------------------------
# Event-time draws: one uniform inverted against the cumulative survival of a
# time-varying quarterly hazard.
# ---------------------------------------------------------------------------

def failure_curve(hazard_at, age: float, horizon_q: int) -> np.ndarray:
    """Cumulative failure probability by quarter 1..horizon."""
    h = np.array([hazard_at(age + k * DT) for k in range(1, horizon_q + 1)])
    return 1.0 - np.cumprod(1.0 - h)


def draw_from_curve(curve: np.ndarray, rng: np.random.Generator) -> int:
    """The first quarter whose cumulative failure reaches one uniform;
    ``NO_EVENT`` when none does."""
    u = rng.random()
    if curve.size == 0 or u > curve[-1]:
        return NO_EVENT
    return int(np.searchsorted(curve, u, side="left")) + 1


def draw_event_clock(hazard_at, age: float, rng: np.random.Generator,
                     curves: dict[tuple[str, float], np.ndarray]) -> int:
    """A clock drawn from ``age`` to 100 on the quarterly hazard
    ``hazard_at`` (a :class:`DemographicTables` method).  Its failure curve
    is built once per hazard and start age into ``curves``, which the caller
    keeps with the tables."""
    key = hazard_at.__name__, age
    curve = curves.get(key)
    if curve is None:
        curve = curves[key] = failure_curve(hazard_at, age, int((MAX_AGE - age) / DT))
    return draw_from_curve(curve, rng)


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


def _draw_adult(b: HouseholdBlock, r: int, env: LifecycleEnv, rng: np.random.Generator) -> None:
    """Row ``r`` of a new block (its gender and group set) drawn from
    ``rng``: the state, the wage shock, fund membership and a student
    spell, then the life, disability, student and outsider clocks."""
    tables, wparams = env.tables, env.wparams
    curves, state_cdf = env.initial_draws
    gender = "women" if b.women[r] else "men"
    states, cdf = state_cdf[gender]
    state = states[int(np.searchsorted(cdf, rng.random(), side="right"))]
    disp = wparams.initial_dispersion
    shock = rng.standard_normal() * disp - 0.5 * disp * disp
    potential = wparams.mean_wage(gender, int(b.group[r]), 18.0) * math.exp(shock)
    b.state[r], b.potential_wage[r] = state, potential
    b.fund_member[r] = rng.random() < tables.fund_membership_share
    hours = {S.FULL_TIME: 40, S.PART_TIME: 16}.get(state, 0)
    if hours:
        b.hours[r], b.paid_wage[r] = hours, paid_wage(potential, hours, 0.0)
    exo = tables.exogenous
    if state is S.STUDENT:
        b.spell_left[r] = draw_geometric(exo.student_spell_end_quarterly, rng)
    elif state is S.SICK_LEAVE:
        b.spell_left[r] = 1
    life_left = draw_from_curve(curves["mort_" + gender], rng)   # censored at the maximum age
    b.life_left[r] = int((MAX_AGE - 18.0) / DT) if life_left == NO_EVENT else life_left
    b.until_disability[r] = draw_geometric(exo.disability_clock_quarterly, rng, cap=10_000)
    if state is not S.STUDENT:
        b.until_student[r] = draw_geometric(exo.student_entry_quarterly, rng, cap=10_000)
    b.until_outsider[r] = draw_geometric(exo.outsider_entry_quarterly, rng, cap=10_000)


def _draw_household(b: HouseholdBlock, h: int, env: LifecycleEnv) -> None:
    """Household ``h`` of a new block (its groups and generators set):
    each adult in slot order, then its first birth and marriage clocks
    (from 18, on ``env.initial_draws``), all from its ``rng_exo``."""
    rng = b.rng_exo[h]
    first = int(b.first[h])
    for r in range(first, first + int(b.size[h])):
        _draw_adult(b, r, env, rng)
    if b.mother[h] >= 0:
        b.until_birth[h] = draw_from_curve(env.initial_draws[0]["fertility"], rng)
    if b.size[h] == 2:
        b.until_marriage[h] = draw_from_curve(env.initial_draws[0]["marriage"], rng)


def init_population(n: int, env: LifecycleEnv, seed: int) -> CohortPopulation:
    """A cohort of ``n`` agents aged 18 drawn from ``env`` (the group shares
    of its rule set's year) into one block: the pairs first, each man
    before his partner, then the single women."""
    if n < 1:
        raise ContractViolation("population size must be at least 1")
    tables, year = env.tables, env.rules.year
    ss = np.random.SeedSequence(seed)
    master = np.random.default_rng(ss.spawn(1)[0])

    n_men = min(max(int(np.round(n * tables.gender_shares["men"])), 0), n)
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

    # Each household's adults in slot order, as (woman, index in her gender).
    households = [((False, m),) if w is None else ((False, m), (True, w)) for m, w in enumerate(pair_of_man)]
    paired = set(pair_of_man)
    households += [((True, w),) for w in range(n_women) if w not in paired]
    adults = [adult for household in households for adult in household]
    b = HouseholdBlock.new([len(household) for household in households], [woman for woman, _ in adults],
                           env.window)
    b.group[:] = [women_groups[i] if woman else men_groups[i] for woman, i in adults]
    hh_seeds = ss.spawn(n)  # generous: one per agent is enough for pairs
    for h in range(b.m):
        b.rng_exo[h], b.rng_act[h] = map(np.random.default_rng, hh_seeds[h].spawn(2))
        _draw_household(b, h, env)
    return CohortPopulation(block=b, seed=seed, size=n)


def spawn_pair_household(seed_seq: np.random.SeedSequence, env: LifecycleEnv, b: HouseholdBlock, h: int) -> None:
    """Draw household ``h`` of ``b`` (a new block's man and woman) as a
    fresh training pair at 18: the groups from its ``rng_exo`` with the
    shares of ``env``'s rule-set year, the rest as :func:`init_population`."""
    b.rng_exo[h], b.rng_act[h] = map(np.random.default_rng, seed_seq.spawn(2))
    rng, tables, year = b.rng_exo[h], env.tables, env.rules.year
    g_m = int(np.searchsorted(np.cumsum(tables.shares_for_year(year, "men")), rng.random(), side="right"))
    w_shares = np.array(tables.shares_for_year(year, "women"))
    weights = np.asarray(tables.assortative_weights[min(g_m, 2)]) * w_shares
    g_w = int(np.searchsorted(np.cumsum(weights / weights.sum()), rng.random(), side="right"))
    first = int(b.first[h])
    b.group[first:first + 2] = min(g_m, 2), min(g_w, 2)
    _draw_household(b, h, env)


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


def partnership_phase(b: HouseholdBlock, tables: DemographicTables, curves: dict) -> None:
    """Marriage and divorce of the pair households: count the clocks down;
    a fired clock toggles the partnership (when both adults live) and draws
    the other clock from the younger adult's age (``curves`` as in
    :func:`draw_event_clock`)."""
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
        if marry[i]:
            if both[i]:
                b.partnered[h] = True
                b.until_divorce[h] = draw_event_clock(tables.divorce_quarterly, youngest, rng, curves)
            b.until_marriage[h] = NO_EVENT
        else:
            b.partnered[h] = False
            b.until_divorce[h] = NO_EVENT
            b.until_marriage[h] = draw_event_clock(tables.marriage_quarterly, youngest, rng, curves)


def fertility_phase(b: HouseholdBlock, tables: DemographicTables, curves: dict) -> np.ndarray:
    """Age every child a quarter (a child leaves at 18) and fire the
    scheduled births of households with a living mother, each drawing the
    next birth clock from the mother's age (``curves`` as in
    :func:`draw_event_clock`); the per-household birth flags.  The only
    writer of the child columns and bands."""
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
            mother_age = float(b.age[b.mother[h]])
            b.until_birth[h] = draw_event_clock(tables.fertility_quarterly, mother_age, b.rng_exo[h], curves)
    ages = b.child_age
    b.under3, b.under7, b.under18 = (ages < 3.0).sum(1), (ages < 7.0).sum(1), (ages < 18.0).sum(1)
    return birth
