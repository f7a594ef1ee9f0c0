"""Demographics: cohort initialization, exogenous life events, and the
keyed draws every random number of a household comes from.

Households are fixed opposite-sex pairs (or single-slot leftovers); marriage
and divorce toggle partnership inside the pair.  Every random life event is
drawn in advance and surfaced as a time-to-event clock, so agents can see the
next transition coming; firing an event redraws the next clock.  Death,
marriage, divorce and birth clocks are drawn one way: one uniform inverted
against a failure curve, built once per hazard and start age (from 18 for a
new household, see :func:`initial_draw_tables`; later ones by
:func:`draw_event_clock`).

Keyed draws.  Each purpose of a household draws from its own stream,
``np.random.default_rng((seed, household, purpose))`` (:func:`keyed`): the
population seed, the household's index in the cohort (or in the order a
training pool drew it), the purpose.  Each draw has a fixed place, used or
not, so a household's draws never depend on what happened to it, and are
the same in both arms of a comparison, in any block split and at any
worker count.  The purposes and their layout:

* ``INITIAL``: ``random(INITIAL_UNIFORMS)`` (per adult slot the ``I_*``
  uniforms: state, fund membership, student spell, and the life,
  disability, student and outsider clocks; then a training pair's man's
  and woman's group and the first birth and marriage clocks), then
  ``standard_normal(2)`` (each slot's wage shock at 18).
* ``UNIFORMS``: ``random((quarters, QUARTER_UNIFORMS))``, a row per quarter
  since 18 (per adult slot the ``U_*`` uniforms: layoff, sick, misc,
  friction, spare, student spell and clock, outsider spell and clock; then
  the household's ``H_*``: father's leave, partnership and birth clocks).
* ``NORMALS``: ``standard_normal((quarters, 2))``, each slot's wage shock.
* ``ACTIONS``: ``random((quarters, 2))``, each slot's action uniform of the
  simulator's sample mode.

:func:`draw_life` draws the quarterly arrays when a block starts (a
simulation block, a training pool, a block of one household); the block's
``quarter`` column picks the row (the dead stop ageing, so age cannot).  A
cohort (:func:`init_population`; its genders, groups and pairs come from
its master stream) and a training pool (:func:`spawn_pair_household`) are
drawn straight into the columns of a new
:class:`~lifesim.agent.HouseholdBlock`, and the demographic events run over
a household block, phase by phase.  The per-record events the block phases
replaced, with the survival-loop draw, are the reference they are checked
against, in ``tests/step_oracle.py``.

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

from .agent import DT, ENTRY_AGE, LIFE_QUARTERS, MAX_AGE, NO_EVENT, HouseholdBlock
from .errors import ContractViolation, ParameterError
from .paramfiles import build, load_yaml
from .states import EmploymentState as S, Gender
from .wage import paid_wage

if TYPE_CHECKING:
    from .env.mdp import LifecycleEnv

_DEAD, _FULL_TIME, _PART_TIME, _STUDENT, _SICK_LEAVE = map(int, (S.DEAD, S.FULL_TIME, S.PART_TIME, S.STUDENT,
                                                                  S.SICK_LEAVE))


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


def load_demographics(path: str | Path) -> DemographicTables:
    tables = build(DemographicTables, load_yaml(path))
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
# Keyed draws (see the module docstring for the layout).
# ---------------------------------------------------------------------------

INITIAL, UNIFORMS, NORMALS, ACTIONS = range(4)   # the purposes of a household's streams
I_STATE, I_FUND, I_SPELL, I_LIFE, I_DISABILITY, I_STUDENT, I_OUTSIDER, I_SLOT = range(8)   # I_SLOT per slot
I_GROUP_MAN, I_GROUP_WOMAN, I_BIRTH, I_MARRIAGE, INITIAL_UNIFORMS = range(2 * I_SLOT, 2 * I_SLOT + 5)
(U_LAYOFF, U_SICK, U_MISC, U_FRICTION, U_SPARE, U_STUDENT_SPELL, U_STUDENT_CLOCK, U_OUTSIDER_SPELL,
 U_OUTSIDER_CLOCK, U_SLOT) = range(10)   # U_SLOT per slot
H_FATHER_LEAVE, H_PARTNERSHIP, H_BIRTH, QUARTER_UNIFORMS = *range(3), 2 * U_SLOT + 3


def keyed(b: HouseholdBlock, purpose: int) -> list[np.random.Generator]:
    """Each household's stream of ``purpose``, in household order."""
    return [np.random.default_rng((seed, h, purpose)) for seed, h in zip(b.seed.tolist(), b.ids.tolist())]


def draw_life(b: HouseholdBlock, quarters: int) -> None:
    """``b.uniforms`` (households, quarters, ``QUARTER_UNIFORMS``) and
    ``b.normals`` (households, quarters, 2): each household's first
    ``quarters`` rows of its ``UNIFORMS`` and ``NORMALS``."""
    b.uniforms, b.normals = np.empty((b.m, quarters, QUARTER_UNIFORMS)), np.empty((b.m, quarters, 2))
    for h, (uniforms, normals) in enumerate(zip(keyed(b, UNIFORMS), keyed(b, NORMALS))):
        uniforms.random(out=b.uniforms[h])
        normals.standard_normal(out=b.normals[h])


def quarter_draws(b: HouseholdBlock) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each adult row's ``U_*`` uniforms, each household's ``H_*`` uniforms
    and each adult row's wage shock, read from its ``quarter``'s row."""
    u, z = (draws[np.arange(b.m), b.quarter] for draws in (b.uniforms, b.normals))
    return u[:, :2 * U_SLOT].reshape(b.m, 2, U_SLOT)[b.hh, b.slot], u[:, 2 * U_SLOT:], z[b.hh, b.slot]


def action_uniforms(b: HouseholdBlock, quarters: int) -> np.ndarray:
    """Each adult row's ``ACTIONS`` uniforms of ``quarters`` decision
    quarters; row q holds quarter q's."""
    u = np.array([rng.random((quarters, 2)) for rng in keyed(b, ACTIONS)])
    return np.ascontiguousarray(u[b.hh, :, b.slot].T)


# ---------------------------------------------------------------------------
# Event-time draws: one uniform inverted against the cumulative survival of a
# time-varying quarterly hazard.
# ---------------------------------------------------------------------------

def failure_curve(hazard_at, age: float, horizon_q: int) -> np.ndarray:
    """Cumulative failure probability by quarter 1..horizon."""
    h = np.array([hazard_at(age + k * DT) for k in range(1, horizon_q + 1)])
    return 1.0 - np.cumprod(1.0 - h)


def draw_from_curve(curve: np.ndarray, u):
    """The first quarter whose cumulative failure reaches the uniform ``u``
    (one, or an array of them); ``NO_EVENT`` when none does."""
    last = curve[-1] if curve.size else -1.0   # an empty curve never fires
    return np.where(u > last, NO_EVENT, np.searchsorted(curve, u, side="left") + 1)


def draw_event_clock(hazard_at, age: float, u: float, curves: dict[tuple[str, float], np.ndarray]) -> int:
    """A clock drawn from ``age`` to 100 on the quarterly hazard
    ``hazard_at`` (a :class:`DemographicTables` method) with the uniform
    ``u``.  Its failure curve is built once per hazard and start age into
    ``curves``, which the caller keeps with the tables."""
    key = hazard_at.__name__, age
    curve = curves.get(key)
    if curve is None:
        curve = curves[key] = failure_curve(hazard_at, age, int((MAX_AGE - age) / DT))
    return int(draw_from_curve(curve, u))


def draw_geometric(p: float, u: float, cap: int = 200) -> int:
    """A geometric number of quarters at quarterly rate ``p``, from the uniform ``u``."""
    if p <= 0.0:
        return NO_EVENT
    k = int(math.ceil(math.log1p(-u) / math.log1p(-p))) if p < 1.0 else 1
    return min(max(k, 1), cap)


def _geometric(p: float, u: np.ndarray, cap: int) -> list[int]:
    return [draw_geometric(p, x, cap) for x in u.tolist()]


InitialDraws = tuple[dict[str, np.ndarray], dict[str, tuple[list[S], np.ndarray]]]


def initial_draw_tables(tables: DemographicTables) -> InitialDraws:
    """Failure curves from age 18 and initial-state CDFs by gender, shared
    by every agent drawn at age 18 from ``tables``."""
    curves = {
        "mort_men": failure_curve(lambda a: tables.mortality_quarterly("men", a), ENTRY_AGE, LIFE_QUARTERS),
        "mort_women": failure_curve(lambda a: tables.mortality_quarterly("women", a), ENTRY_AGE, LIFE_QUARTERS),
        "fertility": failure_curve(tables.fertility_quarterly, ENTRY_AGE, LIFE_QUARTERS),
        "marriage": failure_curve(tables.marriage_quarterly, ENTRY_AGE, LIFE_QUARTERS),
    }
    state_cdf = {}
    for gender, dist in tables.initial_states.items():
        states = list(dist)
        probs = np.array([dist[s] for s in states])
        state_cdf[gender] = (states, np.cumsum(probs / probs.sum()))
    return curves, state_cdf


def _initial_draws(b: HouseholdBlock) -> tuple[np.ndarray, np.ndarray]:
    """Each household's ``INITIAL`` uniforms and wage shocks."""
    streams = keyed(b, INITIAL)
    return (np.array([rng.random(INITIAL_UNIFORMS) for rng in streams]),
            np.array([rng.standard_normal(2) for rng in streams]))


def _draw_at_18(b: HouseholdBlock, env: LifecycleEnv, u: np.ndarray, z: np.ndarray) -> None:
    """Every household of a new block (its genders and groups set) at 18
    from its ``INITIAL`` uniforms ``u`` and shocks ``z``: each adult's
    state, wage, fund membership, student spell and clocks, then the first
    birth and marriage clocks (on ``env.initial_draws``)."""
    tables, exo = env.tables, env.tables.exogenous
    curves, state_cdf = env.initial_draws
    ua = u[:, :2 * I_SLOT].reshape(b.m, 2, I_SLOT)[b.hh, b.slot]
    for flag, gender in enumerate(("men", "women")):
        rows = (b.women == flag).nonzero()[0]
        states, cdf = state_cdf[gender]
        b.state[rows] = np.array(states, dtype=np.int64)[np.searchsorted(cdf, ua[rows, I_STATE], side="right")]
        life_left = draw_from_curve(curves["mort_" + gender], ua[rows, I_LIFE])   # censored at the maximum age
        b.life_left[rows] = np.where(life_left == NO_EVENT, LIFE_QUARTERS, life_left)
    disp = env.wparams.initial_dispersion
    shock = (z[b.hh, b.slot] * disp - 0.5 * disp * disp).tolist()
    b.potential_wage[:] = env.mean_wage(b.women, b.group, b.age) * np.array([math.exp(x) for x in shock])
    b.fund_member[:] = ua[:, I_FUND] < tables.fund_membership_share
    b.hours[:] = np.where(b.state == _FULL_TIME, 40, np.where(b.state == _PART_TIME, 16, 0))
    working = b.hours > 0
    b.paid_wage[working] = paid_wage(b.potential_wage[working], b.hours[working], 0.0)
    student = b.state == _STUDENT
    b.spell_left[student] = _geometric(exo.student_spell_end_quarterly, ua[student, I_SPELL], 200)
    b.spell_left[b.state == _SICK_LEAVE] = 1
    b.until_disability[:] = _geometric(exo.disability_clock_quarterly, ua[:, I_DISABILITY], 10_000)
    b.until_student[~student] = _geometric(exo.student_entry_quarterly, ua[~student, I_STUDENT], 10_000)
    b.until_outsider[:] = _geometric(exo.outsider_entry_quarterly, ua[:, I_OUTSIDER], 10_000)
    b.until_birth[b.with_mother] = draw_from_curve(curves["fertility"], u[b.with_mother, I_BIRTH])
    b.until_marriage[b.pairs] = draw_from_curve(curves["marriage"], u[b.pairs, I_MARRIAGE])


def init_population(n: int, env: LifecycleEnv, seed: int) -> CohortPopulation:
    """A cohort of ``n`` agents aged 18 drawn from ``env`` (the group shares
    of its rule set's year) into one block: the pairs first, each man
    before his partner, then the single women.  Genders, groups and pairs
    come from the cohort's master stream, the rest from each household's
    keyed draws."""
    if n < 1:
        raise ContractViolation("population size must be at least 1")
    tables, year = env.tables, env.rules.year
    master = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])

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
    b.seed[:] = seed
    _draw_at_18(b, env, *_initial_draws(b))
    return CohortPopulation(block=b, seed=seed, size=n)


def spawn_pair_household(env: LifecycleEnv, b: HouseholdBlock) -> None:
    """Draw every household of ``b`` (a new block of man-woman pairs, its
    keys set) as a fresh training pair at 18: the groups from its
    ``INITIAL`` uniforms with the shares of ``env``'s rule-set year, the
    rest as :func:`init_population`."""
    tables, year = env.tables, env.rules.year
    u, z = _initial_draws(b)
    g_m = np.minimum(np.searchsorted(np.cumsum(tables.shares_for_year(year, "men")), u[:, I_GROUP_MAN],
                                     side="right"), 2)
    weights = np.asarray(tables.assortative_weights)[g_m] * tables.shares_for_year(year, "women")
    cdf = np.cumsum(weights / weights.sum(1, keepdims=True), axis=1)
    g_w = np.minimum((cdf <= u[:, I_GROUP_WOMAN, None]).sum(1), 2)   # searchsorted(side="right") by row
    b.group[:] = np.column_stack((g_m, g_w)).ravel()
    _draw_at_18(b, env, u, z)


# ---------------------------------------------------------------------------
# Demographic phases of the quarter step, over a household block.  A phase
# reads the current quarter's slot of each household that fires an event.
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


def partnership_phase(b: HouseholdBlock, tables: DemographicTables, curves: dict, u: np.ndarray) -> None:
    """Marriage and divorce of the pair households: count the clocks down;
    a fired clock toggles the partnership (when both adults live) and draws
    the other clock from the younger adult's age with the household's
    partnership uniform ``u`` (``curves`` as in :func:`draw_event_clock`)."""
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
        h = int(pairs[i])
        youngest = min(float(b.age[r0[i]]), float(b.age[r0[i] + 1]))
        if marry[i]:
            if both[i]:
                b.partnered[h] = True
                b.until_divorce[h] = draw_event_clock(tables.divorce_quarterly, youngest, u[h], curves)
            b.until_marriage[h] = NO_EVENT
        else:
            b.partnered[h] = False
            b.until_divorce[h] = NO_EVENT
            b.until_marriage[h] = draw_event_clock(tables.marriage_quarterly, youngest, u[h], curves)


def fertility_phase(b: HouseholdBlock, tables: DemographicTables, curves: dict, u: np.ndarray) -> np.ndarray:
    """Age every child a quarter (a child leaves at 18) and fire the
    scheduled births of households with a living mother, each drawing the
    next birth clock from the mother's age with the household's birth
    uniform ``u`` (``curves`` as in :func:`draw_event_clock`); the
    per-household birth flags.  The only writer of the child columns and
    bands."""
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
            b.until_birth[h] = draw_event_clock(tables.fertility_quarterly, mother_age, u[h], curves)
    ages = b.child_age
    b.under3, b.under7, b.under18 = (ages < 3.0).sum(1), (ages < 7.0).sum(1), (ages < 18.0).sum(1)
    return birth
