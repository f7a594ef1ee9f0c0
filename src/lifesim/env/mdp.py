"""The quarterly household decision process, stepped a block at a time.

One quarter runs, in order: demographic events (deaths, marriage and
divorce, births and the parental leaves they start), exogenous employment
transitions, decisions with job-search friction, then wage and tracker
updates; its rules-engine cash flows and per-agent rewards are priced
after it (see below).  Every phase runs over the columns of a
:class:`~lifesim.agent.HouseholdBlock` (one row per adult, in household then
slot order), repeating the per-agent formulas operation for operation:

* Keyed draws.  Every phase reads its own slot of the quarter's row of the
  block's life draws (:func:`lifesim.population.quarter_draws`; the key and
  the layout are in :mod:`lifesim.population`), whether or not its event
  fires, and the step moves each household's ``quarter`` on.
* Scalar where bits differ.  ``math.log``/``math.exp`` run on each value of
  a column, ages advance by Python's ``round(x, 6)``, and the wage profile
  is ``WageParams.mean_wage``, memoised by gender, group and quarter of age.
  Sums over a work window, a unit's adults or a block's flow rows keep
  Python's left-to-right order.
* Other loops run over the adults entering unemployment with a new benefit
  basis, the job searches from outside work, and the fired clocks.
* One pricer.  A :class:`PricingLedger` prices every quarter of a block
  that anything reads the flows, consumption or rewards of: training's and
  the simulator's many at once, and ``terminal_block`` and the
  one-household ``step`` and ``static_quarter`` the one they ran.  It
  prices every budget unit (``units``) with ``rules.price_units``, a row
  per unit, shares each unit's consumption among its living adults and,
  when asked, rewards each adult; the block holds no priced state.  The
  units, and who shares them, are formed again only when who lives, who is
  partnered or a child band changed.  The simulator's EMTR and PTR
  samples are priced on the block's columns too.  The scalar
  ``rules.price_unit`` stays behind the snapshot API (``net_income``,
  ``emtr``, ``ptr``) of ``lifesim emtr-scan``.
* When a quarter is priced.  No transition reads a quarter's flows,
  consumption or rewards, so every caller runs the transition alone
  (``advance_block``, or ``static_block``, which reports the households
  whose pricing inputs changed) and prices after it.

Marriage, divorce and birth clocks are drawn on failure curves built once
per hazard and start age and kept with the env
(:func:`lifesim.population.draw_event_clock`).

``LifecycleEnv.step``, ``static_quarter``, ``freeze_for_static_phase`` and
``terminal_value`` are the block of one household: pack (drawing its life
through its quarter), run the block phase, write back into the same
records.  The per-household step the block step replaced, and its
per-record demographic events, are ``tests/step_oracle.py``; the other
one-household views the tests use (``budget_units``, ``household_flows``,
``observe_households``, ``step_households``) are ``tests/one_household.py``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from ..agent import DT, ENTRY_AGE, LIFE_QUARTERS, MAX_AGE, NO_EVENT, STATES, HouseholdBlock, HouseholdState
from ..errors import ContractViolation
from ..population import (H_BIRTH, H_FATHER_LEAVE, H_PARTNERSHIP, U_FRICTION, U_LAYOFF, U_MISC, U_OUTSIDER_CLOCK,
                          U_OUTSIDER_SPELL, U_SICK, U_SPARE, U_STUDENT_CLOCK, U_STUDENT_SPELL, DemographicTables,
                          InitialDraws, draw_geometric, draw_life, fertility_phase, initial_draw_tables,
                          mortality_phase, partnership_phase, quarter_draws)
from ..rules import FLOW_COLUMNS, AdultColumns, CashFlows, entitlement_days, price_units
# ``net_income`` (the snapshot API) stays a module name here for the traced
# benchmark run (lifebench/layers.py), which wraps it where callers used to
# look it up.
from ..rules import net_income  # noqa: F401
from ..rules.ruleset import BENEFIT_DAYS_PER_QUARTER, RuleSet
from ..states import (IS_PENSION, IS_RETIRED, IS_WORKING, LEAVE_STATES, RETIRED_STATES, UNEMPLOYMENT_STATES,
                      WORKING_STATES, state_flags)
from ..states import EmploymentState as S
from ..wage import WageParams, paid_wage, potential_wage_columns, update_wage_reduction
# ``legal_mask`` (one adult) stays a module name here for the traced run.
from .actions import ACTIONS, Decision, legal_mask  # noqa: F401
from .utility import UtilityColumns, UtilityParams, check_consumption

# State and decision codes as plain ints: numpy compares an array with an
# IntEnum member several times slower than with an int.
(_FULL_TIME, _PART_TIME, _ER_UNEMPLOYED, _BASIC_UNEMPLOYED, _ER_EXTENDED, _RETIRED, _RETIRED_PT, _RETIRED_FT,
 _DISABLED, _MOTHERS_LEAVE, _FATHERS_LEAVE, _HOME_CARE, _STUDENT, _OUTSIDE_WF, _SICK_LEAVE, _DEAD) = map(int, S)
_STAY, _WORK_PT, _WORK_FT, _QUIT, _RETIRE, _PARTIAL_25, _PARTIAL_50, _HOME_CARE_DECISION = map(int, Decision)

_IS_LEAVE = state_flags(LEAVE_STATES)
# Past the retirement age: retired at once, or through unemployment first.
_AUTO_RETIRE = state_flags({S.ER_UNEMPLOYED, S.BASIC_UNEMPLOYED, S.ER_EXTENDED, S.SICK_LEAVE})
_RETIRE_VIA_UNEMPLOYMENT = state_flags({S.OUTSIDE_WF, S.STUDENT, S.HOME_CARE})
_SICK_ONSET = state_flags((WORKING_STATES | UNEMPLOYMENT_STATES) - RETIRED_STATES)
_WORKING_RETIRED = state_flags({S.RETIRED_PT, S.RETIRED_FT})
_FULL_TIME_STATES = state_flags({S.FULL_TIME, S.RETIRED_FT})
# Living non-workers move to plain retirement at the decision horizon.
_FREEZE = ~state_flags(WORKING_STATES | {S.RETIRED, S.DISABLED, S.DEAD})
# The states a drawn student or outside-the-work-force spell starts from.
_SPELL_ENTRY = frozenset(map(int, (S.FULL_TIME, S.PART_TIME, S.ER_UNEMPLOYED, S.BASIC_UNEMPLOYED, S.ER_EXTENDED)))
_RETIRED_OR_LEFT = frozenset(map(int, RETIRED_STATES | {S.DISABLED, S.DEAD}))


_DECISION = np.array([int(a.decision) for a in ACTIONS])
_ACTION_HOURS = np.array([a.hours for a in ACTIONS])


# Event codes (``HouseholdBlock.event``): at most one exogenous or decision
# event per adult and quarter, named ``EVENTS[code]``, plus the
# ``PARENTAL_LEAVE`` bit when a birth started the adult's leave (named
# ``mothers_leave`` or ``fathers_leave``).
EVENTS = ("", "auto_retire", "auto_retire_via_unemployment", "disability", "disability_after_sick", "studies_end",
          "outside_end", "layoff", "sick_onset", "student_entry", "outside_entry", "partial_early", "quit",
          "search_failed", "job_started")
Event = SimpleNamespace(PARENTAL_LEAVE=16, **{name.upper(): code for code, name in enumerate(EVENTS) if name})


class BudgetUnits(NamedTuple):
    """A block's budget units, one entry each: the rows of the unit's first
    and second adult (-1 for none), its child bands and its monthly rent."""

    first: np.ndarray
    second: np.ndarray
    under3: np.ndarray
    under7: np.ndarray
    under18: np.ndarray
    rent_monthly: np.ndarray


class Sharers(NamedTuple):
    """Who shares each budget unit's consumption, one entry per living unit
    adult: its ``rows``, its ``unit`` and that unit's count of living adults
    (``divisor``, as a float).  A unit's consumption is shared equally by
    its living adults."""

    rows: np.ndarray
    unit: np.ndarray
    divisor: np.ndarray


_CONSUMPTION = FLOW_COLUMNS.index("consumption")
# Unit rows a PricingLedger records before they are priced in one
# ``price_units`` call (about 1.1 kB a row while it runs): a 32-household
# training rollout, at most 16 x 64 rows, in one call.  2,048 saved 8% of
# the pricing time but added 0.5 MiB to ``lifesim compare``'s peak RSS.
PRICING_ROWS = 1024
# The block's adult columns the rules read, in the order ``pricing_columns``
# takes them.
PRICING_INPUTS = ("state", "paid_wage", "ub_basis", "ub_days_used", "ub_max_days", "fund_member", "pension_paid",
                  "pension_accrued", "partial_early_paid", "prev_paid_wage")
# The rows of a PricingLedger set that utility reads: the state, then the
# columns recorded after the pricing inputs.
_UTILITY_INPUTS = [0] + list(range(len(PRICING_INPUTS), len(PRICING_INPUTS) + 5))


def pricing_columns(state, paid_wage, ub_basis, ub_days_used, ub_max_days, fund_member, pension_paid,
                    pension_accrued, partial_early_paid, prev_paid_wage) -> AdultColumns:
    """The rules' inputs of adults given as the block columns
    ``PRICING_INPUTS``, ``state`` as integer codes.  A paid wage counts only
    in a working state."""
    return AdultColumns(state, np.where(IS_WORKING[state], paid_wage / 4.0, 0.0), ub_basis, ub_days_used,
                        ub_max_days, fund_member, pension_paid, pension_accrued, partial_early_paid,
                        prev_paid_wage / 12.0)


@dataclass(slots=True)
class StepOutcome:
    rewards: tuple[float, ...]
    consumptions: tuple[float, ...]
    flows: list[CashFlows]
    events: tuple[str, ...]


def unit_cash_flows(b: HouseholdBlock, h: int, flows: np.ndarray) -> list[CashFlows]:
    """The cash flows of household ``h``'s budget units, built from their
    rows of ``flows``, the settled rows of ``b.units``; ``adult_wages``
    lists each unit adult's quarterly wage (0.0 for the dead and the idle)."""
    units = b.units
    lo, hi = np.searchsorted(units.first, (b.first[h], b.first[h] + b.size[h]))
    wages = np.where(IS_WORKING[b.state], b.paid_wage / 4.0, 0.0)
    return [CashFlows(*row, adult_wages=tuple(wages[[first] if second < 0 else [first, second]].tolist()))
            for row, first, second in zip(flows[lo:hi].tolist(), units.first[lo:hi].tolist(),
                                          units.second[lo:hi].tolist())]


def outcome(b: HouseholdBlock, h: int, flows: np.ndarray, consumption: np.ndarray, rewards: np.ndarray,
            events: tuple[str, ...] = ()) -> StepOutcome:
    """Household ``h``'s outcome from its block's settled quarter: the unit
    ``flows`` and each adult row's ``consumption`` and ``rewards``."""
    rows = slice(int(b.first[h]), int(b.first[h] + b.size[h]))
    return StepOutcome(rewards=tuple(rewards[rows].tolist()), consumptions=tuple(consumption[rows].tolist()),
                       flows=unit_cash_flows(b, h, flows), events=events)


def event_names(b: HouseholdBlock, h: int) -> tuple[str, ...]:
    """The quarter's events of household ``h`` by name: the parental leaves
    (the mother's first), the birth, then each adult's event in slot order."""
    rows = range(int(b.first[h]), int(b.first[h] + b.size[h]))
    leaves = [b.women[r] for r in rows if b.event[r] & Event.PARENTAL_LEAVE]
    names = ["mothers_leave"] * any(leaves) + ["fathers_leave"] * (not all(leaves))
    names += ["birth"] * bool(b.birth[h])
    return tuple(names + [EVENTS[code] for code in (int(b.event[r]) & 15 for r in rows) if code])


class _Entries:
    """The adults that enter unemployment this quarter, applied together
    after the decision phase (no phase in between reads their rows)."""

    def __init__(self, n: int) -> None:
        self.rows, self.eligible, self.pink_slip = np.zeros((3, n), dtype=bool)

    def add(self, rows: np.ndarray, eligible: bool, pink_slip: bool = False) -> None:
        self.rows |= rows
        if eligible:
            self.eligible |= rows
        if pink_slip:
            self.pink_slip |= rows


class LifecycleEnv:
    """Environment bundle: rule set plus preference/wage/demographic tables."""

    def __init__(
        self,
        rules: RuleSet,
        uparams: UtilityParams,
        wparams: WageParams,
        tables: DemographicTables,
    ) -> None:
        self.rules = rules
        self.uparams = uparams
        self.wparams = wparams
        self.tables = tables
        self._survival_cache: dict[tuple[str, float], tuple[float, ...]] = {}
        # Failure curves of the marriage, divorce and fertility hazards by
        # (hazard name, start age), for the clocks drawn after 18.
        self._curve_cache: dict[tuple[str, float], np.ndarray] = {}

    def with_rules(self, rules: RuleSet) -> "LifecycleEnv":
        """The same tables and preferences under ``rules``.  The new env
        shares the tables derived from those inputs alone (failure curves,
        the initial draw tables, survival weights, the wage profile,
        job-finding odds); the ones that read the rules (utility columns,
        rents) it builds for itself."""
        twin = LifecycleEnv(rules, self.uparams, self.wparams, self.tables)
        twin._survival_cache = self._survival_cache
        twin._curve_cache = self._curve_cache
        twin.initial_draws = self.initial_draws
        twin._wage_profile = self._wage_profile
        twin._job_find_prob = self._job_find_prob
        return twin

    def __getstate__(self) -> dict:
        """The bundle without its derived tables, which are rebuilt on first use."""
        return {k: self.__dict__[k] for k in ("rules", "uparams", "wparams", "tables", "_survival_cache",
                                              "_curve_cache")}

    # -- derived tables, built on first use ---------------------------------

    @cached_property
    def initial_draws(self) -> InitialDraws:
        """:func:`~lifesim.population.initial_draw_tables` of the demographic
        tables, for every household drawn at 18 under this env."""
        return initial_draw_tables(self.tables)

    @cached_property
    def _utility(self) -> UtilityColumns:
        return UtilityColumns(self.uparams, self.rules.pension.min_retirement_age, self.rules.year)

    @cached_property
    def _wage_profile(self) -> np.ndarray:
        """``mean_wage`` by [women, group, quarter of age from entry], NaN until used."""
        return np.full((2, 3, LIFE_QUARTERS + 1), np.nan)

    @cached_property
    def _job_find_prob(self):
        return lru_cache(maxsize=None)(self.tables.job_find_prob)

    @cached_property
    def _rent(self) -> np.ndarray:
        """``RuleSet.rent_for_size`` of sizes 0, 1, 2, ...: the rent table
        led by a copy of its first entry, indexed by the size up to the
        largest tabled one."""
        table = self.rules.rent_table
        return np.asarray(table[:1] + table, dtype=float)

    @cached_property
    def _next_age(self):
        """Python's ``round(age + DT, 6)``, memoised."""
        return lru_cache(maxsize=None)(lambda age: round(age + DT, 6))

    def mean_wage(self, women: np.ndarray, group: np.ndarray, age: np.ndarray) -> np.ndarray:
        """``WageParams.mean_wage`` of every row, memoised on the quarter grid."""
        table = self._wage_profile
        k = (age - ENTRY_AGE) * 4.0
        q = np.minimum(k.astype(np.intp), table.shape[2] - 1)
        out = table[women, group, q]
        for r in (np.isnan(out) | (k != q)).nonzero()[0].tolist():
            key = women[r], group[r], q[r]
            value = table[key] if k[r] == q[r] else np.nan
            if value != value:
                value = self.wparams.mean_wage("women" if women[r] else "men", int(group[r]), float(age[r]))
                if k[r] == q[r]:
                    table[key] = value
            out[r] = value
        return out

    # -- blocks --------------------------------------------------------------

    @property
    def window(self) -> int:
        """A block's work window in quarters: the rules' employment-condition window."""
        return self.rules.unemployment.er.condition_window_quarters

    def block(self, households: list[HouseholdState]) -> HouseholdBlock:
        """The block of ``households``, its work window as long as the
        rules', with their life drawn through the latest of their quarters."""
        b = HouseholdBlock.of(households, self.window)
        draw_life(b, int(b.quarter.max()) + 1)
        return b

    # -- budget units and cash flows --------------------------------------

    def budget_units(self, b: HouseholdBlock) -> BudgetUnits:
        """The budget units of ``b``, in household then slot order: a
        partnered pair is one unit (a dead partner included, for the
        survivor's pension); otherwise each living adult is one, and the
        custodian (the mother while alive, else the first living adult) has
        the children.  Rent is sized by the unit's living adults plus its
        children."""
        alive = b.state != _DEAD
        pair = b.partnered & (b.size == 2)
        first = np.where(pair[b.hh], b.slot == 0, alive).nonzero()[0]
        h = b.hh[first]
        second = np.where(pair[h], first + 1, -1)
        # Each household's first living adult (-1 for none), then its custodian.
        other = np.minimum(b.first + 1, b.n - 1)
        lead = np.where(alive[b.first], b.first, np.where((b.size == 2) & alive[other], other, -1))
        custodian = np.where((b.mother >= 0) & alive[b.mother], b.mother, lead)[h]
        u3, u7, u18 = np.array((b.under3, b.under7, b.under18))[:, h] * (pair[h] | (first == custodian))
        n_alive = np.add(alive[first], (second >= 0) & alive[second], dtype=np.int64)
        rent = self._rent[np.minimum(n_alive + u18, len(self._rent) - 1)]
        return BudgetUnits(first, second, u3, u7, u18, rent)

    def units(self, b: HouseholdBlock) -> BudgetUnits:
        """``b.units``, the block's :meth:`budget_units`, and ``b.sharers``,
        formed again only when what they read changed since they were: who
        is alive, who is partnered or a child band (``b.unit_key``)."""
        alive = b.state != _DEAD
        key = b"".join(column.tobytes() for column in (alive, b.partnered, b.under3, b.under7, b.under18))
        if key != b.unit_key:
            units = b.units = self.budget_units(b)
            b.unit_key = key
            rows = np.concatenate((units.first, units.second))
            live = (rows >= 0) & alive[rows]
            unit = np.tile(np.arange(len(units.first)), 2)[live]
            b.sharers = Sharers(rows[live], unit, np.bincount(unit, minlength=len(units.first))[unit].astype(float))
        return b.units

    @staticmethod
    def adult_columns(b: HouseholdBlock) -> AdultColumns:
        """The pricing inputs of every adult row of ``b``."""
        return pricing_columns(*(getattr(b, name) for name in PRICING_INPUTS))

    # -- shared transitions -------------------------------------------------

    def _start_pension(self, b: HouseholdBlock, rows: np.ndarray, state: int) -> None:
        """Stop work and pay the accrued pension in ``state`` (retired or disabled)."""
        lec = self.rules.pension.life_expectancy_coefficient
        b.pension_paid[rows] = (b.partial_early_paid[rows]
                                + (1.0 - b.partial_early_share[rows]) * b.pension_accrued[rows] * lec)
        b.stop_work(rows, state)
        b.returning[rows] = False
        b.spell_left[rows] = 0

    def _enter_unemployment(self, b: HouseholdBlock, entries: _Entries) -> None:
        """Unemployment for every entering adult: on the earnings-related
        benefit when eligible, a fund member, with the employment condition
        met and days left (a new basis and entitlement once the condition is
        met again, or on first entry), else on the basic allowance."""
        enter = entries.rows
        if not np.count_nonzero(enter):
            return
        rules = self.rules
        er = rules.unemployment.er
        threshold = max(1, er.condition_months // 3)
        b.pink_slip[enter] = entries.pink_slip[enter]
        gate = entries.eligible & b.fund_member & (b.worked.sum(1) >= threshold)
        width = b.worked.shape[1]
        for r in (gate & ((b.new_condition_quarters >= threshold) | (b.ub_basis == 0.0))).nonzero()[0].tolist():
            start = width - int(b.window_len[r])
            wages = [w for worked, w in zip(b.worked[r, start:].tolist(), b.window_wage[r, start:].tolist())
                     if worked]
            # left to right: builtin ``sum`` compensates from Python 3.12
            basis = reduce(operator.add, wages, 0.0) / len(wages) / 3.0 if wages else 0.0
            age = float(b.age[r])
            if age >= er.senior_age:
                basis = max(basis, float(b.ub_basis[r]))   # level protection at 58
            b.ub_basis[r] = basis
            b.ub_days_used[r] = 0.0
            b.ub_max_days[r] = float(entitlement_days(int(b.career_quarters[r]) * DT, age, rules))
            b.new_condition_quarters[r] = 0
        b.stop_work(enter, _BASIC_UNEMPLOYED)
        b.state[gate & (b.ub_days_used < b.ub_max_days)] = _ER_UNEMPLOYED

    # -- exogenous phase -------------------------------------------------

    def _exogenous(self, b: HouseholdBlock, u: np.ndarray, entries: _Entries) -> np.ndarray:
        """Apply the exogenous transitions; the rows whose decision stands
        (living and not preempted).  Each stage settles some of the rows
        still pending, in the order the per-agent rules are checked."""
        exo = self.tables.exogenous
        for clock in (b.until_disability, b.until_student, b.until_outsider):
            clock -= clock > 0
        st = b.state.copy()
        pending = st != _DEAD
        decide = np.zeros(b.n, dtype=bool)

        # Benefits end at the statutory retirement age.  Rows without a
        # retirement cell route through unemployment first.
        old = pending & (b.age >= self.rules.pension.min_retirement_age)
        if np.count_nonzero(old):
            retire = old & _AUTO_RETIRE[st]
            via = old & _RETIRE_VIA_UNEMPLOYMENT[st]
            disabled = old & (st == _DISABLED)
            self._start_pension(b, retire | disabled, _RETIRED)
            b.event[retire] = Event.AUTO_RETIRE
            entries.add(via, eligible=False)
            b.returning[via] = False
            b.event[via] = Event.AUTO_RETIRE_VIA_UNEMPLOYMENT
            pending &= ~(retire | via | disabled)

        fired = pending & (b.until_disability == 0)
        if np.count_nonzero(fired):
            b.until_disability[fired] = NO_EVENT
            disabled = fired & ~IS_PENSION[st]
            self._start_pension(b, disabled, _DISABLED)
            b.event[disabled] |= Event.DISABILITY   # the one event a new parental leave can meet
            pending &= ~disabled

        # Sick leave and parental leave: a returning adult decides; otherwise
        # the spell runs on.
        sick = pending & (st == _SICK_LEAVE)
        if np.count_nonzero(sick):
            decide |= sick & b.returning
            spell = sick & ~b.returning
            b.sick_quarters += spell
            maxed = spell & (b.sick_quarters >= exo.sick_max_quarters)
            disabled = maxed & (u[:, U_MISC] < exo.disability_after_sick)
            self._start_pension(b, disabled, _DISABLED)
            b.event[disabled] = Event.DISABILITY_AFTER_SICK
            b.returning[(maxed & ~disabled) | (spell & ~maxed & (u[:, U_MISC] >= exo.sick_continue_quarterly))] = True
            pending &= ~sick
        leave = pending & _IS_LEAVE[st]
        if np.count_nonzero(leave):
            decide |= leave & b.returning
            spell = leave & ~b.returning
            b.spell_left -= spell
            b.returning[spell & (b.spell_left <= 0)] = True
            pending &= ~leave

        # A student graduates onto the basic allowance (the student row has no
        # earnings-related exit); part-time work stays open mid-spell.
        for state, event, eligible in ((_STUDENT, Event.STUDIES_END, False), (_OUTSIDE_WF, Event.OUTSIDE_END, True)):
            spell = pending & (st == state)
            if np.count_nonzero(spell):
                b.spell_left -= spell
                ends = spell & (b.spell_left <= 0)
                entries.add(ends, eligible)
                b.event[ends] = event
                decide |= spell & ~ends
                pending &= ~spell

        # The youngest child turned three: the home care allowance ends.
        home = pending & (st == _HOME_CARE)
        if np.count_nonzero(home):
            home &= b.under3[b.hh] == 0
            b.returning[home] = True
            decide |= home
            pending &= ~home

        laid_off = pending & IS_WORKING[st] & (u[:, U_LAYOFF] < exo.layoff_quarterly)
        if np.count_nonzero(laid_off):
            retired = laid_off & _WORKING_RETIRED[st]
            b.stop_work(retired, _RETIRED)
            entries.add(laid_off & ~retired, eligible=True, pink_slip=True)
            b.event[laid_off] = Event.LAYOFF
            pending &= ~laid_off

        onset = pending & _SICK_ONSET[st] & (u[:, U_SICK] < exo.sick_onset_quarterly)
        if np.count_nonzero(onset):
            b.stop_work(onset, _SICK_LEAVE)
            b.sick_quarters[onset] = 0
            b.event[onset] = Event.SICK_ONSET
            pending &= ~onset

        # A fired clock starts its spell, then redraws itself whether or not
        # the spell could start.
        for r in (pending & ((b.until_student == 0) | (b.until_outsider == 0))).nonzero()[0].tolist():
            if b.until_student[r] == 0:
                started = self._start_spell(b, r, _STUDENT, exo.student_spell_end_quarterly,
                                            Event.STUDENT_ENTRY, u[r, U_STUDENT_SPELL])
                b.until_student[r] = draw_geometric(exo.student_entry_quarterly, u[r, U_STUDENT_CLOCK], cap=10_000)
                if started:
                    pending[r] = False
                    continue
            if b.until_outsider[r] == 0:
                started = self._start_spell(b, r, _OUTSIDE_WF, exo.outsider_spell_end_quarterly,
                                            Event.OUTSIDE_ENTRY, u[r, U_OUTSIDER_SPELL])
                b.until_outsider[r] = draw_geometric(exo.outsider_entry_quarterly, u[r, U_OUTSIDER_CLOCK],
                                                     cap=10_000)
                pending[r] = not started
        return decide | pending

    @staticmethod
    def _start_spell(b: HouseholdBlock, r: int, state: int, end_rate: float, event: int, u: float) -> bool:
        """Start a ``state`` spell of geometric length with quarterly end
        rate ``end_rate`` (drawn with the uniform ``u``) at row ``r``; False
        when the adult is in no state it starts from."""
        if int(b.state[r]) not in _SPELL_ENTRY:
            return False
        b.stop_work(r, state)
        b.spell_left[r] = draw_geometric(end_rate, u)
        b.event[r] = event
        return True

    def _birth_consequences(self, b: HouseholdBlock, u_father: np.ndarray) -> None:
        """A birth starts the mother's leave, and the father's when the pair
        is partnered and ``u_father`` is below the take-up rate, unless the
        parent is dead, retired, disabled or already on a leave."""
        exo = self.tables.exogenous
        for h in b.birth.nonzero()[0].tolist():
            mother, father = int(b.mother[h]), int(b.father[h])
            st = int(b.state[mother])
            if st not in _RETIRED_OR_LEFT and st != _MOTHERS_LEAVE:
                self._start_leave(b, mother, _MOTHERS_LEAVE, exo.mother_leave_quarters)
            if father < 0:
                continue
            st = int(b.state[father])
            if (b.partnered[h] and st not in _RETIRED_OR_LEFT and st != _FATHERS_LEAVE and st != _MOTHERS_LEAVE
                    and u_father[h] < exo.father_leave_at_birth):
                self._start_leave(b, father, _FATHERS_LEAVE, exo.father_leave_quarters)

    @staticmethod
    def _start_leave(b: HouseholdBlock, r: int, state: int, quarters: int) -> None:
        """Start a parental leave ``state`` of ``quarters`` forced quarters."""
        b.stop_work(r, state)
        b.spell_left[r] = quarters
        b.returning[r] = False
        b.event[r] = Event.PARENTAL_LEAVE

    # -- decision phase ---------------------------------------------------

    def _decide(self, b: HouseholdBlock, actions: np.ndarray, decide: np.ndarray, u: np.ndarray,
                entries: _Entries) -> None:
        """Apply each deciding adult's action.  A returning adult who stays,
        or fails a job search, enters unemployment."""
        pension = self.rules.pension
        st = b.state.copy()
        dec = np.where(decide, _DECISION[actions], -1)
        returning = b.returning & decide
        b.returning[decide] = False
        entries.add((dec == _STAY) & returning, eligible=True)

        retire = dec == _RETIRE
        if np.count_nonzero(retire):
            b.stop_work(retire & _WORKING_RETIRED[st], _RETIRED)
            self._start_pension(b, retire & ~_WORKING_RETIRED[st], _RETIRED)

        partial = (dec == _PARTIAL_25) | (dec == _PARTIAL_50)
        if np.count_nonzero(partial):
            share = np.where(dec == _PARTIAL_25, 0.25, 0.50)[partial]
            years_early = np.maximum(0.0, pension.min_retirement_age - b.age[partial])
            factor = np.maximum(0.0, 1.0 - pension.partial_early.reduction_per_year * years_early)
            b.partial_early_share[partial] = share
            b.partial_early_paid[partial] = (share * b.pension_accrued[partial]
                                             * pension.life_expectancy_coefficient * factor)
            b.event[partial] = Event.PARTIAL_EARLY
            entries.add(partial & returning, eligible=True)

        quits = dec == _QUIT
        if np.count_nonzero(quits):
            entries.add(quits, eligible=False)
            b.event[quits] = Event.QUIT
        b.stop_work(dec == _HOME_CARE_DECISION, _HOME_CARE)

        work = (dec == _WORK_PT) | (dec == _WORK_FT)
        if not np.count_nonzero(work):
            return
        want_ft = dec == _WORK_FT
        hours = _ACTION_HOURS[actions]
        working = IS_WORKING[st]
        # Without friction: a returning adult, or a worker keeping the hours class.
        success = returning | (working & (want_ft == _FULL_TIME_STATES[st]))
        search = self.tables.job_search
        success |= working & (u[:, U_FRICTION] < search.switch_ft_pt)
        for r in (work & ~success & ~working).nonzero()[0].tolist():
            gender, group, age = "women" if b.women[r] else "men", int(b.group[r]), float(b.age[r])
            kind = "full_time" if want_ft[r] else "part_time"
            success[r] = u[r, U_FRICTION] < self._job_find_prob(kind, gender, group, age)
            if not success[r] and want_ft[r]:
                # A failed full-time search may still land part time.
                if u[r, U_SPARE] < search.pt_on_failed_ft * self._job_find_prob("part_time", gender, group, age):
                    success[r], want_ft[r], hours[r] = True, False, 24
        failed = work & ~success
        entries.add(failed & returning, eligible=True)
        b.event[failed] = Event.SEARCH_FAILED
        started = work & success
        b.state[started] = np.where(IS_RETIRED[st], np.where(want_ft, _RETIRED_FT, _RETIRED_PT),
                                    np.where(want_ft, _FULL_TIME, _PART_TIME))[started]
        b.hours[started] = hours[started]
        b.pink_slip[started] = False
        b.event[started] = Event.JOB_STARTED

    # -- wage and tracker phase -------------------------------------------

    def _update_wages_and_trackers(self, b: HouseholdBlock, shocks: np.ndarray, before: np.ndarray) -> None:
        """Age every living adult a quarter; step the potential wage (the
        relative log-wage AR(1) of :mod:`lifesim.wage`), the wage reduction,
        the paid wage and pension accrual, the work window and careers, the
        earnings-related benefit days, and the time in state."""
        rules = self.rules
        wp = self.wparams
        live = (b.state != _DEAD).nonzero()[0]
        if not live.size:
            return
        prev_age = b.age[live]
        b.age[live] = list(map(self._next_age, prev_age.tolist()))
        age = b.age[live]
        women, group = b.women[live], b.group[live]
        b.potential_wage[live] = potential_wage_columns(
            b.potential_wage[live], self.mean_wage(women, group, prev_age), self.mean_wage(women, group, age),
            wp, shocks[live])
        st = b.state[live]
        reduction = b.wage_reduction[live] = update_wage_reduction(b.wage_reduction[live], st, wp)
        hours = b.hours[live]
        worked = IS_WORKING[st]
        pays = worked & (hours > 0)
        paid = np.zeros(live.size)
        paid[pays] = paid_wage(b.potential_wage[live[pays]], hours[pays], reduction[pays])
        b.paid_wage[live] = paid
        pays = live[pays]
        b.prev_paid_wage[pays] = b.paid_wage[pays]
        accrues = pays[b.age[pays] < rules.pension.max_insured_age]
        b.pension_accrued[accrues] += rules.pension.accrual_rate * b.paid_wage[accrues] / 48.0

        # The work window: drop the oldest entry once it holds the rule's
        # number of quarters, append this quarter's.
        b.worked[live, :-1] = b.worked[live, 1:]
        b.window_wage[live, :-1] = b.window_wage[live, 1:]
        b.worked[live, -1] = worked
        b.window_wage[live, -1] = paid / 4.0
        length = b.window_len[live]
        b.window_len[live] = length + (length < b.worked.shape[1])
        b.career_quarters[live] += worked
        b.new_condition_quarters[live] += worked

        er = live[st == _ER_UNEMPLOYED]
        if er.size:
            b.ub_days_used[er] += BENEFIT_DAYS_PER_QUARTER
            spent = er[b.ub_days_used[er] >= b.ub_max_days[er]]
            extended_age = rules.unemployment.er.extended_min_age
            b.state[spent] = _BASIC_UNEMPLOYED if extended_age is None else np.where(
                b.age[spent] >= extended_age, _ER_EXTENDED, _BASIC_UNEMPLOYED)
        b.time_in_state[live] = np.where(b.state[live] == before[live], b.time_in_state[live] + DT, 0.0)

    # -- block stepping API -------------------------------------------------

    def advance_block(self, b: HouseholdBlock, actions, masks: np.ndarray) -> None:
        """The quarter's transition of every household of ``b``, without
        pricing or rewards.  ``actions`` holds one catalogue index per adult
        row, legal under ``masks`` for the pre-step state.  The event codes
        and birth flags are left on ``b``."""
        actions = np.asarray(actions, dtype=np.intp)
        legal = masks[b.rows, actions]
        if not legal.all():
            r = int((~legal).nonzero()[0][0])
            raise ContractViolation(f"illegal action {ACTIONS[actions[r]]} for state {STATES[b.state[r]].name} "
                                    f"(age {float(b.age[r])})")
        u, u_house, shocks = quarter_draws(b)
        before = b.state.copy()
        b.event[:] = 0
        mortality_phase(b)
        partnership_phase(b, self.tables, self._curve_cache, u_house[:, H_PARTNERSHIP])
        b.birth = fertility_phase(b, self.tables, self._curve_cache, u_house[:, H_BIRTH])
        if np.count_nonzero(b.birth):
            self._birth_consequences(b, u_house[:, H_FATHER_LEAVE])
        entries = _Entries(b.n)
        decide = self._exogenous(b, u, entries)
        self._decide(b, actions, decide, u, entries)
        self._enter_unemployment(b, entries)
        self._update_wages_and_trackers(b, shocks, before)
        b.quarter += 1

    def _age_static(self, b: HouseholdBlock) -> None:
        """A static quarter's state change: mortality, children ageing (and a
        birth still due), and a quarter more of age and of time in state."""
        mortality_phase(b)
        fertility_phase(b, self.tables, self._curve_cache, quarter_draws(b)[1][:, H_BIRTH])
        live = (b.state != _DEAD).nonzero()[0]
        b.age[live] = list(map(self._next_age, b.age[live].tolist()))
        b.time_in_state[live] += DT
        b.quarter += 1

    def static_block(self, b: HouseholdBlock) -> np.ndarray:
        """One post-decision quarter, states frozen except mortality, zero
        rewards.  Prices nothing: returns the households whose pricing
        inputs may have changed, those where a state or a child band changed
        or that were not priced since the freeze, and the caller prices the
        block again when there are any.  Nothing else the rules read moves in
        the static phase (they do not read age)."""
        before, bands = b.state.copy(), (b.under3, b.under7, b.under18)
        self._age_static(b)
        changed = b.stale | np.logical_or.reduceat(b.state != before, b.first)
        for old, new in zip(bands, (b.under3, b.under7, b.under18)):
            changed |= old != new
        b.stale[:] = False
        return changed.nonzero()[0]

    def freeze_block(self, b: HouseholdBlock) -> None:
        """At the decision horizon, living non-workers move to plain retirement."""
        self._start_pension(b, _FREEZE[b.state], _RETIRED)
        b.stale[:] = True

    def terminal_block(self, b: HouseholdBlock) -> np.ndarray:
        """Expected discounted static-phase utility of each adult at age 75
        (zero for the dead).

        The state is frozen (non-workers retired), flows are constant, and
        each agent discounts its own survival curve.  Used as the training
        episodes' terminal bonus; the simulator plays the phase out instead.
        """
        self.freeze_block(b)
        rewards = PricingLedger(self, rewards=True).price_alone(b)[2]
        rows = (b.state != _DEAD).nonzero()[0]
        values = np.zeros(b.n)
        for r, u_now in zip(rows.tolist(), rewards[rows].tolist()):
            total = 0.0
            for w in self._survival_weights("women" if b.women[r] else "men", float(b.age[r])):
                total += w * u_now
            values[r] = total
        return values

    def _survival_weights(self, gender: str, age: float) -> tuple[float, ...]:
        """``disc_k * survival_k`` for each static quarter k after ``age``:
        the step discount to the k-th power times the chance of living
        through quarter k, built once per (gender, age).  Adding
        ``w_k * u_now`` left to right gives the bits of accumulating
        ``disc_k * survival_k * u_now`` quarter by quarter, since that product
        groups as ``(disc_k * survival_k) * u_now``."""
        key = (gender, age)
        weights = self._survival_cache.get(key)
        if weights is None:
            gamma_q = self.uparams.step_discount
            survival = 1.0
            disc = 1.0
            weights = []
            for k in range(1, int((MAX_AGE - age) / DT) + 1):
                survival *= 1.0 - self.tables.mortality_quarterly(gender, age + k * DT)
                disc *= gamma_q
                weights.append(disc * survival)
            weights = self._survival_cache[key] = tuple(weights)
        return weights

    # -- one household: the block of one ------------------------------------

    def step(self, hh: HouseholdState, action_indices: tuple[int, ...], masks=None) -> StepOutcome:
        """Advance one household a quarter and price it: the quarter's
        rewards are its utility times DT for the living, zero for the dead.
        ``action_indices`` holds one catalogue index per adult slot; actions
        must be legal for the pre-step state.  Callers that already computed
        the legal masks can pass them in."""
        if len(action_indices) != len(hh.adults):
            raise ContractViolation("one action per adult slot required")
        if masks is None:
            masks = [legal_mask(a, hh, self.rules) for a in hh.adults]
        b = self.block([hh])
        self.advance_block(b, action_indices, np.asarray(masks, dtype=bool).reshape(b.n, -1))
        b.write_back([hh])
        return outcome(b, 0, *PricingLedger(self, rewards=True).price_alone(b), event_names(b, 0))

    def static_quarter(self, hh: HouseholdState, last: StepOutcome | None = None) -> StepOutcome:
        """:meth:`static_block` on one household.  ``last`` is its outcome
        from the previous static quarter, or None to price it again, and is
        returned as it is when the block prices nothing."""
        b = self.block([hh])
        b.stale[:] = last is None
        priced = self.static_block(b).size
        b.write_back([hh])
        if not priced:
            return last
        flows, consumption, _ = PricingLedger(self).price_alone(b)
        return outcome(b, 0, flows, consumption, np.zeros(b.n))

    def freeze_for_static_phase(self, hh: HouseholdState) -> None:
        """:meth:`freeze_block` on one household."""
        b = self.block([hh])
        self.freeze_block(b)
        b.write_back([hh])

    def terminal_value(self, hh: HouseholdState) -> tuple[float, ...]:
        """:meth:`terminal_block` on one household (which it freezes)."""
        b = self.block([hh])
        values = self.terminal_block(b)
        b.write_back([hh])
        return tuple(values.tolist())


class PricingLedger:
    """The one pricer of household blocks: quarters recorded as they run and
    priced together after.  The owner calls :meth:`price` once the ledger is
    :attr:`full` (it holds ``PRICING_ROWS`` unit rows) or when it needs the
    quarters: one ``rules.price_units`` call prices every recorded unit,
    then each unit's consumption is shared out and, with ``rewards``, each
    adult rewarded; :meth:`price_alone` does this for one quarter.  A unit's
    row has the same bits in any call, and utility is elementwise with a
    scalar ``math.log``, so each quarter gets the flows, consumption and
    rewards that pricing it alone gives.

    A recorded set is a float64 copy of a block's ``PRICING_INPUTS`` columns
    (``adult_columns`` returns views that the next quarter overwrites) and,
    with ``rewards``, of the other utility inputs (``women``, hours, age,
    pink slip and a child under 3 in the household), with its ``units`` and
    ``sharers``.  Each quarter names its set; sets may come from different
    blocks."""

    def __init__(self, env: LifecycleEnv, rewards: bool = False) -> None:
        self.env, self.rewards = env, rewards
        self.sets: list[tuple] = []
        self.quarters: list[int] = []
        self.rows = 0

    @property
    def full(self) -> bool:
        """Whether the recorded quarters hold ``PRICING_ROWS`` unit rows or more."""
        return self.rows >= PRICING_ROWS

    def record(self, b: HouseholdBlock, changed: bool = True) -> None:
        """Record ``b``'s quarter: its inputs when ``changed`` (or nothing is
        recorded), else the last recorded set again."""
        if changed or not self.sets:
            units = self.env.units(b)
            columns = [getattr(b, name) for name in PRICING_INPUTS]
            if self.rewards:
                columns += b.women, b.hours, b.age, b.pink_slip, b.under3[b.hh] > 0
            self.sets.append((np.array(columns, dtype=float), units, b.sharers))
            self.rows += len(units.first)
        self.quarters.append(len(self.sets) - 1)

    def price(self) -> tuple[np.ndarray, list[slice], list[np.ndarray], list[np.ndarray] | None]:
        """Every recorded quarter priced in one ``price_units`` call, each
        set's adult rows offset by the adult rows of the sets before it: the
        unit flows, each quarter's rows of them, its consumption per adult
        row (a unit's consumption shared equally by its living adults,
        ``sharers``; zero for the dead) and, with ``rewards``, its reward per
        adult row: utility times DT, zero for the dead.  Empties the ledger.
        Raises :class:`ContractViolation` when a living adult's unit consumes
        nothing or less, or, with ``rewards``, an age is outside the model's
        range."""
        inputs, units, sharers = zip(*self.sets)
        unit_starts = np.cumsum([0] + [len(u.first) for u in units]).tolist()
        starts = np.cumsum([0] + [x.shape[1] for x in inputs]).tolist()
        offset = np.repeat(starts[:-1], [len(u.first) for u in units])
        inputs = np.concatenate(inputs, axis=1)
        first, second, *rest = (np.concatenate(column) for column in zip(*units))
        flows = price_units(pricing_columns(inputs[0].astype(np.intp), *inputs[1:len(PRICING_INPUTS)]),
                            first + offset, np.where(second >= 0, second + offset, -1), *rest, self.env.rules)
        live = np.concatenate([s.rows + k for s, k in zip(sharers, starts)])
        shared = flows[np.concatenate([s.unit + k for s, k in zip(sharers, unit_starts)]), _CONSUMPTION]
        check_consumption(shared)
        consumption = np.zeros(starts[-1])
        consumption[live] = shared / np.concatenate([s.divisor for s in sharers])
        rewards = None
        if self.rewards:
            state, women, hours, age, pink_slip, child_under3 = inputs[_UTILITY_INPUTS][:, live]
            values = np.zeros(starts[-1])
            values[live] = self.env._utility.utility(consumption[live], state.astype(np.intp), women,
                                                     hours.astype(np.intp), age, pink_slip > 0, child_under3 > 0) * DT
            rewards = [values[starts[k]:starts[k + 1]] for k in self.quarters]
        rows = [slice(unit_starts[k], unit_starts[k + 1]) for k in self.quarters]
        consumption = [consumption[starts[k]:starts[k + 1]] for k in self.quarters]
        self.sets, self.quarters, self.rows = [], [], 0
        return flows, rows, consumption, rewards

    def price_alone(self, b: HouseholdBlock) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``b``'s quarter recorded into this empty ledger and priced: its
        unit flows (a row per unit of ``env.units``), and its consumption
        and, with ``rewards``, its reward per adult row."""
        self.record(b)
        flows, _, (consumption,), rewards = self.price()
        return flows, consumption, None if rewards is None else rewards[0]
