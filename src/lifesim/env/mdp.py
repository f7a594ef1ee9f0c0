"""The quarterly household decision process, stepped a block at a time.

One quarter runs, in order: the fixed draws, demographic events (deaths,
marriage and divorce, births and the parental leaves they start), exogenous
employment transitions, decisions with job-search friction, wage and tracker
updates, then the rules-engine cash flows and per-agent rewards.  Every
phase runs over the columns of a :class:`~lifesim.agent.HouseholdBlock`
(one row per adult, in household then slot order), repeating the per-agent
formulas operation for operation:

* Draw order.  Each household owns its ``rng_exo`` and draws, every
  quarter, ``standard_normal(2)`` (the slots' wage shocks), ``random(12)``
  (five uniforms per slot, then the household's), then only what events
  trigger: partnership, fertility, adult 0's spell draws, adult 1's.  Phases
  loop in Python over just the households or adults that draw, so every
  stream is the one the household would draw if stepped alone.
* Scalar where bits differ.  ``math.log``/``math.exp`` run on each value of
  a column, ages advance by Python's ``round(x, 6)``, and the wage profile
  is ``WageParams.mean_wage``, memoised by gender, group and quarter of age.
  Sums over a work window, a unit's adults or a block's flow rows keep
  Python's left-to-right order.
* Other loops run over the adults entering unemployment with a new benefit
  basis, the job searches from outside work, and the budget units, which
  the scalar ``rules.engine.price_unit`` prices one at a time.

``LifecycleEnv.step``, ``static_quarter``, ``freeze_for_static_phase`` and
``terminal_value`` are the block of one household: pack, run the block
phase, write back into the same records.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import SimpleNamespace

import numpy as np

from ..agent import DT, MAX_AGE, NO_EVENT, STATES, HouseholdBlock, HouseholdState
from ..errors import ContractViolation
from ..population import DemographicTables, draw_geometric, fertility_phase, mortality_phase, partnership_phase
from ..rules import AdultSnapshot, CashFlows, HouseholdSnapshot, entitlement_days, price_unit
# ``net_income`` (the snapshot API) stays a module name here for the traced
# benchmark run (lifebench/layers.py), which wraps it where callers used to
# look it up.
from ..rules import net_income  # noqa: F401
from ..rules.ruleset import BENEFIT_DAYS_PER_QUARTER, RuleSet
from ..states import LEAVE_STATES, PENSION_STATES, RETIRED_STATES, UNEMPLOYMENT_STATES, WORKING_STATES
from ..states import EmploymentState as S
from ..wage import WageParams, paid_wage, potential_wage_columns, update_wage_reduction
# ``legal_mask`` (one adult) stays a module name here for the traced run.
from .actions import ACTIONS, Decision, legal_mask  # noqa: F401
from .utility import UtilityColumns, UtilityParams

DECISION_END_AGE = 75.0

# Per-adult uniform slots inside the fixed quarterly draw vector.
_U_LAYOFF, _U_SICK, _U_MISC, _U_FRICTION, _U_SPARE = range(5)


def _table(states) -> np.ndarray:
    """A flag per state code: whether the state is in ``states``."""
    return np.array([s in states for s in S])


# State and decision codes as plain ints: numpy compares an array with an
# IntEnum member several times slower than with an int.
(_FULL_TIME, _PART_TIME, _ER_UNEMPLOYED, _BASIC_UNEMPLOYED, _ER_EXTENDED, _RETIRED, _RETIRED_PT, _RETIRED_FT,
 _DISABLED, _MOTHERS_LEAVE, _FATHERS_LEAVE, _HOME_CARE, _STUDENT, _OUTSIDE_WF, _SICK_LEAVE, _DEAD) = map(int, S)
_STAY, _WORK_PT, _WORK_FT, _QUIT, _RETIRE, _PARTIAL_25, _PARTIAL_50, _HOME_CARE_DECISION = map(int, Decision)

_IS_WORKING = _table(WORKING_STATES)
_IS_RETIRED = _table(RETIRED_STATES)
_IS_PENSION = _table(PENSION_STATES)
_IS_LEAVE = _table(LEAVE_STATES)
# Past the retirement age: retired at once, or through unemployment first.
_AUTO_RETIRE = _table({S.ER_UNEMPLOYED, S.BASIC_UNEMPLOYED, S.ER_EXTENDED, S.SICK_LEAVE})
_RETIRE_VIA_UNEMPLOYMENT = _table({S.OUTSIDE_WF, S.STUDENT, S.HOME_CARE})
_SICK_ONSET = _table((WORKING_STATES | UNEMPLOYMENT_STATES) - RETIRED_STATES)
_WORKING_RETIRED = _table({S.RETIRED_PT, S.RETIRED_FT})
_FULL_TIME_STATES = _table({S.FULL_TIME, S.RETIRED_FT})
# Living non-workers move to plain retirement at the decision horizon.
_FREEZE = ~_table(WORKING_STATES | {S.RETIRED, S.DISABLED, S.DEAD})
# The states a drawn student or outside-the-work-force spell starts from.
_SPELL_ENTRY = frozenset(map(int, (S.FULL_TIME, S.PART_TIME, S.ER_UNEMPLOYED, S.BASIC_UNEMPLOYED, S.ER_EXTENDED)))
_RETIRED_OR_LEFT = frozenset(map(int, RETIRED_STATES | {S.DISABLED, S.DEAD}))


_DECISION = np.array([int(a.decision) for a in ACTIONS])
_ACTION_HOURS = np.array([a.hours for a in ACTIONS])
_NO_CHILDREN = (0, 0, 0)


# Event codes (``HouseholdBlock.event``): at most one exogenous or decision
# event per adult and quarter, named ``EVENTS[code]``, plus the
# ``PARENTAL_LEAVE`` bit when a birth started the adult's leave (named
# ``mothers_leave`` or ``fathers_leave``).
EVENTS = ("", "auto_retire", "auto_retire_via_unemployment", "disability", "disability_after_sick", "studies_end",
          "outside_end", "layoff", "sick_onset", "student_entry", "outside_entry", "partial_early", "quit",
          "search_failed", "job_started")
Event = SimpleNamespace(PARENTAL_LEAVE=16, **{name.upper(): code for code, name in enumerate(EVENTS) if name})


@dataclass(slots=True)
class StepOutcome:
    rewards: tuple[float, ...]
    consumptions: tuple[float, ...]
    flows: list[CashFlows]
    events: tuple[str, ...]


def outcome(b: HouseholdBlock, h: int, events: tuple[str, ...] = ()) -> StepOutcome:
    rows = slice(int(b.first[h]), int(b.first[h] + b.size[h]))
    return StepOutcome(rewards=tuple(b.reward[rows].tolist()), consumptions=tuple(b.consumption[rows].tolist()),
                       flows=list(b.flows[h]), events=events)


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

    def __getstate__(self) -> dict:
        """The bundle without its derived tables, which are rebuilt on first use."""
        return {k: self.__dict__[k] for k in ("rules", "uparams", "wparams", "tables", "_survival_cache")}

    # -- derived tables, built on first use ---------------------------------

    @cached_property
    def _utility(self) -> UtilityColumns:
        return UtilityColumns(self.uparams, self.rules.pension.min_retirement_age, self.rules.year)

    @cached_property
    def _wage_profile(self) -> np.ndarray:
        """``mean_wage`` by [women, group, quarter of age from 18], NaN until used."""
        return np.full((2, 3, int((MAX_AGE - 18.0) / DT) + 1), np.nan)

    @cached_property
    def _job_find_prob(self):
        return lru_cache(maxsize=None)(self.tables.job_find_prob)

    @cached_property
    def _rent(self):
        return lru_cache(maxsize=None)(self.rules.rent_for_size)

    @cached_property
    def _next_age(self):
        """Python's ``round(age + DT, 6)``, memoised."""
        return lru_cache(maxsize=None)(lambda age: round(age + DT, 6))

    def _mean_wage(self, women: np.ndarray, group: np.ndarray, age: np.ndarray) -> np.ndarray:
        """``WageParams.mean_wage`` of every row, memoised on the quarter grid."""
        table = self._wage_profile
        k = (age - 18.0) * 4.0
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

    def block(self, households: list[HouseholdState]) -> HouseholdBlock:
        """The block of ``households``, its work window as long as the rules'."""
        return HouseholdBlock.of(households, self.rules.unemployment.er.condition_window_quarters)

    # -- budget units and cash flows --------------------------------------

    def unit_groups(self, b: HouseholdBlock, households
                    ) -> list[list[tuple[tuple[int, ...], list[int], tuple[int, int, int], float]]]:
        """The budget units of each of ``households`` as (adult rows, living
        rows, child bands, monthly rent), in slot order: a partnered pair
        (a dead partner included, for the survivor's pension), else each
        living adult, the custodian (the mother while alive, else the first
        living adult) with the children.  Rent is sized by living adults plus children."""
        rent = self._rent
        state, partnered, mother = b.state.tolist(), b.partnered.tolist(), b.mother.tolist()
        bands = list(zip(b.under3.tolist(), b.under7.tolist(), b.under18.tolist()))
        out = []
        for h in households:
            rows = b.household_rows[h]
            alive = [r for r in rows if state[r] != _DEAD]
            band = bands[h]
            if partnered[h] and len(rows) == 2:
                out.append([(rows, alive, band, rent(len(alive) + band[2]))])
                continue
            m = mother[h]
            custodian = m if m >= 0 and state[m] != _DEAD else next(iter(alive), None)
            out.append([((r,), [r], band, rent(1 + band[2])) if r == custodian else
                        ((r,), [r], _NO_CHILDREN, rent(1)) for r in alive])
        return out

    @staticmethod
    def pricing_rows(b: HouseholdBlock) -> list[tuple]:
        """Every adult's :class:`AdultSnapshot` fields in declaration order.
        A paid wage counts only in a working state."""
        st = b.state
        return list(zip([STATES[code] for code in st.tolist()],
                        np.where(_IS_WORKING[st], b.paid_wage / 4.0, 0.0).tolist(), b.age.tolist(),
                        b.ub_basis.tolist(), b.ub_days_used.tolist(), b.ub_max_days.tolist(),
                        b.fund_member.tolist(), b.pension_paid.tolist(), b.pension_accrued.tolist(),
                        b.partial_early_paid.tolist(), (b.prev_paid_wage / 12.0).tolist()))

    def unit_snapshots(self, b: HouseholdBlock, h: int, rows: list[tuple]
                       ) -> list[tuple[HouseholdSnapshot, tuple[int, ...]]]:
        """Each budget unit of household ``h`` (:meth:`unit_groups`) as its
        snapshot and its adult rows; ``rows`` are :meth:`pricing_rows`."""
        return [(HouseholdSnapshot(
            adults=tuple(AdultSnapshot(*rows[r]) for r in unit),
            children_under3=u3, children_under7=u7, children_under18=u18,
            partnered=bool(b.partnered[h]) and len(alive) == 2, rent_monthly=rent,
        ), unit) for unit, alive, (u3, u7, u18), rent in self.unit_groups(b, [h])[0]]

    def price(self, b: HouseholdBlock, households) -> None:
        """Price every budget unit of ``households`` into ``b.flows`` and
        each adult's consumption: a unit's consumption is shared equally by
        its living adults, and an adult in no unit consumes nothing."""
        rules = self.rules
        rows = self.pricing_rows(b)
        consumption = b.consumption.tolist()
        for h, units in zip(households, self.unit_groups(b, households)):
            for r in b.household_rows[h]:
                consumption[r] = 0.0
            flows = []
            for unit, alive, (u3, u7, u18), rent in units:
                cf = price_unit([rows[r] for r in unit], u3, u7, u18, rent, rules)
                flows.append(cf)
                for r in alive:
                    consumption[r] = cf.consumption / len(alive)
            b.flows[h] = flows
        b.consumption[:] = consumption

    def budget_units(self, hh: HouseholdState) -> list[tuple[HouseholdSnapshot, tuple[int, ...]]]:
        """Each budget unit of ``hh`` as its snapshot and the adult slots it covers."""
        b = self.block([hh])
        return self.unit_snapshots(b, 0, self.pricing_rows(b))

    def household_flows(self, hh: HouseholdState) -> tuple[list[CashFlows], list[float]]:
        """Cash flows per budget unit and consumption per adult slot of ``hh``."""
        b = self.block([hh])
        self.price(b, [0])
        return b.flows[0], b.consumption.tolist()

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
            basis = sum(wages) / len(wages) / 3.0 if wages else 0.0
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
            disabled = fired & ~_IS_PENSION[st]
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
            disabled = maxed & (u[:, _U_MISC] < exo.disability_after_sick)
            self._start_pension(b, disabled, _DISABLED)
            b.event[disabled] = Event.DISABILITY_AFTER_SICK
            b.returning[(maxed & ~disabled) | (spell & ~maxed & (u[:, _U_MISC] >= exo.sick_continue_quarterly))] = True
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

        laid_off = pending & _IS_WORKING[st] & (u[:, _U_LAYOFF] < exo.layoff_quarterly)
        if np.count_nonzero(laid_off):
            retired = laid_off & _WORKING_RETIRED[st]
            b.stop_work(retired, _RETIRED)
            entries.add(laid_off & ~retired, eligible=True, pink_slip=True)
            b.event[laid_off] = Event.LAYOFF
            pending &= ~laid_off

        onset = pending & _SICK_ONSET[st] & (u[:, _U_SICK] < exo.sick_onset_quarterly)
        if np.count_nonzero(onset):
            b.stop_work(onset, _SICK_LEAVE)
            b.sick_quarters[onset] = 0
            b.event[onset] = Event.SICK_ONSET
            pending &= ~onset

        # A fired clock starts its spell (the length drawn first), then
        # redraws itself whether or not the spell could start.
        for r in (pending & ((b.until_student == 0) | (b.until_outsider == 0))).nonzero()[0].tolist():
            rng = b.rng_exo[b.hh[r]]
            if b.until_student[r] == 0:
                started = self._start_spell(b, r, _STUDENT, exo.student_spell_end_quarterly,
                                            Event.STUDENT_ENTRY, rng)
                b.until_student[r] = draw_geometric(exo.student_entry_quarterly, rng, cap=10_000)
                if started:
                    pending[r] = False
                    continue
            if b.until_outsider[r] == 0:
                started = self._start_spell(b, r, _OUTSIDE_WF, exo.outsider_spell_end_quarterly,
                                            Event.OUTSIDE_ENTRY, rng)
                b.until_outsider[r] = draw_geometric(exo.outsider_entry_quarterly, rng, cap=10_000)
                pending[r] = not started
        return decide | pending

    @staticmethod
    def _start_spell(b: HouseholdBlock, r: int, state: int, end_rate: float, event: int, rng) -> bool:
        """Start a ``state`` spell of geometric length with quarterly end
        rate ``end_rate`` at row ``r``; False when the adult is in no state
        it starts from."""
        if int(b.state[r]) not in _SPELL_ENTRY:
            return False
        b.stop_work(r, state)
        b.spell_left[r] = draw_geometric(end_rate, rng)
        b.event[r] = event
        return True

    def _birth_consequences(self, b: HouseholdBlock, u_house: np.ndarray) -> None:
        """A birth starts the mother's leave, and the father's with some
        chance when the pair is partnered, unless the parent is dead,
        retired, disabled or already on a leave."""
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
                    and u_house[h] < exo.father_leave_at_birth):
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
        working = _IS_WORKING[st]
        # Without friction: a returning adult, or a worker keeping the hours class.
        success = returning | (working & (want_ft == _FULL_TIME_STATES[st]))
        search = self.tables.job_search
        success |= working & (u[:, _U_FRICTION] < search.switch_ft_pt)
        for r in (work & ~success & ~working).nonzero()[0].tolist():
            gender, group, age = "women" if b.women[r] else "men", int(b.group[r]), float(b.age[r])
            kind = "full_time" if want_ft[r] else "part_time"
            success[r] = u[r, _U_FRICTION] < self._job_find_prob(kind, gender, group, age)
            if not success[r] and want_ft[r]:
                # A failed full-time search may still land part time.
                if u[r, _U_SPARE] < search.pt_on_failed_ft * self._job_find_prob("part_time", gender, group, age):
                    success[r], want_ft[r], hours[r] = True, False, 24
        failed = work & ~success
        entries.add(failed & returning, eligible=True)
        b.event[failed] = Event.SEARCH_FAILED
        started = work & success
        b.state[started] = np.where(_IS_RETIRED[st], np.where(want_ft, _RETIRED_FT, _RETIRED_PT),
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
            b.potential_wage[live], self._mean_wage(women, group, prev_age), self._mean_wage(women, group, age),
            wp, shocks[live], dt=DT)
        st = b.state[live]
        reduction = b.wage_reduction[live] = update_wage_reduction(b.wage_reduction[live], st, wp, dt=DT)
        hours = b.hours[live]
        worked = _IS_WORKING[st]
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

    # -- rewards ------------------------------------------------------------

    def _rewards(self, b: HouseholdBlock, rows: np.ndarray) -> np.ndarray:
        """One quarter's utility of the living adult ``rows``, times DT."""
        return self._utility.utility(b.consumption[rows], b.state[rows], b.women[rows], b.hours[rows], b.age[rows],
                                     b.pink_slip[rows], b.under3[b.hh[rows]] > 0) * DT

    # -- block stepping API -------------------------------------------------

    def step_block(self, b: HouseholdBlock, actions, masks: np.ndarray) -> None:
        """Advance every household of ``b`` one quarter.  ``actions`` holds
        one catalogue index per adult row, legal under ``masks`` for the
        pre-step state.  The quarter's rewards, consumptions, flows, event
        codes and birth flags are left on ``b``."""
        actions = np.asarray(actions, dtype=np.intp)
        legal = masks[b.rows, actions]
        if not legal.all():
            r = int((~legal).nonzero()[0][0])
            raise ContractViolation(f"illegal action {ACTIONS[actions[r]]} for state {STATES[b.state[r]].name} "
                                    f"(age {float(b.age[r])})")
        draws = np.empty((b.m, 14))
        for h, rng in enumerate(b.rng_exo):
            rng.standard_normal(out=draws[h, :2])
            rng.random(out=draws[h, 2:])
        shocks = draws[b.hh, b.slot]
        u = draws[:, 2:12].reshape(b.m, 2, 5)[b.hh, b.slot]

        before = b.state.copy()
        b.event[:] = 0
        mortality_phase(b)
        partnership_phase(b, self.tables)
        b.birth = fertility_phase(b, self.tables)
        if np.count_nonzero(b.birth):
            self._birth_consequences(b, draws[:, 12])
        entries = _Entries(b.n)
        decide = self._exogenous(b, u, entries)
        self._decide(b, actions, decide, u, entries)
        self._enter_unemployment(b, entries)
        self._update_wages_and_trackers(b, shocks, before)

        self.price(b, range(b.m))
        live = (b.state != _DEAD).nonzero()[0]
        b.reward[:] = 0.0
        b.reward[live] = self._rewards(b, live)

    def _age_static(self, b: HouseholdBlock) -> None:
        """A static quarter's state change: mortality, children ageing (no
        births past 75), and a quarter more of age and of time in state."""
        mortality_phase(b)
        fertility_phase(b, self.tables)
        live = (b.state != _DEAD).nonzero()[0]
        b.age[live] = list(map(self._next_age, b.age[live].tolist()))
        b.time_in_state[live] += DT

    def static_block(self, b: HouseholdBlock) -> np.ndarray:
        """One post-decision quarter, states frozen except mortality, zero
        rewards; returns the households priced again: those where a state or
        a child band changed or not priced since the freeze.  Nothing else
        the rules read moves in the static phase (they do not read age)."""
        before, bands = b.state.copy(), (b.under3, b.under7, b.under18)
        self._age_static(b)
        changed = b.stale | np.logical_or.reduceat(b.state != before, b.first)
        for old, new in zip(bands, (b.under3, b.under7, b.under18)):
            changed |= old != new
        households = changed.nonzero()[0]
        if households.size:
            self.price(b, households.tolist())
        b.stale[:] = False
        b.reward[:] = 0.0
        return households

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
        self.price(b, range(b.m))
        rows = (b.state != _DEAD).nonzero()[0]
        values = np.zeros(b.n)
        for r, u_now in zip(rows.tolist(), self._rewards(b, rows).tolist()):
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
        """Advance one household a quarter.  ``action_indices`` holds one
        catalogue index per adult slot; actions must be legal for the
        pre-step state.  Callers that already computed the legal masks can
        pass them in."""
        if len(action_indices) != len(hh.adults):
            raise ContractViolation("one action per adult slot required")
        if masks is None:
            masks = [legal_mask(a, hh, self.rules) for a in hh.adults]
        b = self.block([hh])
        self.step_block(b, action_indices, np.asarray(masks, dtype=bool).reshape(b.n, -1))
        b.write_back([hh])
        return outcome(b, 0, event_names(b, 0))

    def static_quarter(self, hh: HouseholdState, last: StepOutcome | None = None) -> StepOutcome:
        """One post-decision quarter of ``hh``; ``last`` is its outcome from
        the previous static quarter, or None, and is returned as it is when
        no adult's state and no child band changed (see :meth:`static_block`)."""
        states, bands = [a.state for a in hh.adults], hh.bands
        b = self.block([hh])
        self._age_static(b)
        b.write_back([hh])
        if last is not None and hh.bands == bands and states == [a.state for a in hh.adults]:
            return last
        flows, consumptions = self.household_flows(hh)
        return StepOutcome(rewards=(0.0,) * len(hh.adults), consumptions=tuple(consumptions),
                           flows=flows, events=())

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
