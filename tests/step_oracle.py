"""The per-household quarter step, as ``lifesim.env.mdp`` ran it before the
block step: one household at a time, phase by phase, with the scalar wage
and utility functions it called, and the per-record demographic events that
``lifesim.population``'s block phases replaced.  Their clocks are drawn by
the survival loop below; production draws them on failure curves cached per
hazard and start age, which must give the same clock on every draw.  A
household reads its quarter's row of its keyed life draws
(``population_oracle.life_draws``) at the documented slots, and each
quarter moves its ``quarter`` on.

``tests/test_step_oracle.py`` asserts that ``LifecycleEnv.advance_block``
with the pricing and rewards after it (``train_oracle.step_block``),
``static_block``, ``freeze_block`` and ``terminal_block`` leave every field,
flow, reward and quarter bit for bit where this step leaves them.
Pricing goes through the production ``price_unit``, which
``tests/test_engine_oracle.py`` checks against ``tests/rules_oracle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lifesim.agent import DT, MAX_AGE, NO_EVENT, AgentState, HouseholdState, child_bands
from lifesim.env.actions import ACTIONS, Action, Decision, legal_mask
from lifesim.errors import ContractViolation
from lifesim.population import DemographicTables, draw_geometric
from lifesim.rules import AdultSnapshot, CashFlows, HouseholdSnapshot, entitlement_days, price_unit
from lifesim.rules.ruleset import BENEFIT_DAYS_PER_QUARTER
from lifesim.states import (
    ALLOWED_HOURS,
    LEAVE_STATES,
    PENSION_STATES,
    RETIRED_STATES,
    UNEMPLOYMENT_STATES,
    WORKING_STATES,
    EmploymentState as S,
)
from lifesim.env.utility import UtilityParams
from lifesim.wage import WageParams
from population_oracle import life_draws, mother_of

DECISION_END_AGE = 75.0
LIFE_QUARTERS = int((MAX_AGE - 18.0) / DT)

# Per-adult uniform slots inside a quarter's row of the life draws (nine
# per slot), then the household's three.
(_U_LAYOFF, _U_SICK, _U_MISC, _U_FRICTION, _U_SPARE, _U_STUDENT_SPELL, _U_STUDENT_CLOCK, _U_OUTSIDER_SPELL,
 _U_OUTSIDER_CLOCK) = range(9)
_U_FATHER_LEAVE, _U_PARTNERSHIP, _U_BIRTH = 18, 19, 20


def quarter_draws(hh: HouseholdState) -> tuple[list[float], list[float]]:
    """The 21 uniforms and 2 normals of ``hh``'s current quarter."""
    u, z = life_draws(*hh.key, max(LIFE_QUARTERS, hh.quarter + 1))
    return u[hh.quarter].tolist(), z[hh.quarter].tolist()

# The states a drawn student or outside-the-work-force spell starts from.
_SPELL_ENTRY_STATES = frozenset({
    S.FULL_TIME, S.PART_TIME, S.ER_UNEMPLOYED, S.BASIC_UNEMPLOYED, S.ER_EXTENDED})

_FULL_TIME, _PART_TIME, _RETIRED, _RETIRED_PT, _RETIRED_FT = (
    S.FULL_TIME, S.PART_TIME, S.RETIRED, S.RETIRED_PT, S.RETIRED_FT)
_ER_UNEMPLOYED, _ER_EXTENDED, _BASIC_UNEMPLOYED = S.ER_UNEMPLOYED, S.ER_EXTENDED, S.BASIC_UNEMPLOYED
_DISABLED, _SICK_LEAVE, _HOME_CARE, _STUDENT, _OUTSIDE_WF = (
    S.DISABLED, S.SICK_LEAVE, S.HOME_CARE, S.STUDENT, S.OUTSIDE_WF)
_STAY, _RETIRE, _QUIT, _HOME_CARE_DECISION, _WORK_FT = (
    Decision.STAY, Decision.RETIRE, Decision.QUIT, Decision.HOME_CARE, Decision.WORK_FT)
_PARTIAL_25 = Decision.PARTIAL_25
_PARTIAL_DECISIONS = frozenset({Decision.PARTIAL_25, Decision.PARTIAL_50})
_WORK_DECISIONS = frozenset({Decision.WORK_FT, Decision.WORK_PT})
_AUTO_RETIRE_STATES = frozenset({S.ER_UNEMPLOYED, S.BASIC_UNEMPLOYED, S.ER_EXTENDED, S.SICK_LEAVE})
_RETIRE_VIA_UNEMPLOYMENT = frozenset({S.OUTSIDE_WF, S.STUDENT, S.HOME_CARE})
_SICK_ONSET_STATES = (WORKING_STATES | UNEMPLOYMENT_STATES) - RETIRED_STATES
_WORKING_RETIRED = frozenset({S.RETIRED_PT, S.RETIRED_FT})
_FULL_TIME_STATES = frozenset({S.FULL_TIME, S.RETIRED_FT})


def _stop_work(a: AgentState, state: S) -> None:
    """Move to the non-working ``state``: no hours, no paid wage."""
    a.state = state
    a.hours = 0
    a.paid_wage = 0.0


def condition_quarters(a: AgentState) -> int:
    return sum(worked for worked, _ in a.work_window)


def _condition_wage_monthly(a: AgentState) -> float:
    wages = [w for worked, w in a.work_window if worked]
    if not wages:
        return 0.0
    return sum(wages) / len(wages) / 3.0


# ---------------------------------------------------------------------------
# Demographic events, one household record at a time.  A clock is drawn by
# walking the survival product quarter by quarter until the failure
# probability reaches one uniform.
# ---------------------------------------------------------------------------

def draw_event_time(hazard_at, age: float, u: float, horizon_q: int) -> int:
    survival = 1.0
    for k in range(1, horizon_q + 1):
        survival *= 1.0 - hazard_at(age + k * DT)
        if 1.0 - survival >= u:
            return k
    return NO_EVENT


def partnership_events(hh: HouseholdState, tables: DemographicTables, u: float) -> None:
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
            hh.until_divorce = draw_event_time(tables.divorce_quarterly, youngest, u,
                                               int((MAX_AGE - youngest) / DT))
        hh.until_marriage = NO_EVENT
    elif hh.partnered and hh.until_divorce == 0 and a.alive and b.alive:
        hh.partnered = False
        hh.until_divorce = NO_EVENT
        hh.until_marriage = draw_event_time(tables.marriage_quarterly, youngest, u,
                                            int((MAX_AGE - youngest) / DT))


def fertility_events(hh: HouseholdState, tables: DemographicTables, u: float) -> bool:
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
            hh.until_birth = draw_event_time(tables.fertility_quarterly, mother.age, u, horizon)
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


# ---------------------------------------------------------------------------
# Wages.
# ---------------------------------------------------------------------------

def potential_wage_step(
    prev_wage: float,
    prev_age: float,
    age: float,
    gender: str,
    group: int,
    params: WageParams,
    shock: float,
    dt: float = 1.0,
) -> float:
    """One step of the relative log-wage AR(1).

    ``shock`` is a standard-normal draw supplied by the caller so parallel
    agents can use independent, seedable streams.
    """
    a_prev = params.mean_wage(gender, group, prev_age)
    a_now = params.mean_wage(gender, group, age)
    c = params.autocorr ** dt
    sd = params.shock_sd * math.sqrt(dt)
    x = c * math.log(prev_wage / a_prev) + sd * shock - 0.5 * sd * sd
    return a_now * math.exp(x)


def paid_wage(potential_annual: float, hours: int, reduction: float) -> float:
    """Paid annual wage: (hours/40) * potential * (1 - reduction)."""
    if hours not in ALLOWED_HOURS:
        raise ContractViolation(f"weekly hours must be one of {ALLOWED_HOURS}, got {hours}")
    return (hours / 40.0) * potential_annual * (1.0 - reduction)


def update_wage_reduction(
    reduction: float,
    state: S,
    params: WageParams,
    dt: float = 0.25,
) -> float:
    """Move the wage reduction by the state's net annual rate over ``dt``."""
    rate = params.reduction_annual[state] - params.recovery_annual[state]
    return min(1.0, max(0.0, reduction + rate * dt))


# ---------------------------------------------------------------------------
# Utility.
# ---------------------------------------------------------------------------

def kappa(
    state: S,
    gender: str,
    hours: int,
    age: float,
    pink_slip: bool,
    has_child_under3: bool,
    params: UtilityParams,
) -> float:
    row = params.kappa[gender]
    if state in WORKING_STATES:
        k = row.work_hours[hours]
    elif state in UNEMPLOYMENT_STATES:
        if pink_slip:
            k = 0.0
        else:
            young_cut, elderly_cut = params.unemployed_age_cuts
            if age < young_cut:
                k = row.unemployed_young
            elif age < elderly_cut:
                k = row.unemployed_middle
            else:
                k = row.unemployed_elderly
    elif state is S.SICK_LEAVE:
        k = row.sick_leave
    elif state is S.STUDENT:
        k = row.student
    elif state in (S.RETIRED, S.DISABLED):
        k = row.retired
    elif state is S.HOME_CARE:
        k = row.home_care
    elif state in (S.MOTHERS_LEAVE, S.FATHERS_LEAVE):
        k = row.parental_leave
    elif state is S.OUTSIDE_WF:
        k = row.outside_wf
    else:
        k = 0.0
    if has_child_under3:
        k += row.child_under3_bonus
    return k


def mu_term(
    age: float,
    gender: str,
    hours: int,
    retirement_age: float,
    params: UtilityParams,
) -> float:
    """Retirement-proximity leisure preference; zero when not working."""
    if not 18.0 <= age <= 100.0:
        raise ContractViolation(f"age {age} outside model range")
    if hours <= 0:
        return 0.0
    p = params.mu[gender]
    s_age = retirement_age + p.s_age_offset
    s_ret = retirement_age + p.s_ret_offset
    h = hours / 40.0
    return p.q1 * h * max(0.0, min(age, retirement_age) - s_age) + p.q2 * h * max(
        0.0, min(age, s_ret) - retirement_age
    )


def utility(
    consumption_quarterly: float,
    state: S,
    gender: str,
    hours: int,
    age: float,
    pink_slip: bool,
    has_child_under3: bool,
    retirement_age: float,
    params: UtilityParams,
    year: int | None = None,
) -> float:
    """One-quarter utility for one agent (not yet scaled by dt)."""
    if state is S.DEAD:
        return 0.0
    if consumption_quarterly <= 0.0:
        raise ContractViolation(
            "living agents must have positive consumption; the social assistance floor should prevent this"
        )
    c_annual = 4.0 * consumption_quarterly
    k = kappa(state, gender, hours, age, pink_slip, has_child_under3, params)
    m = mu_term(age, gender, hours, retirement_age, params)
    return math.log(c_annual / params.deflator.at(year)) + k - m


# ---------------------------------------------------------------------------
# The step.
# ---------------------------------------------------------------------------

_NO_CHILDREN = (0, 0, 0)


def agent_row(a: AgentState) -> tuple:
    """The pricing row of ``a``: its :class:`AdultSnapshot` fields, in
    declaration order.  A paid wage counts only in a working state."""
    st = a.state
    return (st, a.paid_wage / 4.0 if st in WORKING_STATES else 0.0, a.age, a.ub_basis, a.ub_days_used,
            a.ub_max_days, a.fund_member, a.pension_paid, a.pension_accrued, a.partial_early_paid,
            a.prev_paid_wage / 12.0)


@dataclass(slots=True)
class StepOutcome:
    rewards: tuple[float, ...]
    consumptions: tuple[float, ...]
    flows: list[CashFlows]
    events: tuple[str, ...]


class OracleEnv:
    """The per-household step, on the tables of a ``LifecycleEnv``."""

    def __init__(self, env) -> None:
        self.rules = env.rules
        self.uparams = env.uparams
        self.wparams = env.wparams
        self.tables = env.tables
        self._survival_cache: dict[tuple[str, float], tuple[float, ...]] = {}

    # -- budget units and cash flows --------------------------------------

    def unit_groups(self, hh: HouseholdState
                    ) -> list[tuple[tuple[int, ...], list[int], tuple[int, int, int], float]]:
        """The budget units of ``hh`` as (adult slots, living slots among
        them, child bands, monthly rent), in slot order.  A partnered pair is
        one unit, a dead partner included (for the survivor's pension);
        otherwise each living adult is a unit, and the custodian (the mother
        while she is alive, else the first living adult) has the children.
        Rent is sized by the unit's living adults plus its children."""
        adults = hh.adults
        rent_for_size = self.rules.rent_for_size
        if len(adults) == 2 and hh.partnered:
            alive = [i for i in (0, 1) if adults[i].alive]
            return [((0, 1), alive, hh.bands, rent_for_size(len(alive) + hh.bands[2]))]
        mother = mother_of(hh)
        custodian = mother if mother is not None and mother.alive else next(
            (a for a in adults if a.alive), None)
        units = []
        for i, a in enumerate(adults):
            if a.alive:
                bands = hh.bands if a is custodian else _NO_CHILDREN
                units.append(((i,), [i], bands, rent_for_size(1 + bands[2])))
        return units

    def budget_units(self, hh: HouseholdState) -> list[tuple[HouseholdSnapshot, tuple[int, ...]]]:
        """Each budget unit of ``hh`` (see :meth:`unit_groups`) as its
        snapshot and the adult slots it covers, in slot order: the units
        :meth:`household_flows` prices."""
        adults = hh.adults
        return [(HouseholdSnapshot(
            adults=tuple(AdultSnapshot(*agent_row(adults[i])) for i in slots),
            children_under3=u3, children_under7=u7, children_under18=u18,
            partnered=hh.partnered and len(alive) == 2, rent_monthly=rent,
        ), slots) for slots, alive, (u3, u7, u18), rent in self.unit_groups(hh)]

    def household_flows(self, hh: HouseholdState) -> tuple[list[CashFlows], list[float]]:
        """Cash flows per budget unit and consumption per adult slot: a unit's
        consumption is shared equally by its living adults.  Each unit is
        priced from rows read straight from the agents' state."""
        rules = self.rules
        adults = hh.adults
        consumptions = [0.0] * len(adults)
        flows: list[CashFlows] = []
        for slots, alive, (u3, u7, u18), rent in self.unit_groups(hh):
            cf = price_unit([agent_row(adults[i]) for i in slots], u3, u7, u18, rent, rules)
            flows.append(cf)
            for i in alive:
                consumptions[i] = cf.consumption / len(alive)
        return flows, consumptions

    # -- unemployment entry and benefit bookkeeping ---------------------

    def _enter_unemployment(self, a: AgentState, eligible: bool, pink_slip: bool) -> None:
        rules = self.rules
        a.pink_slip = pink_slip
        state = _BASIC_UNEMPLOYED
        cond_q = condition_quarters(a)
        threshold_q = max(1, rules.unemployment.er.condition_months // 3)
        if eligible and a.fund_member and cond_q >= threshold_q:
            if a.new_condition_quarters >= threshold_q or a.ub_basis == 0.0:
                basis = _condition_wage_monthly(a)
                if a.age >= rules.unemployment.er.senior_age:
                    basis = max(basis, a.ub_basis)   # level protection at 58
                a.ub_basis = basis
                a.ub_days_used = 0.0
                a.ub_max_days = float(entitlement_days(a.career_quarters * DT, a.age, rules))
                a.new_condition_quarters = 0
            if a.ub_days_used < a.ub_max_days:
                state = _ER_UNEMPLOYED
        _stop_work(a, state)

    def _start_pension(self, a: AgentState, state: S) -> None:
        """Stop work and pay the accrued pension in ``state`` (retired or disabled)."""
        lec = self.rules.pension.life_expectancy_coefficient
        a.pension_paid = a.partial_early_paid + (1.0 - a.partial_early_share) * a.pension_accrued * lec
        _stop_work(a, state)
        a.returning = False
        a.spell_left = 0

    # -- exogenous phase -------------------------------------------------

    def _exogenous(self, a: AgentState, hh: HouseholdState, u: list[float], events: list[str]) -> bool:
        """Apply exogenous transitions; True when the decision is preempted."""
        exo = self.tables.exogenous
        rules = self.rules
        st = a.state

        # Clock maintenance happens every quarter.
        if a.until_disability > 0:
            a.until_disability -= 1
        if a.until_student > 0:
            a.until_student -= 1
        if a.until_outsider > 0:
            a.until_outsider -= 1

        if not a.alive:
            return True

        # Benefits end at the statutory retirement age.  Rows without a
        # retirement cell route through unemployment first.
        if a.age >= rules.pension.min_retirement_age:
            if st in _AUTO_RETIRE_STATES:
                self._start_pension(a, _RETIRED)
                events.append("auto_retire")
                return True
            if st in _RETIRE_VIA_UNEMPLOYMENT:
                self._enter_unemployment(a, eligible=False, pink_slip=False)
                a.returning = False
                events.append("auto_retire_via_unemployment")
                return True
            if st is _DISABLED:
                self._start_pension(a, _RETIRED)
                return True

        if a.until_disability == 0:
            a.until_disability = NO_EVENT
            if st not in PENSION_STATES:
                self._start_pension(a, _DISABLED)
                events.append("disability")
                return True

        if st is _SICK_LEAVE:
            if a.returning:
                return False   # the decision node after the spell
            a.sick_quarters += 1
            if a.sick_quarters >= exo.sick_max_quarters:
                if u[_U_MISC] < exo.disability_after_sick:
                    self._start_pension(a, _DISABLED)
                    events.append("disability_after_sick")
                else:
                    a.returning = True
            elif u[_U_MISC] >= exo.sick_continue_quarterly:
                a.returning = True
            return True

        if st in LEAVE_STATES:
            if a.returning:
                return False
            a.spell_left -= 1
            if a.spell_left <= 0:
                a.returning = True
            return True

        if st is _STUDENT:
            a.spell_left -= 1
            if a.spell_left <= 0:
                # Graduates land on the basic allowance (the student row has
                # no earnings-related exit).
                self._enter_unemployment(a, eligible=False, pink_slip=False)
                events.append("studies_end")
                return True
            return False   # part-time work stays available mid-studies

        if st is _OUTSIDE_WF:
            a.spell_left -= 1
            if a.spell_left <= 0:
                self._enter_unemployment(a, eligible=True, pink_slip=False)
                events.append("outside_end")
                return True
            return False   # part-time work stays available while outside

        if st is _HOME_CARE and hh.bands[0] == 0:
            # The youngest child turned three: the allowance ends.
            a.returning = True
            return False

        if st in WORKING_STATES and u[_U_LAYOFF] < exo.layoff_quarterly:
            if st in _WORKING_RETIRED:
                _stop_work(a, _RETIRED)
            else:
                self._enter_unemployment(a, eligible=True, pink_slip=True)
            events.append("layoff")
            return True

        if st in _SICK_ONSET_STATES:
            if u[_U_SICK] < exo.sick_onset_quarterly:
                _stop_work(a, _SICK_LEAVE)
                a.sick_quarters = 0
                events.append("sick_onset")
                return True

        # A fired clock starts its spell (the length drawn first), then
        # redraws itself whether or not the spell could start.
        if a.until_student == 0:
            started = self._start_spell(a, _STUDENT, exo.student_spell_end_quarterly, u[_U_STUDENT_SPELL],
                                        "student_entry", events)
            a.until_student = draw_geometric(exo.student_entry_quarterly, u[_U_STUDENT_CLOCK], cap=10_000)
            if started:
                return True

        if a.until_outsider == 0:
            started = self._start_spell(a, _OUTSIDE_WF, exo.outsider_spell_end_quarterly, u[_U_OUTSIDER_SPELL],
                                        "outside_entry", events)
            a.until_outsider = draw_geometric(exo.outsider_entry_quarterly, u[_U_OUTSIDER_CLOCK], cap=10_000)
            if started:
                return True

        return False

    @staticmethod
    def _start_spell(a: AgentState, state: S, end_rate: float, u: float, event: str, events: list[str]) -> bool:
        """Start a ``state`` spell of geometric length with quarterly end
        rate ``end_rate``; False when ``a`` is in no state it starts from."""
        if a.state not in _SPELL_ENTRY_STATES:
            return False
        _stop_work(a, state)
        a.spell_left = draw_geometric(end_rate, u)
        events.append(event)
        return True

    @staticmethod
    def _start_leave(a: AgentState, state: S, quarters: int) -> None:
        """Start a parental leave ``state`` of ``quarters`` forced quarters."""
        _stop_work(a, state)
        a.spell_left = quarters
        a.returning = False

    def _birth_consequences(self, hh: HouseholdState, u_house: float, events: list[str]) -> None:
        exo = self.tables.exogenous
        mother = mother_of(hh)
        if mother is not None and mother.alive and mother.state not in RETIRED_STATES and mother.state not in (
            S.DISABLED, S.MOTHERS_LEAVE,
        ):
            self._start_leave(mother, S.MOTHERS_LEAVE, exo.mother_leave_quarters)
            events.append("mothers_leave")
        father = next((a for a in hh.adults if a.gender == "men"), None)
        if (
            father is not None
            and father.alive
            and hh.partnered
            and father.state not in RETIRED_STATES
            and father.state not in (S.DISABLED, S.FATHERS_LEAVE, S.MOTHERS_LEAVE)
            and u_house < exo.father_leave_at_birth
        ):
            self._start_leave(father, S.FATHERS_LEAVE, exo.father_leave_quarters)
            events.append("fathers_leave")

    # -- decision phase ---------------------------------------------------

    def _apply_decision(self, a: AgentState, hh: HouseholdState, action: Action, u: list[float],
                        events: list[str]) -> None:
        rules = self.rules
        st = a.state
        dec = action.decision
        returning = a.returning
        a.returning = False

        if dec is _STAY:
            if returning:
                self._enter_unemployment(a, eligible=True, pink_slip=False)
            return

        if dec is _RETIRE:
            if st in _WORKING_RETIRED:
                _stop_work(a, _RETIRED)
            else:
                self._start_pension(a, _RETIRED)
            return

        if dec in _PARTIAL_DECISIONS:
            share = 0.25 if dec is _PARTIAL_25 else 0.50
            pe = rules.pension.partial_early
            years_early = max(0.0, rules.pension.min_retirement_age - a.age)
            factor = max(0.0, 1.0 - pe.reduction_per_year * years_early)
            a.partial_early_share = share
            a.partial_early_paid = share * a.pension_accrued * rules.pension.life_expectancy_coefficient * factor
            events.append("partial_early")
            if returning:
                self._enter_unemployment(a, eligible=True, pink_slip=False)
            return

        if dec is _QUIT:
            self._enter_unemployment(a, eligible=False, pink_slip=False)
            events.append("quit")
            return

        if dec is _HOME_CARE_DECISION:
            _stop_work(a, _HOME_CARE)
            return

        if dec in _WORK_DECISIONS:
            want_ft = dec is _WORK_FT
            retired = st in RETIRED_STATES
            frictionless = returning or (
                st in WORKING_STATES
                and want_ft == (st in _FULL_TIME_STATES)
            )
            if frictionless:
                success, hours = True, action.hours
            else:
                if st in WORKING_STATES:
                    p = self.tables.job_search.switch_ft_pt
                    success = u[_U_FRICTION] < p
                    hours = action.hours
                else:
                    kind = "full_time" if want_ft else "part_time"
                    success = u[_U_FRICTION] < self.tables.job_find_prob(kind, a.gender, a.group, a.age)
                    hours = action.hours
                    if not success and want_ft:
                        # A failed full-time search may still land part time.
                        p_pt = self.tables.job_find_prob("part_time", a.gender, a.group, a.age)
                        if u[_U_SPARE] < self.tables.job_search.pt_on_failed_ft * p_pt:
                            success, want_ft, hours = True, False, 24
            if not success:
                if returning:
                    self._enter_unemployment(a, eligible=True, pink_slip=False)
                events.append("search_failed")
                return
            if retired:
                a.state = _RETIRED_FT if want_ft else _RETIRED_PT
            else:
                a.state = _FULL_TIME if want_ft else _PART_TIME
            a.hours = hours
            a.pink_slip = False
            events.append("job_started")
            return

        raise ContractViolation(f"unhandled decision {dec!r}")

    # -- wage and tracker phase -------------------------------------------

    def _update_wages_and_trackers(self, a: AgentState, hh: HouseholdState, shock: float,
                                   state_before: S) -> None:
        rules = self.rules
        if not a.alive:
            return
        prev_age = a.age
        a.age = round(a.age + DT, 6)
        a.potential_wage = potential_wage_step(
            a.potential_wage, prev_age, a.age, a.gender, a.group, self.wparams, shock, dt=DT
        )
        a.wage_reduction = update_wage_reduction(a.wage_reduction, a.state, self.wparams, dt=DT)
        if a.state in WORKING_STATES and a.hours > 0:
            a.paid_wage = paid_wage(a.potential_wage, a.hours, a.wage_reduction)
            a.prev_paid_wage = a.paid_wage
            if a.age < rules.pension.max_insured_age:
                a.pension_accrued += rules.pension.accrual_rate * a.paid_wage / 48.0
        else:
            a.paid_wage = 0.0

        worked = a.state in WORKING_STATES
        a.work_window.append((worked, a.paid_wage / 4.0))
        if len(a.work_window) > rules.unemployment.er.condition_window_quarters:
            a.work_window.pop(0)
        if worked:
            a.career_quarters += 1
            a.new_condition_quarters += 1

        if a.state is _ER_UNEMPLOYED:
            a.ub_days_used += BENEFIT_DAYS_PER_QUARTER
            if a.ub_days_used >= a.ub_max_days:
                er = rules.unemployment.er
                if er.extended_min_age is not None and a.age >= er.extended_min_age:
                    a.state = _ER_EXTENDED
                else:
                    a.state = _BASIC_UNEMPLOYED

        if a.state is state_before:
            a.time_in_state += DT
        else:
            a.time_in_state = 0.0

    # -- public stepping API ------------------------------------------------

    def step(self, hh: HouseholdState, action_indices: tuple[int, ...],
             masks=None) -> StepOutcome:
        """Advance one quarter.  ``action_indices`` holds one catalogue index
        per adult slot; actions must be legal for the pre-step state.  Callers
        that already computed the legal masks can pass them in."""
        if len(action_indices) != len(hh.adults):
            raise ContractViolation("one action per adult slot required")
        events: list[str] = []

        if masks is None:
            masks = [legal_mask(a, hh, self.rules) for a in hh.adults]
        for a, idx, mask in zip(hh.adults, action_indices, masks):
            if not mask[idx]:
                raise ContractViolation(
                    f"illegal action {ACTIONS[idx]} for state {a.state.name} (age {a.age})"
                )

        u, shocks = quarter_draws(hh)

        states_before = [a.state for a in hh.adults]

        mortality_events(hh)
        partnership_events(hh, self.tables, u[_U_PARTNERSHIP])
        if fertility_events(hh, self.tables, u[_U_BIRTH]):
            self._birth_consequences(hh, u[_U_FATHER_LEAVE], events)
            events.append("birth")

        for i, a in enumerate(hh.adults):
            ui = u[9 * i: 9 * i + 9]
            if not self._exogenous(a, hh, ui, events):   # True for the dead
                self._apply_decision(a, hh, ACTIONS[action_indices[i]], ui, events)

        for i, a in enumerate(hh.adults):
            self._update_wages_and_trackers(a, hh, shocks[i], states_before[i])
        hh.quarter += 1

        flows, consumptions = self.household_flows(hh)

        u3 = hh.bands[0]
        rewards = tuple(self._reward(a, c, u3) if a.alive else 0.0 for a, c in zip(hh.adults, consumptions))
        return StepOutcome(
            rewards=rewards,
            consumptions=tuple(consumptions),
            flows=flows,
            events=tuple(events),
        )

    def static_quarter(self, hh: HouseholdState, last: StepOutcome | None = None) -> StepOutcome:
        """One post-decision quarter: states frozen except mortality.

        ``last`` is this household's outcome from the previous static
        quarter, or None.  It is returned as it is when no adult's state and
        no child band changed during the quarter: the flows then cannot
        change, since the rules do not read an adult's age and nothing else
        the snapshots carry moves in the static phase.
        """
        states = [a.state for a in hh.adults]
        bands = hh.bands
        mortality_events(hh)
        fertility_events(hh, self.tables, quarter_draws(hh)[0][_U_BIRTH])   # ages children out
        for a in hh.adults:
            if a.alive:
                a.age = round(a.age + DT, 6)
                a.time_in_state += DT
        hh.quarter += 1
        if last is not None and hh.bands == bands and states == [a.state for a in hh.adults]:
            return last
        flows, consumptions = self.household_flows(hh)
        return StepOutcome(rewards=(0.0,) * len(hh.adults), consumptions=tuple(consumptions),
                           flows=flows, events=())

    def freeze_for_static_phase(self, hh: HouseholdState) -> None:
        """At the decision horizon, non-workers move to plain retirement."""
        for a in hh.adults:
            if a.alive and a.state not in WORKING_STATES and a.state not in (S.RETIRED, S.DISABLED):
                self._start_pension(a, S.RETIRED)

    def terminal_value(self, hh: HouseholdState) -> tuple[float, ...]:
        """Expected discounted static-phase utility per adult at age 75.

        The state is frozen (non-workers retired), flows are constant, and
        each agent discounts its own survival curve.  Used as the training
        episodes' terminal bonus; the simulator plays the phase out instead.
        """
        self.freeze_for_static_phase(hh)
        _, consumptions = self.household_flows(hh)
        u3 = hh.bands[0]
        out = []
        for a, consumption in zip(hh.adults, consumptions):
            if not a.alive:
                out.append(0.0)
                continue
            u_now = self._reward(a, consumption, u3)
            total = 0.0
            for w in self._survival_weights(a.gender, a.age):
                total += w * u_now
            out.append(total)
        return tuple(out)

    def _reward(self, a: AgentState, consumption: float, u3: int) -> float:
        """One quarter's utility of the living adult ``a``; ``u3`` counts the
        household's children under 3."""
        return utility(consumption, a.state, a.gender, a.hours, a.age, a.pink_slip, u3 > 0,
                       self.rules.pension.min_retirement_age, self.uparams, year=self.rules.year) * DT

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
