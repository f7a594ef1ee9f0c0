"""The quarterly household decision process.

One step runs, in order: demographic events (marriage, divorce, births,
deaths), exogenous employment transitions, agent decisions with job-search
friction, wage updates, the rules-engine cash flows and per-agent rewards,
then derived-tracker maintenance (employment condition, benefit days,
clocks).  Households are independent given their random streams, so steps can
run in parallel across households.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ContractViolation
from ..population import DemographicTables, draw_geometric, fertility_events, mortality_events, partnership_events
from ..rules import AdultSnapshot, CashFlows, HouseholdSnapshot, entitlement_days, net_income
from ..rules.ruleset import BENEFIT_DAYS_PER_QUARTER, RuleSet
from ..states import (
    RETIRED_STATES,
    UNEMPLOYMENT_STATES,
    WORKING_STATES,
    EmploymentState as S,
)
from ..wage import WageParams, potential_wage_step, update_wage_reduction
from .actions import ACTIONS, Action, Decision, legal_mask
from ..agent import NO_EVENT, AgentState, HouseholdState, mother_of
from .utility import UtilityParams, utility

DT = 0.25
DECISION_END_AGE = 75.0
MAX_AGE = 100.0

# Per-adult uniform slots inside the fixed quarterly draw vector.
_U_LAYOFF, _U_SICK, _U_MISC, _U_FRICTION, _U_SPARE = range(5)


@dataclass(slots=True)
class StepOutcome:
    rewards: tuple[float, ...]
    consumptions: tuple[float, ...]
    flows: list[CashFlows]
    events: tuple[str, ...]


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

    # -- snapshots and cash flows --------------------------------------

    def _adult_snapshot(self, a: AgentState) -> AdultSnapshot:
        return AdultSnapshot(
            state=a.state,
            wage_quarterly=a.paid_wage / 4.0 if a.state in WORKING_STATES else 0.0,
            age=a.age,
            ub_basis_monthly=a.ub_basis,
            ub_days_used=a.ub_days_used,
            ub_max_days=a.ub_max_days,
            fund_member=a.fund_member,
            pension_paid_monthly=a.pension_paid,
            pension_accrued_monthly=a.pension_accrued,
            partial_early_monthly=a.partial_early_paid,
            wage_basis_monthly=a.prev_paid_wage / 12.0,
        )

    def household_flows(self, hh: HouseholdState) -> tuple[list[CashFlows], list[float]]:
        """Cash flows per budget unit and consumption per adult slot."""
        rules = self.rules
        adults = hh.adults
        u3, u7, u18 = hh.children_bands()

        def snapshot(members: tuple[AgentState, ...], with_children: bool) -> HouseholdSnapshot:
            alive = sum(1 for m in members if m.alive)
            size = alive + (u18 if with_children else 0)
            return HouseholdSnapshot(
                adults=tuple(self._adult_snapshot(m) for m in members),
                children_under3=u3 if with_children else 0,
                children_under7=u7 if with_children else 0,
                children_under18=u18 if with_children else 0,
                partnered=hh.partnered and alive == 2,
                rent_monthly=rules.rent_for_size(size),
            )

        consumptions = [0.0] * len(adults)
        flows: list[CashFlows] = []

        if len(adults) == 2 and hh.partnered:
            cf = net_income(hh=snapshot(adults, True), rules=rules)
            flows.append(cf)
            alive_idx = [i for i, a in enumerate(adults) if a.alive]
            for i in alive_idx:
                consumptions[i] = cf.consumption / len(alive_idx)
        else:
            mother = mother_of(hh)
            custodian = mother if (mother is not None and mother.alive) else next(
                (a for a in adults if a.alive), None
            )
            for i, a in enumerate(adults):
                if not a.alive:
                    continue
                cf = net_income(hh=snapshot((a,), a is custodian), rules=rules)
                flows.append(cf)
                consumptions[i] = cf.consumption
        return flows, consumptions

    # -- unemployment entry and benefit bookkeeping ---------------------

    def _enter_unemployment(self, a: AgentState, eligible: bool, pink_slip: bool) -> None:
        rules = self.rules
        a.pink_slip = pink_slip
        a.hours = 0
        a.paid_wage = 0.0
        cond_q = a.condition_quarters()
        threshold_q = max(1, rules.unemployment.er.condition_months // 3)
        if eligible and a.fund_member and cond_q >= threshold_q:
            if a.new_condition_quarters >= threshold_q or a.ub_basis == 0.0:
                basis = a.condition_wage_monthly()
                if a.age >= rules.unemployment.er.senior_age:
                    basis = max(basis, a.ub_basis)   # level protection at 58
                a.ub_basis = basis
                a.ub_days_used = 0.0
                a.ub_max_days = float(entitlement_days(a.career_quarters * DT, a.age, rules))
                a.new_condition_quarters = 0
            if a.ub_days_used < a.ub_max_days:
                a.state = S.ER_UNEMPLOYED
                return
        a.state = S.BASIC_UNEMPLOYED

    def _retire(self, a: AgentState) -> None:
        rules = self.rules
        lec = rules.pension.life_expectancy_coefficient
        a.pension_paid = a.partial_early_paid + (1.0 - a.partial_early_share) * a.pension_accrued * lec
        a.state = S.RETIRED
        a.hours = 0
        a.paid_wage = 0.0
        a.returning = False
        a.spell_left = 0

    def _disable(self, a: AgentState) -> None:
        rules = self.rules
        lec = rules.pension.life_expectancy_coefficient
        a.pension_paid = a.partial_early_paid + (1.0 - a.partial_early_share) * a.pension_accrued * lec
        a.state = S.DISABLED
        a.hours = 0
        a.paid_wage = 0.0
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
            if st in (S.ER_UNEMPLOYED, S.BASIC_UNEMPLOYED, S.ER_EXTENDED, S.SICK_LEAVE):
                self._retire(a)
                events.append("auto_retire")
                return True
            if st in (S.OUTSIDE_WF, S.STUDENT, S.HOME_CARE):
                self._enter_unemployment(a, eligible=False, pink_slip=False)
                a.returning = False
                events.append("auto_retire_via_unemployment")
                return True
            if st is S.DISABLED:
                self._retire(a)
                return True

        if a.until_disability == 0:
            a.until_disability = NO_EVENT
            if st not in RETIRED_STATES and st is not S.DISABLED:
                self._disable(a)
                events.append("disability")
                return True

        if st is S.SICK_LEAVE:
            if a.returning:
                return False   # the decision node after the spell
            a.sick_quarters += 1
            if a.sick_quarters >= exo["sick_max_quarters"]:
                if u[_U_MISC] < exo["disability_after_sick"]:
                    self._disable(a)
                    events.append("disability_after_sick")
                else:
                    a.returning = True
            elif u[_U_MISC] >= exo["sick_continue_quarterly"]:
                a.returning = True
            return True

        if st in (S.MOTHERS_LEAVE, S.FATHERS_LEAVE):
            if a.returning:
                return False
            a.spell_left -= 1
            if a.spell_left <= 0:
                a.returning = True
            return True

        if st is S.STUDENT:
            a.spell_left -= 1
            if a.spell_left <= 0:
                # Graduates land on the basic allowance (the student row has
                # no earnings-related exit).
                self._enter_unemployment(a, eligible=False, pink_slip=False)
                events.append("studies_end")
                return True
            return False   # part-time work stays available mid-studies

        if st is S.OUTSIDE_WF:
            a.spell_left -= 1
            if a.spell_left <= 0:
                self._enter_unemployment(a, eligible=True, pink_slip=False)
                events.append("outside_end")
                return True
            return False   # part-time work stays available while outside

        if st is S.HOME_CARE and hh.children_bands()[0] == 0:
            # The youngest child turned three: the allowance ends.
            a.returning = True
            return False

        if st in WORKING_STATES and u[_U_LAYOFF] < exo["layoff_quarterly"]:
            if st in (S.RETIRED_PT, S.RETIRED_FT):
                a.state = S.RETIRED
                a.hours = 0
                a.paid_wage = 0.0
            else:
                self._enter_unemployment(a, eligible=True, pink_slip=True)
            events.append("layoff")
            return True

        if st in WORKING_STATES | UNEMPLOYMENT_STATES and st not in RETIRED_STATES:
            if u[_U_SICK] < exo["sick_onset_quarterly"]:
                a.state = S.SICK_LEAVE
                a.sick_quarters = 0
                a.hours = 0
                a.paid_wage = 0.0
                events.append("sick_onset")
                return True

        if a.until_student == 0:
            a.until_student = NO_EVENT
            if st in (S.FULL_TIME, S.PART_TIME, S.ER_UNEMPLOYED, S.BASIC_UNEMPLOYED, S.ER_EXTENDED):
                a.state = S.STUDENT
                a.spell_left = draw_geometric(exo["student_spell_end_quarterly"], hh.rng_exo)
                a.hours = 0
                a.paid_wage = 0.0
                events.append("student_entry")
                a.until_student = draw_geometric(exo["student_entry_quarterly"], hh.rng_exo, cap=10_000)
                return True
            a.until_student = draw_geometric(exo["student_entry_quarterly"], hh.rng_exo, cap=10_000)

        if a.until_outsider == 0:
            a.until_outsider = NO_EVENT
            if st in (S.FULL_TIME, S.PART_TIME, S.ER_UNEMPLOYED, S.BASIC_UNEMPLOYED, S.ER_EXTENDED):
                a.state = S.OUTSIDE_WF
                a.spell_left = draw_geometric(exo["outsider_spell_end_quarterly"], hh.rng_exo)
                a.hours = 0
                a.paid_wage = 0.0
                events.append("outside_entry")
                a.until_outsider = draw_geometric(exo["outsider_entry_quarterly"], hh.rng_exo, cap=10_000)
                return True
            a.until_outsider = draw_geometric(exo["outsider_entry_quarterly"], hh.rng_exo, cap=10_000)

        return False

    def _birth_consequences(self, hh: HouseholdState, u_house: float, events: list[str]) -> None:
        exo = self.tables.exogenous
        mother = mother_of(hh)
        if mother is not None and mother.alive and mother.state not in RETIRED_STATES and mother.state not in (
            S.DISABLED, S.MOTHERS_LEAVE,
        ):
            mother.state = S.MOTHERS_LEAVE
            mother.spell_left = int(exo["mother_leave_quarters"])
            mother.hours = 0
            mother.paid_wage = 0.0
            mother.returning = False
            events.append("mothers_leave")
        father = next((a for a in hh.adults if a.gender == "men"), None)
        if (
            father is not None
            and father.alive
            and hh.partnered
            and father.state not in RETIRED_STATES
            and father.state not in (S.DISABLED, S.FATHERS_LEAVE, S.MOTHERS_LEAVE)
            and u_house < exo["father_leave_at_birth"]
        ):
            father.state = S.FATHERS_LEAVE
            father.spell_left = int(exo["father_leave_quarters"])
            father.hours = 0
            father.paid_wage = 0.0
            father.returning = False
            events.append("fathers_leave")

    # -- decision phase ---------------------------------------------------

    def _job_found(self, a: AgentState, kind: str, u: float) -> bool:
        p = self.tables.job_find_prob(kind, a.gender, a.group, a.age)
        return u < p

    def _apply_decision(self, a: AgentState, hh: HouseholdState, action: Action, u: list[float],
                        events: list[str]) -> None:
        rules = self.rules
        st = a.state
        dec = action.decision
        returning = a.returning
        a.returning = False

        if dec is Decision.STAY:
            if returning:
                self._enter_unemployment(a, eligible=True, pink_slip=False)
            return

        if dec is Decision.RETIRE:
            if st in (S.RETIRED_PT, S.RETIRED_FT):
                a.state = S.RETIRED
                a.hours = 0
                a.paid_wage = 0.0
            else:
                self._retire(a)
            return

        if dec in (Decision.PARTIAL_25, Decision.PARTIAL_50):
            share = 0.25 if dec is Decision.PARTIAL_25 else 0.50
            pe = rules.pension.partial_early
            years_early = max(0.0, rules.pension.min_retirement_age - a.age)
            factor = max(0.0, 1.0 - pe.reduction_per_year * years_early)
            a.partial_early_share = share
            a.partial_early_paid = share * a.pension_accrued * rules.pension.life_expectancy_coefficient * factor
            events.append("partial_early")
            if returning:
                self._enter_unemployment(a, eligible=True, pink_slip=False)
            return

        if dec is Decision.QUIT:
            self._enter_unemployment(a, eligible=False, pink_slip=False)
            events.append("quit")
            return

        if dec is Decision.HOME_CARE:
            a.state = S.HOME_CARE
            a.hours = 0
            a.paid_wage = 0.0
            return

        if dec in (Decision.WORK_FT, Decision.WORK_PT):
            want_ft = dec is Decision.WORK_FT
            retired = st in RETIRED_STATES
            frictionless = returning or (
                st in WORKING_STATES
                and want_ft == (st in (S.FULL_TIME, S.RETIRED_FT))
            )
            if frictionless:
                success, hours = True, action.hours
            else:
                if st in WORKING_STATES:
                    p = self.tables.switch_ft_pt
                    success = u[_U_FRICTION] < p
                    hours = action.hours
                else:
                    kind = "full_time" if want_ft else "part_time"
                    success = self._job_found(a, kind, u[_U_FRICTION])
                    hours = action.hours
                    if not success and want_ft:
                        # A failed full-time search may still land part time.
                        p_pt = self.tables.job_find_prob("part_time", a.gender, a.group, a.age)
                        if u[_U_SPARE] < self.tables.pt_on_failed_ft * p_pt:
                            success, want_ft, hours = True, False, 24
            if not success:
                if returning:
                    self._enter_unemployment(a, eligible=True, pink_slip=False)
                events.append("search_failed")
                return
            if retired:
                a.state = S.RETIRED_FT if want_ft else S.RETIRED_PT
            else:
                a.state = S.FULL_TIME if want_ft else S.PART_TIME
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
            a.paid_wage = (a.hours / 40.0) * a.potential_wage * (1.0 - a.wage_reduction)
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

        if a.state is S.ER_UNEMPLOYED:
            a.ub_days_used += BENEFIT_DAYS_PER_QUARTER
            if a.ub_days_used >= a.ub_max_days:
                er = rules.unemployment.er
                if er.extended_min_age is not None and a.age >= er.extended_min_age:
                    a.state = S.ER_EXTENDED
                else:
                    a.state = S.BASIC_UNEMPLOYED

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

        shocks = hh.rng_exo.standard_normal(2)
        u = hh.rng_exo.random(12)

        states_before = [a.state for a in hh.adults]

        mortality_events(hh)
        partnership_events(hh, self.tables)
        if fertility_events(hh, self.tables):
            self._birth_consequences(hh, float(u[10]), events)
            events.append("birth")

        for i, a in enumerate(hh.adults):
            ui = [float(x) for x in u[5 * i: 5 * i + 5]]
            preempted = self._exogenous(a, hh, ui, events)
            if a.alive and not preempted and a.state not in (S.DEAD,):
                self._apply_decision(a, hh, ACTIONS[action_indices[i]], ui, events)

        for i, a in enumerate(hh.adults):
            self._update_wages_and_trackers(a, hh, float(shocks[i]), states_before[i])

        flows, consumptions = self.household_flows(hh)

        rewards = []
        u3 = hh.children_bands()[0]
        for i, a in enumerate(hh.adults):
            if not a.alive:
                rewards.append(0.0)
                continue
            r = utility(
                consumptions[i],
                a.state,
                a.gender,
                a.hours,
                a.age,
                a.pink_slip,
                u3 > 0,
                self.rules.pension.min_retirement_age,
                self.uparams,
                year=self.rules.year,
            )
            rewards.append(r * DT)
        return StepOutcome(
            rewards=tuple(rewards),
            consumptions=tuple(consumptions),
            flows=flows,
            events=tuple(events),
        )

    def static_quarter(self, hh: HouseholdState) -> StepOutcome:
        """One post-decision quarter: states frozen except mortality."""
        hh.rng_exo.standard_normal(2)
        hh.rng_exo.random(12)
        mortality_events(hh)
        fertility_events(hh, self.tables)   # ages children out; no new births past 75
        for a in hh.adults:
            if a.alive:
                a.age = round(a.age + DT, 6)
                a.time_in_state += DT
        flows, consumptions = self.household_flows(hh)
        return StepOutcome(rewards=(0.0,) * len(hh.adults), consumptions=tuple(consumptions),
                           flows=flows, events=())

    def freeze_for_static_phase(self, hh: HouseholdState) -> None:
        """At the decision horizon, non-workers move to plain retirement."""
        for a in hh.adults:
            if a.alive and a.state not in WORKING_STATES and a.state not in (S.RETIRED, S.DISABLED):
                self._retire(a)

    def terminal_value(self, hh: HouseholdState) -> tuple[float, ...]:
        """Expected discounted static-phase utility per adult at age 75.

        The state is frozen (non-workers retired), flows are constant, and
        each agent discounts its own survival curve.  Used as the training
        episodes' terminal bonus; the simulator plays the phase out instead.
        """
        self.freeze_for_static_phase(hh)
        _, consumptions = self.household_flows(hh)
        gamma_q = self.uparams.step_discount
        u3 = hh.children_bands()[0]
        out = []
        for i, a in enumerate(hh.adults):
            if not a.alive:
                out.append(0.0)
                continue
            u_now = utility(
                consumptions[i], a.state, a.gender, a.hours, a.age, a.pink_slip,
                u3 > 0, self.rules.pension.min_retirement_age, self.uparams, year=self.rules.year,
            ) * DT
            total = 0.0
            survival = 1.0
            disc = 1.0
            horizon = int((MAX_AGE - a.age) / DT)
            for k in range(1, horizon + 1):
                survival *= 1.0 - self.tables.mortality_quarterly(a.gender, a.age + k * DT)
                disc *= gamma_q
                total += disc * survival * u_now
            out.append(total)
        return tuple(out)
