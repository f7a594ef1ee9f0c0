"""One-household and one-agent views of the block code, for the tests.

Production steps, observes and prices whole household blocks
(``LifecycleEnv.advance_block``, ``vector.observe``, ``PricingLedger``;
``train_oracle.step_block`` runs the first, then the pricer the ledger
replaced, ``price_oracle.price``, and its rewards)
and evaluates utility on columns (``utility.UtilityColumns``); each function
here runs that code on a list of records, one household or one agent.

Also here, as the oracle of the simulator's incentive samples: the budget
units of a block as snapshots (``unit_snapshots``) and the scalar sampler
that took the EMTR and PTR samples with ``rules.emtr`` and ``rules.ptr`` on
them (``_incentive_samples``), kept as they stood in ``lifesim``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from lifesim.agent import DT, STATES, AgentState, HouseholdBlock, HouseholdState
from lifesim.env import LifecycleEnv, StepOutcome
from lifesim.env.actions import ACTIONS, N_ACTIONS, Action, legal_mask
from lifesim.env.mdp import event_names
from lifesim.env.utility import UtilityColumns, UtilityParams
from lifesim.env.vector import observe
from lifesim.rules import AdultSnapshot, CashFlows, HouseholdSnapshot, RuleSet
from lifesim.rules import emtr as emtr_op, ptr as ptr_op
from lifesim.states import EmploymentState as S
from lifesim.wage import WageParams, potential_wage_columns
from price_oracle import outcome, price, unit_cash_flows
from train_oracle import step_block


def observe_households(households: list[HouseholdState], env: LifecycleEnv,
                       obs: np.ndarray, masks: np.ndarray) -> None:
    """``observe`` on the block of ``households``."""
    observe(HouseholdBlock.of(households), env, obs, masks)


def step_households(households: list[HouseholdState], env: LifecycleEnv,
                    actions, masks: np.ndarray) -> list[StepOutcome]:
    """Advance every household one quarter on ``actions`` and ``masks``, in
    the ``observe_households`` row layout, and write the new state into
    the records."""
    b = env.block(households)
    step_block(env, b, actions, masks)
    b.write_back(households)
    return [outcome(b, h, event_names(b, h)) for h in range(b.m)]


def unit_snapshots(env: LifecycleEnv, b: HouseholdBlock) -> list[tuple[HouseholdSnapshot, tuple[int, ...]]]:
    """Every budget unit of ``b`` (``LifecycleEnv.budget_units``) as its snapshot
    and its adult rows, in household then slot order."""
    cols = env.adult_columns(b)
    adults = [AdultSnapshot(STATES[code], *fields) for code, *fields in zip(
        cols.state.tolist(), cols.wage_quarterly.tolist(), b.age.tolist(), *(
            c.tolist() for c in cols[2:]))]
    out = []
    for first, second, u3, u7, u18, rent in zip(*(c.tolist() for c in env.budget_units(b))):
        rows = (first,) if second < 0 else (first, second)
        pair = second >= 0 and adults[first].state is not S.DEAD and adults[second].state is not S.DEAD
        out.append((HouseholdSnapshot(tuple(adults[r] for r in rows), u3, u7, u18, pair, rent), rows))
    return out


def budget_units(env: LifecycleEnv, hh: HouseholdState) -> list[tuple[HouseholdSnapshot, tuple[int, ...]]]:
    """Each budget unit of ``hh`` as its snapshot and the adult slots it covers."""
    return unit_snapshots(env, env.block([hh]))


def _counterfactual_unemployed(hh_snap: HouseholdSnapshot, adult_idx: int) -> HouseholdSnapshot:
    adults = list(hh_snap.adults)
    adults[adult_idx] = dataclasses.replace(
        adults[adult_idx], state=S.BASIC_UNEMPLOYED, wage_quarterly=0.0, ub_days_used=0.0)
    return dataclasses.replace(hh_snap, adults=tuple(adults))


def _incentive_samples(env: LifecycleEnv, b: HouseholdBlock, emtr_samples: list[float],
                       ptr_samples: list[float]) -> None:
    """EMTR and PTR of every adult of ``b`` who works for pay, each taken on
    the snapshot of the budget unit that holds the adult, in household then
    slot order."""
    for snap, unit in unit_snapshots(env, b):
        for pos, r in enumerate(unit):
            if b.state[r] in (S.FULL_TIME, S.PART_TIME) and b.paid_wage[r] > 0:
                emtr_samples.append(emtr_op(snap, env.rules, adult=pos)["total"])
                ptr_samples.append(ptr_op(snap, _counterfactual_unemployed(snap, pos), env.rules))


def household_flows(env: LifecycleEnv, hh: HouseholdState) -> tuple[list[CashFlows], list[float]]:
    """Cash flows per budget unit and consumption per adult slot of ``hh``."""
    b = env.block([hh])
    price(env, b)
    return unit_cash_flows(b, 0), b.consumption.tolist()


def legal_actions(agent: AgentState, hh: HouseholdState, rules: RuleSet) -> list[Action]:
    mask = legal_mask(agent, hh, rules)
    return [ACTIONS[i] for i in range(N_ACTIONS) if mask[i]]


def _column(*values) -> tuple[np.ndarray, ...]:
    return tuple(np.array([v]) for v in values)


def kappa(state: S, gender: str, hours: int, age: float, pink_slip: bool, has_child_under3: bool,
          params: UtilityParams) -> float:
    """:meth:`UtilityColumns.kappa` of one agent."""
    return float(UtilityColumns(params, 0.0, None).kappa(*_column(state, gender == "women", hours, age, pink_slip,
                                                            has_child_under3))[0])


def mu_term(age: float, gender: str, hours: int, retirement_age: float, params: UtilityParams) -> float:
    """:meth:`UtilityColumns.mu` of one agent."""
    return float(UtilityColumns(params, retirement_age, None).mu(*_column(gender == "women", hours, age))[0])


def utility(consumption_quarterly: float, state: S, gender: str, hours: int, age: float, pink_slip: bool,
            has_child_under3: bool, retirement_age: float, params: UtilityParams, year: int | None = None) -> float:
    """One-quarter utility for one agent (not yet scaled by dt): 0 when dead,
    else :meth:`UtilityColumns.utility`."""
    if state is S.DEAD:
        return 0.0
    return float(UtilityColumns(params, retirement_age, year).utility(
        *_column(consumption_quarterly, state, gender == "women", hours, age, pink_slip, has_child_under3))[0])


def potential_wage_step(prev_wage: float, prev_age: float, age: float, gender: str, group: int, params: WageParams,
                        shock: float, dt: float = 1.0) -> float:
    """:func:`potential_wage_columns` of one agent, over ``dt`` years: its
    ``DT`` step of the process whose autocorrelation and shock s.d. over
    ``DT`` are those of ``params`` over ``dt`` (the same bits at ``dt = DT``)."""
    if dt != DT:
        params = dataclasses.replace(params, autocorr=params.autocorr ** (dt / DT),
                                     shock_sd=params.shock_sd * math.sqrt(dt / DT))
    return float(potential_wage_columns(np.array([prev_wage]), np.array([params.mean_wage(gender, group, prev_age)]),
                                        np.array([params.mean_wage(gender, group, age)]), params, np.array([shock]))[0])
