"""Discrete action catalogue and per-state legal-action masks.

Flat catalogue: stay, six work-hours choices (part-time 8/16/24, full-time
32/40/48), quit to unemployment, retire, the two partial early pension draws,
and child home care.  Which entries are legal follows the decision cells of
the transition table plus the age gates (retirement, partial early pension).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from ..rules.ruleset import RuleSet
from ..states import EmploymentState as S
from ..agent import AgentState, HouseholdState


class Decision(IntEnum):
    STAY = 0
    WORK_PT = 1
    WORK_FT = 2
    QUIT = 3
    RETIRE = 4
    PARTIAL_25 = 5
    PARTIAL_50 = 6
    HOME_CARE = 7


@dataclass(frozen=True, slots=True)
class Action:
    decision: Decision
    hours: int = 0


ACTIONS: tuple[Action, ...] = (
    Action(Decision.STAY),
    Action(Decision.WORK_PT, 8),
    Action(Decision.WORK_PT, 16),
    Action(Decision.WORK_PT, 24),
    Action(Decision.WORK_FT, 32),
    Action(Decision.WORK_FT, 40),
    Action(Decision.WORK_FT, 48),
    Action(Decision.QUIT),
    Action(Decision.RETIRE),
    Action(Decision.PARTIAL_25),
    Action(Decision.PARTIAL_50),
    Action(Decision.HOME_CARE),
)
N_ACTIONS = len(ACTIONS)

A_STAY = 0
A_PT = (1, 2, 3)
A_FT = (4, 5, 6)
A_QUIT = 7
A_RETIRE = 8
A_PARTIAL25 = 9
A_PARTIAL50 = 10
A_HOME_CARE = 11

# Rows where the agent makes a fresh decision every quarter.
_DECIDE_EVERY_QUARTER = {
    S.FULL_TIME, S.PART_TIME, S.ER_UNEMPLOYED, S.ER_EXTENDED, S.BASIC_UNEMPLOYED,
    S.HOME_CARE, S.RETIRED, S.RETIRED_PT, S.RETIRED_FT, S.OUTSIDE_WF, S.STUDENT,
}


def legal_mask(agent: AgentState, hh: HouseholdState, rules: RuleSet) -> np.ndarray:
    """Boolean mask over ``ACTIONS``; stay is always legal."""
    mask = np.zeros(N_ACTIONS, dtype=bool)
    mask[A_STAY] = True
    if not agent.alive or agent.state is S.DISABLED:
        return mask

    st = agent.state
    age = agent.age
    u3 = hh.bands[0]
    can_retire = age >= rules.pension.min_retirement_age
    pe = rules.pension.partial_early
    can_partial = (
        agent.partial_early_share == 0.0
        and pe.min_age <= age < rules.pension.min_retirement_age
        and agent.pension_accrued > 0.0
        and st not in (S.RETIRED, S.RETIRED_PT, S.RETIRED_FT)
    )

    if agent.returning:
        # D*/D^ node: the spell ended, choose where to land; stay means
        # returning to the work force without a job.
        mask[list(A_FT)] = True
        mask[list(A_PT)] = True
        if can_retire:
            mask[A_RETIRE] = True
        if u3 > 0 and st is not S.SICK_LEAVE:
            mask[A_HOME_CARE] = True
        return mask

    if st not in _DECIDE_EVERY_QUARTER:
        return mask   # mid-spell leaves, sick leave, dead: no choices

    if st in (S.RETIRED, S.RETIRED_PT, S.RETIRED_FT):
        mask[list(A_FT)] = True
        mask[list(A_PT)] = True
        if st is not S.RETIRED:
            mask[A_RETIRE] = True   # stop working, plain retirement
        return mask

    if st is S.STUDENT or st is S.OUTSIDE_WF:
        mask[list(A_PT)] = True
        return mask

    if st in (S.FULL_TIME, S.PART_TIME):
        mask[list(A_FT)] = True
        mask[list(A_PT)] = True
        if st is S.FULL_TIME:
            mask[A_QUIT] = True
        if u3 > 0:
            mask[A_HOME_CARE] = True
    elif st in (S.ER_UNEMPLOYED, S.ER_EXTENDED):
        mask[list(A_FT)] = True
        mask[list(A_PT)] = True
        mask[A_QUIT] = True         # voluntary move to the basic allowance
        if u3 > 0:
            mask[A_HOME_CARE] = True
    elif st is S.BASIC_UNEMPLOYED:
        mask[list(A_FT)] = True
        mask[list(A_PT)] = True
    elif st is S.HOME_CARE:
        mask[list(A_FT)] = True
        mask[list(A_PT)] = True
        mask[A_QUIT] = True
    # Retirement is a decision cell in the work/unemployment rows only.
    if can_retire and st is not S.HOME_CARE:
        mask[A_RETIRE] = True
    if can_partial:
        mask[A_PARTIAL25] = True
        mask[A_PARTIAL50] = True
    return mask


def legal_actions(agent: AgentState, hh: HouseholdState, rules: RuleSet) -> list[Action]:
    mask = legal_mask(agent, hh, rules)
    return [ACTIONS[i] for i in range(N_ACTIONS) if mask[i]]
