"""Discrete action catalogue and per-state legal-action masks.

Flat catalogue: stay, six work-hours choices (part-time 8/16/24, full-time
32/40/48), quit to unemployment, retire, the two partial early pension draws,
and child home care.  Which entries are legal follows the decision cells of
the transition table plus the age gates (retirement, partial early pension).

The rules are per-state tables: the choices of each state, and the states in
which retirement, the partial early pension and home care open up once their
gate (age, pension accrued, a child under 3) holds, with their own row for a
returning agent.  ``mask_columns`` applies them to a whole household block
(``features.block_columns``) at once; ``legal_mask`` is the block of one adult.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from ..rules.ruleset import RuleSet
from ..states import EmploymentState as S
from ..agent import AgentState, HouseholdBlock, HouseholdState
from .features import block_columns


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

# The choices of each state that decides every quarter, before the gates
# below; every other state (mid-spell leaves, sick leave, disability, death)
# may only stay.
_DECIDE_EVERY_QUARTER = {
    S.FULL_TIME: (*A_FT, *A_PT, A_QUIT),
    S.PART_TIME: (*A_FT, *A_PT),
    S.ER_UNEMPLOYED: (*A_FT, *A_PT, A_QUIT),   # quit: voluntary move to the basic allowance
    S.ER_EXTENDED: (*A_FT, *A_PT, A_QUIT),
    S.BASIC_UNEMPLOYED: (*A_FT, *A_PT),
    S.HOME_CARE: (*A_FT, *A_PT, A_QUIT),
    S.RETIRED: (*A_FT, *A_PT),
    S.RETIRED_PT: (*A_FT, *A_PT, A_RETIRE),   # retire: stop working, plain retirement
    S.RETIRED_FT: (*A_FT, *A_PT, A_RETIRE),
    S.STUDENT: A_PT,
    S.OUTSIDE_WF: A_PT,
}
# Home care while a child is under 3.
_HOME_CARE_ROWS = {S.FULL_TIME, S.PART_TIME, S.ER_UNEMPLOYED, S.ER_EXTENDED}
# Retirement is a decision cell in the work/unemployment rows only.
_RETIRE_ROWS = {S.FULL_TIME, S.PART_TIME, S.ER_UNEMPLOYED, S.ER_EXTENDED, S.BASIC_UNEMPLOYED}
_PARTIAL_ROWS = {S.FULL_TIME, S.PART_TIME, S.ER_UNEMPLOYED, S.ER_EXTENDED, S.BASIC_UNEMPLOYED,
                 S.HOME_CARE}
# A returning agent (D*/D^ node: the spell ended) chooses where to land, in
# any living state but disability; stay means returning to the work force
# without a job.  Retirement when old enough, home care while a child is
# under 3 unless the spell was sick leave.
_RETURN_ROWS = set(S) - {S.DEAD, S.DISABLED}
_RETURN_HOME_CARE_ROWS = _RETURN_ROWS - {S.SICK_LEAVE}


def _flags(size: int, indices) -> np.ndarray:
    flags = np.zeros(size, dtype=bool)
    flags[list(indices)] = True
    return flags


# Per-state tables, indexed by state code.
_CHOICES = np.array([_flags(N_ACTIONS, (A_STAY, *_DECIDE_EVERY_QUARTER.get(s, ()))) for s in S])
_HOME_CARE_GATE = _flags(len(S), _HOME_CARE_ROWS)
_RETIRE_GATE = _flags(len(S), _RETIRE_ROWS)
_PARTIAL_GATE = _flags(len(S), _PARTIAL_ROWS)
_RETURN_GATE = _flags(len(S), _RETURN_ROWS)
_RETURN_HOME_CARE_GATE = _flags(len(S), _RETURN_HOME_CARE_ROWS)
_RETURN_CHOICES = _flags(N_ACTIONS, (A_STAY, *A_FT, *A_PT))


def mask_columns(c: dict[str, np.ndarray], rules: RuleSet, out: np.ndarray) -> None:
    """Write the legal mask over ``ACTIONS`` of every adult in ``c``
    (``features.block_columns``) into ``out``; stay is always legal."""
    st = c["state"].astype(np.intp)
    age = c["age"]
    pension = rules.pension
    can_retire = age >= pension.min_retirement_age
    can_partial = ((c["partial_early_share"] == 0.0) & (pension.partial_early.min_age <= age)
                   & (age < pension.min_retirement_age) & (c["pension_accrued"] > 0.0))
    returning = (c["returning"] != 0.0) & _RETURN_GATE[st]
    under3 = c["under3"] > 0
    out[:] = np.where(returning[:, None], _RETURN_CHOICES, _CHOICES[st])
    out[:, A_RETIRE] |= can_retire & (returning | _RETIRE_GATE[st])
    out[:, A_HOME_CARE] |= under3 & np.where(returning, _RETURN_HOME_CARE_GATE[st], _HOME_CARE_GATE[st])
    partial = can_partial & ~returning & _PARTIAL_GATE[st]
    out[:, A_PARTIAL25] = partial
    out[:, A_PARTIAL50] = partial


def legal_mask(agent: AgentState, hh: HouseholdState, rules: RuleSet) -> np.ndarray:
    """Boolean mask over ``ACTIONS``: ``mask_columns`` on a block of one."""
    mask = np.empty((1, N_ACTIONS), dtype=bool)
    mask_columns(block_columns(HouseholdBlock.pack([((agent,), hh)])), rules, mask)
    return mask[0]
