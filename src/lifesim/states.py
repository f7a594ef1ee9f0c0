"""Employment states shared by the rules engine and the decision environment."""

from __future__ import annotations

from enum import IntEnum
from typing import Literal

import numpy as np

# The two agent genders; a parameter table keyed by gender must name both.
Gender = Literal["men", "women"]


class EmploymentState(IntEnum):
    FULL_TIME = 0
    PART_TIME = 1
    ER_UNEMPLOYED = 2       # earnings-related benefit
    BASIC_UNEMPLOYED = 3    # basic allowance / labor market support
    ER_EXTENDED = 4         # age-gated ER continuation until retirement
    RETIRED = 5
    RETIRED_PT = 6
    RETIRED_FT = 7
    DISABLED = 8
    MOTHERS_LEAVE = 9
    FATHERS_LEAVE = 10
    HOME_CARE = 11          # child home care allowance
    STUDENT = 12
    OUTSIDE_WF = 13
    SICK_LEAVE = 14
    DEAD = 15


S = EmploymentState

N_STATES = len(EmploymentState)

WORKING_STATES = frozenset({S.FULL_TIME, S.PART_TIME, S.RETIRED_PT, S.RETIRED_FT})
UNEMPLOYMENT_STATES = frozenset({S.ER_UNEMPLOYED, S.BASIC_UNEMPLOYED, S.ER_EXTENDED})
RETIRED_STATES = frozenset({S.RETIRED, S.RETIRED_PT, S.RETIRED_FT})
PENSION_STATES = frozenset({S.RETIRED, S.RETIRED_PT, S.RETIRED_FT, S.DISABLED})
LEAVE_STATES = frozenset({S.MOTHERS_LEAVE, S.FATHERS_LEAVE})


def state_flags(states) -> np.ndarray:
    """A flag per state code: whether the state is in ``states``."""
    return np.array([s in states for s in S])


IS_WORKING, IS_UNEMPLOYED = state_flags(WORKING_STATES), state_flags(UNEMPLOYMENT_STATES)
IS_RETIRED, IS_PENSION = state_flags(RETIRED_STATES), state_flags(PENSION_STATES)

# Weekly hours: part time 8/16/24, full time 32/40/48.
ALLOWED_HOURS = (8, 16, 24, 32, 40, 48)
