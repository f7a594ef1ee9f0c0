"""Agent and household state containers.

A household record always holds one or two adults (a fixed opposite-sex pair
when two) plus their common children; partnership toggles whether they pool
income and consumption.  All time counters are quarters unless a name says
years; wages are annual rates; pensions EUR/month.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .states import EmploymentState as S

NO_EVENT = -1   # clock value when no event is scheduled
DT = 0.25       # one model step: a quarter, in years
MAX_AGE = 100.0  # every agent is dead by this age

_DEAD = S.DEAD  # bound once: an enum class lookup costs about ten times more


@dataclass(slots=True)
class AgentState:
    gender: str                  # "men" / "women"
    group: int                   # 0 low, 1 mid, 2 high
    age: float
    state: S
    hours: int = 0
    potential_wage: float = 24000.0
    paid_wage: float = 0.0       # annual rate while working
    prev_paid_wage: float = 0.0
    wage_reduction: float = 0.0
    pink_slip: bool = False
    career_quarters: int = 0
    time_in_state: float = 0.0   # years
    # retirement block
    pension_accrued: float = 0.0     # EUR/mo before the life-expectancy cut
    pension_paid: float = 0.0        # EUR/mo in payment
    partial_early_share: float = 0.0
    partial_early_paid: float = 0.0  # EUR/mo
    # unemployment block
    fund_member: bool = True
    work_window: list[tuple[bool, float]] = field(default_factory=list)  # (worked, quarterly wage)
    new_condition_quarters: int = 0
    ub_basis: float = 0.0            # EUR/mo
    ub_days_used: float = 0.0
    ub_max_days: float = 400.0
    # pre-drawn event clocks, in quarters
    until_disability: int = NO_EVENT
    until_student: int = NO_EVENT
    until_outsider: int = NO_EVENT
    life_left: int = 0
    # forced-spell bookkeeping
    spell_left: int = 0          # remaining forced quarters in a leave/spell
    sick_quarters: int = 0
    returning: bool = False      # spell just ended: D*/D^ decision node

    @property
    def alive(self) -> bool:
        return self.state is not _DEAD

    def stop_work(self, state: S) -> None:
        """Move to the non-working ``state``: no hours, no paid wage."""
        self.state = state
        self.hours = 0
        self.paid_wage = 0.0

    def condition_quarters(self) -> int:
        return sum(1 for worked, _ in self.work_window if worked)

    def condition_wage_monthly(self) -> float:
        wages = [w for worked, w in self.work_window if worked]
        if not wages:
            return 0.0
        return sum(wages) / len(wages) / 3.0


@dataclass(slots=True)
class HouseholdState:
    adults: tuple[AgentState, ...]
    partnered: bool = False
    child_ages: list[float] = field(default_factory=list)
    until_birth: int = NO_EVENT
    until_marriage: int = NO_EVENT
    until_divorce: int = NO_EVENT
    rng_exo: np.random.Generator | None = None
    rng_act: np.random.Generator | None = None
    # Children under 3, under 7 and under 18, derived from ``child_ages``:
    # set here and by ``population.fertility_events``, its only writer.
    bands: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.bands = child_bands(self.child_ages)


def child_bands(child_ages: list[float]) -> tuple[int, int, int]:
    """(under 3, under 7, under 18) counts of ``child_ages``."""
    u3 = sum(1 for a in child_ages if a < 3.0)
    u7 = sum(1 for a in child_ages if a < 7.0)
    return u3, u7, len(child_ages)


def mother_of(hh: HouseholdState) -> AgentState | None:
    women = [a for a in hh.adults if a.gender == "women"]
    return women[0] if women else None
