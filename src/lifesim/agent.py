"""Agent and household state: the records a population is drawn as, and the
column block that the quarter step runs on.

A household record always holds one or two adults (a fixed opposite-sex pair
when two) plus their common children; partnership toggles whether they pool
income and consumption.  All time counters are quarters unless a name says
years; wages are annual rates; pensions EUR/month.

:class:`HouseholdBlock` holds a list of households as columns: one array per
:class:`AgentState` field with one row per adult, in household then slot
order (the row layout of the observation batch), and one array per
:class:`HouseholdState` field with one row per household.  It is packed once
from the records and can write its rows back into them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractViolation
from .states import EmploymentState as S

NO_EVENT = -1   # clock value when no event is scheduled
DT = 0.25       # one model step: a quarter, in years
MAX_AGE = 100.0  # every agent is dead by this age

_DEAD = S.DEAD  # bound once: an enum class lookup costs about ten times more
STATES = tuple(S)  # state code -> member


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
    # set here and by the fertility events, the only writers of both.
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


# AgentState fields held as one column each, by dtype.
_FLOATS = ("age", "potential_wage", "paid_wage", "prev_paid_wage", "wage_reduction", "time_in_state",
           "pension_accrued", "pension_paid", "partial_early_share", "partial_early_paid",
           "ub_basis", "ub_days_used", "ub_max_days")
_INTS = ("group", "hours", "career_quarters", "new_condition_quarters", "until_disability",
         "until_student", "until_outsider", "life_left", "spell_left", "sick_quarters")
_BOOLS = ("pink_slip", "fund_member", "returning")
_HOUSEHOLD_INTS = ("until_birth", "until_marriage", "until_divorce")
_agent_values = attrgetter("state", *_FLOATS, *_INTS, *_BOOLS)


class HouseholdBlock:
    """A list of households as columns.

    Adult rows (``n``): ``state`` codes, ``women``, the ``_FLOATS``,
    ``_INTS`` and ``_BOOLS`` fields, and the work window as right-aligned
    ``worked``/``window_wage`` arrays with ``window_len`` entries per row;
    ``hh``, ``slot`` and ``partner`` (-1 for none) place a row.  Household
    rows (``m``): ``first`` row, ``size``, ``partnered``, the birth,
    marriage and divorce clocks, ``child_age`` (a column per child ever
    held, in birth order, NaN once gone), the child bands, the ``mother``
    and ``father`` rows (-1 for none) and the generators.  The budget
    ``units`` (see ``LifecycleEnv.units``, with the ``unit_key`` they were
    formed from and the ``sharers`` of each unit's consumption), the last
    quarter's ``event`` codes and ``birth`` flags are kept beside the state;
    nothing priced is (see ``PricingLedger``).
    """

    @classmethod
    def pack(cls, groups: Iterable[tuple[Sequence[AgentState], HouseholdState]],
             window: int = 0) -> "HouseholdBlock":
        """Each group (a sequence of one or two adults, and their household)
        as one household; the two adults of a group are each other's
        partners.  The work window is ``window`` quarters wide (the rule
        length), or as wide as the longest window when ``window`` is 0."""
        b = cls()
        groups = [(tuple(adults), hh) for adults, hh in groups]
        adults = [a for group, _ in groups for a in group]
        sizes = [len(group) for group, _ in groups]
        b.n, b.m = len(adults), len(groups)
        b.size = np.array(sizes, dtype=np.int64)
        b.first = np.cumsum([0] + sizes)[:-1]
        b.rows = np.arange(b.n)
        b.hh = np.repeat(np.arange(b.m), b.size)
        b.slot = b.rows - b.first[b.hh]
        b.partner = np.where(b.size[b.hh] == 2, b.first[b.hh] + 1 - b.slot, -1)
        # Every field through one float64 array (ints and flags are exact in it).
        values = np.array([_agent_values(a) for a in adults], dtype=float).reshape(b.n, -1).T.copy()
        b.state = values[0].astype(np.int64)
        for i, name in enumerate(_FLOATS + _INTS + _BOOLS, start=1):
            dtype = float if name in _FLOATS else bool if name in _BOOLS else np.int64
            setattr(b, name, values[i].astype(dtype))
        b.women = np.array([a.gender == "women" for a in adults], dtype=np.int64)   # 1 women, 0 men
        width = max([window] + [len(a.work_window) for a in adults])
        if window and width > window:
            raise ContractViolation(f"a work window holds more than the rule's {window} quarters")
        b.worked = np.zeros((b.n, width), dtype=bool)
        b.window_wage = np.zeros((b.n, width))
        b.window_len = np.array([len(a.work_window) for a in adults], dtype=np.int64)
        for r, a in enumerate(adults):
            if a.work_window:
                tail = slice(width - len(a.work_window), width)
                b.worked[r, tail], b.window_wage[r, tail] = zip(*a.work_window)

        records = [hh for _, hh in groups]
        b.partnered = np.array([hh.partnered for hh in records], dtype=bool)
        for name in _HOUSEHOLD_INTS:
            setattr(b, name, np.array([getattr(hh, name) for hh in records], dtype=np.int64))
        b.child_age = np.full((b.m, max([1] + [len(hh.child_ages) for hh in records])), np.nan)
        for h, hh in enumerate(records):
            b.child_age[h, :len(hh.child_ages)] = hh.child_ages
        b.child_used = np.array([len(hh.child_ages) for hh in records], dtype=np.int64)
        bands = np.array([hh.bands for hh in records], dtype=np.int64).reshape(b.m, 3)
        b.under3, b.under7, b.under18 = bands[:, 0].copy(), bands[:, 1].copy(), bands[:, 2].copy()
        # The first adult of each gender, -1 for none.
        b.mother, b.father = (np.array([next((f + i for i, a in enumerate(group) if a.gender == gender), -1)
                                        for f, (group, _) in zip(b.first.tolist(), groups)], dtype=np.int64)
                              for gender in ("women", "men"))
        b.pairs = np.flatnonzero(b.size == 2)
        b.with_mother = np.flatnonzero(b.mother >= 0)
        b.rng_exo = [hh.rng_exo for hh in records]
        b.rng_act = [hh.rng_act for hh in records]

        b.units = b.unit_key = b.sharers = None   # set by LifecycleEnv.units
        b.event = np.zeros(b.n, dtype=np.int8)
        b.birth = np.zeros(b.m, dtype=bool)
        b.stale = np.ones(b.m, dtype=bool)   # flows not priced for the static phase yet
        return b

    @classmethod
    def of(cls, households: Iterable[HouseholdState], window: int = 0) -> "HouseholdBlock":
        """The block of ``households``, each with its adults in slot order."""
        return cls.pack(((hh.adults, hh) for hh in households), window)

    def stop_work(self, rows, state: int) -> None:
        """Move ``rows`` to the non-working ``state``: no hours, no paid wage."""
        self.state[rows] = state
        self.hours[rows] = 0
        self.paid_wage[rows] = 0.0

    def write_back(self, households: Sequence[HouseholdState]) -> None:
        """Write every row into ``households``, the records the block was
        packed from by :meth:`of`."""
        adults = [a for hh in households for a in hh.adults]
        states = [STATES[code] for code in self.state.tolist()]
        columns = {name: getattr(self, name).tolist() for name in (*_FLOATS, *_INTS, *_BOOLS)}
        width = self.worked.shape[1]
        for r, a in enumerate(adults):
            a.state = states[r]
            for name, column in columns.items():
                setattr(a, name, column[r])
            start = width - int(self.window_len[r])
            a.work_window = list(zip(self.worked[r, start:].tolist(), self.window_wage[r, start:].tolist()))
        bands = zip(self.under3.tolist(), self.under7.tolist(), self.under18.tolist())
        for h, (hh, band) in enumerate(zip(households, bands)):
            hh.partnered = bool(self.partnered[h])
            for name in _HOUSEHOLD_INTS:
                setattr(hh, name, int(getattr(self, name)[h]))
            hh.child_ages = [age for age in self.child_age[h].tolist() if age == age]
            hh.bands = band

