"""Agent and household state: the column block a population is drawn into
and stepped as, and the records of the one-household API.

A household holds one or two adults (a fixed opposite-sex pair when two)
plus their common children; partnership toggles whether they pool income
and consumption.  All time counters are quarters unless a name says years;
wages are annual rates; pensions EUR/month.

:class:`HouseholdBlock` holds a list of households as columns: one array per
:class:`AgentState` field with one row per adult, in household then slot
order (the row layout of the observation batch), and one array per
:class:`HouseholdState` field with one row per household.  Populations are
drawn into a :meth:`~HouseholdBlock.new` block; only the one-household API
and the tests pack records (``pack``, ``of``) or write back (``write_back``).
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractViolation
from .states import EmploymentState as S

NO_EVENT = -1   # clock value when no event is scheduled
# The life grid: every agent enters at ENTRY_AGE and steps a quarter at a
# time, deciding until DECISION_END_AGE and dead by MAX_AGE.
DT = 0.25       # one model step: a quarter, in years
ENTRY_AGE = 18.0
DECISION_END_AGE = 75.0
MAX_AGE = 100.0
DECISION_QUARTERS = int(round((DECISION_END_AGE - ENTRY_AGE) / DT))
LIFE_QUARTERS = int(round((MAX_AGE - ENTRY_AGE) / DT))

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
    key: tuple[int, int] = (0, 0)   # (population seed, household id) of its draws
    quarter: int = 0                # quarters stepped since 18: the draws' row
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


# AgentState fields held as one column each, by dtype.
_FLOATS = ("age", "potential_wage", "paid_wage", "prev_paid_wage", "wage_reduction", "time_in_state",
           "pension_accrued", "pension_paid", "partial_early_share", "partial_early_paid",
           "ub_basis", "ub_days_used", "ub_max_days")
_INTS = ("group", "hours", "career_quarters", "new_condition_quarters", "until_disability",
         "until_student", "until_outsider", "life_left", "spell_left", "sick_quarters")
_BOOLS = ("pink_slip", "fund_member", "returning")
_DTYPES = {**dict.fromkeys(_FLOATS, float), **dict.fromkeys(_INTS, np.int64), **dict.fromkeys(_BOOLS, bool)}
_COLUMNS = {"state": np.int64, **_DTYPES}
# A new adult's column values: the record defaults, aged 18 (0 for a field without one).
_DEFAULTS = {**{f.name: f.default for f in fields(AgentState) if f.default is not MISSING}, "age": ENTRY_AGE}
_HOUSEHOLD_INTS = ("until_birth", "until_marriage", "until_divorce")
# The columns that hold the state of an adult and of a household.
_ADULT_STATE = (*_COLUMNS, "worked", "window_wage", "window_len")
_HOUSEHOLD_STATE = ("partnered", *_HOUSEHOLD_INTS, "child_used", "under3", "under7", "under18", "seed", "ids",
                    "quarter")
_agent_values = attrgetter(*_COLUMNS)


class HouseholdBlock:
    """A list of households as columns.

    Adult rows (``n``): ``state`` codes, ``women``, the ``_FLOATS``,
    ``_INTS`` and ``_BOOLS`` fields, and the work window as right-aligned
    ``worked``/``window_wage`` arrays with ``window_len`` entries per row;
    ``hh``, ``slot`` and ``partner`` (-1 for none) place a row.  Household
    rows (``m``): ``first`` row, ``size``, ``partnered``, the birth,
    marriage and divorce clocks, ``child_age`` (a column per child ever
    held, in birth order, NaN once gone), the child bands, the ``mother``
    and ``father`` rows (-1 for none), and the key of each household's
    draws (``seed``, ``ids``) with its ``quarter``.  The draws themselves,
    ``uniforms`` and ``normals``, are arrays drawn when the block starts
    (``lifesim.population.draw_life``).  The budget
    ``units`` (see ``LifecycleEnv.units``, with the ``unit_key`` they were
    formed from and the ``sharers`` of each unit's consumption), the last
    quarter's ``event`` codes and ``birth`` flags are kept beside the state;
    nothing priced is (see ``PricingLedger``).
    """

    @classmethod
    def new(cls, sizes: Sequence[int], women: Sequence[bool], window: int) -> "HouseholdBlock":
        """Households of ``sizes`` (one or two) adults, ``women`` flagging
        each adult row, with a ``window``-quarter work window: every adult
        18, every field at its record default, household ``h`` keyed
        (0, ``h``) at quarter 0, no draws."""
        b = cls()
        b.size = np.array(sizes, dtype=np.int64)
        b.n, b.m = int(b.size.sum()), len(b.size)
        b.first = np.cumsum(b.size) - b.size
        b.rows = np.arange(b.n)
        b.hh = np.repeat(np.arange(b.m), b.size)
        b.slot = b.rows - b.first[b.hh]
        b.partner = np.where(b.size[b.hh] == 2, b.first[b.hh] + 1 - b.slot, -1)
        b.women = np.array(women, dtype=np.int64)   # 1 women, 0 men
        for name, dtype in _COLUMNS.items():
            setattr(b, name, np.full(b.n, _DEFAULTS.get(name, 0), dtype=dtype))
        b.worked = np.zeros((b.n, window), dtype=bool)
        b.window_wage = np.zeros((b.n, window))
        b.window_len = np.zeros(b.n, dtype=np.int64)
        b.partnered = np.zeros(b.m, dtype=bool)
        for name in _HOUSEHOLD_INTS:
            setattr(b, name, np.full(b.m, NO_EVENT, dtype=np.int64))
        b.child_age = np.full((b.m, 1), np.nan)
        b.child_used, b.under3, b.under7, b.under18 = (np.zeros(b.m, dtype=np.int64) for _ in range(4))
        # The first adult of each gender, -1 for none.
        last = b.first + b.size - 1
        b.mother, b.father = (np.where(b.women[b.first] == flag, b.first, np.where(b.women[last] == flag, last, -1))
                              for flag in (1, 0))
        b.pairs = np.flatnonzero(b.size == 2)
        b.with_mother = np.flatnonzero(b.mother >= 0)
        b.seed, b.ids, b.quarter = np.zeros(b.m, dtype=np.uint64), np.arange(b.m), np.zeros(b.m, dtype=np.int64)
        b.uniforms = b.normals = None   # set by lifesim.population.draw_life
        b.units = b.unit_key = b.sharers = None   # set by LifecycleEnv.units
        b.event = np.zeros(b.n, dtype=np.int8)
        b.birth = np.zeros(b.m, dtype=bool)
        b.stale = np.ones(b.m, dtype=bool)   # flows not priced for the static phase yet
        return b

    @classmethod
    def pack(cls, groups: Iterable[tuple[Sequence[AgentState], HouseholdState]],
             window: int = 0) -> "HouseholdBlock":
        """Each group (one or two adults, and their household) as one
        household of a :meth:`new` block, its work window ``window`` quarters
        wide (the rule length), or the longest window's width when 0."""
        groups = [(tuple(adults), hh) for adults, hh in groups]
        adults = [a for group, _ in groups for a in group]
        width = max([window] + [len(a.work_window) for a in adults])
        if window and width > window:
            raise ContractViolation(f"a work window holds more than the rule's {window} quarters")
        b = cls.new([len(group) for group, _ in groups], [a.gender == "women" for a in adults], width)
        # Every field through one float64 array (ints and flags are exact in it).
        values = np.array([_agent_values(a) for a in adults], dtype=float).reshape(b.n, -1).T.copy()
        for i, (name, dtype) in enumerate(_COLUMNS.items()):
            setattr(b, name, values[i].astype(dtype))
        b.window_len[:] = [len(a.work_window) for a in adults]
        for r, a in enumerate(adults):
            if a.work_window:
                tail = slice(width - len(a.work_window), width)
                b.worked[r, tail], b.window_wage[r, tail] = zip(*a.work_window)
        records = [hh for _, hh in groups]
        b.partnered[:] = [hh.partnered for hh in records]
        for name in _HOUSEHOLD_INTS:
            getattr(b, name)[:] = [getattr(hh, name) for hh in records]
        b.child_used[:] = [len(hh.child_ages) for hh in records]
        b.child_age = np.full((b.m, max(1, int(b.child_used.max()))), np.nan)
        for h, hh in enumerate(records):
            b.child_age[h, :len(hh.child_ages)] = hh.child_ages
        bands = np.array([hh.bands for hh in records], dtype=np.int64).reshape(b.m, 3)
        b.under3, b.under7, b.under18 = bands.T.copy()
        b.seed[:], b.ids[:] = np.array([hh.key for hh in records], dtype=np.uint64).reshape(b.m, 2).T
        b.quarter[:] = [hh.quarter for hh in records]
        return b

    @classmethod
    def of(cls, households: Iterable[HouseholdState], window: int = 0) -> "HouseholdBlock":
        """The block of ``households``, each with its adults in slot order."""
        return cls.pack(((hh.adults, hh) for hh in households), window)

    def take(self, lo: int, hi: int) -> "HouseholdBlock":
        """Households ``lo`` to ``hi`` (exclusive) as a :meth:`new` block of
        their own: a copy of their state columns and keys, without draws."""
        r0, r1 = int(self.first[lo]), self.n if hi >= self.m else int(self.first[hi])
        b = HouseholdBlock.new(self.size[lo:hi], self.women[r0:r1], self.worked.shape[1])
        for name in _ADULT_STATE:
            setattr(b, name, getattr(self, name)[r0:r1].copy())
        for name in _HOUSEHOLD_STATE:
            setattr(b, name, getattr(self, name)[lo:hi].copy())
        b.child_age = self.child_age[lo:hi, :max(1, int(b.child_used.max()))].copy()
        return b

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
        columns = {name: getattr(self, name).tolist() for name in _DTYPES}
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
            hh.quarter = int(self.quarter[h])

