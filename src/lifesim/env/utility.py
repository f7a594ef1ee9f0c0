"""Per-period utility: log consumption plus free-time terms.

``u = log(c / D) + kappa - mu`` for a living agent, 0 for a dead one.
``kappa`` prices lost free time by employment state (and weekly hours for
work states); ``mu`` adds extra taste for leisure around the minimum
retirement age.  Couples evaluate utility on half the household consumption.

:class:`UtilityParams` is the schema of ``utility.yaml`` (see :mod:`lifesim.paramfiles`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..agent import DT, ENTRY_AGE, MAX_AGE
from ..errors import ContractViolation, ParameterError
from ..paramfiles import build, load_yaml
from ..states import ALLOWED_HOURS, IS_UNEMPLOYED, IS_WORKING, N_STATES, EmploymentState as S, Gender



@dataclass(frozen=True, slots=True)
class Deflator:
    base: float
    series: dict[int, float]              # per-year overrides of the base

    def at(self, year: int | None = None) -> float:
        return self.series.get(year, self.base)


@dataclass(frozen=True, slots=True)
class KappaRow:
    work_hours: dict[int, float]          # weekly hours -> kappa
    unemployed_young: float
    unemployed_middle: float
    unemployed_elderly: float
    sick_leave: float
    student: float
    retired: float
    home_care: float
    child_under3_bonus: float
    outside_wf: float
    parental_leave: float


@dataclass(frozen=True, slots=True)
class MuRow:
    q1: float                             # mu slope before retirement age, per h/40
    q2: float                             # mu slope after retirement age, per h/40
    s_age_offset: float                   # S_age = r_age + offset
    s_ret_offset: float                   # S_ret = r_age + offset


@dataclass(frozen=True, slots=True)
class FeatureScales:
    age_min: float
    age_max: float
    wage_scale: float
    pension_scale: float
    basis_scale: float
    er_days_scale: float
    clock_scale_years: float
    life_scale_years: float
    time_in_state_years: float
    career_years: float


@dataclass(frozen=True, slots=True)
class UtilityParams:
    discount_annual: float
    deflator: Deflator
    kappa: dict[Gender, KappaRow]         # free-time penalties
    unemployed_age_cuts: tuple[float, float]
    mu: dict[Gender, MuRow]               # retirement-proximity slopes
    feature_scales: FeatureScales

    @property
    def step_discount(self) -> float:
        """The discount over one model step of ``DT`` years."""
        return self.discount_annual ** DT


def load_utility_params(path: str | Path) -> UtilityParams:
    params = build(UtilityParams, load_yaml(path))
    if not 0.0 < params.discount_annual < 1.0:
        raise ParameterError("annual discount factor must lie in (0, 1)")
    for gender, row in params.kappa.items():
        values = [row.work_hours[h] for h in sorted(row.work_hours)]
        if any(b > a for a, b in zip(values, values[1:])):
            raise ParameterError(f"work kappas must be non-increasing in hours ({gender})")
    return params


def check_ages(age: np.ndarray) -> None:
    """The model's age range, ``ENTRY_AGE`` to ``MAX_AGE``, holds for every
    living agent's ``age``."""
    outside = (age < ENTRY_AGE) | (age > MAX_AGE)
    if outside.any():
        raise ContractViolation(f"age {float(age[outside][0])} outside model range")


def check_consumption(consumption: np.ndarray) -> None:
    """Every living agent's ``consumption`` is positive."""
    if (consumption <= 0.0).any():
        raise ContractViolation(
            "living agents must have positive consumption; the social assistance floor should prevent this"
        )


class UtilityColumns:
    """Per-period utility of whole columns of agents under one parameter
    set, statutory retirement age and deflator year.  The per-gender
    ``kappa`` and ``mu`` rows are arrays indexed by gender (0 men, 1
    women), built once; each formula repeats the per-agent one (the
    reference step's in ``tests/step_oracle.py``) operation for operation,
    and the log stays ``math.log`` on each value."""

    def __init__(self, params: UtilityParams, retirement_age: float, year: int | None = None) -> None:
        self.deflator = params.deflator.at(year)
        self.retirement_age = retirement_age
        self.age_cuts = params.unemployed_age_cuts
        rows = [params.kappa[g] for g in ("men", "women")]
        self.work = np.full((2, max(ALLOWED_HOURS) + 1), np.nan)
        self.other = np.zeros((2, N_STATES))
        for g, row in enumerate(rows):
            for hours, value in row.work_hours.items():
                self.work[g, hours] = value
            for states, value in (((S.SICK_LEAVE,), row.sick_leave), ((S.STUDENT,), row.student),
                                  ((S.RETIRED, S.DISABLED), row.retired), ((S.HOME_CARE,), row.home_care),
                                  ((S.MOTHERS_LEAVE, S.FATHERS_LEAVE), row.parental_leave),
                                  ((S.OUTSIDE_WF,), row.outside_wf)):
                self.other[g, list(states)] = value
        self.unemployed = np.array([(r.unemployed_young, r.unemployed_middle, r.unemployed_elderly) for r in rows])
        self.child_bonus = np.array([r.child_under3_bonus for r in rows])
        mu = [params.mu[g] for g in ("men", "women")]
        self.q1, self.q2 = np.array([p.q1 for p in mu]), np.array([p.q2 for p in mu])
        self.s_age = np.array([retirement_age + p.s_age_offset for p in mu])
        self.s_ret = np.array([retirement_age + p.s_ret_offset for p in mu])

    def kappa(self, state, women, hours, age, pink_slip, child_under3) -> np.ndarray:
        """Free-time penalty by state: by weekly hours at work, by age band
        when unemployed without a pink slip, plus the bonus for a child under 3."""
        g = women.astype(np.intp)
        young_cut, elderly_cut = self.age_cuts
        band = np.where(age < young_cut, 0, np.where(age < elderly_cut, 1, 2))
        unemployed = np.where(pink_slip, 0.0, self.unemployed[g, band])
        k = np.where(IS_WORKING[state], self.work[g, hours],
                     np.where(IS_UNEMPLOYED[state], unemployed, self.other[g, state]))
        return np.where(child_under3, k + self.child_bonus[g], k)

    def mu(self, women, hours, age) -> np.ndarray:
        """Retirement-proximity leisure preference; zero when not working."""
        check_ages(age)
        g = women.astype(np.intp)
        r = self.retirement_age
        h = hours / 40.0
        m = (self.q1[g] * h * np.maximum(0.0, np.minimum(age, r) - self.s_age[g])
             + self.q2[g] * h * np.maximum(0.0, np.minimum(age, self.s_ret[g]) - r))
        return np.where(hours > 0, m, 0.0)

    def utility(self, consumption, state, women, hours, age, pink_slip, child_under3) -> np.ndarray:
        """One-quarter utility of living agents (not yet scaled by dt)."""
        check_consumption(consumption)
        c_annual = 4.0 * consumption
        logs = np.fromiter(map(math.log, (c_annual / self.deflator).tolist()), float, len(c_annual))
        return logs + self.kappa(state, women, hours, age, pink_slip, child_under3) - self.mu(women, hours, age)
