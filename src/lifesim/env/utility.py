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

from ..errors import ContractViolation, ParameterError
from ..paramfiles import build, load_yaml, params_dir
from ..states import EmploymentState as S, Gender, UNEMPLOYMENT_STATES, WORKING_STATES


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
    timestep_years: float
    deflator: Deflator
    kappa: dict[Gender, KappaRow]         # free-time penalties
    unemployed_age_cuts: tuple[float, float]
    mu: dict[Gender, MuRow]               # retirement-proximity slopes
    feature_scales: FeatureScales

    @property
    def step_discount(self) -> float:
        return self.discount_annual ** self.timestep_years


def load_utility_params(path: str | Path | None = None) -> UtilityParams:
    params = build(UtilityParams, load_yaml(path or params_dir() / "utility.yaml"))
    if not 0.0 < params.discount_annual < 1.0:
        raise ParameterError("annual discount factor must lie in (0, 1)")
    for gender, row in params.kappa.items():
        values = [row.work_hours[h] for h in sorted(row.work_hours)]
        if any(b > a for a, b in zip(values, values[1:])):
            raise ParameterError(f"work kappas must be non-increasing in hours ({gender})")
    return params


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
