"""Potential-wage process, paid wage, and wage-reduction dynamics.

The log of the wage relative to the group age profile follows an annual AR(1)
with autocorrelation ``c`` and shock s.d. ``sigma``; a ``-sigma^2/2`` drift
keeps the conditional mean of the lognormal on the profile.  Quarterly steps
use ``c**dt`` and ``sigma*sqrt(dt)``.

:class:`WageParams` is the schema of ``wages.yaml`` (see :mod:`lifesim.paramfiles`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Literal, get_args

import numpy as np

from .errors import ContractViolation, ParameterError
from .paramfiles import build, load_yaml, params_dir
from .states import ALLOWED_HOURS, EmploymentState, Gender

_ALLOWED_HOURS = frozenset(ALLOWED_HOURS)


@dataclass(frozen=True, slots=True)
class AgeProfile:
    """Quadratic mean-wage curve A(age): base at 18, peak_ratio * base at
    peak_age (evaluated by :meth:`WageParams.mean_wage`)."""

    base: float
    peak_ratio: float
    peak_age: float


# Socioeconomic groups 0, 1, 2.
Level = Literal["low", "mid", "high"]
_LEVELS = get_args(Level)


@dataclass(frozen=True, slots=True)
class WageParams:
    shock_sd: float
    autocorr: float
    initial_dispersion: float
    profiles: dict[Gender, dict[Level, AgeProfile]]
    floor_ratio: float                    # A(age) floors at floor_ratio * base
    reduction_annual: dict[EmploymentState, float]
    recovery_annual: dict[EmploymentState, float]

    def mean_wage(self, gender: str, group: int, age: float) -> float:
        """The age profile A(age) of the gender and socioeconomic group."""
        p = self.profiles[gender][_LEVELS[group % 3]]
        rel = 1.0 - ((age - p.peak_age) / (p.peak_age - 18.0)) ** 2
        return max(p.base * (1.0 + (p.peak_ratio - 1.0) * rel), p.base * self.floor_ratio)


def load_wage_params(path: str | Path | None = None) -> WageParams:
    params = build(WageParams, load_yaml(path or params_dir() / "wages.yaml"))
    if not 0.0 < params.autocorr < 1.0:
        raise ParameterError("wage autocorrelation must lie in (0, 1)")
    missing = set(EmploymentState) - (params.reduction_annual.keys() & params.recovery_annual.keys())
    if missing:
        raise ParameterError(f"wage reduction table missing states: {sorted(s.name for s in missing)}")
    return params


def potential_wage_columns(prev_wage: np.ndarray, prev_mean: np.ndarray, mean: np.ndarray, params: WageParams,
                           shock: np.ndarray, dt: float = 1.0) -> np.ndarray:
    """One step of the relative log-wage AR(1) for columns of agents whose
    age profile reads ``prev_mean`` at the previous age and ``mean`` at the
    new one.  The log and the exp run as ``math.log``/``math.exp`` on each
    value (numpy's differ in the last bits).

    ``shock`` holds standard-normal draws supplied by the caller so parallel
    agents can use independent, seedable streams.
    """
    c = params.autocorr ** dt
    sd = params.shock_sd * math.sqrt(dt)
    log_rel = np.fromiter(map(math.log, (prev_wage / prev_mean).tolist()), float, len(prev_wage))
    x = c * log_rel + sd * shock - 0.5 * sd * sd
    return mean * np.fromiter(map(math.exp, x.tolist()), float, len(x))


def potential_wage_step(prev_wage: float, prev_age: float, age: float, gender: str, group: int, params: WageParams,
                        shock: float, dt: float = 1.0) -> float:
    """:func:`potential_wage_columns` of one agent."""
    return float(potential_wage_columns(np.array([prev_wage]), np.array([params.mean_wage(gender, group, prev_age)]),
                                        np.array([params.mean_wage(gender, group, age)]), params, np.array([shock]),
                                        dt)[0])


def paid_wage(potential_annual, hours, reduction):
    """Paid annual wage: (hours/40) * potential * (1 - reduction), of one
    agent or of columns of agents."""
    if not set(np.ravel(hours).tolist()) <= _ALLOWED_HOURS:
        raise ContractViolation(f"weekly hours must be one of {ALLOWED_HOURS}, got {hours}")
    return (hours / 40.0) * potential_annual * (1.0 - reduction)


def update_wage_reduction(reduction, state, params: WageParams, dt: float = 0.25):
    """Move the wage reduction by the state's net annual rate over ``dt``,
    within [0, 1]: of one agent, or of columns of reductions and state codes."""
    rate = np.array([params.reduction_annual[s] - params.recovery_annual[s] for s in EmploymentState])[state]
    return np.minimum(1.0, np.maximum(0.0, reduction + rate * dt))
