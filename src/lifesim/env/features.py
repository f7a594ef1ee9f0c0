"""State-vector encoding for the policy/value networks.

One row per agent perspective: one-hot employment state, normalized own
block, a compressed partner block, and the common household block.  All
normalizations are fixed affine maps taken from the utility parameter file.

The encoder works on a block of adults at once.  ``adult_columns`` reads
every field the observation and the legal mask use, once per adult, into
float64 columns keyed by the names in ``COLUMNS``; ``encode_columns`` then
fills the whole block with column arithmetic that repeats the per-field
formulas operation for operation, so a row's bits do not depend on the block
it is encoded in.  ``encode`` is the block of one household.
"""

from __future__ import annotations

import struct
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from ..states import (
    LEAVE_STATES,
    N_STATES,
    RETIRED_STATES,
    UNEMPLOYMENT_STATES,
    WORKING_STATES,
    EmploymentState as S,
)
from ..agent import NO_EVENT, AgentState, HouseholdState
from ..rules.ruleset import RuleSet
from .utility import UtilityParams

# Partner summary categories.
_PARTNER_GROUPS = ("working", "unemployed", "retired", "disabled", "leave", "student", "outside", "dead")


def _partner_group(state: S) -> int:
    if state in WORKING_STATES:
        return 0
    if state in UNEMPLOYMENT_STATES:
        return 1
    if state in RETIRED_STATES:
        return 2
    if state is S.DISABLED:
        return 3
    if state in LEAVE_STATES or state is S.HOME_CARE:
        return 4
    if state is S.STUDENT:
        return 5
    if state is S.OUTSIDE_WF or state is S.SICK_LEAVE:
        return 6
    return 7


_PARTNER_GROUP_OF = np.array([_partner_group(s) for s in S], dtype=np.intp)

_OWN = 16 + 22      # one-hot + own continuous/flags
_IDENT = 3 + 1      # group one-hot + gender
_PARTNER = 3 + len(_PARTNER_GROUPS) + 3
_COMMON = 6
OBS_DIM = _OWN + _IDENT + _PARTNER + _COMMON

# Block columns: the adult's own fields, two derived from it, then its
# household's fields (the same in every row of a household).
_AGENT_FIELDS = (
    "state", "age", "hours", "potential_wage", "paid_wage", "prev_paid_wage", "wage_reduction",
    "pension_accrued", "pension_paid", "partial_early_paid", "partial_early_share",
    "ub_basis", "ub_days_used", "ub_max_days", "time_in_state", "career_quarters",
    "pink_slip", "fund_member", "returning", "group",
    "until_disability", "until_student", "until_outsider", "life_left",
)
_HOUSEHOLD_FIELDS = ("partnered", "until_birth", "until_marriage", "until_divorce")
COLUMNS = (*_AGENT_FIELDS, "condition_quarters", "women",
           *_HOUSEHOLD_FIELDS, "under3", "under7", "under18")
_agent_fields = attrgetter(*_AGENT_FIELDS)
_household_fields = attrgetter(*_HOUSEHOLD_FIELDS)


def adult_columns(groups: Iterable[tuple[Sequence[AgentState], HouseholdState]]
                  ) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Every adult of ``groups`` (each a sequence of adults and their
    household) as one row, in group then sequence order: the ``COLUMNS``
    as float64 columns by name, and each row's partner row, -1 for none.
    The two adults of a group of two are each other's partners."""
    values = []
    partner = []
    for adults, hh in groups:
        shared = (*_household_fields(hh), *hh.bands)
        for a in adults:
            values += _agent_fields(a)
            values += (a.condition_quarters(), a.gender == "women")
            values += shared
        n = len(partner)
        partner += (n + 1, n) if len(adults) == 2 else (-1,)
    # struct turns Python numbers into doubles about twice as fast as np.array.
    matrix = np.frombuffer(struct.pack(f"{len(values)}d", *values)).reshape(len(partner), len(COLUMNS))
    return dict(zip(COLUMNS, matrix.T)), np.array(partner)


def _clock(value: np.ndarray, scale_years: float) -> np.ndarray:
    return np.where(value == NO_EVENT, 1.0, np.minimum(1.0, (value * 0.25) / scale_years))


def encode_columns(c: dict[str, np.ndarray], partner: np.ndarray, params: UtilityParams,
                   rules: RuleSet, out: np.ndarray) -> None:
    """Write the observation row of every adult in ``c`` (``adult_columns``)
    into ``out``; ``rules`` supply the length of the employment-condition
    window that the worked-quarters feature is scaled by."""
    fs = params.feature_scales
    rows = np.arange(len(partner))
    out[:] = 0.0

    out[rows, c["state"].astype(np.intp)] = 1.0
    i = N_STATES
    age_span = fs.age_max - fs.age_min
    out[:, i + 0] = (c["age"] - fs.age_min) / age_span
    out[:, i + 1] = c["hours"] / 48.0
    out[:, i + 2] = c["potential_wage"] / fs.wage_scale
    out[:, i + 3] = c["paid_wage"] / fs.wage_scale
    out[:, i + 4] = c["prev_paid_wage"] / fs.wage_scale
    out[:, i + 5] = c["wage_reduction"]
    out[:, i + 6] = c["pension_accrued"] / fs.pension_scale
    out[:, i + 7] = (c["pension_paid"] + c["partial_early_paid"]) / fs.pension_scale
    out[:, i + 8] = c["ub_basis"] / fs.basis_scale
    out[:, i + 9] = c["ub_days_used"] / fs.er_days_scale
    out[:, i + 10] = np.maximum(0.0, c["ub_max_days"] - c["ub_days_used"]) / fs.er_days_scale
    out[:, i + 11] = np.minimum(1.0, c["time_in_state"] / fs.time_in_state_years)
    out[:, i + 12] = (c["career_quarters"] * 0.25) / fs.career_years
    out[:, i + 13] = c["condition_quarters"] / rules.unemployment.er.condition_window_quarters
    out[:, i + 14] = c["pink_slip"]
    out[:, i + 15] = c["fund_member"]
    out[:, i + 16] = c["returning"]
    out[:, i + 17] = 2.0 * c["partial_early_share"]
    out[:, i + 18] = _clock(c["until_disability"], fs.clock_scale_years)
    out[:, i + 19] = _clock(c["until_student"], fs.clock_scale_years)
    out[:, i + 20] = _clock(c["until_outsider"], fs.clock_scale_years)
    out[:, i + 21] = _clock(c["life_left"], fs.life_scale_years)
    i += 22

    out[rows, i + c["group"].astype(np.intp)] = 1.0
    out[:, i + 3] = c["women"]
    i += 4

    # Rows without a partner index the last row; ``has`` masks them out.
    has = partner >= 0
    partner_state = c["state"][partner].astype(np.intp)
    out[:, i + 0] = c["partnered"]
    out[:, i + 1] = has
    out[:, i + 2] = has & (partner_state != S.DEAD)
    i += 3
    out[rows[has], i + _PARTNER_GROUP_OF[partner_state[has]]] = 1.0
    i += len(_PARTNER_GROUPS)
    out[:, i + 0] = np.where(has, c["paid_wage"][partner] / fs.wage_scale, 0.0)
    out[:, i + 1] = np.where(
        has, (c["pension_paid"][partner] + c["pension_accrued"][partner]) / fs.pension_scale, 0.0)
    out[:, i + 2] = np.where(has, (c["age"][partner] - fs.age_min) / age_span, 0.0)
    i += 3

    out[:, i + 0] = np.minimum(c["under3"], 3) / 3.0
    out[:, i + 1] = np.minimum(c["under7"], 3) / 3.0
    out[:, i + 2] = np.minimum(c["under18"], 3) / 3.0
    out[:, i + 3] = _clock(c["until_birth"], fs.clock_scale_years)
    out[:, i + 4] = _clock(c["until_marriage"], fs.clock_scale_years)
    out[:, i + 5] = _clock(c["until_divorce"], fs.clock_scale_years)


def encode(agent: AgentState, partner: AgentState | None, hh: HouseholdState,
           params: UtilityParams, rules: RuleSet, out: np.ndarray | None = None) -> np.ndarray:
    """One agent's observation row: ``encode_columns`` on the block of
    ``agent`` and ``partner``."""
    c, partners = adult_columns([((agent,) if partner is None else (agent, partner), hh)])
    rows = np.empty((len(partners), OBS_DIM))
    encode_columns(c, partners, params, rules, rows)
    if out is None:
        return rows[0]
    out[:] = rows[0]
    return out
