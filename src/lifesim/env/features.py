"""State-vector encoding for the policy/value networks.

One row per agent perspective: one-hot employment state, normalized own
block, a compressed partner block, and the common household block.  All
normalizations are fixed affine maps taken from the utility parameter file.

The encoder works on a whole :class:`~lifesim.agent.HouseholdBlock` at
once.  ``block_columns`` names every field the observation and the legal
mask use, one value per adult row; ``encode_columns`` then fills
the whole block with column arithmetic that repeats the per-field formulas
operation for operation, so a row's bits do not depend on the block it is
encoded in.  ``encode`` is the block of one household.
"""

from __future__ import annotations

import numpy as np

from ..states import (
    LEAVE_STATES,
    N_STATES,
    RETIRED_STATES,
    UNEMPLOYMENT_STATES,
    WORKING_STATES,
    EmploymentState as S,
)
from ..agent import NO_EVENT, AgentState, HouseholdBlock, HouseholdState
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
_DEAD = int(S.DEAD)

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
_HOUSEHOLD_FIELDS = ("partnered", "until_birth", "until_marriage", "until_divorce", "under3", "under7", "under18")


def block_columns(b: HouseholdBlock) -> dict[str, np.ndarray]:
    """Every field the observation and the mask read, one value per adult
    row of ``b``, by name: the adult's own fields, its worked quarters and
    gender, and its household's fields."""
    c = {name: getattr(b, name) for name in _AGENT_FIELDS}
    c["condition_quarters"] = b.worked.sum(1)
    c["women"] = b.women
    for name in _HOUSEHOLD_FIELDS:
        c[name] = getattr(b, name)[b.hh]
    return c


def _clocks(values: list[np.ndarray], scales_years: tuple[float, ...]) -> np.ndarray:
    """The clock feature of each of ``values`` (quarters, ``NO_EVENT`` for
    none) as columns: years over the scale, capped at 1; 1 with no event."""
    v = np.array(values)
    return np.where(v == NO_EVENT, 1.0, np.minimum(1.0, (v * 0.25) / np.array(scales_years)[:, None])).T


def encode_columns(c: dict[str, np.ndarray], partner: np.ndarray, params: UtilityParams,
                   rules: RuleSet, out: np.ndarray) -> None:
    """Write the observation row of every adult in ``c`` (``block_columns``)
    into ``out``, each row's partner row given by ``partner`` (-1 for none);
    ``rules`` supply the length of the employment-condition window that the
    worked-quarters feature is scaled by.  Features with the same scale are
    divided as one stacked array, value by value as they would be one by one."""
    fs = params.feature_scales
    clock = fs.clock_scale_years
    rows = np.arange(len(partner))
    out[:] = 0.0

    out[rows, c["state"]] = 1.0
    i = N_STATES
    age_span = fs.age_max - fs.age_min
    out[:, i + 0] = (c["age"] - fs.age_min) / age_span
    out[:, i + 1] = c["hours"] / 48.0
    out[:, i + 2:i + 5] = (np.array([c["potential_wage"], c["paid_wage"], c["prev_paid_wage"]]) / fs.wage_scale).T
    out[:, i + 5] = c["wage_reduction"]
    out[:, i + 6:i + 8] = (np.array([c["pension_accrued"], c["pension_paid"] + c["partial_early_paid"]])
                           / fs.pension_scale).T
    out[:, i + 8] = c["ub_basis"] / fs.basis_scale
    out[:, i + 9:i + 11] = (np.array([c["ub_days_used"], np.maximum(0.0, c["ub_max_days"] - c["ub_days_used"])])
                            / fs.er_days_scale).T
    out[:, i + 11] = np.minimum(1.0, c["time_in_state"] / fs.time_in_state_years)
    out[:, i + 12] = (c["career_quarters"] * 0.25) / fs.career_years
    out[:, i + 13] = c["condition_quarters"] / rules.unemployment.er.condition_window_quarters
    out[:, i + 14:i + 17] = np.array([c["pink_slip"], c["fund_member"], c["returning"]]).T
    out[:, i + 17] = 2.0 * c["partial_early_share"]
    out[:, i + 18:i + 22] = _clocks([c["until_disability"], c["until_student"], c["until_outsider"], c["life_left"]],
                                    (clock, clock, clock, fs.life_scale_years))
    i += 22

    out[rows, i + c["group"]] = 1.0
    out[:, i + 3] = c["women"]
    i += 4

    # Rows without a partner index the last row; ``has`` masks them out.
    has = partner >= 0
    partner_state = c["state"][partner]
    out[:, i + 0] = c["partnered"]
    out[:, i + 1] = has
    out[:, i + 2] = has & (partner_state != _DEAD)
    i += 3
    out[rows[has], i + _PARTNER_GROUP_OF[partner_state[has]]] = 1.0
    i += len(_PARTNER_GROUPS)
    partner_values = np.array([c["paid_wage"][partner] / fs.wage_scale,
                               (c["pension_paid"][partner] + c["pension_accrued"][partner]) / fs.pension_scale,
                               (c["age"][partner] - fs.age_min) / age_span]).T
    out[:, i:i + 3] = np.where(has[:, None], partner_values, 0.0)
    i += 3

    out[:, i:i + 3] = np.minimum(np.array([c["under3"], c["under7"], c["under18"]]), 3).T / 3.0
    out[:, i + 3:i + 6] = _clocks([c["until_birth"], c["until_marriage"], c["until_divorce"]], (clock, clock, clock))


def encode(agent: AgentState, partner: AgentState | None, hh: HouseholdState,
           params: UtilityParams, rules: RuleSet, out: np.ndarray | None = None) -> np.ndarray:
    """One agent's observation row: ``encode_columns`` on the block of
    ``agent`` and ``partner``."""
    b = HouseholdBlock.pack([((agent,) if partner is None else (agent, partner), hh)])
    rows = np.empty((b.n, OBS_DIM))
    encode_columns(block_columns(b), b.partner, params, rules, rows)
    if out is None:
        return rows[0]
    out[:] = rows[0]
    return out
