"""The per-row observation encoder and legal mask as they stood before the
block rewrite, kept verbatim as a test oracle: ``encode`` and ``legal_mask``
and the helpers they call.

The tests assert that ``lifesim.env.vector.observe_households`` writes the
same bits as these functions, row by row, on seeded random-policy
trajectories.  Do not edit the functions below; they pin today's behaviour.
"""

from __future__ import annotations

import numpy as np

from lifesim.agent import NO_EVENT, AgentState, HouseholdState
from lifesim.env.actions import (
    A_FT,
    A_HOME_CARE,
    A_PARTIAL25,
    A_PARTIAL50,
    A_PT,
    A_QUIT,
    A_RETIRE,
    A_STAY,
    N_ACTIONS,
)
from lifesim.env.features import OBS_DIM, _PARTNER_GROUPS
from lifesim.env.utility import UtilityParams
from lifesim.rules.ruleset import RuleSet
from lifesim.states import (
    LEAVE_STATES,
    N_STATES,
    RETIRED_STATES,
    UNEMPLOYMENT_STATES,
    WORKING_STATES,
    EmploymentState as S,
)


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


def _clock(value: int, scale_years: float) -> float:
    if value == NO_EVENT:
        return 1.0
    return min(1.0, (value * 0.25) / scale_years)


def encode(agent: AgentState, partner: AgentState | None, hh: HouseholdState,
           params: UtilityParams, rules: RuleSet, out: np.ndarray | None = None) -> np.ndarray:
    """One agent's observation row; ``rules`` supply the length of the
    employment-condition window that the worked-quarters feature is scaled by."""
    fs = params.feature_scales
    if out is None:
        out = np.zeros(OBS_DIM, dtype=np.float64)
    else:
        out[:] = 0.0

    out[int(agent.state)] = 1.0
    i = N_STATES
    age_span = fs.age_max - fs.age_min
    out[i + 0] = (agent.age - fs.age_min) / age_span
    out[i + 1] = agent.hours / 48.0
    out[i + 2] = agent.potential_wage / fs.wage_scale
    out[i + 3] = agent.paid_wage / fs.wage_scale
    out[i + 4] = agent.prev_paid_wage / fs.wage_scale
    out[i + 5] = agent.wage_reduction
    out[i + 6] = agent.pension_accrued / fs.pension_scale
    out[i + 7] = (agent.pension_paid + agent.partial_early_paid) / fs.pension_scale
    out[i + 8] = agent.ub_basis / fs.basis_scale
    out[i + 9] = agent.ub_days_used / fs.er_days_scale
    out[i + 10] = max(0.0, agent.ub_max_days - agent.ub_days_used) / fs.er_days_scale
    out[i + 11] = min(1.0, agent.time_in_state / fs.time_in_state_years)
    out[i + 12] = (agent.career_quarters * 0.25) / fs.career_years
    out[i + 13] = agent.condition_quarters() / rules.unemployment.er.condition_window_quarters
    out[i + 14] = 1.0 if agent.pink_slip else 0.0
    out[i + 15] = 1.0 if agent.fund_member else 0.0
    out[i + 16] = 1.0 if agent.returning else 0.0
    out[i + 17] = 2.0 * agent.partial_early_share
    out[i + 18] = _clock(agent.until_disability, fs.clock_scale_years)
    out[i + 19] = _clock(agent.until_student, fs.clock_scale_years)
    out[i + 20] = _clock(agent.until_outsider, fs.clock_scale_years)
    out[i + 21] = _clock(agent.life_left, fs.life_scale_years)
    i += 22

    out[i + agent.group] = 1.0
    out[i + 3] = 1.0 if agent.gender == "women" else 0.0
    i += 4

    out[i + 0] = 1.0 if hh.partnered else 0.0
    out[i + 1] = 1.0 if partner is not None else 0.0
    out[i + 2] = 1.0 if (partner is not None and partner.alive) else 0.0
    i += 3
    if partner is not None:
        out[i + _partner_group(partner.state)] = 1.0
    i += len(_PARTNER_GROUPS)
    if partner is not None:
        out[i + 0] = partner.paid_wage / fs.wage_scale
        out[i + 1] = (partner.pension_paid + partner.pension_accrued) / fs.pension_scale
        out[i + 2] = (partner.age - fs.age_min) / age_span
    i += 3

    u3, u7, u18 = hh.bands
    out[i + 0] = min(u3, 3) / 3.0
    out[i + 1] = min(u7, 3) / 3.0
    out[i + 2] = min(u18, 3) / 3.0
    out[i + 3] = _clock(hh.until_birth, fs.clock_scale_years)
    out[i + 4] = _clock(hh.until_marriage, fs.clock_scale_years)
    out[i + 5] = _clock(hh.until_divorce, fs.clock_scale_years)
    return out


# Rows where the agent makes a fresh decision every quarter.
_DECIDE_EVERY_QUARTER = {
    S.FULL_TIME, S.PART_TIME, S.ER_UNEMPLOYED, S.ER_EXTENDED, S.BASIC_UNEMPLOYED,
    S.HOME_CARE, S.RETIRED, S.RETIRED_PT, S.RETIRED_FT, S.OUTSIDE_WF, S.STUDENT,
}


def legal_mask(agent: AgentState, hh: HouseholdState, rules: RuleSet) -> np.ndarray:
    """Boolean mask over ``ACTIONS``; stay is always legal."""
    mask = np.zeros(N_ACTIONS, dtype=bool)
    mask[A_STAY] = True
    if not agent.alive or agent.state is S.DISABLED:
        return mask

    st = agent.state
    age = agent.age
    u3 = hh.bands[0]
    can_retire = age >= rules.pension.min_retirement_age
    pe = rules.pension.partial_early
    can_partial = (
        agent.partial_early_share == 0.0
        and pe.min_age <= age < rules.pension.min_retirement_age
        and agent.pension_accrued > 0.0
        and st not in (S.RETIRED, S.RETIRED_PT, S.RETIRED_FT)
    )

    if agent.returning:
        # D*/D^ node: the spell ended, choose where to land; stay means
        # returning to the work force without a job.
        mask[list(A_FT)] = True
        mask[list(A_PT)] = True
        if can_retire:
            mask[A_RETIRE] = True
        if u3 > 0 and st is not S.SICK_LEAVE:
            mask[A_HOME_CARE] = True
        return mask

    if st not in _DECIDE_EVERY_QUARTER:
        return mask   # mid-spell leaves, sick leave, dead: no choices

    if st in (S.RETIRED, S.RETIRED_PT, S.RETIRED_FT):
        mask[list(A_FT)] = True
        mask[list(A_PT)] = True
        if st is not S.RETIRED:
            mask[A_RETIRE] = True   # stop working, plain retirement
        return mask

    if st is S.STUDENT or st is S.OUTSIDE_WF:
        mask[list(A_PT)] = True
        return mask

    if st in (S.FULL_TIME, S.PART_TIME):
        mask[list(A_FT)] = True
        mask[list(A_PT)] = True
        if st is S.FULL_TIME:
            mask[A_QUIT] = True
        if u3 > 0:
            mask[A_HOME_CARE] = True
    elif st in (S.ER_UNEMPLOYED, S.ER_EXTENDED):
        mask[list(A_FT)] = True
        mask[list(A_PT)] = True
        mask[A_QUIT] = True         # voluntary move to the basic allowance
        if u3 > 0:
            mask[A_HOME_CARE] = True
    elif st is S.BASIC_UNEMPLOYED:
        mask[list(A_FT)] = True
        mask[list(A_PT)] = True
    elif st is S.HOME_CARE:
        mask[list(A_FT)] = True
        mask[list(A_PT)] = True
        mask[A_QUIT] = True
    # Retirement is a decision cell in the work/unemployment rows only.
    if can_retire and st is not S.HOME_CARE:
        mask[A_RETIRE] = True
    if can_partial:
        mask[A_PARTIAL25] = True
        mask[A_PARTIAL50] = True
    return mask
