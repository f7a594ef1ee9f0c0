"""Quarterly household decision environment."""

from .actions import ACTIONS, N_ACTIONS, Action, Decision, legal_mask
from ..agent import DECISION_END_AGE, DT, NO_EVENT, AgentState, HouseholdState
from .features import OBS_DIM, encode
from .mdp import LifecycleEnv, StepOutcome
from .utility import UtilityParams, load_utility_params

__all__ = [
    "ACTIONS",
    "Action",
    "AgentState",
    "DECISION_END_AGE",
    "DT",
    "Decision",
    "HouseholdState",
    "LifecycleEnv",
    "N_ACTIONS",
    "NO_EVENT",
    "OBS_DIM",
    "StepOutcome",
    "UtilityParams",
    "encode",
    "legal_mask",
    "load_utility_params",
]
