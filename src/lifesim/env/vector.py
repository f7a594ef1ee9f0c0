"""Batched household stepping, and the vectorized training view.

``observe_households`` and ``step_households`` are the one encode + mask and
the one step loop shared by training and cohort simulation, with one row per
adult in household then slot order.  Observation reads each adult's fields
once into a block of float64 columns (``features.adult_columns``), then
encodes the whole block with column arithmetic (``features.encode_columns``)
and masks it from per-state tables (``actions.mask_columns``).

In training, a fixed pool of pair households advances in lockstep, each adult
one actor slot.  Episodes run the decision phase (ages 18 to 75); at the
horizon the expected static-phase value is folded into the final reward and
the slot restarts with a freshly drawn household.  Dead agents keep their
slot with a stay-only mask and zero rewards until the household's episode
ends.
"""

from __future__ import annotations

import numpy as np

from ..agent import HouseholdState
from ..population import initial_draw_tables, spawn_pair_household
# ``encode`` and ``legal_mask`` (one adult each) stay module names here for
# the traced benchmark run (lifebench/layers.py), which wraps them where
# callers used to look them up.
from .actions import N_ACTIONS, legal_mask, mask_columns  # noqa: F401
from .features import OBS_DIM, adult_columns, encode, encode_columns  # noqa: F401
from .mdp import DECISION_END_AGE, DT, LifecycleEnv, StepOutcome


def observe_households(households: list[HouseholdState], env: LifecycleEnv,
                       obs: np.ndarray, masks: np.ndarray) -> None:
    """Encode every adult of ``households`` into ``obs`` and its legal mask
    into ``masks``: one row per adult, in household then slot order."""
    columns, partner = adult_columns((hh.adults, hh) for hh in households)
    encode_columns(columns, partner, env.uparams, env.rules, obs)
    mask_columns(columns, env.rules, masks)


def step_households(households: list[HouseholdState], env: LifecycleEnv,
                    actions, masks: np.ndarray) -> list[StepOutcome]:
    """Advance every household one quarter on ``actions`` and ``masks``, in
    the ``observe_households`` row layout."""
    actions = np.asarray(actions).tolist()
    outcomes = []
    row = 0
    for hh in households:
        n = len(hh.adults)
        outcomes.append(env.step(hh, tuple(actions[row:row + n]), masks=masks[row:row + n]))
        row += n
    return outcomes


class LifecycleVectorEnv:
    def __init__(
        self,
        env: LifecycleEnv,
        n_households: int = 32,
        seed: int = 0,
        year: int = 2023,
    ) -> None:
        self.env = env
        self.n_households = n_households
        self.n_actors = 2 * n_households
        self.obs_dim = OBS_DIM
        self.n_actions = N_ACTIONS
        self.step_discount = env.uparams.step_discount
        self.year = year
        self.episode_quarters = int(round((DECISION_END_AGE - 18.0) / DT))
        self._seed_stream = np.random.SeedSequence((seed, 0xF00D))
        self._draws = initial_draw_tables(env.tables)
        self._households: list[HouseholdState] = []
        self._steps: np.ndarray | None = None
        self._masks = np.zeros((self.n_actors, N_ACTIONS), dtype=bool)
        self._obs = np.zeros((self.n_actors, OBS_DIM))

    def _fresh_household(self) -> HouseholdState:
        child = self._seed_stream.spawn(1)[0]
        return spawn_pair_household(child, self.env.tables, self.env.wparams, self._draws, self.year)

    def reset(self) -> tuple[np.ndarray, np.ndarray]:
        self._households = [self._fresh_household() for _ in range(self.n_households)]
        self._steps = np.zeros(self.n_households, dtype=np.int64)
        observe_households(self._households, self.env, self._obs, self._masks)
        return self._obs.copy(), self._masks.copy()

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        outcomes = step_households(self._households, self.env, actions, self._masks)
        rewards = np.array([out.rewards for out in outcomes]).reshape(self.n_actors)
        dones = np.zeros(self.n_actors)
        self._steps += 1
        for i in np.flatnonzero(self._steps >= self.episode_quarters).tolist():
            rewards[2 * i: 2 * i + 2] += self.env.terminal_value(self._households[i])
            dones[2 * i: 2 * i + 2] = 1.0
            self._households[i] = self._fresh_household()
            self._steps[i] = 0
        observe_households(self._households, self.env, self._obs, self._masks)
        return self._obs.copy(), self._masks.copy(), rewards, dones
