"""Vectorized training view of the household environment.

A fixed pool of pair households advances in lockstep; each adult is one
actor slot.  Episodes run the decision phase (ages 18 to 75); at the horizon
the expected static-phase value is folded into the final reward and the slot
restarts with a freshly drawn household.  Dead agents keep their slot with a
stay-only mask and zero rewards until the household's episode ends.
"""

from __future__ import annotations

import numpy as np

from ..agent import HouseholdState
from ..population import initial_draw_tables, spawn_pair_household
from .actions import N_ACTIONS, legal_mask
from .features import OBS_DIM, encode
from .mdp import DECISION_END_AGE, DT, LifecycleEnv


def observe_households(households: list[HouseholdState], env: LifecycleEnv,
                       obs: np.ndarray, masks: np.ndarray) -> None:
    """Encode every adult of ``households`` into ``obs`` and its legal mask
    into ``masks``: one row per adult, in household then slot order."""
    row = 0
    for hh in households:
        adults = hh.adults
        for slot, adult in enumerate(adults):
            partner = adults[1 - slot] if len(adults) == 2 else None
            encode(adult, partner, hh, env.uparams, out=obs[row])
            masks[row] = legal_mask(adult, hh, env.rules)
            row += 1


class LifecycleVectorEnv:
    def __init__(
        self,
        env: LifecycleEnv,
        n_households: int = 32,
        seed: int = 0,
        year: int = 2023,
        end_age: float = DECISION_END_AGE,
    ) -> None:
        self.env = env
        self.n_households = n_households
        self.n_actors = 2 * n_households
        self.obs_dim = OBS_DIM
        self.n_actions = N_ACTIONS
        self.step_discount = env.uparams.step_discount
        self.year = year
        self.episode_quarters = int(round((end_age - 18.0) / DT))
        self._seed_stream = np.random.SeedSequence((seed, 0xF00D))
        self._draws = initial_draw_tables(env.tables)
        self._households: list[HouseholdState] = []
        self._steps: np.ndarray | None = None
        self._masks = np.zeros((self.n_actors, N_ACTIONS), dtype=bool)
        self._obs = np.zeros((self.n_actors, OBS_DIM))

    def _fresh_household(self, index: int) -> HouseholdState:
        child = self._seed_stream.spawn(1)[0]
        return spawn_pair_household(index, child, self.env.tables, self.env.wparams, self._draws,
                                    self.year)

    def reset(self) -> tuple[np.ndarray, np.ndarray]:
        self._households = [self._fresh_household(i) for i in range(self.n_households)]
        self._steps = np.zeros(self.n_households, dtype=np.int64)
        observe_households(self._households, self.env, self._obs, self._masks)
        return self._obs.copy(), self._masks.copy()

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        rewards = np.zeros(self.n_actors)
        dones = np.zeros(self.n_actors)
        for i, hh in enumerate(self._households):
            pair = tuple(int(a) for a in actions[2 * i: 2 * i + 2][: len(hh.adults)])
            masks = [self._masks[2 * i + s] for s in range(len(hh.adults))]
            out = self.env.step(hh, pair, masks=masks)
            for slot, r in enumerate(out.rewards):
                rewards[2 * i + slot] = r
            self._steps[i] += 1
            if self._steps[i] >= self.episode_quarters:
                bonus = self.env.terminal_value(hh)
                for slot, b in enumerate(bonus):
                    rewards[2 * i + slot] += b
                    dones[2 * i + slot] = 1.0
                self._households[i] = self._fresh_household(i)
                self._steps[i] = 0
        observe_households(self._households, self.env, self._obs, self._masks)
        return self._obs.copy(), self._masks.copy(), rewards, dones
