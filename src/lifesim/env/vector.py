"""Batched household stepping, and the vectorized training view.

Training and cohort simulation hold their households as one
:class:`~lifesim.agent.HouseholdBlock`, packed once from the drawn records:
one row per adult in household then slot order, one column per field.
``observe`` encodes and masks the whole block from its columns with no
per-adult gather, and ``LifecycleEnv.step_block`` advances it a quarter
phase by phase.  Each household draws its ``rng_exo`` in the order it would
if stepped alone: ``standard_normal(2)``, ``random(12)``, then partnership,
fertility, adult 0's and adult 1's conditional draws.  Transcendentals stay
scalar and sums keep Python's left-to-right order (see
:mod:`lifesim.env.mdp`).  ``observe_households`` and ``step_households`` do
the same for a list of records, which they update.

In training, a fixed pool of pair households advances in lockstep, each adult
one actor slot.  Episodes run the decision phase (ages 18 to 75); at the
horizon the expected static-phase value is folded into the final reward and
the pool restarts with freshly drawn households.  Dead agents keep their
slot with a stay-only mask and zero rewards until the episode ends.
"""

from __future__ import annotations

import numpy as np

from ..agent import HouseholdBlock, HouseholdState
from ..population import initial_draw_tables, spawn_pair_household
# ``encode`` and ``legal_mask`` (one adult each) stay module names here for
# the traced benchmark run (lifebench/layers.py), which wraps them where
# callers used to look them up.
from .actions import N_ACTIONS, legal_mask, mask_columns  # noqa: F401
from .features import OBS_DIM, block_columns, encode, encode_columns  # noqa: F401
from .mdp import DECISION_END_AGE, DT, LifecycleEnv, StepOutcome, event_names, outcome


def observe(b: HouseholdBlock, env: LifecycleEnv, obs: np.ndarray, masks: np.ndarray) -> None:
    """Encode every adult row of ``b`` into ``obs`` and its legal mask into ``masks``."""
    columns = block_columns(b)
    encode_columns(columns, b.partner, env.uparams, env.rules, obs)
    mask_columns(columns, env.rules, masks)


def observe_households(households: list[HouseholdState], env: LifecycleEnv,
                       obs: np.ndarray, masks: np.ndarray) -> None:
    """``observe`` on the block of ``households``."""
    observe(HouseholdBlock.of(households), env, obs, masks)


def step_households(households: list[HouseholdState], env: LifecycleEnv,
                    actions, masks: np.ndarray) -> list[StepOutcome]:
    """Advance every household one quarter on ``actions`` and ``masks``, in
    the ``observe_households`` row layout, and write the new state into
    the records."""
    b = env.block(households)
    env.step_block(b, actions, masks)
    b.write_back(households)
    return [outcome(b, h, event_names(b, h)) for h in range(b.m)]


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
        self._block: HouseholdBlock | None = None
        self._quarter = 0
        self._masks = np.zeros((self.n_actors, N_ACTIONS), dtype=bool)
        self._obs = np.zeros((self.n_actors, OBS_DIM))

    def _fresh_block(self) -> HouseholdBlock:
        return self.env.block([
            spawn_pair_household(self._seed_stream.spawn(1)[0], self.env.tables, self.env.wparams, self._draws,
                                 self.year)
            for _ in range(self.n_households)])

    def reset(self) -> tuple[np.ndarray, np.ndarray]:
        self._block = self._fresh_block()
        self._quarter = 0
        observe(self._block, self.env, self._obs, self._masks)
        return self._obs.copy(), self._masks.copy()

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        self.env.step_block(self._block, actions, self._masks)
        rewards = self._block.reward.copy()
        self._quarter += 1
        # Every slot started together, so every episode ends together.
        done = self._quarter >= self.episode_quarters
        if done:
            rewards += self.env.terminal_block(self._block)
            self._block = self._fresh_block()
            self._quarter = 0
        observe(self._block, self.env, self._obs, self._masks)
        return self._obs.copy(), self._masks.copy(), rewards, np.full(self.n_actors, float(done))
