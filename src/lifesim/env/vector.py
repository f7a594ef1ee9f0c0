"""Batched household stepping, and the vectorized training view.

Training and cohort simulation hold their households as one
:class:`~lifesim.agent.HouseholdBlock`, drawn straight into its columns:
one row per adult in household then slot order, one column per field.
``observe`` encodes and masks the whole block from its columns with no
per-adult gather, and ``LifecycleEnv.advance_block`` advances it a quarter
phase by phase (see :mod:`lifesim.env.mdp`).  ``tests/one_household.py``
does the same for a list of records, which it updates
(``observe_households``, ``step_households``).

In training, a fixed pool of pair households advances in lockstep, each adult
one actor slot.  Episodes run the decision phase (ages 18 to 75); at the
horizon the expected static-phase value is folded into the final reward and
the pool restarts as a new block, drawn by ``spawn_pair_household`` with
the pool's seed, each household taking the next household id, and its life
drawn for one episode (see :mod:`lifesim.population`).  Dead agents keep
their slot with a stay-only mask and zero rewards until the episode ends.

A step is the transition alone, recorded in a
:class:`~lifesim.env.mdp.PricingLedger` as the cohort simulator records
its quarters; the ledger prices them once it is full, and ``rewards``
prices the steps since its last call.
"""

from __future__ import annotations

import numpy as np

from ..agent import DECISION_QUARTERS, HouseholdBlock
from ..population import draw_life, spawn_pair_household
# ``encode`` and ``legal_mask`` (one adult each) stay module names here for
# the traced benchmark run (lifebench/layers.py), which wraps them where
# callers used to look them up.
from .actions import N_ACTIONS, legal_mask, mask_columns  # noqa: F401
from .features import OBS_DIM, block_columns, encode, encode_columns  # noqa: F401
from .mdp import LifecycleEnv, PricingLedger


def observe(b: HouseholdBlock, env: LifecycleEnv, obs: np.ndarray, masks: np.ndarray) -> None:
    """Encode every adult row of ``b`` into ``obs`` and its legal mask into ``masks``."""
    columns = block_columns(b)
    encode_columns(columns, b.partner, env.uparams, env.rules, obs)
    mask_columns(columns, env.rules, masks)


class LifecycleVectorEnv:
    def __init__(
        self,
        env: LifecycleEnv,
        n_households: int = 32,
        seed: int = 0,
    ) -> None:
        self.env = env
        self.n_households = n_households
        self.n_actors = 2 * n_households
        self.obs_dim = OBS_DIM
        self.n_actions = N_ACTIONS
        self.step_discount = env.uparams.step_discount
        self.episode_quarters = DECISION_QUARTERS
        self.seed = seed
        self._households = 0   # households drawn so far: the next one's id
        self._block: HouseholdBlock | None = None
        self._quarter = 0
        self._masks = np.zeros((self.n_actors, N_ACTIONS), dtype=bool)
        self._obs = np.zeros((self.n_actors, OBS_DIM))
        self._ledger = PricingLedger(env, rewards=True)
        # The settled steps' rewards, and each episode end's step and
        # terminal value, since the last ``rewards`` call.
        self._rewards: list[np.ndarray] = []
        self._bonus: list[tuple[int, np.ndarray]] = []

    def _fresh_block(self) -> HouseholdBlock:
        n = self.n_households
        b = HouseholdBlock.new([2] * n, [False, True] * n, self.env.window)
        b.seed[:] = self.seed
        b.ids += self._households
        self._households += n
        spawn_pair_household(self.env, b)
        draw_life(b, self.episode_quarters)
        return b

    def reset(self) -> tuple[np.ndarray, np.ndarray]:
        self._block = self._fresh_block()
        self._quarter = 0
        observe(self._block, self.env, self._obs, self._masks)
        return self._obs.copy(), self._masks.copy()

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The next observations, masks and done flags; see :meth:`rewards`."""
        b = self._block
        self.env.advance_block(b, actions, self._masks)
        self._ledger.record(b)
        self._quarter += 1
        # Every slot started together, so every episode ends together.
        done = self._quarter >= self.episode_quarters
        if done:
            quarter = len(self._rewards) + len(self._ledger.quarters) - 1
            self._bonus.append((quarter, self.env.terminal_block(b)))
            b.uniforms = b.normals = None   # before the next pool's are drawn
            self._block = self._fresh_block()
            self._quarter = 0
        if self._ledger.full:
            self._settle()
        observe(self._block, self.env, self._obs, self._masks)
        return self._obs.copy(), self._masks.copy(), np.full(self.n_actors, float(done))

    def _settle(self) -> None:
        self._rewards += self._ledger.price()[3]

    def rewards(self) -> np.ndarray:
        """The ``(steps, n_actors)`` rewards of the steps since the last
        call, the terminal value added to each episode's last."""
        if self._ledger.quarters:
            self._settle()
        rewards = np.array(self._rewards).reshape(-1, self.n_actors)
        for quarter, bonus in self._bonus:
            rewards[quarter] += bonus
        self._rewards, self._bonus = [], []
        return rewards
