"""Training as it stood when every quarter was priced as it ran, kept
verbatim as a test oracle: ``LifecycleEnv.step_block`` (here a function of
the env) and ``settle_block`` (now in ``price_oracle``, with the pricer it
ran), ``LifecycleVectorEnv.step`` returning each quarter's rewards, and
``train_actor_critic`` taking them step by step.

``tests/test_train_oracle.py`` asserts that the trainer, which prices a
rollout's quarters together through the pricing ledger, gives the same
parameters and metrics rows bit for bit.  The other oracles step blocks
with :func:`step_block`.  Do not edit the functions below; they pin the
per-quarter behaviour.
"""

from __future__ import annotations

import numpy as np

from lifesim.agent import HouseholdBlock
from lifesim.env.mdp import LifecycleEnv
from lifesim.env.vector import LifecycleVectorEnv, observe
from lifesim.errors import TrainingDiverged
from lifesim.solver.actor_critic import TrainConfig, TrainResult, a2c_loss_grads
from lifesim.solver.network import Adam, ForwardCache, PolicyValueNet, clip_grads, sample_masked
from price_oracle import settle_block


def step_block(env: LifecycleEnv, b: HouseholdBlock, actions, masks: np.ndarray) -> None:
    """Advance every household of ``b`` one quarter and price it:
    ``advance_block``, then :func:`settle_block`.  The quarter's rewards,
    consumptions, flows, event codes and birth flags are left on ``b``."""
    env.advance_block(b, actions, masks)
    settle_block(env, b)


class PerQuarterVectorEnv(LifecycleVectorEnv):
    """``LifecycleVectorEnv`` with the step that priced each quarter and
    returned its rewards."""

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        step_block(self.env, self._block, actions, self._masks)
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


def train_actor_critic(env: PerQuarterVectorEnv, config: TrainConfig,
                       net: PolicyValueNet | None = None) -> TrainResult:
    """Run A2C until the step budget is exhausted.

    Raises :class:`TrainingDiverged` when the value loss exceeds the
    divergence factor times its initial level for ``divergence_patience``
    consecutive metric checkpoints.
    """
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0xAC)))
    if net is None:
        net = PolicyValueNet(env.obs_dim, env.n_actions, config.hidden,
                             seed=config.seed)
    optimizer = Adam(net.parameters(), lr=config.learning_rate)

    gamma = env.step_discount
    n = env.n_actors
    obs, masks = env.reset()
    episode_return = np.zeros(n)
    episode_discount = np.ones(n)
    finished_returns: list[float] = []

    metrics: list[dict[str, float]] = []
    initial_value_loss: float | None = None
    bad_checkpoints = 0
    steps_done = 0
    n_updates = max(1, config.total_steps // (config.rollout * n))
    # One forward cache for every update, sized once: rollout step t writes
    # its rows t * n to (t + 1) * n.
    update_cache = ForwardCache()
    net.reserve(update_cache, config.rollout * n)

    for update in range(n_updates):
        bl, bv, bm, ba, br, bd = [], [], [], [], [], []
        for t in range(config.rollout):
            logits, values = net.forward(obs, update_cache.view(t * n, (t + 1) * n))
            actions = sample_masked(logits, masks, rng.random(n))
            nobs, nmasks, rewards, dones = env.step(actions)
            steps_done += n

            bl.append(logits)
            bv.append(values)
            bm.append(masks)
            ba.append(actions)
            br.append(rewards * config.reward_scale)
            bd.append(dones)

            episode_return += episode_discount * rewards
            episode_discount *= gamma
            for i in np.flatnonzero(dones):
                finished_returns.append(float(episode_return[i]))
                episode_return[i] = 0.0
                episode_discount[i] = 1.0
            obs, masks = nobs, nmasks

        bootstrap = net.value(obs)
        returns = np.zeros((config.rollout, n))
        running = bootstrap.copy()
        for t in range(config.rollout - 1, -1, -1):
            running = br[t] + gamma * (1.0 - bd[t]) * running
            returns[t] = running

        grads, step_metrics = a2c_loss_grads(net, update_cache, np.concatenate(bl), np.concatenate(bv),
                                             np.concatenate(bm), np.concatenate(ba), returns.reshape(-1), config)
        clip_grads(grads, config.max_grad_norm)
        optimizer.step(net.parameters(), grads)

        if update % config.checkpoint_every == 0 or update == n_updates - 1:
            recent = finished_returns[-200:]
            row = {
                "update": float(update),
                "steps": float(steps_done),
                "mean_episode_return": float(np.mean(recent)) if recent else float("nan"),
                **step_metrics,
            }
            metrics.append(row)
            if initial_value_loss is None:
                initial_value_loss = max(step_metrics["value_loss"], 1e-12)
            elif step_metrics["value_loss"] > config.divergence_factor * initial_value_loss:
                bad_checkpoints += 1
                if bad_checkpoints >= config.divergence_patience:
                    raise TrainingDiverged(
                        f"value loss {step_metrics['value_loss']:.3g} exceeded "
                        f"{config.divergence_factor}x its initial level for "
                        f"{bad_checkpoints} consecutive checkpoints"
                    )
            else:
                bad_checkpoints = 0

    return TrainResult(net=net, metrics=metrics, steps_done=steps_done)
