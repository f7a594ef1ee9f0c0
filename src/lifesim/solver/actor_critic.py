"""Advantage actor-critic over vectorized environments with action masking.

The learner maximizes the discounted return with n-step bootstrapped
advantages and steps with Adam on the clipped gradient.  Everything is
seeded and single-threaded numpy, so identical configs reproduce
identical checkpoints.

Each rollout step's forward pass writes into its own ``n_actors``-row slice
of the update's :class:`~lifesim.solver.network.ForwardCache`, and its
logits and values are kept, so the update runs no forward pass of its own:
``a2c_loss_grads`` reads that cache.  An update runs ``rollout + 1`` forward
passes, the last for the bootstrap value.  The cache stores each activation
once (the augmented layer inputs and the trunk output, no pre-activations),
plus the backward's two scratch buffers of the widest layer; one cache
serves every update of a run, so a run allocates them once.  At the CLI
defaults (64 actors, 16-step rollouts, a (256, 256, 128) trunk) that is
5.8 MB of activations and 4.2 MB of scratch per update.

Rewards are read only for the returns, so the update asks its
:class:`VectorEnv` for the rollout's rewards once, after the last step, and
takes them, and the episode sums, in step order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from ..errors import ContractViolation, TrainingDiverged
from .network import Adam, ForwardCache, PolicyValueNet, clip_grads, log_softmax, sample_masked


class VectorEnv(Protocol):
    """Batch of actor slots advancing in lockstep with auto-reset.  ``step``
    gives observations, legal masks and done flags; ``rewards`` the
    ``(steps, n_actors)`` rewards of the steps since its last call."""

    n_actors: int
    obs_dim: int
    n_actions: int
    step_discount: float

    def reset(self) -> tuple[np.ndarray, np.ndarray]: ...

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]: ...

    def rewards(self) -> np.ndarray: ...


@dataclass
class TrainConfig:
    total_steps: int
    hidden: tuple[int, ...] = (256, 256, 128)
    rollout: int = 16
    learning_rate: float = 7e-4
    entropy_coef: float = 0.01      # exploration bonus (not network regularization)
    value_coef: float = 0.5
    reward_scale: float = 0.25
    max_grad_norm: float = 0.5
    seed: int = 0
    checkpoint_every: int = 50      # updates between metric rows
    divergence_factor: float = 10.0
    divergence_patience: int = 3

    def __post_init__(self) -> None:
        if self.total_steps <= 0:
            raise ContractViolation("total steps must be positive")
        if self.reward_scale <= 0:
            raise ContractViolation("reward scaling must be positive")


@dataclass
class TrainResult:
    net: PolicyValueNet
    metrics: list[dict[str, float]] = field(default_factory=list)
    steps_done: int = 0


def a2c_loss_grads(
    net: PolicyValueNet,
    cache: ForwardCache,
    logits: np.ndarray,
    values: np.ndarray,
    masks: np.ndarray,
    actions: np.ndarray,
    returns: np.ndarray,
    config: TrainConfig,
) -> tuple[list[np.ndarray], dict[str, float]]:
    """Gradient of the A2C objective on one flat batch.

    Loss = -E[log pi(a|s) * adv] - entropy_coef * E[H(pi)]
           + value_coef * E[(V - R)^2], advantages treated as constants.
    ``cache`` holds the batch's forward pass, which gave ``logits`` and
    ``values``; no forward pass runs here.
    """
    n = logits.shape[0]
    masked = np.where(masks, logits, -1e9)
    logp = log_softmax(masked)
    probs = np.where(masks, np.exp(logp), 0.0)

    adv = returns - values
    chosen = logp[np.arange(n), actions]

    # d/dlogits of -logp[a]*adv averaged over the batch
    one_hot = np.zeros_like(probs)
    one_hot[np.arange(n), actions] = 1.0
    d_logits = (probs - one_hot) * adv[:, None] / n

    # entropy H = -sum p logp ; dH/dlogit_j = -p_j (logp_j - sum_k p_k logp_k)
    plogp = np.where(masks, probs * logp, 0.0)
    ent_inner = logp - plogp.sum(axis=1, keepdims=True)
    d_logits += config.entropy_coef * np.where(masks, probs * ent_inner, 0.0) / n

    d_values = config.value_coef * 2.0 * (values - returns) / n

    grads = net.backward(cache, d_logits, d_values)
    entropy = float(-plogp.sum(axis=1).mean())
    metrics = {
        "policy_loss": float(-(chosen * adv).mean()),
        "value_loss": float(((values - returns) ** 2).mean()),
        "entropy": entropy,
        "mean_value": float(values.mean()),
    }
    return grads, metrics


def train_actor_critic(env: VectorEnv, config: TrainConfig, net: PolicyValueNet | None) -> TrainResult:
    """Run A2C on ``net``, or on a new net of ``config.hidden`` seeded by
    ``config.seed`` when it is None, until the step budget is exhausted.

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
        bl, bv, bm, ba, bd = [], [], [], [], []
        for t in range(config.rollout):
            logits, values = net.forward(obs, update_cache.view(t * n, (t + 1) * n))
            actions = sample_masked(logits, masks, rng.random(n))
            bl.append(logits)
            bv.append(values)
            bm.append(masks)
            ba.append(actions)
            obs, masks, dones = env.step(actions)
            bd.append(dones)
            steps_done += n

        rewards = env.rewards()
        for step_rewards, dones in zip(rewards, bd):
            episode_return += episode_discount * step_rewards
            episode_discount *= gamma
            for i in np.flatnonzero(dones):
                finished_returns.append(float(episode_return[i]))
                episode_return[i] = 0.0
                episode_discount[i] = 1.0
        br = rewards * config.reward_scale

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
