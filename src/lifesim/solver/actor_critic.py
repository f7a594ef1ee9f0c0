"""Advantage actor-critic over vectorized environments with action masking.

The learner maximizes the discounted return with n-step bootstrapped
advantages; an optional Kronecker-factored preconditioner turns the plain
gradient into an approximate natural gradient.  Everything is seeded and
single-threaded numpy, so identical configs reproduce identical checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from ..errors import ContractViolation, TrainingDiverged
from .kfac import KfacPreconditioner
from .network import Adam, ForwardCache, PolicyValueNet, clip_grads, log_softmax, sample_masked


class VectorEnv(Protocol):
    """Batch of actor slots advancing in lockstep with auto-reset."""

    n_actors: int
    obs_dim: int
    n_actions: int
    step_discount: float

    def reset(self) -> tuple[np.ndarray, np.ndarray]: ...

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]: ...


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
    natural_gradient: bool = False  # Kronecker-factored preconditioning toggle
    kfac_damping: float = 1e-2
    kfac_ema: float = 0.95
    kfac_update_every: int = 20
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


def policy_act(net: PolicyValueNet, obs: np.ndarray, mask: np.ndarray, mode: str = "greedy",
               rng: np.random.Generator | None = None) -> np.ndarray | int:
    """Action(s) for one observation or a batch; always legal under the mask.

    Greedy mode breaks exact ties toward the lowest action index.
    """
    single = np.asarray(obs).ndim == 1
    obs2 = np.atleast_2d(np.asarray(obs, dtype=np.float64))
    mask2 = np.atleast_2d(np.asarray(mask, dtype=bool))
    if not mask2.any(axis=1).all():
        raise ContractViolation("legal-action mask must be non-empty")
    logits = net.masked_logits(obs2, mask2)
    if mode == "greedy":
        acts = logits.argmax(axis=1)
    elif mode == "sample":
        if rng is None:
            raise ContractViolation("sample mode needs a random generator")
        acts = sample_masked(logits, mask2, rng.random(len(logits)))
    else:
        raise ContractViolation(f"unknown action mode {mode!r}")
    return int(acts[0]) if single else acts


def value_estimate(net: PolicyValueNet, obs: np.ndarray) -> np.ndarray | float:
    single = np.asarray(obs).ndim == 1
    v = net.value(np.atleast_2d(np.asarray(obs, dtype=np.float64)))
    return float(v[0]) if single else v


def a2c_loss_grads(
    net: PolicyValueNet,
    obs: np.ndarray,
    masks: np.ndarray,
    actions: np.ndarray,
    returns: np.ndarray,
    config: TrainConfig,
    stats: dict | None = None,
    cache: ForwardCache | None = None,
) -> tuple[list[np.ndarray], dict[str, float]]:
    """Gradient of the A2C objective on one flat batch.

    Loss = -E[log pi(a|s) * adv] - entropy_coef * E[H(pi)]
           + value_coef * E[(V - R)^2], advantages treated as constants.
    The forward pass writes into ``cache``, a fresh one when None.
    """
    n = obs.shape[0]
    if cache is None:
        cache = ForwardCache()
    logits, values = net.forward(obs, cache)
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

    grads = net.backward(cache, d_logits, d_values, stats=stats)
    entropy = float(-plogp.sum(axis=1).mean())
    metrics = {
        "policy_loss": float(-(chosen * adv).mean()),
        "value_loss": float(((values - returns) ** 2).mean()),
        "entropy": entropy,
        "mean_value": float(values.mean()),
    }
    return grads, metrics


def train_actor_critic(env: VectorEnv, config: TrainConfig,
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
    kfac = KfacPreconditioner(net.parameters(), config.kfac_damping, config.kfac_ema,
                              config.kfac_update_every) if config.natural_gradient else None

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
    # One forward cache for every update: each writes the same number of rows,
    # so its buffers are allocated once per run.
    update_cache = ForwardCache()

    for update in range(n_updates):
        bo, bm, ba, br, bd = [], [], [], [], []
        for _ in range(config.rollout):
            actions = sample_masked(net.masked_logits(obs, masks), masks, rng.random(n))
            nobs, nmasks, rewards, dones = env.step(actions)
            steps_done += n

            bo.append(obs)
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

        flat_obs = np.concatenate(bo, axis=0)
        flat_masks = np.concatenate(bm, axis=0)
        flat_actions = np.concatenate(ba, axis=0)
        flat_returns = returns.reshape(-1)

        stats: dict | None = {} if kfac is not None else None
        grads, step_metrics = a2c_loss_grads(net, flat_obs, flat_masks, flat_actions,
                                             flat_returns, config, stats=stats, cache=update_cache)
        if kfac is not None:
            kfac.update_factors(stats["inputs"], stats["grad_outputs"])
            grads = kfac.precondition(grads)
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
