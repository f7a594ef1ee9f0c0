"""Policy solver: the actor-critic learner, its network and checkpoints."""

from .actor_critic import (
    TrainConfig,
    TrainResult,
    VectorEnv,
    a2c_loss_grads,
    policy_act,
    train_actor_critic,
    value_estimate,
)
from .checkpoint import config_hash, load_checkpoint, save_checkpoint
from .kfac import KfacPreconditioner
from .network import Adam, ForwardCache, PolicyValueNet, masked_distribution

__all__ = [
    "Adam",
    "ForwardCache",
    "KfacPreconditioner",
    "PolicyValueNet",
    "TrainConfig",
    "TrainResult",
    "VectorEnv",
    "a2c_loss_grads",
    "config_hash",
    "load_checkpoint",
    "masked_distribution",
    "policy_act",
    "save_checkpoint",
    "train_actor_critic",
    "value_estimate",
]
