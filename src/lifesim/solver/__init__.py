"""Policy solver: the actor-critic learner, its network and checkpoints."""

from .actor_critic import (
    TrainConfig,
    TrainResult,
    VectorEnv,
    a2c_loss_grads,
    train_actor_critic,
)
from .checkpoint import config_hash, load_checkpoint, save_checkpoint
from .network import Adam, ForwardCache, PolicyValueNet, masked_distribution

__all__ = [
    "Adam",
    "ForwardCache",
    "PolicyValueNet",
    "TrainConfig",
    "TrainResult",
    "VectorEnv",
    "a2c_loss_grads",
    "config_hash",
    "load_checkpoint",
    "masked_distribution",
    "save_checkpoint",
    "train_actor_critic",
]
