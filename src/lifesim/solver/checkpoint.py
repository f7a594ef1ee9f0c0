"""Versioned, data-only checkpoint files for trained networks.

A file is one JSON header line (format, network shape, training config and
its hash, caller extras) followed by the flat little-endian float64 weights
of ``PolicyValueNet.flat_parameters()``.  Loading parses JSON and raw floats
only, so a crafted file cannot run code; it checks the format, the config
hash and the length of the weight block.  The header is written with sorted
keys and carries no timestamps, so identical runs write byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..errors import ConfigError
from .actor_critic import TrainConfig
from .network import PolicyValueNet, parameter_shapes

FORMAT_VERSION = 2
_WEIGHTS = np.dtype("<f8")


def _hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def config_hash(config: TrainConfig) -> str:
    return _hash(asdict(config))


def save_checkpoint(path: str | Path, net: PolicyValueNet, config: TrainConfig,
                    extra: dict | None = None) -> None:
    header = {
        "format": FORMAT_VERSION,
        "obs_dim": net.obs_dim,
        "n_actions": net.n_actions,
        "hidden": list(net.hidden),
        "config": asdict(config),
        "config_hash": config_hash(config),
        "extra": extra or {},
    }
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True, default=str).encode() + b"\n")
        f.write(net.flat_parameters().astype(_WEIGHTS).tobytes())


def load_checkpoint(path: str | Path) -> tuple[PolicyValueNet, dict]:
    """The network and the header of a checkpoint; raises ``ConfigError``
    on a missing file, a wrong format, a config hash that does not match the
    stored config, or a weight block of the wrong length."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"checkpoint not found: {path}")
    head, _, weights = path.read_bytes().partition(b"\n")
    try:
        header = json.loads(head)
    except (UnicodeDecodeError, ValueError):
        header = None
    if not isinstance(header, dict) or header.get("format") != FORMAT_VERSION:
        raise ConfigError(f"incompatible checkpoint format in {path}")
    try:
        if header["config_hash"] != _hash(header["config"]):
            raise ConfigError(f"checkpoint config hash does not match its config in {path}")
        obs_dim, n_actions = int(header["obs_dim"]), int(header["n_actions"])
        hidden = tuple(int(h) for h in header["hidden"])
        if min(obs_dim, n_actions, *hidden) < 1:
            raise ValueError("a layer size below 1")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed checkpoint header in {path}: {exc!r}") from exc
    shapes = parameter_shapes(obs_dim, n_actions, hidden)
    sizes = [rows * cols for rows, cols in shapes]
    if len(weights) != sum(sizes) * _WEIGHTS.itemsize:
        raise ConfigError(f"checkpoint {path} holds {len(weights)} weight bytes, "
                          f"expected {sum(sizes) * _WEIGHTS.itemsize}")
    flat = np.frombuffer(weights, dtype=_WEIGHTS).astype(np.float64)
    params = [part.reshape(shape) for part, shape in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]
    # Built from the stored weights alone: the constructor would draw weights to overwrite.
    return PolicyValueNet.from_parameters(obs_dim, n_actions, hidden, params), header
