"""One-observation views of the policy net that only the tests call."""

from __future__ import annotations

import numpy as np

from lifesim.errors import ContractViolation
from lifesim.solver.network import PolicyValueNet, sample_masked


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
