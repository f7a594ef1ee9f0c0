"""Exact finite-horizon dynamic programming on tabular decision processes.

Backward induction over a dense (states x actions x states) kernel with
time-dependent legality; serves as the oracle the actor-critic learner is
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lifesim.errors import ContractViolation

MAX_TABULAR_STATES = 1_000_000


@dataclass(frozen=True)
class DiscreteMDP:
    """Finite-horizon MDP with rewards attached to the arrival state."""

    n_periods: int
    n_states: int
    n_actions: int
    transitions: np.ndarray      # (S, A, S') probabilities
    arrival_rewards: np.ndarray  # (S',) reward collected on entering a state
    legal: np.ndarray            # (T, S, A) bool
    initial_dist: np.ndarray     # (S,)

    def __post_init__(self) -> None:
        t = self.transitions
        if t.shape != (self.n_states, self.n_actions, self.n_states):
            raise ContractViolation("transition tensor shape mismatch")
        row_sums = t.sum(axis=2)
        legal_any = self.legal.any(axis=0)
        if not np.allclose(row_sums[legal_any], 1.0, atol=1e-12):
            raise ContractViolation("transition rows must sum to 1 on legal actions")
        if self.n_periods * self.n_states > MAX_TABULAR_STATES:
            raise ContractViolation(
                f"tabular state space too large: {self.n_periods} periods x "
                f"{self.n_states} states = {self.n_periods * self.n_states} "
                f"> {MAX_TABULAR_STATES}"
            )


@dataclass
class DpSolution:
    values: np.ndarray   # (T+1, S)
    policy: np.ndarray   # (T, S) greedy action indices
    q_values: np.ndarray  # (T, S, A) with -inf on illegal actions


def dp_solve(mdp: DiscreteMDP, discount: float) -> DpSolution:
    """Backward induction; values satisfy the Bellman recursion exactly."""
    t_count, s_count, a_count = mdp.n_periods, mdp.n_states, mdp.n_actions
    values = np.zeros((t_count + 1, s_count))
    policy = np.zeros((t_count, s_count), dtype=np.int64)
    q_all = np.full((t_count, s_count, a_count), -np.inf)

    # continuation[s,a] = sum_s' P[s,a,s'] * (r(s') + g * V[t+1, s'])
    for t in range(t_count - 1, -1, -1):
        target = mdp.arrival_rewards + discount * values[t + 1]
        q = mdp.transitions @ target
        q = np.where(mdp.legal[t], q, -np.inf)
        q_all[t] = q
        policy[t] = q.argmax(axis=1)
        values[t] = q.max(axis=1)
    return DpSolution(values=values, policy=policy, q_values=q_all)


def bellman_residual(mdp: DiscreteMDP, solution: DpSolution, discount: float) -> float:
    """Max-norm residual of the computed values under one Bellman backup."""
    worst = 0.0
    for t in range(mdp.n_periods):
        target = mdp.arrival_rewards + discount * solution.values[t + 1]
        q = mdp.transitions @ target
        q = np.where(mdp.legal[t], q, -np.inf)
        worst = max(worst, float(np.abs(q.max(axis=1) - solution.values[t]).max()))
    return worst


def policy_return(mdp: DiscreteMDP, policy_probs: np.ndarray, discount: float) -> float:
    """Exact expected discounted return of a (possibly stochastic) policy.

    ``policy_probs`` has shape (T, S, A); rows must be supported on legal
    actions only.
    """
    t_count, s_count, _ = policy_probs.shape
    values = np.zeros(s_count)
    for t in range(t_count - 1, -1, -1):
        target = mdp.arrival_rewards + discount * values
        q = mdp.transitions @ target            # (S, A)
        values = (policy_probs[t] * q).sum(axis=1)
    return float(mdp.initial_dist @ values)


def greedy_policy_probs(mdp: DiscreteMDP, policy: np.ndarray) -> np.ndarray:
    probs = np.zeros((mdp.n_periods, mdp.n_states, mdp.n_actions))
    t_idx, s_idx = np.meshgrid(np.arange(mdp.n_periods), np.arange(mdp.n_states), indexing="ij")
    probs[t_idx, s_idx, policy] = 1.0
    return probs
