"""Reduced life-cycle instance: small enough for exact dynamic programming,
rich enough to exercise the learner.

Five employment states (unemployed, part time, full time, retired, dead)
over a Tauchen-discretized log-wage grid, quarterly ages.  The wage index
freezes at retirement and doubles as the pension basis.  The same tensors
back both the DP oracle and a vectorized sampling environment, so the two
sides of the comparison see exactly the same decision process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from lifesim.errors import ContractViolation
from dp_oracle import DiscreteMDP

E_UNEMP, E_PT, E_FT, E_RET, E_DEAD = range(5)
N_EMP = 5

A_STAY, A_SEEK_PT, A_SEEK_FT, A_RETIRE = range(4)
N_ACT = 4


@dataclass(frozen=True)
class ReducedConfig:
    age_start: float = 18.0
    age_stop: float = 70.0
    dt: float = 0.25
    wage_points: int = 15
    mean_wage: float = 36000.0
    autocorr: float = 0.89
    shock_sd: float = 0.05
    grid_width_sd: float = 3.0
    tax_rate: float = 0.30
    replacement: float = 0.55
    benefit_cap_ratio: float = 1.1
    pension_share: float = 0.55
    consumption_floor: float = 9000.0
    pt_hours_share: float = 0.5
    find_ft: float = 0.25
    find_pt: float = 0.60
    switch_prob: float = 0.50
    layoff: float = 0.02
    mortality: float = 0.0005
    retire_age: float = 63.0
    kappa_ft: float = -0.705
    kappa_pt: float = -0.365
    kappa_unemp: float = -0.15
    discount_annual: float = 0.92

    @property
    def n_periods(self) -> int:
        return int(round((self.age_stop - self.age_start) / self.dt))

    @property
    def step_discount(self) -> float:
        return self.discount_annual ** self.dt


def tauchen(n: int, rho: float, sigma: float, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Grid and transition matrix for an AR(1) in levels."""
    std_x = sigma / math.sqrt(1.0 - rho * rho)
    grid = np.linspace(-width * std_x, width * std_x, n)
    step = grid[1] - grid[0]
    cdf = NormalDist().cdf
    kernel = np.zeros((n, n))
    for i in range(n):
        mean = rho * grid[i]
        for j in range(n):
            lo = (grid[j] - step / 2 - mean) / sigma
            hi = (grid[j] + step / 2 - mean) / sigma
            if j == 0:
                kernel[i, j] = cdf(hi)
            elif j == n - 1:
                kernel[i, j] = 1.0 - cdf(lo)
            else:
                kernel[i, j] = cdf(hi) - cdf(lo)
    kernel /= kernel.sum(axis=1, keepdims=True)
    return grid, kernel


def _state_index(emp: int, widx: int, k: int) -> int:
    return emp * k + widx


def build_reduced_mdp(config: ReducedConfig = ReducedConfig()) -> tuple[DiscreteMDP, dict]:
    """Dense tensors for the reduced instance plus the derived quantities."""
    k = config.wage_points
    rho_q = config.autocorr ** config.dt
    sd_q = config.shock_sd * math.sqrt(config.dt)
    grid_x, wage_kernel = tauchen(k, rho_q, sd_q, config.grid_width_sd)
    wages = config.mean_wage * np.exp(grid_x)

    n_states = N_EMP * k
    t_count = config.n_periods

    # Consumption and arrival rewards per state.
    cons = np.zeros(n_states)
    kappa = np.zeros(n_states)
    for w in range(k):
        wq = wages[w]
        cons[_state_index(E_UNEMP, w, k)] = max(
            config.replacement * min(wq, config.benefit_cap_ratio * config.mean_wage),
            config.consumption_floor,
        )
        kappa[_state_index(E_UNEMP, w, k)] = config.kappa_unemp
        cons[_state_index(E_PT, w, k)] = max(
            config.pt_hours_share * wq * (1 - config.tax_rate), config.consumption_floor
        )
        kappa[_state_index(E_PT, w, k)] = config.kappa_pt
        cons[_state_index(E_FT, w, k)] = max(wq * (1 - config.tax_rate), config.consumption_floor)
        kappa[_state_index(E_FT, w, k)] = config.kappa_ft
        cons[_state_index(E_RET, w, k)] = max(config.pension_share * wq, config.consumption_floor)
    rewards = np.zeros(n_states)
    alive = slice(0, E_DEAD * k)
    rewards[alive] = (np.log(cons[alive]) + kappa[alive]) * config.dt
    rewards[E_DEAD * k:] = 0.0

    # Employment outcome distributions per (emp, action): list of (emp', prob).
    m = config.mortality

    def emp_outcomes(emp: int, act: int) -> list[tuple[int, float]]:
        if emp == E_DEAD:
            return [(E_DEAD, 1.0)]
        out: list[tuple[int, float]]
        if emp == E_RET:
            out = [(E_RET, 1.0)]
        elif emp == E_UNEMP:
            if act == A_SEEK_FT:
                p = config.find_ft
                p_pt = (1 - p) * config.find_pt * 0.5
                out = [(E_FT, p), (E_PT, p_pt), (E_UNEMP, 1 - p - p_pt)]
            elif act == A_SEEK_PT:
                out = [(E_PT, config.find_pt), (E_UNEMP, 1 - config.find_pt)]
            elif act == A_RETIRE:
                out = [(E_RET, 1.0)]
            else:
                out = [(E_UNEMP, 1.0)]
        elif emp in (E_PT, E_FT):
            other = E_FT if emp == E_PT else E_PT
            want_other = (act == A_SEEK_FT and emp == E_PT) or (act == A_SEEK_PT and emp == E_FT)
            if act == A_RETIRE:
                out = [(E_RET, 1.0)]
            elif want_other:
                p = config.switch_prob
                out = [(other, p * (1 - config.layoff)), (emp, (1 - p) * (1 - config.layoff)),
                       (E_UNEMP, config.layoff)]
            else:
                out = [(emp, 1 - config.layoff), (E_UNEMP, config.layoff)]
        else:
            raise ContractViolation(f"unknown employment code {emp}")
        if emp != E_RET:
            out = [(e, p * (1 - m)) for e, p in out] + [(E_DEAD, m)]
        else:
            out = [(E_RET, 1.0 - m), (E_DEAD, m)]
        return out

    transitions = np.zeros((n_states, N_ACT, n_states))
    eye = np.eye(k)
    for emp in range(N_EMP):
        wage_moves = emp in (E_UNEMP, E_PT, E_FT)
        kern = wage_kernel if wage_moves else eye
        for act in range(N_ACT):
            for emp2, p in emp_outcomes(emp, act):
                if p <= 0.0:
                    continue
                # The wage index freezes on entering retirement or death.
                use = kern if emp2 in (E_UNEMP, E_PT, E_FT) else eye
                for w in range(k):
                    s = _state_index(emp, w, k)
                    transitions[s, act, emp2 * k: (emp2 + 1) * k] += p * use[w]

    # Legality: stay always; seek/switch for the alive non-retired; retire
    # from the age gate onward.
    legal = np.zeros((t_count, n_states, N_ACT), dtype=bool)
    legal[:, :, A_STAY] = True
    for t in range(t_count):
        age = config.age_start + t * config.dt
        can_retire = age >= config.retire_age
        for w in range(k):
            for emp in (E_UNEMP, E_PT, E_FT):
                s = _state_index(emp, w, k)
                legal[t, s, A_SEEK_PT] = True
                legal[t, s, A_SEEK_FT] = True
                legal[t, s, A_RETIRE] = can_retire

    # Start unemployed at the stationary wage distribution.
    stationary = np.linalg.matrix_power(wage_kernel, 200)[k // 2]
    initial = np.zeros(n_states)
    initial[_state_index(E_UNEMP, 0, k): _state_index(E_UNEMP, 0, k) + k] = stationary

    mdp = DiscreteMDP(
        n_periods=t_count,
        n_states=n_states,
        n_actions=N_ACT,
        transitions=transitions,
        arrival_rewards=rewards,
        legal=legal,
        initial_dist=initial,
    )
    extras = {"wages": wages, "grid_x": grid_x, "wage_kernel": wage_kernel}
    return mdp, extras


def grid_observations(mdp: DiscreteMDP, config: ReducedConfig) -> np.ndarray:
    """Deterministic observation for every (period, state) cell."""
    k = config.wage_points
    t_count, s_count = mdp.n_periods, mdp.n_states
    obs = np.zeros((t_count, s_count, 2 + N_EMP + k))
    for t in range(t_count):
        obs[t, :, 0] = t / t_count
    emp = np.arange(s_count) // k
    widx = np.arange(s_count) % k
    obs[:, np.arange(s_count), 2 + emp] = 1.0
    obs[:, np.arange(s_count), 2 + N_EMP + widx] = 1.0
    obs[:, :, 1] = (widx / (k - 1))[None, :]
    return obs


class ReducedVectorEnv:
    """Vectorized sampling environment over the reduced MDP tensors."""

    def __init__(self, mdp: DiscreteMDP, config: ReducedConfig, n_envs: int = 32,
                 seed: int = 0) -> None:
        self.mdp = mdp
        self.config = config
        self.n_actors = n_envs
        self.n_actions = mdp.n_actions
        self.step_discount = config.step_discount
        self.obs_dim = 2 + N_EMP + config.wage_points
        self._rng = np.random.default_rng(np.random.SeedSequence((seed, 0xE17)))
        self._cum_trans = np.cumsum(mdp.transitions, axis=2)
        self._cum_init = np.cumsum(mdp.initial_dist)
        self._grid_obs = grid_observations(mdp, config)
        self._t = np.zeros(n_envs, dtype=np.int64)
        self._s = np.zeros(n_envs, dtype=np.int64)

    def _observe(self) -> tuple[np.ndarray, np.ndarray]:
        return self._grid_obs[self._t, self._s], self.mdp.legal[self._t, self._s]

    def _draw_initial(self, count: int) -> np.ndarray:
        u = self._rng.random(count)
        return np.searchsorted(self._cum_init, u, side="right")

    def reset(self) -> tuple[np.ndarray, np.ndarray]:
        self._t[:] = 0
        self._s = self._draw_initial(self.n_actors)
        return self._observe()

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        n = self.n_actors
        u = self._rng.random(n)
        next_s = np.empty(n, dtype=np.int64)
        for i in range(n):
            row = self._cum_trans[self._s[i], actions[i]]
            next_s[i] = np.searchsorted(row, u[i], side="right")
        rewards = self.mdp.arrival_rewards[next_s]
        self._s = next_s
        self._t += 1
        dones = self._t >= self.mdp.n_periods
        if dones.any():
            idx = np.flatnonzero(dones)
            self._s[idx] = self._draw_initial(idx.size)
            self._t[idx] = 0
        obs, masks = self._observe()
        return obs, masks, rewards, dones.astype(np.float64)
