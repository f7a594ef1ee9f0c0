import json
import pathlib
import pickle

import numpy as np
import pytest

import lifesim.solver.actor_critic as actor_critic
from lifesim.env import N_ACTIONS, OBS_DIM
from lifesim.env.vector import LifecycleVectorEnv
from lifesim.errors import ConfigError, ContractViolation, TrainingDiverged
from lifesim.pipelines import EnvPaths, build_env
from dp_oracle import DiscreteMDP, bellman_residual, dp_solve, greedy_policy_probs, policy_return
from lifesim.solver import (
    PolicyValueNet,
    TrainConfig,
    a2c_loss_grads,
    masked_distribution,
    load_checkpoint,
    save_checkpoint,
    train_actor_critic,
)
from lifesim.solver.network import Adam, ForwardCache, log_softmax, sample_masked
from policy_helpers import policy_act, value_estimate
from reduced_mdp import ReducedConfig, ReducedVectorEnv, build_reduced_mdp, grid_observations


def network_policy_probs(net, mdp, config, mode="greedy"):
    """Exact (T, S, A) action distribution the network induces on the grid."""
    obs = grid_observations(mdp, config)
    t_count, s_count, a_count = mdp.n_periods, mdp.n_states, mdp.n_actions
    flat = obs.reshape(t_count * s_count, -1)
    masks = mdp.legal.reshape(t_count * s_count, a_count)
    logits = net.masked_logits(flat, masks)
    if mode == "greedy":
        probs = np.zeros_like(logits)
        probs[np.arange(len(logits)), logits.argmax(axis=1)] = 1.0
    else:
        probs = masked_distribution(logits, masks)
    return probs.reshape(t_count, s_count, a_count)


class DominatedActionEnv:
    """Action 1 pays 1 every step, action 0 pays nothing; horizon 10."""

    def __init__(self, n_envs=16, seed=0):
        self.n_actors = n_envs
        self.obs_dim = 2
        self.n_actions = 2
        self.step_discount = 0.95
        self.horizon = 10
        self._t = np.zeros(n_envs, dtype=np.int64)
        self._rewards = []

    def _obs(self):
        obs = np.zeros((self.n_actors, 2))
        obs[:, 0] = self._t / self.horizon
        obs[:, 1] = 1.0
        return obs, np.ones((self.n_actors, 2), dtype=bool)

    def reset(self):
        self._t[:] = 0
        return self._obs()

    def step(self, actions):
        self._rewards.append(actions.astype(np.float64))
        self._t += 1
        dones = self._t >= self.horizon
        self._t[dones] = 0
        obs, masks = self._obs()
        return obs, masks, dones.astype(np.float64)

    def rewards(self):
        rewards, self._rewards = np.array(self._rewards), []
        return rewards


@pytest.fixture(scope="module")
def reduced():
    cfg = ReducedConfig(replacement=0.35, benefit_cap_ratio=0.7, consumption_floor=6000,
                        kappa_ft=-0.5)
    mdp, extras = build_reduced_mdp(cfg)
    return cfg, mdp, extras


@pytest.fixture(scope="module")
def trained_reduced(reduced):
    cfg, mdp, _ = reduced
    env = ReducedVectorEnv(mdp, cfg, n_envs=64, seed=0)
    tc = TrainConfig(total_steps=250_000, hidden=(64, 64), learning_rate=3e-3,
                     reward_scale=0.25, seed=0, checkpoint_every=100)
    return train_actor_critic(env, tc, None)


# ---------------------------------------------------------------------------
# policy_act
# ---------------------------------------------------------------------------

def test_single_legal_action_forced():
    net = PolicyValueNet(3, 4, hidden=(8,), seed=1)
    mask = np.array([False, False, True, False])
    assert policy_act(net, np.zeros(3), mask, "greedy") == 2


def test_empty_mask_rejected():
    net = PolicyValueNet(3, 4, hidden=(8,), seed=1)
    with pytest.raises(ContractViolation):
        policy_act(net, np.zeros(3), np.zeros(4, dtype=bool), "greedy")


def test_greedy_tie_breaks_to_lowest_index():
    net = PolicyValueNet(2, 3, hidden=(4,), seed=0)
    # Zero the policy head: all logits identical -> argmax picks index 0.
    net.w_policy[:] = 0.0
    assert policy_act(net, np.ones(2), np.ones(3, dtype=bool), "greedy") == 0
    mask = np.array([False, True, True])
    assert policy_act(net, np.ones(2), mask, "greedy") == 1


def test_sampled_frequencies_match_distribution():
    net = PolicyValueNet(2, 4, hidden=(8,), seed=5)
    obs = np.array([0.3, -0.2])
    mask = np.array([True, True, False, True])
    logits = net.masked_logits(obs[None, :], mask[None, :])
    probs = masked_distribution(logits, mask[None, :])[0]
    rng = np.random.default_rng(11)
    n = 100_000
    batch = np.tile(obs, (n, 1))
    acts = policy_act(net, batch, np.tile(mask, (n, 1)), "sample", rng=rng)
    freq = np.bincount(acts, minlength=4) / n
    assert freq[2] == 0.0
    np.testing.assert_allclose(freq[[0, 1, 3]], probs[[0, 1, 3]], atol=0.01)


# ---------------------------------------------------------------------------
# dynamic programming
# ---------------------------------------------------------------------------

def two_state_toy():
    # Action 0 stays, action 1 switches; entering state 1 pays 1.
    transitions = np.zeros((2, 2, 2))
    transitions[0, 0, 0] = 1.0
    transitions[0, 1, 1] = 1.0
    transitions[1, 0, 1] = 1.0
    transitions[1, 1, 0] = 1.0
    rewards = np.array([0.0, 1.0])
    legal = np.ones((3, 2, 2), dtype=bool)
    return DiscreteMDP(
        n_periods=3, n_states=2, n_actions=2,
        transitions=transitions, arrival_rewards=rewards, legal=legal,
        initial_dist=np.array([1.0, 0.0]),
    )


def test_dp_two_state_hand_computed():
    mdp = two_state_toy()
    sol = dp_solve(mdp, discount=0.5)
    # Backward by hand: V2 = (1, 1), V1 = (1.5, 1.5), V0 = (1.75, 1.75).
    np.testing.assert_allclose(sol.values[2], [1.0, 1.0])
    np.testing.assert_allclose(sol.values[1], [1.5, 1.5])
    np.testing.assert_allclose(sol.values[0], [1.75, 1.75])
    assert sol.policy[2, 0] == 1 and sol.policy[2, 1] == 0
    assert bellman_residual(mdp, sol, 0.5) < 1e-10


def test_dp_horizon_one_is_reward_argmax():
    mdp = two_state_toy()
    one = DiscreteMDP(
        n_periods=1, n_states=2, n_actions=2,
        transitions=mdp.transitions, arrival_rewards=mdp.arrival_rewards,
        legal=np.ones((1, 2, 2), dtype=bool), initial_dist=mdp.initial_dist,
    )
    sol = dp_solve(one, discount=0.9)
    expected = (one.transitions @ one.arrival_rewards).argmax(axis=1)
    np.testing.assert_array_equal(sol.policy[0], expected)


def test_dp_rejects_oversized_state_space():
    with pytest.raises(ContractViolation, match="too large"):
        DiscreteMDP(
            n_periods=2_000_000, n_states=2, n_actions=1,
            transitions=np.ones((2, 1, 2)) * 0.5,
            arrival_rewards=np.zeros(2),
            legal=np.ones((2_000_000, 2, 1), dtype=bool),
            initial_dist=np.array([1.0, 0.0]),
        )


def test_reduced_bellman_residual_tiny(reduced):
    cfg, mdp, _ = reduced
    sol = dp_solve(mdp, cfg.step_discount)
    assert bellman_residual(mdp, sol, cfg.step_discount) < 1e-10


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_gradient_matches_central_differences():
    rng = np.random.default_rng(0)
    net = PolicyValueNet(obs_dim=2, n_actions=2, hidden=(2,), seed=3)
    obs = rng.standard_normal((6, 2))
    masks = np.ones((6, 2), dtype=bool)
    masks[0, 1] = False
    acts = np.array([0, 1, 0, 1, 0, 0])
    rets = rng.standard_normal(6)
    tc = TrainConfig(total_steps=10, hidden=(2,))
    cache = ForwardCache()
    grads, _ = a2c_loss_grads(net, cache, *net.forward(obs, cache), masks, acts, rets, tc)
    flat_grad = np.concatenate([g.ravel() for g in grads])

    adv_const = rets - net.forward(obs)[1]

    shapes = [p.shape for p in net.parameters()]

    def loss(flat):
        parts = np.split(flat, np.cumsum([np.prod(shape) for shape in shapes])[:-1])
        twin = PolicyValueNet.from_parameters(2, 2, (2,), [part.reshape(shape) for part, shape in zip(parts, shapes)])
        logits, values = twin.forward(obs)
        masked = np.where(masks, logits, -1e9)
        lp = log_softmax(masked)
        p = np.where(masks, np.exp(lp), 0.0)
        pol = -(lp[np.arange(6), acts] * adv_const).mean()
        ent = -(np.where(masks, p * lp, 0.0)).sum(axis=1).mean()
        val = ((values - rets) ** 2).mean()
        return pol - tc.entropy_coef * ent + tc.value_coef * val

    flat0 = net.flat_parameters()
    eps = 1e-6
    fd = np.zeros_like(flat0)
    for i in range(flat0.size):
        up, dn = flat0.copy(), flat0.copy()
        up[i] += eps
        dn[i] -= eps
        fd[i] = (loss(up) - loss(dn)) / (2 * eps)
    rel = np.abs(flat_grad - fd) / np.maximum(np.abs(fd) + np.abs(flat_grad), 1e-8)
    assert flat0.size <= 20
    assert rel.max() < 1e-4


def _reference_forward(net, obs):
    """The forward pass written out with fresh arrays at every step."""
    h = obs
    for w in net.trunk:
        z = np.concatenate([h, np.ones((len(h), 1))], axis=1) @ w
        h = np.where(z > 0.0, z, 0.01 * z)
    x = np.concatenate([h, np.ones((len(h), 1))], axis=1)
    return x @ net.w_policy, (x @ net.w_value)[:, 0]


def test_uncached_forward_results_survive_the_next_pass():
    """Passes without a cache share the net's workspace; the arrays one
    returns are its own, and equal the fresh-array forward bit for bit."""
    rng = np.random.default_rng(4)
    net = PolicyValueNet(obs_dim=5, n_actions=4, hidden=(8, 6), seed=2)
    first, second = rng.standard_normal((7, 5)), rng.standard_normal((7, 5))
    logits, values = net.forward(first)
    kept = logits.copy(), values.copy()
    net.forward(second)
    net.masked_logits(second, np.ones((7, 4), dtype=bool))
    net.value(second[:3])
    for got, want in zip((logits, values), kept):
        assert np.array_equal(got, want)
    for got, want in zip(net.forward(first), _reference_forward(net, first)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_uncached_pass_between_forward_and_backward_keeps_gradients():
    rng = np.random.default_rng(5)
    net = PolicyValueNet(obs_dim=5, n_actions=4, hidden=(8, 6), seed=3)
    obs, other = rng.standard_normal((9, 5)), rng.standard_normal((9, 5))
    d_logits, d_values = rng.standard_normal((9, 4)), rng.standard_normal(9)

    cache = ForwardCache()
    net.forward(obs, cache)
    want = net.backward(cache, d_logits, d_values)

    cache = ForwardCache()
    net.forward(obs, cache)
    net.value(other)
    net.masked_logits(other, np.ones((9, 4), dtype=bool))
    got = net.backward(cache, d_logits, d_values)
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


def _reference_backward(net, obs, d_logits, d_values, pass_rows=None):
    """The backward pass written out with fresh arrays at every step, after a
    forward run in passes of ``pass_rows`` rows (default: one pass)."""
    pass_rows = pass_rows or len(obs)
    inputs, preacts = [], []
    h = obs
    for w in net.trunk:
        x = np.concatenate([h, np.ones((len(h), 1))], axis=1)
        z = np.concatenate([x[i:i + pass_rows] @ w for i in range(0, len(x), pass_rows)])
        inputs.append(x)
        preacts.append(z)
        h = np.where(z > 0.0, z, 0.01 * z)
    x = np.concatenate([h, np.ones((len(h), 1))], axis=1)
    g_policy, g_value = x.T @ d_logits, x.T @ d_values[:, None]
    d_h = d_logits @ net.w_policy[:-1].T + d_values[:, None] @ net.w_value[:-1].T
    grads = [None] * len(net.trunk)
    for i in range(len(net.trunk) - 1, -1, -1):
        d_z = d_h * np.where(preacts[i] > 0.0, 1.0, 0.01)
        grads[i] = inputs[i].T @ d_z
        if i > 0:
            d_h = d_z @ net.trunk[i][:-1].T
    return [*grads, g_policy, g_value]


def test_backward_gradients_are_fresh_and_equal_a_fresh_array_pass():
    """``backward`` keeps its temporaries in the cache it is handed, reused
    across passes and resized with the row count; the gradients of
    consecutive calls share no memory, later calls leave earlier ones as
    they were, and each equals the fresh-array pass bit for bit."""
    rng = np.random.default_rng(6)
    net = PolicyValueNet(obs_dim=5, n_actions=4, hidden=(8, 6), seed=4)
    cache = ForwardCache()
    kept = []
    for rows in (9, 9, 4, 9):
        obs = rng.standard_normal((rows, 5))
        d_logits, d_values = rng.standard_normal((rows, 4)), rng.standard_normal(rows)
        net.forward(obs, cache)
        grads = net.backward(cache, d_logits, d_values)
        for g, w in zip(grads, _reference_backward(net, obs, d_logits, d_values)):
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))
        kept.append((grads, [g.copy() for g in grads]))
    for grads, copies in kept:
        for g, c in zip(grads, copies):
            assert np.array_equal(g.view(np.uint64), c.view(np.uint64))
    arrays = [g for grads, _ in kept for g in grads]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])


def _assert_bits(got, want):
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


@pytest.mark.parametrize("rows", [24, 64, 1024])
def test_production_net_passes_equal_the_fresh_array_passes(rows):
    """The (256, 256, 128) net on the env's observations and actions, at
    the row counts the benchmark runs, takes BLAS paths the small nets
    above never reach; its forward and backward equal the fresh-array
    passes bit for bit, on a fresh cache and on a reused one."""
    rng = np.random.default_rng(rows)
    net = PolicyValueNet(OBS_DIM, N_ACTIONS, (256, 256, 128), seed=9)
    cache = ForwardCache()
    for _ in range(2):
        obs = rng.standard_normal((rows, OBS_DIM))
        d_logits, d_values = rng.standard_normal((rows, N_ACTIONS)), rng.standard_normal(rows)
        _assert_bits(net.forward(obs, cache), _reference_forward(net, obs))
        _assert_bits(net.backward(cache, d_logits, d_values),
                     _reference_backward(net, obs, d_logits, d_values))
        _assert_bits(net.forward(obs), _reference_forward(net, obs))


def test_production_net_through_cache_views_equals_the_fresh_array_passes():
    """Sixteen 64-row passes into the views of one 1,024-row cache, as an
    A2C rollout runs them: each pass equals the fresh-array forward of its
    rows, and the backward over the whole cache equals the fresh-array
    backward after a forward in the same 64-row passes."""
    rng = np.random.default_rng(11)
    net = PolicyValueNet(OBS_DIM, N_ACTIONS, (256, 256, 128), seed=10)
    obs = rng.standard_normal((16 * 64, OBS_DIM))
    d_logits, d_values = rng.standard_normal((16 * 64, N_ACTIONS)), rng.standard_normal(16 * 64)
    cache = ForwardCache()
    net.reserve(cache, 16 * 64)
    for t in range(16):
        rows = slice(64 * t, 64 * (t + 1))
        _assert_bits(net.forward(obs[rows], cache.view(rows.start, rows.stop)),
                     _reference_forward(net, obs[rows]))
    _assert_bits(net.backward(cache, d_logits, d_values),
                 _reference_backward(net, obs, d_logits, d_values, pass_rows=64))


def test_slope_read_from_the_activation_at_zero_nan_inf_and_underflow():
    """The backward reads each leaky ReLU's slope from the stored activation,
    not the pre-activation: at z = 0, NaN, +-inf and a negative z whose
    activation underflows to -0 the two signs agree, so the trunk gradient
    equals the fresh-array backward's, which tests ``z > 0``."""
    z = np.array([0.0, np.nan, np.inf, -np.inf, -5e-324, 3.0, -2.0])
    net = PolicyValueNet(obs_dim=1, n_actions=3, hidden=(len(z),), seed=1)
    net.trunk[0] = np.vstack([z, np.full(len(z), -0.0)])   # z = 1 * z + 1 * (-0.0)
    obs = np.ones((1, 1))
    rng = np.random.default_rng(12)
    d_logits, d_values = rng.standard_normal((1, 3)), rng.standard_normal(1)
    cache = ForwardCache()
    with np.errstate(invalid="ignore"):   # inf * 0 in the heads
        net.forward(obs, cache)
        got = net.backward(cache, d_logits, d_values)[0]
        want = _reference_backward(net, obs, d_logits, d_values)[0]
    assert np.isfinite(want).all()
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_a2c_update_on_a_reused_cache_equals_a_fresh_cache():
    rng = np.random.default_rng(7)
    net = PolicyValueNet(obs_dim=5, n_actions=4, hidden=(8, 6), seed=5)
    tc = TrainConfig(total_steps=10, hidden=(8, 6))
    cache = ForwardCache()
    for _ in range(3):
        obs = rng.standard_normal((12, 5))
        masks = rng.random((12, 4)) < 0.8
        masks[:, 0] = True
        acts = np.array([int(rng.choice(np.flatnonzero(m))) for m in masks])
        rets = rng.standard_normal(12)
        got, got_metrics = a2c_loss_grads(net, cache, *net.forward(obs, cache), masks, acts, rets, tc)
        fresh = ForwardCache()
        want, want_metrics = a2c_loss_grads(net, fresh, *net.forward(obs, fresh), masks, acts, rets, tc)
        assert got_metrics == want_metrics
        for g, w in zip(got, want):
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


def test_adam_step_matches_the_written_out_formula_bit_for_bit():
    """Twenty in-place steps give the bits of the update written with fresh
    arrays, operation for operation."""
    rng = np.random.default_rng(8)
    params = [rng.standard_normal((5, 4)), rng.standard_normal(7)]
    want = [p.copy() for p in params]
    lr, beta1, beta2, eps = 3e-3, 0.9, 0.999, 1e-8
    opt = Adam(params, lr=lr)
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t in range(1, 21):
        grads = [rng.standard_normal(p.shape) for p in params]
        opt.step(params, [g.copy() for g in grads])
        b1t = 1.0 - beta1 ** t
        b2t = 1.0 - beta2 ** t
        for p, g, m_i, v_i in zip(want, grads, m, v):
            m_i *= beta1
            m_i += (1.0 - beta1) * g
            v_i *= beta2
            v_i += (1.0 - beta2) * g * g
            p -= lr * (m_i / b1t) / (np.sqrt(v_i / b2t) + eps)
        for got, expected in zip(params, want):
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), t


def test_update_runs_one_forward_pass_per_rollout_step_plus_the_bootstrap(monkeypatch):
    """The update reads the rollout's activations: per update, one forward
    pass per rollout step and one for the bootstrap value, each over the
    actors' rows."""
    env = DominatedActionEnv(n_envs=8)
    tc = TrainConfig(total_steps=3 * 16 * 8, hidden=(8,), seed=2)
    rows = []
    forward = PolicyValueNet.forward
    monkeypatch.setattr(PolicyValueNet, "forward",
                        lambda net, obs, cache=None: rows.append(len(obs)) or forward(net, obs, cache))
    train_actor_critic(env, tc, None)
    assert len(rows) == 3 * (tc.rollout + 1)
    assert set(rows) == {8}


def test_update_gradients_equal_a_fresh_forward_in_rollout_chunks(monkeypatch):
    """The gradients of an update equal ``a2c_loss_grads`` over a fresh
    forward pass of the rollout's observations, run in the same 64-row
    chunks, bit for bit: the rollout's activations are the update's."""
    venv = LifecycleVectorEnv(build_env(EnvPaths.packaged(2023)), n_households=32, seed=3)
    observations = []

    def recording(method):
        def call(*args):
            out = method(*args)
            observations.append(out[0])
            return out
        return call

    for name in ("reset", "step"):
        monkeypatch.setattr(venv, name, recording(getattr(venv, name)))
    seen = {}
    original = actor_critic.a2c_loss_grads

    def spy(net, cache, logits, values, masks, actions, returns, config):
        grads, metrics = original(net, cache, logits, values, masks, actions, returns, config)
        seen.update(params=[p.copy() for p in net.parameters()], logits=logits.copy(), values=values.copy(),
                    masks=masks.copy(), actions=actions.copy(), returns=returns.copy(),
                    grads=[g.copy() for g in grads], metrics=metrics)
        return grads, metrics

    monkeypatch.setattr(actor_critic, "a2c_loss_grads", spy)
    tc = TrainConfig(total_steps=16 * 64, hidden=(32, 16), seed=4)   # one update
    train_actor_critic(venv, tc, None)

    net = PolicyValueNet(OBS_DIM, N_ACTIONS, (32, 16), seed=0)
    net.set_parameters(seen["params"])
    cache = ForwardCache()
    net.reserve(cache, 16 * 64)
    chunks = [net.forward(obs, cache.view(64 * t, 64 * (t + 1))) for t, obs in enumerate(observations[:16])]
    logits = np.concatenate([c[0] for c in chunks])
    values = np.concatenate([c[1] for c in chunks])
    for got, want in ((seen["logits"], logits), (seen["values"], values)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    grads, metrics = a2c_loss_grads(net, cache, logits, values, seen["masks"], seen["actions"], seen["returns"], tc)
    assert metrics == seen["metrics"]
    for got, want in zip(seen["grads"], grads):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_sample_masked_draws_only_legal_actions_of_the_catalogue():
    """Rounding leaves these rows' cumulative probability short of 1 at their
    last legal action, so a uniform just below 1 passes it; and a uniform of
    0.0 passes no cumulative value.  Each draw must still be a legal action."""
    logits = np.array([[0.9, 0.1, -0.7, -0.9, -0.5, 0.2, -1.0, -0.2, -0.2, 0.5, 0.2, 0.4],
                       [0.8, 0.8, 0.1, -1.4, -0.1, -0.8, -1.4, 0.3, -0.6, -1.0, -1.0, 0.3]])
    every = np.ones((2, 12), dtype=bool)
    inner = every.copy()
    inner[:, 0] = inner[:, 9:] = False   # legal: actions 1 to 8
    assert np.cumsum(masked_distribution(logits, every), axis=1)[0, -1] < 1.0
    assert np.cumsum(masked_distribution(logits, inner), axis=1)[1, 8] < 1.0
    top = np.full(2, np.nextafter(1.0, 0.0))
    assert sample_masked(logits, every, top)[0] == 11
    assert sample_masked(logits, inner, top)[1] == 8
    assert sample_masked(logits, inner, np.zeros(2)).tolist() == [1, 1]


# ---------------------------------------------------------------------------
# training behavior
# ---------------------------------------------------------------------------

def test_dominated_action_learned():
    env = DominatedActionEnv(n_envs=16)
    tc = TrainConfig(total_steps=30_000, hidden=(16,), learning_rate=5e-3, seed=1,
                     reward_scale=1.0, entropy_coef=0.005)
    res = train_actor_critic(env, tc, None)
    obs, masks = env.reset()
    logits = res.net.masked_logits(obs[:1], masks[:1])
    probs = masked_distribution(logits, masks[:1])[0]
    assert probs[1] >= 0.99


def test_training_determinism():
    def run():
        env = DominatedActionEnv(n_envs=8)
        tc = TrainConfig(total_steps=5_000, hidden=(8,), seed=7)
        return train_actor_critic(env, tc, None).net.flat_parameters()

    a, b = run(), run()
    np.testing.assert_array_equal(a, b)


def test_divergence_detector_raises():
    env = DominatedActionEnv(n_envs=8)
    tc = TrainConfig(total_steps=200_000, hidden=(8,), learning_rate=3000.0, seed=2,
                     checkpoint_every=1, divergence_patience=3, max_grad_norm=0.0)
    with pytest.raises(TrainingDiverged):
        train_actor_critic(env, tc, None)


def test_reduced_env_policy_approaches_dp(reduced, trained_reduced):
    cfg, mdp, _ = reduced
    sol = dp_solve(mdp, cfg.step_discount)
    j_opt = policy_return(mdp, greedy_policy_probs(mdp, sol.policy), cfg.step_discount)
    probs = network_policy_probs(trained_reduced.net, mdp, cfg, "greedy")
    j_net = policy_return(mdp, probs, cfg.step_discount)
    rand = mdp.legal.astype(float)
    rand /= rand.sum(axis=2, keepdims=True)
    j_rand = policy_return(mdp, rand, cfg.step_discount)
    assert j_net >= 0.95 * j_opt
    assert (j_net - j_rand) / (j_opt - j_rand) > 0.6


def test_training_curve_monotone_within_noise(trained_reduced):
    returns = [m["mean_episode_return"] for m in trained_reduced.metrics
               if np.isfinite(m["mean_episode_return"])]
    assert len(returns) >= 3
    # Non-decreasing within a noise band: later checkpoints never fall more
    # than 2% below the best seen so far.
    best = -np.inf
    for r in returns:
        assert r >= best - 0.02 * abs(best)
        best = max(best, r)


def test_value_estimates_finite_and_batch_invariant(trained_reduced, reduced):
    cfg, mdp, _ = reduced
    env = ReducedVectorEnv(mdp, cfg, n_envs=4, seed=9)
    obs, _ = env.reset()
    batch = value_estimate(trained_reduced.net, obs)
    assert np.isfinite(batch).all()
    for i in range(obs.shape[0]):
        single = value_estimate(trained_reduced.net, obs[i])
        assert single == pytest.approx(batch[i], abs=1e-10)


def test_dead_state_value_near_zero(trained_reduced, reduced):
    cfg, mdp, _ = reduced
    from reduced_mdp import E_DEAD, grid_observations

    obs = grid_observations(mdp, cfg)
    k = cfg.wage_points
    dead = obs[50, E_DEAD * k + k // 2]
    alive = obs[50, k // 2]  # unemployed mid wage
    v_dead = abs(value_estimate(trained_reduced.net, dead))
    v_alive = abs(value_estimate(trained_reduced.net, alive))
    assert v_dead < 0.05 * v_alive


def test_checkpoint_roundtrip(tmp_path, trained_reduced):
    tc = TrainConfig(total_steps=100, hidden=(64, 64))
    path = tmp_path / "ckpt.pkl"
    save_checkpoint(path, trained_reduced.net, tc, extra={"note": 1.0})
    net, payload = load_checkpoint(path)
    np.testing.assert_array_equal(net.flat_parameters(), trained_reduced.net.flat_parameters())
    assert payload["config_hash"] == __import__("lifesim.solver", fromlist=["config_hash"]).config_hash(tc)


def test_checkpoint_bytes_deterministic(tmp_path, trained_reduced):
    tc = TrainConfig(total_steps=100, hidden=(64, 64))
    p1, p2 = tmp_path / "a.pkl", tmp_path / "b.pkl"
    save_checkpoint(p1, trained_reduced.net, tc, {})
    save_checkpoint(p2, trained_reduced.net, tc, {})
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_pickle_rejected_without_running(tmp_path):
    marker = tmp_path / "marker"

    class Payload:
        def __reduce__(self):
            return pathlib.Path.touch, (marker,)

    path = tmp_path / "crafted.pkl"
    path.write_bytes(pickle.dumps(Payload()))
    with pytest.raises(ConfigError, match="format"):
        load_checkpoint(path)
    assert not marker.exists()


def _saved_checkpoint(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, PolicyValueNet(4, 3, (8,), seed=1), TrainConfig(total_steps=100), {})
    head, _, weights = path.read_bytes().partition(b"\n")
    return path, json.loads(head), weights


@pytest.mark.parametrize("field, key, value", [(None, "config_hash", "0" * 16),
                                              ("config", "learning_rate", 1.0)])
def test_checkpoint_tampered_hash_rejected(tmp_path, field, key, value):
    path, header, weights = _saved_checkpoint(tmp_path)
    (header[field] if field else header)[key] = value
    path.write_bytes(json.dumps(header).encode() + b"\n" + weights)
    with pytest.raises(ConfigError, match="hash"):
        load_checkpoint(path)


def test_checkpoint_truncated_weights_rejected(tmp_path):
    path, _, _ = _saved_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ConfigError, match="weight bytes"):
        load_checkpoint(path)


def test_checkpoint_load_draws_no_weights_and_round_trips_the_bits(tmp_path, monkeypatch):
    """A (256, 256, 128) net loads without the constructor, so nothing draws
    initial weights, and every parameter comes back bit for bit, each in an
    array of its own; the loaded net's forward pass equals the saved net's."""
    saved = PolicyValueNet(OBS_DIM, N_ACTIONS, (256, 256, 128), seed=7)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, saved, TrainConfig(total_steps=100), {})

    def no_draws(*args, **kwargs):
        raise AssertionError("a checkpoint load drew initial weights")

    monkeypatch.setattr(PolicyValueNet, "__init__", no_draws)
    monkeypatch.setattr(np.random, "default_rng", no_draws)
    net, _ = load_checkpoint(path)
    monkeypatch.undo()
    assert (net.obs_dim, net.n_actions, net.hidden) == (saved.obs_dim, saved.n_actions, saved.hidden)
    for got, want in zip(net.parameters(), saved.parameters(), strict=True):
        assert got.shape == want.shape and got.flags.owndata
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    obs = np.random.default_rng(3).standard_normal((64, OBS_DIM))
    for got, want in zip(net.forward(obs), saved.forward(obs)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("hidden", [[0], [-4, 8]])
def test_checkpoint_layer_size_below_one_rejected(tmp_path, hidden):
    path, header, weights = _saved_checkpoint(tmp_path)
    header["hidden"] = hidden
    path.write_bytes(json.dumps(header).encode() + b"\n" + weights)
    with pytest.raises(ConfigError, match="malformed"):
        load_checkpoint(path)
