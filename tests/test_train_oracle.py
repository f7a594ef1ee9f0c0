"""The trainer, which prices each rollout's quarters together through the
pricing ledger, against the trainer that priced each quarter as it ran
(``train_oracle``): the parameters and every metrics row bit for bit, over
an episode that ends mid-rollout (228 = 14 x 16 + 4 steps) with deaths in
the block, on two seeds, with one ``price_units`` call per rollout and with
several.  Also here: how many ``price_units`` calls an update makes, and
the consumption check that utility evaluation made on every quarter.
"""

import math
import struct

import numpy as np
import pytest

import lifesim.env.mdp as mdp
import train_oracle
from lifesim.env.vector import LifecycleVectorEnv
from lifesim.errors import ContractViolation
from lifesim.pipelines import EnvPaths, build_env
from lifesim.rules import FLOW_COLUMNS
from lifesim.solver import TrainConfig, train_actor_critic
from lifesim.states import EmploymentState as S

DEAD = int(S.DEAD)
CONSUMPTION = FLOW_COLUMNS.index("consumption")
HOUSEHOLDS = 8
UPDATES = 15   # the first episode ends at the 4th step of update 14


@pytest.fixture(scope="module")
def env():
    return build_env(EnvPaths.packaged(2023))


def _bits(row: dict) -> dict:
    return {k: struct.pack("<d", v) for k, v in row.items()}


@pytest.mark.parametrize("seed, pricing_rows", [(5, None), (12, None), (12, 37)])
def test_trainer_matches_per_quarter_pricing(env, monkeypatch, seed, pricing_rows):
    config = TrainConfig(total_steps=UPDATES * 16 * 2 * HOUSEHOLDS, hidden=(16, 8), seed=seed, checkpoint_every=1)
    dead_at_end = []
    terminal = env.terminal_block
    monkeypatch.setattr(env, "terminal_block",
                        lambda b: dead_at_end.append(int((b.state == DEAD).sum())) or terminal(b))
    want = train_oracle.train_actor_critic(
        train_oracle.PerQuarterVectorEnv(env, n_households=HOUSEHOLDS, seed=seed), config)
    assert len(dead_at_end) == 1 and dead_at_end[0] > 0

    if pricing_rows is not None:
        monkeypatch.setattr(mdp, "PRICING_ROWS", pricing_rows)
    got = train_actor_critic(LifecycleVectorEnv(env, n_households=HOUSEHOLDS, seed=seed), config, None)
    assert got.steps_done == want.steps_done
    assert [_bits(row) for row in got.metrics] == [_bits(row) for row in want.metrics]
    assert math.isnan(got.metrics[13]["mean_episode_return"])
    assert not math.isnan(got.metrics[14]["mean_episode_return"])
    for a, b in zip(got.net.parameters(), want.net.parameters()):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("pricing_rows", [None, 100])
def test_an_update_prices_its_rollout_in_few_calls(env, monkeypatch, pricing_rows):
    """Per update: at most ceil(recorded unit rows / ``PRICING_ROWS``)
    ledger calls, plus the terminal value's one per episode end."""
    if pricing_rows is not None:
        monkeypatch.setattr(mdp, "PRICING_ROWS", pricing_rows)
    calls = {"ledger": [], "terminal": []}
    kind = ["ledger"]   # "terminal" while ``terminal_block`` runs
    price = mdp.price_units
    monkeypatch.setattr(mdp, "price_units", lambda *args: calls[kind[0]].append(len(args[1])) or price(*args))
    terminal = env.terminal_block

    def counted_terminal(b):
        kind[0] = "terminal"
        try:
            return terminal(b)
        finally:
            kind[0] = "ledger"

    monkeypatch.setattr(env, "terminal_block", counted_terminal)
    venv = LifecycleVectorEnv(env, n_households=HOUSEHOLDS, seed=4)
    venv.episode_quarters = 20   # episode ends at steps 20 and 40: in updates 1 and 2
    updates, ends = [], []
    step, rewards = venv.step, venv.rewards

    def counted_step(actions):
        out = step(actions)
        ends.append(int(out[2][0]))
        return out

    def counted_rewards():
        out = rewards()
        updates.append({kind: list(sizes) for kind, sizes in calls.items()} | {"ends": sum(ends)})
        for sizes in calls.values():
            sizes.clear()
        ends.clear()
        return out

    monkeypatch.setattr(venv, "step", counted_step)
    monkeypatch.setattr(venv, "rewards", counted_rewards)
    train_actor_critic(venv, TrainConfig(total_steps=3 * 16 * 2 * HOUSEHOLDS, hidden=(8,), seed=1), None)
    assert [u["ends"] for u in updates] == [0, 1, 1]
    bound = mdp.PRICING_ROWS
    for u in updates:
        recorded = sum(u["ledger"])
        assert recorded >= 16 * HOUSEHOLDS
        assert len(u["ledger"]) <= -(-recorded // bound)
        assert len(u["terminal"]) == u["ends"]
    most = max(len(u["ledger"]) for u in updates)
    assert most == 1 if pricing_rows is None else most > 1


@pytest.mark.parametrize("value", [0.0, -1.0])
def test_non_positive_consumption_of_a_living_adult_raises_from_training(env, monkeypatch, value):
    price = mdp.price_units

    def patched(adults, first, second, *rest):
        flows = price(adults, first, second, *rest)
        alive = adults.state != DEAD
        flows[alive[first] | ((second >= 0) & alive[second]), CONSUMPTION] = value
        return flows

    monkeypatch.setattr(mdp, "price_units", patched)
    with pytest.raises(ContractViolation, match="positive consumption"):
        train_actor_critic(LifecycleVectorEnv(env, n_households=HOUSEHOLDS, seed=2),
                           TrainConfig(total_steps=16 * 2 * HOUSEHOLDS, hidden=(8,), seed=2), None)
