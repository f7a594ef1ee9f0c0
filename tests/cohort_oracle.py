"""The cohort simulator as it stood when every simulated quarter was priced
as it ran, kept verbatim as a test oracle: ``_run_blocks`` with
``step_block`` (transition, pricing and rewards, as ``LifecycleEnv`` ran
it; now in ``train_oracle``) each decision quarter and the block's flow
rows added into their age cell quarter by quarter.

Two things differ from the original.  The static phase prices the whole
block with ``LifecycleEnv.price`` (now ``price_oracle.price``) after
``static_block`` reports a change, where ``static_block`` used to re-price
the changed households and splice their rows into the block's.  A unit's
row has the same bits in any ``price_units`` call, so both give the same
rows.  And a block's draws are its households' keyed draws, the life
(``population_oracle.with_life``) and the action uniforms
(``default_rng((seed, household, 3)).random((decision quarters, 2))``,
one per slot), where they were each household's two generators.

The tests assert that ``lifesim.simulate.run_cohort`` and
``run_cohort_parallel`` give the same bits as this function in every
``SimulationLog`` array.  Do not edit the function below; it pins today's
behaviour.  ``run_cohort`` takes a record population
(``population_oracle.records``), cut into record blocks of the
simulator's ``BLOCK_HOUSEHOLDS`` by the record ``_blocks`` the simulator
used before it sliced block columns.
"""

from __future__ import annotations

import numpy as np

import lifesim.simulate as simulate
from lifesim.agent import DECISION_END_AGE, DT, MAX_AGE, HouseholdState
from lifesim.env.actions import N_ACTIONS
from lifesim.env.features import OBS_DIM
from lifesim.env.mdp import LifecycleEnv
from lifesim.env.vector import observe
from lifesim.simulate import (
    AGE_MIN,
    FLOW_NAMES,
    N_AGES,
    SimulationLog,
    _FLOW_COLUMNS,
    _fold_flows,
)
from lifesim.solver.network import PolicyValueNet, sample_masked
from one_household import _incentive_samples
from population_oracle import with_life
from price_oracle import price
from train_oracle import step_block


def _blocks(households: list[HouseholdState]) -> list[list[HouseholdState]]:
    size = simulate.BLOCK_HOUSEHOLDS
    return [households[i:i + size] for i in range(0, len(households), size)]


def run_cohort(net, pop, env, mode="sample", collect_incentives=False) -> SimulationLog:
    return _run_blocks(net, _blocks(pop.households), env, mode, collect_incentives, pop.size, pop.seed)


def _run_blocks(net: PolicyValueNet, blocks: list[list[HouseholdState]], env: LifecycleEnv,
                mode: str, collect_incentives: bool, cohort_size: int, seed: int) -> SimulationLog:
    decision_q = int(round((DECISION_END_AGE - AGE_MIN) / DT))
    total_q = int(round((MAX_AGE - AGE_MIN) / DT))
    agents = [a for block in blocks for hh in block for a in hh.adults]
    n_agents = len(agents)

    states = np.zeros((n_agents, total_q), dtype=np.int8)
    hours = np.zeros((n_agents, total_q), dtype=np.int8)
    paid = np.zeros((n_agents, total_q), dtype=np.float32)
    er_days = np.zeros((n_agents, total_q), dtype=np.float32)
    gender = np.array([0 if a.gender == "men" else 1 for a in agents], dtype=np.int8)
    group = np.array([a.group for a in agents], dtype=np.int8)

    flow_blocks = np.zeros((len(blocks), N_AGES, len(FLOW_NAMES)))
    emtr_samples: list[float] = []
    ptr_samples: list[float] = []

    row0 = 0
    for households, flows in zip(blocks, flow_blocks):
        b = with_life(env.block(households), total_q)
        rows = slice(row0, row0 + b.n)
        obs = np.zeros((b.n, OBS_DIM))
        masks = np.zeros((b.n, N_ACTIONS), dtype=bool)
        if mode != "greedy":
            # Each household's two action uniforms per decision quarter, one
            # per slot, drawn at once; row q holds quarter q's by adult row.
            uniforms = np.empty((decision_q, b.n))
            for first, size, key in zip(b.first.tolist(), b.size.tolist(), zip(b.seed.tolist(), b.ids.tolist())):
                uniforms[:, first:first + size] = np.random.default_rng((*key, 3)).random((decision_q, 2))[:, :size]
        for q in range(total_q):
            age_cell = min(int(q * DT), N_AGES - 1)
            if q < decision_q:
                observe(b, env, obs, masks)
                logits = net.masked_logits(obs, masks)
                if mode == "greedy":
                    acts = logits.argmax(axis=1)
                else:
                    acts = sample_masked(logits, masks, uniforms[q])
                step_block(env, b, acts, masks)
                unit_flows = b.flows.take(_FLOW_COLUMNS, axis=1)
                if collect_incentives and q % 4 == 0:
                    _incentive_samples(env, b, emtr_samples, ptr_samples)
            elif env.static_block(b).size:
                price(env, b)   # the one changed line
                unit_flows = b.flows.take(_FLOW_COLUMNS, axis=1)
            # np.add.reduce over the rows of a row-major matrix (``take`` keeps
            # that layout, a fancy column index does not) adds them one at a
            # time, in row order.
            flows[age_cell] = np.add.reduce(np.vstack((flows[age_cell], unit_flows)), axis=0)
            states[rows, q] = b.state
            hours[rows, q] = b.hours
            paid[rows, q] = b.paid_wage
            er_days[rows, q] = b.ub_days_used
            if q == decision_q - 1:
                env.freeze_block(b)
        b.write_back(households)
        row0 += b.n

    flows_by_age, cons_by_age = _fold_flows(flow_blocks)
    return SimulationLog(
        cohort_size=cohort_size, seed=seed, n_quarters=total_q, states=states, hours=hours,
        paid_wage=paid, er_days_used=er_days, gender=gender, group=group,
        flows_by_age=flows_by_age, consumption_by_age=cons_by_age,
        emtr_samples=np.asarray(emtr_samples), ptr_samples=np.asarray(ptr_samples),
        flow_blocks=flow_blocks,
    )
