"""The environment's per-block pricer as it stood before ``PricingLedger``
priced every quarter, kept verbatim as a test oracle: ``LifecycleEnv.price``
and ``_rewards`` (here functions of the env), the ``terminal_block`` and the
one-household ``step``, ``static_quarter`` and ``terminal_value`` built on
them, and the ``outcome`` and ``unit_cash_flows`` that read the priced
quarter off the block.

The block held the last priced quarter's ``flows``, ``consumption`` and
``reward`` then; it holds none now, so :func:`price` and
:func:`settle_block` set them as new attributes of the block (the only
lines changed), and :func:`static_block` zeroes ``reward`` as
``LifecycleEnv.static_block`` did.  ``tests/test_one_pricer.py`` asserts
that the ledger path gives the same bits.  Do not edit the functions below;
they pin the old behaviour.
"""

from __future__ import annotations

import numpy as np

from lifesim.agent import HouseholdBlock, HouseholdState
from lifesim.env.actions import legal_mask
from lifesim.env.mdp import _CONSUMPTION, DT, LifecycleEnv, StepOutcome, event_names
from lifesim.errors import ContractViolation
from lifesim.rules import CashFlows, price_units
from lifesim.states import IS_WORKING as _IS_WORKING, EmploymentState as S

_DEAD = int(S.DEAD)


def price(env: LifecycleEnv, b: HouseholdBlock) -> None:
    """Price every budget unit of ``b`` (``env.units``) with
    :func:`~lifesim.rules.price_units` into ``b.flows``, a row per unit,
    and set each adult's consumption: a unit's consumption is shared
    equally by its living adults (``b.sharers``), and an adult in no
    unit, or dead, consumes nothing."""
    units = env.units(b)
    b.flows = price_units(env.adult_columns(b), *units, env.rules)
    share = b.sharers
    b.consumption = np.zeros(b.n)   # was ``b.consumption[:] = 0.0`` on the block's own column
    b.consumption[share.rows] = b.flows[share.unit, _CONSUMPTION] / share.divisor


def rewards(env: LifecycleEnv, b: HouseholdBlock, rows: np.ndarray) -> np.ndarray:
    """One quarter's utility of the living adult ``rows``, times DT."""
    return env._utility.utility(b.consumption[rows], b.state[rows], b.women[rows], b.hours[rows], b.age[rows],
                                b.pink_slip[rows], b.under3[b.hh[rows]] > 0) * DT


def settle_block(env: LifecycleEnv, b: HouseholdBlock) -> None:
    """Price ``b`` (:func:`price`) and set each adult's reward: the
    quarter's utility times DT for the living, zero for the dead."""
    price(env, b)
    live = (b.state != _DEAD).nonzero()[0]
    b.reward = np.zeros(b.n)   # was ``b.reward[:] = 0.0`` on the block's own column
    b.reward[live] = rewards(env, b, live)


def static_block(env: LifecycleEnv, b: HouseholdBlock) -> np.ndarray:
    """``env.static_block``, zero rewards: the households whose pricing
    inputs may have changed."""
    changed = env.static_block(b)
    b.reward = np.zeros(b.n)
    return changed


def unit_cash_flows(b: HouseholdBlock, h: int) -> list[CashFlows]:
    """The cash flows of household ``h``'s budget units, built from their
    rows of ``b.flows``; ``adult_wages`` lists each unit adult's quarterly
    wage (0.0 for the dead and the idle)."""
    units = b.units
    lo, hi = np.searchsorted(units.first, (b.first[h], b.first[h] + b.size[h]))
    wages = np.where(_IS_WORKING[b.state], b.paid_wage / 4.0, 0.0)
    return [CashFlows(*row, adult_wages=tuple(wages[[first] if second < 0 else [first, second]].tolist()))
            for row, first, second in zip(b.flows[lo:hi].tolist(), units.first[lo:hi].tolist(),
                                          units.second[lo:hi].tolist())]


def outcome(b: HouseholdBlock, h: int, events: tuple[str, ...] = ()) -> StepOutcome:
    rows = slice(int(b.first[h]), int(b.first[h] + b.size[h]))
    return StepOutcome(rewards=tuple(b.reward[rows].tolist()), consumptions=tuple(b.consumption[rows].tolist()),
                       flows=unit_cash_flows(b, h), events=events)


def terminal_block(env: LifecycleEnv, b: HouseholdBlock) -> np.ndarray:
    """Expected discounted static-phase utility of each adult at age 75
    (zero for the dead)."""
    env.freeze_block(b)
    price(env, b)
    rows = (b.state != _DEAD).nonzero()[0]
    values = np.zeros(b.n)
    for r, u_now in zip(rows.tolist(), rewards(env, b, rows).tolist()):
        total = 0.0
        for w in env._survival_weights("women" if b.women[r] else "men", float(b.age[r])):
            total += w * u_now
        values[r] = total
    return values


def step(env: LifecycleEnv, hh: HouseholdState, action_indices: tuple[int, ...], masks=None) -> StepOutcome:
    """Advance one household a quarter and price it."""
    if len(action_indices) != len(hh.adults):
        raise ContractViolation("one action per adult slot required")
    if masks is None:
        masks = [legal_mask(a, hh, env.rules) for a in hh.adults]
    b = env.block([hh])
    env.advance_block(b, action_indices, np.asarray(masks, dtype=bool).reshape(b.n, -1))
    price(env, b)
    live = (b.state != _DEAD).nonzero()[0]
    b.reward = np.zeros(b.n)   # was the block's zeroed column
    b.reward[live] = rewards(env, b, live)
    b.write_back([hh])
    return outcome(b, 0, event_names(b, 0))


def static_quarter(env: LifecycleEnv, hh: HouseholdState, last: StepOutcome | None = None) -> StepOutcome:
    """``static_block`` on one household; ``last`` is returned as it is
    when the block prices nothing."""
    b = env.block([hh])
    b.stale[:] = last is None
    priced = static_block(env, b).size
    if priced:
        price(env, b)
    b.write_back([hh])
    return outcome(b, 0) if priced else last


def terminal_value(env: LifecycleEnv, hh: HouseholdState) -> tuple[float, ...]:
    """:func:`terminal_block` on one household (which it freezes)."""
    b = env.block([hh])
    values = terminal_block(env, b)
    b.write_back([hh])
    return tuple(values.tolist())
