"""Float sums in ``src/`` add left to right from 0.0, as Python 3.11's builtin
``sum`` does, on every Python the package accepts.  From 3.12 ``sum``
compensates float items (Neumaier), which gives other bits; these tests run
each summing site under such a ``sum`` and expect the left-to-right bits."""

import builtins
import contextlib
import dataclasses
import math
from functools import reduce
from operator import add

from lifesim.env.actions import A_STAY
from lifesim.paramfiles import params_dir
from lifesim.pipelines import EnvPaths, build_env
from lifesim.population import load_demographics
from lifesim.rules.engine import BENEFIT_FIELDS, CONTRIB_FIELDS, FLOW_COLUMNS, TAX_FIELDS
from lifesim.simulate import _public_net
from lifesim.states import EmploymentState as S
from test_env import make_agent, make_household, zeroed_env

_BUILTIN_SUM = builtins.sum


def compensated_sum(iterable, /, start=0):
    """Builtin ``sum`` as Python 3.12 computes it: exact float items are
    added with a running Neumaier compensation, added back at the end."""
    items = list(iterable)
    if not items or type(start) not in (int, float) or any(type(x) is not float for x in items):
        return _BUILTIN_SUM(items, start)
    total, comp = float(start), 0.0
    for x in items:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def left_to_right(values):
    return reduce(add, values, 0.0)


# Inputs on which each site's left-to-right result differs from the
# compensated one.
WAGES = [8765.43, 8765.53, 8765.63, 8765.73, 8765.83, 8765.93, 8766.03, 8766.13, 8766.23]
SHARES = (0.1, 0.2, 0.3)
FLOWS = {name: 123.4567 * (k + 1) for k, name in enumerate(FLOW_COLUMNS)}


def public_net(add_up):
    return (add_up(FLOWS[n] for n in TAX_FIELDS) + add_up(FLOWS[n] for n in CONTRIB_FIELDS)
            + FLOWS["employer_contrib"] + FLOWS["vat"] - add_up(FLOWS[n] for n in BENEFIT_FIELDS))


def test_the_inputs_tell_the_two_sums_apart():
    assert compensated_sum(WAGES) / len(WAGES) != left_to_right(WAGES) / len(WAGES)
    assert compensated_sum(SHARES) != left_to_right(SHARES)
    assert public_net(compensated_sum) != public_net(left_to_right)


@contextlib.contextmanager
def compensated_builtin_sum():
    builtins.sum = compensated_sum
    try:
        yield
    finally:
        builtins.sum = _BUILTIN_SUM


def test_public_net_adds_left_to_right():
    with compensated_builtin_sum():
        got = _public_net(FLOWS)
    assert got == public_net(left_to_right)


def test_group_shares_normalised_left_to_right():
    tables = load_demographics(params_dir() / "demographics.yaml")
    tables = dataclasses.replace(tables, group_shares={2000: {"men": SHARES, "women": SHARES}})
    total = left_to_right(SHARES)
    with compensated_builtin_sum():
        got = tables.shares_for_year(2023, "men")
    assert got == tuple(v / total for v in SHARES)


def test_earnings_related_basis_averages_left_to_right():
    layoff_env = zeroed_env(build_env(EnvPaths.packaged(2023)), layoff_quarterly=1.0)
    a = make_agent(S.FULL_TIME, age=40.0)
    a.fund_member = True
    a.work_window = [(True, w) for w in WAGES]
    a.career_quarters = 40
    hh = make_household(a)
    with compensated_builtin_sum():
        layoff_env.step(hh, (A_STAY,))
    assert a.state is S.ER_UNEMPLOYED
    assert a.ub_basis == left_to_right(WAGES) / len(WAGES) / 3.0
