"""The single-pass rules engine against the verbatim earlier engine, and the
column pricer against the scalar core.

``rules_oracle`` holds ``net_income`` and its helpers as they were before the
engine priced each budget unit in one pass over its adults.  Every field of
every ``CashFlows`` must come out bit for bit the same, for every packaged
year and for 2023 with the packaged ``orpo`` reform.  ``price_units``, which
prices the environment's blocks, must give every field ``price_unit`` gives
on the same snapshots, priced as one block, and raise on the same inputs;
and each set of units priced within a concatenation of sets must get the
rows it gets priced alone.
"""

import dataclasses
import re
import struct

import numpy as np
import pytest

import rules_oracle
from lifesim.paramfiles import params_dir
from lifesim.reform import apply_reform, load_reform
from lifesim.errors import ContractViolation
from lifesim.rules import (FLOW_COLUMNS, AdultColumns, AdultSnapshot, HouseholdSnapshot, emtr, net_income, price_unit,
                           price_units)
from lifesim.rules.engine import BENEFIT_FIELDS, CONTRIB_FIELDS, TAX_FIELDS
from lifesim.rules.ruleset import MONTHS_PER_QUARTER
from lifesim.states import PENSION_STATES, RETIRED_STATES, WORKING_STATES, EmploymentState as S

N_CASES = 600


def bits(cf) -> dict:
    """Every CashFlows field as raw float64 bits, so 0.0 and -0.0 differ."""
    out = {}
    for f in dataclasses.fields(cf):
        value = getattr(cf, f.name)
        values = value if isinstance(value, tuple) else (value,)
        out[f.name] = tuple(struct.pack("<d", v) for v in values)
    return out


def random_adult(rng, state) -> AdultSnapshot:
    working = state in WORKING_STATES
    return AdultSnapshot(
        state=state,
        # A working adult earns nothing one time in five.
        wage_quarterly=float(rng.uniform(0.0, 30_000.0)) if working and rng.random() < 0.8 else 0.0,
        age=float(rng.uniform(18.0, 100.0)),
        ub_basis_monthly=float(rng.uniform(0.0, 6_000.0)),
        ub_days_used=float(rng.choice([0.0, 39.0, 130.0, 260.0, 399.0, 400.0, 520.0])),
        ub_max_days=float(rng.choice([300.0, 400.0, 500.0])),
        fund_member=bool(rng.random() < 0.7),
        pension_paid_monthly=float(rng.uniform(0.0, 4_000.0)),
        pension_accrued_monthly=float(rng.uniform(0.0, 4_000.0)),
        partial_early_monthly=float(rng.choice([0.0, 0.0, 150.0, 400.0])),
        wage_basis_monthly=float(rng.uniform(0.0, 5_000.0)),
    )


def random_snapshot(rng) -> HouseholdSnapshot:
    n_adults = int(rng.integers(1, 3))
    states = [S(int(rng.integers(0, len(S)))) for _ in range(n_adults)]
    if n_adults == 2 and rng.random() < 0.3:
        states[0] = S(int(rng.choice([int(s) for s in WORKING_STATES])))
        states[1] = states[0] if rng.random() < 0.5 else S.FULL_TIME
    u3 = int(rng.integers(0, 2))
    u7 = u3 + int(rng.integers(0, 3))
    u18 = u7 + int(rng.integers(0, 3))
    return HouseholdSnapshot(
        adults=tuple(random_adult(rng, s) for s in states),
        children_under3=u3,
        children_under7=u7,
        children_under18=u18,
        partnered=n_adults == 2 and bool(rng.random() < 0.7),
        rent_monthly=float(rng.uniform(300.0, 1_600.0)),
    )


def _with_wage_bump(hh: HouseholdSnapshot, adult: int, bump_quarterly: float) -> HouseholdSnapshot:
    """``hh`` with ``bump_quarterly`` added to adult ``adult``'s quarterly wage."""
    adults = list(hh.adults)
    adults[adult] = dataclasses.replace(adults[adult], wage_quarterly=adults[adult].wage_quarterly + bump_quarterly)
    return dataclasses.replace(hh, adults=tuple(adults))


def snapshot_cases(seed: int) -> list[HouseholdSnapshot]:
    rng = np.random.default_rng(seed)
    return [random_snapshot(rng) for _ in range(N_CASES)]


# Wages the validation lets through that the draws never hit: a signed zero,
# the smallest positive wage, and a wage under one euro.
EDGE_CASES = [
    HouseholdSnapshot(adults=(AdultSnapshot(state=S.FULL_TIME, wage_quarterly=w),
                              AdultSnapshot(state=S.PART_TIME, wage_quarterly=0.0)),
                      children_under7=1, children_under18=1, partnered=True)
    for w in (-0.0, 5e-324, 0.75)
] + [HouseholdSnapshot(adults=(AdultSnapshot(state=S.DEAD, pension_accrued_monthly=900.0),
                               AdultSnapshot(state=S.DEAD)))]


COVERAGE = {
    "zero-wage adult": lambda hh: any(a.state in WORKING_STATES and a.wage_quarterly == 0.0
                                      for a in hh.adults),
    "dead partner with accrual": lambda hh: any(a.state is S.DEAD and a.pension_accrued_monthly > 0
                                                for a in hh.adults)
                                            and any(a.state is not S.DEAD for a in hh.adults),
    "ER_EXTENDED": lambda hh: any(a.state is S.ER_EXTENDED for a in hh.adults),
    "partial early pension": lambda hh: any(a.partial_early_monthly > 0 and a.state not in PENSION_STATES
                                            for a in hh.adults),
    "retiree with children": lambda hh: hh.children_under18 > 0
                                        and any(a.state in RETIRED_STATES for a in hh.adults),
    **{f"daycare, {n} under 7": (lambda hh, n=n: hh.children_under7 == n
                                 and all(a.state in WORKING_STATES for a in hh.adults)
                                 and sum(a.wage_quarterly for a in hh.adults) > 9_000.0)
       for n in (1, 2, 3)},
}


@pytest.fixture(scope="module")
def rule_sets(all_year_rules):
    base = next(rs for rs in all_year_rules if rs.year == 2023)
    reformed, _ = apply_reform(base, load_reform(params_dir() / "reforms" / "orpo.yaml"))
    return [*all_year_rules, reformed]


def test_cases_cover_every_branch_of_interest(rules2023):
    cases = snapshot_cases(0)
    missing = [name for name, hit in COVERAGE.items() if not any(hit(hh) for hh in cases)]
    assert not missing
    for n in (1, 2, 3):
        daycare = [hh for hh in cases if COVERAGE[f"daycare, {n} under 7"](hh)]
        assert any(net_income(hh, rules2023).daycare_fee > 0 for hh in daycare)


def test_net_income_matches_oracle_bit_for_bit(rule_sets):
    cases = snapshot_cases(0) + EDGE_CASES
    assert len(rule_sets) == 8
    for rules in rule_sets:
        for hh in cases:
            assert bits(net_income(hh, rules)) == bits(rules_oracle.net_income(hh, rules)), (rules.year, hh)


def test_emtr_matches_oracle_bit_for_bit(rule_sets):
    """The per-instrument EMTR parts, recomputed from oracle cash flows."""
    dq = 100.0 * MONTHS_PER_QUARTER
    for rules in rule_sets[-2:]:
        for hh in snapshot_cases(1)[:200]:
            base = rules_oracle.net_income(hh, rules)
            after = rules_oracle.net_income(_with_wage_bump(hh, 0, dq), rules)
            expected = {name: (getattr(after, name) - getattr(base, name)) / dq
                        for name in TAX_FIELDS + CONTRIB_FIELDS}
            expected.update({name: -(getattr(after, name) - getattr(base, name)) / dq for name in BENEFIT_FIELDS})
            expected["total"] = 1.0 - (after.net_income - base.net_income) / dq
            got = emtr(hh, rules)
            assert list(got) == list(expected)
            assert [struct.pack("<d", v) for v in got.values()] == [
                struct.pack("<d", v) for v in expected.values()]


def test_net_income_ignores_age(rule_sets):
    """No rule reads ``AdultSnapshot.age``: the static phase reuses a quarter's
    flows on this premise while the adults grow older."""
    rng = np.random.default_rng(2)
    for rules in (rule_sets[0], rule_sets[-1]):
        for hh in snapshot_cases(3)[:200]:
            want = bits(net_income(hh, rules))
            for age in (18.0, 62.5, 75.0, 99.75, float(rng.uniform(0.0, 120.0))):
                aged = dataclasses.replace(
                    hh, adults=tuple(dataclasses.replace(a, age=age) for a in hh.adults))
                assert bits(net_income(aged, rules)) == want


def _rows(hh: HouseholdSnapshot) -> list[tuple]:
    return [dataclasses.astuple(a) for a in hh.adults]


def as_block(cases: list[HouseholdSnapshot]) -> tuple:
    """The ``price_units`` arguments (rule set aside) of ``cases``: their
    adults as columns, in case then adult order, and one unit per case."""
    adults = [a for hh in cases for a in hh.adults]
    columns = AdultColumns(np.array([int(a.state) for a in adults]),
                           *(np.array([getattr(a, name) for a in adults]) for name in AdultColumns._fields[1:]))
    sizes = np.array([len(hh.adults) for hh in cases])
    first = np.cumsum(sizes) - sizes
    second = np.where(sizes == 2, first + 1, -1)
    bands = (np.array([getattr(hh, name) for hh in cases])
             for name in ("children_under3", "children_under7", "children_under18"))
    return (columns, first, second, *bands, np.array([float(hh.rent_monthly) for hh in cases]))


def scalar_flows(hh: HouseholdSnapshot, rules) -> list[bytes]:
    cf = price_unit(_rows(hh), hh.children_under3, hh.children_under7, hh.children_under18, hh.rent_monthly, rules)
    return [struct.pack("<d", getattr(cf, name)) for name in FLOW_COLUMNS]


def test_price_units_matches_price_unit_bit_for_bit(rule_sets):
    """The seeded snapshots and the edge wages priced as one block, and each
    edge case as a block of one."""
    assert AdultColumns._fields[1:] == tuple(
        name for name in AdultSnapshot.__dataclass_fields__ if name not in ("state", "age"))
    cases = snapshot_cases(0) + EDGE_CASES
    for rules in rule_sets:
        flows = price_units(*as_block(cases), rules)
        assert flows.shape == (len(cases), len(FLOW_COLUMNS)) and flows.flags.c_contiguous
        for hh, row in zip(cases, flows.tolist()):
            assert [struct.pack("<d", v) for v in row] == scalar_flows(hh, rules), (rules.year, hh)
        for hh in EDGE_CASES:
            row = price_units(*as_block([hh]), rules)[0].tolist()
            assert [struct.pack("<d", v) for v in row] == scalar_flows(hh, rules), (rules.year, hh)


def _broken(hh: HouseholdSnapshot, defect: str) -> HouseholdSnapshot:
    if defect == "bands":
        return dataclasses.replace(hh, children_under3=2, children_under7=1, children_under18=3)
    adult = dataclasses.replace(hh.adults[-1], **({"wage_quarterly": -1.0} if defect == "wage"
                                                  else {"ub_days_used": -65.0}))
    return dataclasses.replace(hh, adults=(*hh.adults[:-1], adult))


@pytest.mark.parametrize("defect", ["wage", "days", "bands"])
def test_price_units_raises_like_price_unit(rules2023, defect):
    cases = snapshot_cases(0)[:20]
    bad = _broken(cases[7], defect)
    with pytest.raises(ContractViolation) as scalar:
        price_unit(_rows(bad), bad.children_under3, bad.children_under7, bad.children_under18, bad.rent_monthly,
                   rules2023)
    with pytest.raises(ContractViolation, match=re.escape(str(scalar.value))):
        price_units(*as_block(cases[:7] + [bad] + cases[8:]), rules2023)


def _shuffled_set(cases: list[HouseholdSnapshot], rng) -> tuple:
    """``as_block(cases)`` with the adult rows in a random order and one more
    adult that no unit holds, as a block's dead single is."""
    columns, first, second, *rest = as_block(cases)
    extra = as_block([HouseholdSnapshot(adults=(random_adult(rng, S.DEAD),))])[0]
    columns = AdultColumns(*(np.concatenate((c, e)) for c, e in zip(columns, extra)))
    order = rng.permutation(len(columns.state))
    position = np.argsort(order)
    return (AdultColumns(*(c[order] for c in columns)), position[first],
            np.where(second >= 0, position[second], -1), *rest)


def test_price_units_gives_each_set_its_own_rows_when_sets_are_concatenated(rule_sets):
    """What the cohort simulator's pricing of many quarters in one call rests
    on: ``price_units`` over a concatenation of unit sets, each set's adult
    rows offset by the adults before it and its absent second adults kept at
    -1, gives each set's rows the bits pricing the set alone gives."""
    rng = np.random.default_rng(4)
    cases = snapshot_cases(4) + EDGE_CASES
    cuts = sorted(rng.choice(np.arange(1, len(cases)), size=11, replace=False).tolist())
    sets = [_shuffled_set(cases[lo:hi], rng) for lo, hi in zip([0] + cuts, cuts + [len(cases)])]
    sets += [_shuffled_set(EDGE_CASES[:1], rng), _shuffled_set(cases[:1], rng)]
    offsets = np.cumsum([0] + [len(cols.state) for cols, *_ in sets])
    columns = AdultColumns(*(np.concatenate(c) for c in zip(*(cols for cols, *_ in sets))))
    first = np.concatenate([one + k for (_, one, *_), k in zip(sets, offsets)])
    second = np.concatenate([np.where(two >= 0, two + k, -1) for (_, _, two, *_), k in zip(sets, offsets)])
    assert (second == -1).any() and (second >= 0).any()
    rest = [np.concatenate(c) for c in zip(*(unit_set[3:] for unit_set in sets))]
    ends = np.cumsum([len(one) for _, one, *_ in sets])
    for rules in rule_sets:
        together = price_units(columns, first, second, *rest, rules)
        for unit_set, lo, hi in zip(sets, [0, *ends[:-1]], ends):
            assert together[lo:hi].tobytes() == price_units(*unit_set, rules).tobytes(), (rules.year, lo)
