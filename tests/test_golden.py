"""Golden behaviour: a seeded cohort run three ways, two training updates,
two reform comparisons (one on a fixed net, one through the refit) and a
grid of scalar incentives, pinned to ``tests/golden.json``.

The cohort is three 64-household blocks drawn under the 2023 rules and
driven by an untrained (256, 256, 128) net, with incentive sampling on:
in sample mode under the 2023 rules, in greedy mode under them, and in
sample mode under 2023 + ``orpo``.  Each run's integer histories (states,
hours, gender, group) are hashed exactly; its ``aggregate(...).cells()``
must match to 12 significant digits (relative 1e-12, NaN matching NaN).  The parameters after two
``train_policy`` updates must match to a relative 1e-9.

The comparison is ``compare_runs`` of 2023 against 2023 + ``orpo`` over two
128-agent repeats per arm (population seeds 2025 and 2026, shared by both
arms), simulated by the same net in sample mode; each row's values must
match to 12 significant digits and its significance exactly.  The refit
comparison is one toy ``reform_pipeline`` of the same two rule sets from the
same net: two 32-agent repeats per arm, each refit for two A2C updates on
four pair households, compared the same way.  The grid
prices ``emtr``'s total and ``ptr`` under both rule sets for six partner
types, four child sets, full- and part-time work and three monthly wages,
each to 12 significant digits.

On a machine whose fingerprint (Python, numpy, the BLAS numpy was built
with, and the CPU features numpy found) equals the file's, the float bits
of all of these must match exactly too (one sha256 of the cells, the
parameters, both comparisons' rows and the grid); elsewhere that check is
skipped, since summation order inside BLAS and numpy may differ.
A change that is meant to move these numbers regenerates the file, and
says why, with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import dataclasses
import hashlib
import json
import math
import pathlib
import platform
import sys

import numpy as np
import pytest

from lifesim.env import N_ACTIONS, OBS_DIM
from lifesim.paramfiles import params_dir
from lifesim.pipelines import EnvPaths, ProtocolConfig, build_env, reform_pipeline, train_policy
from lifesim.population import init_population
from lifesim.reform import apply_reform, compare_runs, load_reform
from lifesim.rules import AdultSnapshot, HouseholdSnapshot, emtr, ptr
from lifesim.simulate import BLOCK_HOUSEHOLDS, aggregate, run_cohort
from lifesim.solver import PolicyValueNet, TrainConfig
from lifesim.states import EmploymentState as S

GOLDEN = pathlib.Path(__file__).with_name("golden.json")
YEAR = 2023
COHORT_AGENTS = 384          # 192 pair households: three blocks
POPULATION_SEED = 2024
NET_SEED = 1
NET_HIDDEN = (256, 256, 128)
TRAIN_HOUSEHOLDS = 32        # 64 actors, as at the CLI defaults
TRAIN_HIDDEN = (16, 8)
TRAIN_SEED = 3
TRAIN_UPDATES = 2
CELLS_RTOL = 1e-12
PARAMETERS_RTOL = 1e-9
COMPARISON_AGENTS = 128      # 64 pair households: one block per repeat
COMPARISON_SEEDS = (2025, 2026)
REFIT_AGENTS = 32            # 16 pair households per repeat
REFIT_HOUSEHOLDS = 4         # 8 actors in each refit
REFIT_UPDATES = 2
REFIT_PROTOCOL_SEED = 2027
PARTNERS = {
    "single": (),
    "full_time": (AdultSnapshot(state=S.FULL_TIME, wage_quarterly=9000.0),),
    "er_unemployed": (AdultSnapshot(state=S.ER_UNEMPLOYED, ub_basis_monthly=3000.0, ub_days_used=100.0,
                                    fund_member=True),),
    "basic_unemployed": (AdultSnapshot(state=S.BASIC_UNEMPLOYED),),
    "retired": (AdultSnapshot(state=S.RETIRED, age=68.0, pension_paid_monthly=1500.0),),
    "home_care": (AdultSnapshot(state=S.HOME_CARE, age=35.0),),
}
CHILDREN = {   # (under 3, under 7, under 18)
    "none": (0, 0, 0),
    "one_under7": (0, 1, 1),
    "under3_plus_older": (1, 1, 2),
    "three_school_age": (0, 0, 3),
}
WORK = (S.FULL_TIME, S.PART_TIME)
WAGES_MONTHLY = (1500.0, 3000.0, 6000.0)


def _histories_digest(log) -> str:
    h = hashlib.sha256()
    for a in (log.states, log.hours, log.gender, log.group):
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _floats_digest(runs: dict, parameters: list, comparison: dict, refit_comparison: dict,
                   incentives: dict) -> str:
    """sha256 of the run and cell names, then each run's cells' and the
    parameters' float64 bytes, then both comparisons' rows and the grid
    points as JSON (which writes each float's shortest exact repr)."""
    h = hashlib.sha256(json.dumps({name: list(run["cells"]) for name, run in runs.items()}).encode())
    for run in runs.values():
        h.update(np.array(list(run["cells"].values()), dtype=np.float64).tobytes())
    h.update(np.array(parameters, dtype=np.float64).tobytes())
    h.update(json.dumps([comparison, refit_comparison, incentives]).encode())
    return h.hexdigest()


def fingerprint() -> dict:
    """What the float bits may depend on besides the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):   # numpy before 1.26 prints its config only
        blas = "unknown"
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:   # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "cpu": " ".join([platform.machine()] + sorted(k for k, on in __cpu_features__.items() if on))}


def _comparison(net, env, orpo) -> dict:
    """``compare_runs`` of ``env`` against ``orpo``: each row's values by cell."""
    pops = [init_population(COMPARISON_AGENTS, env, seed=seed) for seed in COMPARISON_SEEDS]
    base, reform = ([aggregate(run_cohort(net, pop, arm, mode="sample")) for pop in pops] for arm in (env, orpo))
    return _rows(compare_runs(base, reform))


def _refit_comparison(net, env, spec) -> dict:
    """The rows of a toy ``reform_pipeline`` of ``env`` against ``spec``:
    each repeat refits ``net`` under its arm's rules, then simulates."""
    protocol = ProtocolConfig(
        refit_steps=REFIT_UPDATES * TrainConfig.rollout * 2 * REFIT_HOUSEHOLDS, n_repeats=2,
        cohort_size=REFIT_AGENTS, n_households=REFIT_HOUSEHOLDS, mode="sample", seed=REFIT_PROTOCOL_SEED)
    return _rows(reform_pipeline(net, spec, env, protocol).comparison)


def _rows(report) -> dict:
    return {r.cell: {"reform": r.reform, "baseline": r.baseline, "difference": r.difference,
                     "pooled_se": r.pooled_se, "threshold": r.threshold, "significant": r.significant}
            for r in report.rows}


def _incentives(arms: dict) -> dict:
    """``emtr``'s total and ``ptr`` of each grid point under each rule set;
    the unemployed counterfactual makes the first adult basic-unemployed
    without wage."""
    out = {}
    for partner, others in PARTNERS.items():
        for children, (u3, u7, u18) in CHILDREN.items():
            for state in WORK:
                for wage in WAGES_MONTHLY:
                    first = AdultSnapshot(state=state, wage_quarterly=3.0 * wage, fund_member=True,
                                          wage_basis_monthly=wage)
                    adults = (first, *others)
                    hh = HouseholdSnapshot(adults=adults, children_under3=u3, children_under7=u7,
                                           children_under18=u18, partnered=len(adults) == 2,
                                           rent_monthly=arms[str(YEAR)].rent_for_size(len(adults) + u18))
                    jobless = dataclasses.replace(
                        hh, adults=(dataclasses.replace(first, state=S.BASIC_UNEMPLOYED, wage_quarterly=0.0), *others))
                    for name, rules in arms.items():
                        out[f"{name} {partner} {children} {state.name.lower()} {wage:.0f}"] = {
                            "emtr": emtr(hh, rules)["total"], "ptr": ptr(hh, jobless, rules)}
    return out


def run_golden() -> dict:
    env = build_env(EnvPaths.packaged(YEAR))
    spec = load_reform(params_dir() / "reforms" / "orpo.yaml")
    orpo = env.with_rules(apply_reform(env.rules, spec)[0])
    pop = init_population(COHORT_AGENTS, env, seed=POPULATION_SEED)
    assert pop.block.m == 3 * BLOCK_HOUSEHOLDS
    net = PolicyValueNet(OBS_DIM, N_ACTIONS, NET_HIDDEN, seed=NET_SEED)
    runs = {}
    for name, arm, mode in (("sample", env, "sample"), ("greedy", env, "greedy"), ("2023+orpo", orpo, "sample")):
        log = run_cohort(net, pop, arm, mode=mode, collect_incentives=True)
        runs[name] = {"histories_sha256": _histories_digest(log), "cells": aggregate(log).cells()}
    comparison = _comparison(net, env, orpo)
    refit_comparison = _refit_comparison(net, env, spec)
    incentives = _incentives({str(YEAR): env.rules, f"{YEAR}+orpo": orpo.rules})
    config = TrainConfig(total_steps=TRAIN_UPDATES * TrainConfig.rollout * 2 * TRAIN_HOUSEHOLDS,
                         hidden=TRAIN_HIDDEN, seed=TRAIN_SEED)
    parameters = train_policy(env, config, n_households=TRAIN_HOUSEHOLDS).net.flat_parameters().tolist()
    return {
        "float_outputs_sha256": _floats_digest(runs, parameters, comparison, refit_comparison, incentives),
        "fingerprint": fingerprint(),
        "cohorts": runs,
        "parameters": parameters,
        "comparison": comparison,
        "refit_comparison": refit_comparison,
        "incentives": incentives,
    }


@pytest.fixture(scope="module")
def runs():
    return run_golden(), json.loads(GOLDEN.read_text())


def test_cohort_histories_match_exactly(runs):
    got, want = runs
    assert got["cohorts"].keys() == want["cohorts"].keys()
    for name, run in got["cohorts"].items():
        assert run["histories_sha256"] == want["cohorts"][name]["histories_sha256"], name


def _off(got: dict, pinned: dict) -> dict:
    """The values of ``got`` that differ from ``pinned`` by more than a
    relative ``CELLS_RTOL`` (NaN matching NaN)."""
    assert got.keys() == pinned.keys()
    return {k: (g, pinned[k]) for k, g in got.items()
            if not (math.isnan(g) and math.isnan(pinned[k]) or math.isclose(g, pinned[k], rel_tol=CELLS_RTOL))}


def test_cohort_cells_match_to_12_digits(runs):
    got, want = runs
    for name, run in got["cohorts"].items():
        assert not _off(run["cells"], want["cohorts"][name]["cells"]), name


def test_parameters_after_two_updates_match(runs):
    got, want = runs
    np.testing.assert_allclose(got["parameters"], want["parameters"], rtol=PARAMETERS_RTOL, atol=0.0)


def _assert_rows_match(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for cell, row in got.items():
        pinned = dict(want[cell])
        assert row["significant"] == pinned.pop("significant"), cell
        assert not _off({k: v for k, v in row.items() if k != "significant"}, pinned), cell


def test_comparison_rows_match_to_12_digits(runs):
    got, want = runs
    _assert_rows_match(got["comparison"], want["comparison"])


def test_refit_comparison_rows_match_to_12_digits(runs):
    got, want = runs
    _assert_rows_match(got["refit_comparison"], want["refit_comparison"])


def test_incentive_grid_matches_to_12_digits(runs):
    got, want = runs
    assert got["incentives"].keys() == want["incentives"].keys()
    for point, values in got["incentives"].items():
        assert not _off(values, want["incentives"][point]), point


def test_float_outputs_match_exactly_where_the_fingerprint_matches(runs):
    got, want = runs
    if got["fingerprint"] != want["fingerprint"]:
        pytest.skip(f"float bits pinned on {want['fingerprint']}, not on this machine's {got['fingerprint']}")
    assert got["float_outputs_sha256"] == want["float_outputs_sha256"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    GOLDEN.write_text(json.dumps(run_golden(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
