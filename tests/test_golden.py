"""Golden behaviour: a seeded cohort run three ways and two training
updates, pinned to ``tests/golden.json``.

The cohort is three 64-household blocks drawn under the 2023 rules and
driven by an untrained (256, 256, 128) net, with incentive sampling on:
in sample mode under the 2023 rules, in greedy mode under them, and in
sample mode under 2023 + ``orpo``.  Each run's integer histories (states,
hours, gender, group) are hashed exactly; its ``aggregate(...).cells()``
must match to 12 significant digits (relative 1e-12, NaN matching NaN).  The parameters after two
``train_policy`` updates must match to a relative 1e-9.  On a machine whose
fingerprint (Python, numpy, the BLAS numpy was built with, and the CPU
features numpy found) equals the file's, the float bits of both must match
exactly too (one sha256 of the cells and the parameters); elsewhere that
check is skipped, since summation order inside BLAS and numpy may differ.
A change that is meant to move these numbers regenerates the file, and
says why, with

    PYTHONPATH=src python tests/test_golden.py --write
"""

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
from lifesim.pipelines import EnvPaths, build_env, train_policy
from lifesim.population import init_population
from lifesim.reform import apply_reform, load_reform
from lifesim.simulate import BLOCK_HOUSEHOLDS, aggregate, run_cohort
from lifesim.solver import PolicyValueNet, TrainConfig

GOLDEN = pathlib.Path(__file__).with_name("golden.json")
YEAR = 2023
COHORT_AGENTS = 384          # 192 pair households: three blocks
POPULATION_SEED = 2024
NET_SEED = 1
TRAIN_HOUSEHOLDS = 32        # 64 actors, as at the CLI defaults
TRAIN_HIDDEN = (16, 8)
TRAIN_SEED = 3
TRAIN_UPDATES = 2
CELLS_RTOL = 1e-12
PARAMETERS_RTOL = 1e-9


def _histories_digest(log) -> str:
    h = hashlib.sha256()
    for a in (log.states, log.hours, log.gender, log.group):
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _floats_digest(runs: dict, parameters: list) -> str:
    """sha256 of the run and cell names, then each run's cells' and the
    parameters' float64 bytes."""
    h = hashlib.sha256(json.dumps({name: list(run["cells"]) for name, run in runs.items()}).encode())
    for run in runs.values():
        h.update(np.array(list(run["cells"].values()), dtype=np.float64).tobytes())
    h.update(np.array(parameters, dtype=np.float64).tobytes())
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


def run_golden() -> dict:
    env = build_env(EnvPaths.packaged(YEAR))
    orpo = env.with_rules(apply_reform(env.rules, load_reform(params_dir() / "reforms" / "orpo.yaml"))[0])
    pop = init_population(COHORT_AGENTS, env, seed=POPULATION_SEED)
    assert pop.block.m == 3 * BLOCK_HOUSEHOLDS
    net = PolicyValueNet(OBS_DIM, N_ACTIONS, seed=NET_SEED)
    runs = {}
    for name, arm, mode in (("sample", env, "sample"), ("greedy", env, "greedy"), ("2023+orpo", orpo, "sample")):
        log = run_cohort(net, pop, arm, mode=mode, collect_incentives=True)
        runs[name] = {"histories_sha256": _histories_digest(log), "cells": aggregate(log).cells()}
    config = TrainConfig(total_steps=TRAIN_UPDATES * TrainConfig.rollout * 2 * TRAIN_HOUSEHOLDS,
                         hidden=TRAIN_HIDDEN, seed=TRAIN_SEED)
    parameters = train_policy(env, config, n_households=TRAIN_HOUSEHOLDS).net.flat_parameters().tolist()
    return {
        "float_outputs_sha256": _floats_digest(runs, parameters),
        "fingerprint": fingerprint(),
        "cohorts": runs,
        "parameters": parameters,
    }


@pytest.fixture(scope="module")
def runs():
    return run_golden(), json.loads(GOLDEN.read_text())


def test_cohort_histories_match_exactly(runs):
    got, want = runs
    assert got["cohorts"].keys() == want["cohorts"].keys()
    for name, run in got["cohorts"].items():
        assert run["histories_sha256"] == want["cohorts"][name]["histories_sha256"], name


def test_cohort_cells_match_to_12_digits(runs):
    got, want = runs
    for name, run in got["cohorts"].items():
        cells, pinned = run["cells"], want["cohorts"][name]["cells"]
        assert cells.keys() == pinned.keys(), name
        off = {k: (g, pinned[k]) for k, g in cells.items()
               if not (math.isnan(g) and math.isnan(pinned[k]) or math.isclose(g, pinned[k], rel_tol=CELLS_RTOL))}
        assert not off, name


def test_parameters_after_two_updates_match(runs):
    got, want = runs
    np.testing.assert_allclose(got["parameters"], want["parameters"], rtol=PARAMETERS_RTOL, atol=0.0)


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
