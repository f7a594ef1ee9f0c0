"""The traced benchmark run (``lifebench/layers.py``) wraps program names
where callers look them up; each of them must still resolve, and the
benchmark's own smoke test must pass."""

import importlib
import subprocess
import sys
from pathlib import Path

import lifesim.env.mdp as mdp
import lifesim.rules as rules_api
import lifesim.rules.engine as engine

LIFEBENCH = Path(__file__).resolve().parents[1] / "lifebench"


def test_every_traced_layer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(LIFEBENCH))
    layers = importlib.import_module("layers")
    targets = layers.targets(layers.SnapshotLog())
    assert targets
    for span, owner, attr, _ in targets:
        assert callable(getattr(owner, attr, None)), (span, owner, attr)


def test_traced_net_income_names_are_the_snapshot_api():
    """The traced run records every call to ``mdp.net_income`` and
    ``engine.net_income`` and reads its first argument as a
    ``HouseholdSnapshot``."""
    assert mdp.net_income is engine.net_income is rules_api.net_income


def test_benchmark_smoke_run_passes():
    """``lifebench/smoke.py``: every workload at toy size exits 0 with its
    metrics, checks and one digest, and tracing leaves the digest as it is."""
    proc = subprocess.run([sys.executable, str(LIFEBENCH / "smoke.py")], cwd=LIFEBENCH.parent,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
