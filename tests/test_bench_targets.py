"""The traced benchmark run (``lifebench/layers.py``) wraps program names
where callers look them up; each of them must still resolve."""

import importlib
from pathlib import Path

LIFEBENCH = Path(__file__).resolve().parents[1] / "lifebench"


def test_every_traced_layer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(LIFEBENCH))
    layers = importlib.import_module("layers")
    targets = layers.targets(layers.SnapshotLog())
    assert targets
    for span, owner, attr, _ in targets:
        assert callable(getattr(owner, attr, None)), (span, owner, attr)
