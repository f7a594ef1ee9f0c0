"""Locate and load the packaged parameter files."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

import yaml

from .errors import ParameterError

# libyaml's parser when PyYAML was built with it; the same documents, faster.
_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def params_dir() -> Path:
    return Path(resources.files("lifesim") / "params")  # type: ignore[arg-type]


def ruleset_path(year: int) -> Path:
    path = params_dir() / f"rules_{year}.yaml"
    if not path.exists():
        raise ParameterError(f"no packaged rule set for year {year}")
    return path


def load_yaml(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ParameterError(f"parameter file not found: {path}")
    try:
        with path.open() as f:
            doc = yaml.load(f, Loader=_SAFE_LOADER)
    except yaml.YAMLError as exc:
        raise ParameterError(f"parameter file is not valid YAML: {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParameterError(f"parameter file is not a mapping: {path}")
    return doc
