"""Locate the packaged parameter files and build typed values from them.

Every parameter file has a dataclass tree as its schema: each mapping in the
file is either one dataclass, whose fields are named as its keys, or a
``dict`` keyed by year, gender, level, weekly hours or state name.
:func:`build` is the one reader from YAML to those trees; it rejects a
missing key, an unknown key or a value of the wrong type by its dotted path.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from functools import cache
from importlib import resources
from pathlib import Path
from types import UnionType
from typing import Any, Literal, get_args, get_origin, get_type_hints

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


# The YAML types a scalar field accepts; a float field also takes an integer.
_SCALAR_INPUTS: dict[Any, tuple[type, ...]] = {float: (float, int), int: (int,)}


@cache
def _field_types(cls: type) -> dict[str, tuple[Any, tuple[type, ...]]]:
    """Field name -> (type hint, accepted scalar inputs or ()), resolved once per class."""
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], _SCALAR_INPUTS.get(hints[f.name], ())) for f in fields(cls)}


def _key_error(raw: dict, names, prefix: str) -> ParameterError:
    """The error for a mapping whose keys are not ``names``: its first
    unknown key, else the first missing one."""
    unknown = [k for k in raw if k not in names]
    if unknown:
        return ParameterError(f"unknown parameter key {prefix}{unknown[0]}")
    return ParameterError(f"missing parameter key {prefix}{next(k for k in names if k not in raw)}")


def _key(tp: Any, raw: Any, prefix: str) -> Any:
    """A mapping key of type ``tp``: a YAML int, a str, or an enum member name."""
    if tp in (int, str):
        if type(raw) is tp:
            return raw
    elif type(raw) is str and raw in tp.__members__:
        return tp[raw]
    raise ParameterError(f"unknown parameter key {prefix}{raw}")


@cache
def _shape(tp: Any) -> tuple[Any, tuple]:
    """(origin, type arguments) of a schema type, resolved once per type; a
    dataclass or a scalar is its own origin, with no arguments."""
    return (tp, ()) if is_dataclass(tp) or tp in _SCALAR_INPUTS else (get_origin(tp), get_args(tp))


def build(tp: Any, raw: Any, path: str = "") -> Any:
    """The value of type ``tp`` read from ``raw``, the YAML value at ``path``.

    Supports the types the schemas declare: nested dataclasses, ``float``,
    ``int``, ``X | None``, ``tuple[X, ...]``, fixed-length tuples and
    ``dict[K, V]``, whose keys are YAML ints, strs, enum member names, or
    the values of a ``Literal``, all of which must be present.  A float
    field accepts a YAML integer; nothing else is converted.  Scalars of an
    accepted type are converted inline, without a call per leaf.
    """
    origin, args = _shape(tp)
    if origin in _SCALAR_INPUTS:
        if type(raw) in _SCALAR_INPUTS[origin]:
            return tp(raw)
        raise ParameterError(f"parameter entry {path} must be {tp.__name__}, got {raw!r}")
    if origin is UnionType:  # X | None
        return None if raw is None else build(args[0], raw, path)
    if origin is not tuple:  # a dataclass or dict[K, V]
        if not isinstance(raw, dict):
            raise ParameterError(f"parameter entry {path or '<root>'} must be a mapping, got {raw!r}")
        prefix = f"{path}." if path else ""
        if args:
            kt, vt = args
            if get_origin(kt) is Literal:  # a closed key set, every key required
                if raw.keys() != set(get_args(kt)):
                    raise _key_error(raw, get_args(kt), prefix)
                kt = str
            ok = _SCALAR_INPUTS.get(vt, ())
            return {_key(kt, k, prefix): vt(v) if type(v) in ok else build(vt, v, f"{prefix}{k}")
                    for k, v in raw.items()}
        types = _field_types(tp)
        if raw.keys() != types.keys():
            raise _key_error(raw, types, prefix)
        return tp(**{k: t(raw[k]) if type(raw[k]) in ok else build(t, raw[k], prefix + k)
                     for k, (t, ok) in types.items()})
    if not isinstance(raw, list):  # tuple[X, ...] or a fixed-length tuple
        raise ParameterError(f"parameter entry {path} must be a list, got {raw!r}")
    if args[-1] is Ellipsis:
        args = (args[0],) * len(raw)
    elif len(raw) != len(args):
        raise ParameterError(f"parameter entry {path} must have {len(args)} items, got {raw!r}")
    return tuple([t(x) if type(x) in _SCALAR_INPUTS.get(t, ()) else build(t, x, f"{path}[{i}]")
                  for i, (t, x) in enumerate(zip(args, raw))])
