"""Every parameter file loads through its strict schema; malformed files are
rejected by the dotted path of the offending entry."""

import pytest
import yaml

from lifesim.env.utility import load_utility_params
from lifesim.errors import ParameterError
from lifesim.paramfiles import params_dir, ruleset_path
from lifesim.population import load_demographics
from lifesim.reform import apply_reform, load_reform
from lifesim.rules import load_ruleset
from lifesim.wage import load_wage_params

_LOADERS = {
    "utility.yaml": load_utility_params,
    "wages.yaml": load_wage_params,
    "demographics.yaml": load_demographics,
}


def _load_strictly(path):
    if path.parent.name == "reforms":
        return apply_reform(load_ruleset(ruleset_path(2023)), load_reform(path))
    if path.name.startswith("rules_"):
        return load_ruleset(path)
    return _LOADERS[path.name](path)   # KeyError: a parameter file without a schema


@pytest.mark.parametrize("path", sorted(params_dir().rglob("*.yaml")),
                         ids=lambda p: str(p.relative_to(params_dir())))
def test_every_parameter_file_loads_strictly(path):
    _load_strictly(path)


def test_quarter_counts_load_as_integers():
    exo = load_demographics(params_dir() / "demographics.yaml").exogenous
    counts = (exo.sick_max_quarters, exo.mother_leave_quarters, exo.father_leave_quarters)
    assert counts == (4, 3, 1) and all(type(n) is int for n in counts)


def _rename(doc, dotted, new_key):
    *parents, last = dotted.split(".")
    for key in parents:
        doc = doc[key]
    doc[new_key] = doc.pop(last)


def _set(doc, dotted, value):
    *parents, last = dotted.split(".")
    for key in parents:
        doc = doc[key]
    doc[last] = value


def _drop(doc, key):
    del doc[key]


@pytest.mark.parametrize("name, mutate, path", [
    ("demographics.yaml", lambda d: _rename(d, "exogenous.layoff_quarterly", "layoff_quartely"),
     "unknown parameter key exogenous.layoff_quartely"),
    ("wages.yaml", lambda d: _drop(d, "floor_ratio"), "missing parameter key floor_ratio"),
    ("utility.yaml", lambda d: _set(d, "kappa.men.retired", True), "kappa.men.retired"),
    ("wages.yaml", lambda d: _set(d, "shock_sd", "0.05"), "shock_sd"),
    ("demographics.yaml", lambda d: _rename(d, "initial_states.men.STUDENT", "STUDNT"),
     "unknown parameter key initial_states.men.STUDNT"),
    ("utility.yaml", lambda d: _rename(d, "mu.women", "wmen"), "unknown parameter key mu.wmen"),
    ("wages.yaml", lambda d: _drop(d["profiles"]["men"], "mid"), "missing parameter key profiles.men.mid"),
], ids=["unknown-key", "missing-key", "bool-for-float", "string-for-float", "unknown-state-name",
        "unknown-gender", "missing-level"])
def test_malformed_parameter_file_rejected_by_path(tmp_path, name, mutate, path):
    doc = yaml.safe_load((params_dir() / name).read_text())
    mutate(doc)
    bad = tmp_path / name
    bad.write_text(yaml.safe_dump(doc))
    with pytest.raises(ParameterError, match=path):
        _LOADERS[name](bad)
