"""Command-line entry point: malformed inputs exit with the config error code."""

import yaml

from lifesim.cli import EXIT_CONFIG, EXIT_OK, main
from lifesim.env.actions import N_ACTIONS
from lifesim.env.features import OBS_DIM
from lifesim.paramfiles import params_dir, ruleset_path
from lifesim.solver import TrainConfig
from lifesim.solver.checkpoint import save_checkpoint
from lifesim.solver.network import PolicyValueNet


def _write_config(tmp_path, cfg):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def test_emtr_scan_runs_on_packaged_rules(tmp_path):
    cfg = {"out": str(tmp_path / "out"), "emtr_scan": {"wage_max_monthly": 500.0}}
    assert main(["emtr-scan", "--config", _write_config(tmp_path, cfg)]) == EXIT_OK
    assert (tmp_path / "out" / "emtr_scan.csv").exists()


def test_emtr_scan_rejects_misspelled_rule_file(tmp_path, capsys):
    doc = yaml.safe_load(open(ruleset_path(2023)))
    doc["unemployment"]["er"]["gradng"] = doc["unemployment"]["er"].pop("grading")
    rules = tmp_path / "rules.yaml"
    rules.write_text(yaml.safe_dump(doc))
    cfg = {"out": str(tmp_path / "out"), "ruleset": str(rules)}
    assert main(["emtr-scan", "--config", _write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert "unemployment.er.gradng" in capsys.readouterr().err


def test_train_rejects_misspelled_demographics_file(tmp_path, capsys):
    doc = yaml.safe_load((params_dir() / "demographics.yaml").read_text())
    doc["exogenous"]["layoff_quartely"] = doc["exogenous"].pop("layoff_quarterly")
    demographics = tmp_path / "demographics.yaml"
    demographics.write_text(yaml.safe_dump(doc))
    cfg = {"out": str(tmp_path / "out"), "demographics": str(demographics),
           "train": {"total_steps": 8, "households": 2, "hidden": [8]}}
    assert main(["train", "--config", _write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert "exogenous.layoff_quartely" in capsys.readouterr().err


def test_compare_with_missing_overlay_exits_with_config_error(tmp_path, capsys):
    ckpt = tmp_path / "policy.pkl"
    save_checkpoint(ckpt, PolicyValueNet(OBS_DIM, N_ACTIONS, (8,), seed=0), TrainConfig(total_steps=1))
    cfg = {"out": str(tmp_path / "out"),
           "compare": {"checkpoint": str(ckpt), "reform": str(tmp_path / "no_such_overlay.yaml")}}
    assert main(["compare", "--config", _write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert "no_such_overlay.yaml" in capsys.readouterr().err


def test_malformed_config_exits_with_config_error(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text("train: {total_steps: 8\n")
    assert main(["train", "--config", str(config)]) == EXIT_CONFIG
    assert str(config) in capsys.readouterr().err
