"""Command-line entry point: malformed inputs exit with the config error code."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
import yaml

from lifesim.cli import EXIT_CONFIG, EXIT_OK, build_parser, main
from lifesim.env.actions import N_ACTIONS
from lifesim.env.features import OBS_DIM
from lifesim.paramfiles import params_dir, ruleset_path
from lifesim.solver import TrainConfig
from lifesim.solver.checkpoint import load_checkpoint, save_checkpoint
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
    save_checkpoint(ckpt, PolicyValueNet(OBS_DIM, N_ACTIONS, (8,), seed=0), TrainConfig(total_steps=1), {})
    cfg = {"out": str(tmp_path / "out"),
           "compare": {"checkpoint": str(ckpt), "reform": str(tmp_path / "no_such_overlay.yaml")}}
    assert main(["compare", "--config", _write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert "no_such_overlay.yaml" in capsys.readouterr().err


def test_malformed_config_exits_with_config_error(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text("train: {total_steps: 8\n")
    assert main(["train", "--config", str(config)]) == EXIT_CONFIG
    assert str(config) in capsys.readouterr().err


def test_train_from_base_checkpoint_keeps_its_shape(tmp_path, capsys):
    base = tmp_path / "base.bin"
    save_checkpoint(base, PolicyValueNet(OBS_DIM, N_ACTIONS, (8,), seed=0), TrainConfig(total_steps=1), {})
    train = {"total_steps": 8, "households": 2}
    cfg = {"out": str(tmp_path / "out"), "base_checkpoint": str(base), "train": {**train, "hidden": [16]}}
    assert main(["train", "--config", _write_config(tmp_path, cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "[16]" in err and "[8]" in err

    cfg["train"] = train
    assert main(["train", "--config", _write_config(tmp_path, cfg)]) == EXIT_OK
    net, header = load_checkpoint(tmp_path / "out" / "checkpoint.bin")
    assert net.hidden == (8,)
    assert header["hidden"] == header["config"]["hidden"] == [8]


@pytest.mark.parametrize("key, value", [("natural_gradient", True), ("kfac_damping", 0.01),
                                        ("kfac_ema", 0.95), ("kfac_update_every", 20)])
def test_train_rejects_removed_learner_options(tmp_path, capsys, key, value):
    cfg = {"out": str(tmp_path / "out"), "train": {"total_steps": 8, "households": 2, "hidden": [8], key: value}}
    assert main(["train", "--config", _write_config(tmp_path, cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unknown train settings" in err and key in err


def test_checkpoint_with_removed_learner_options_refits(tmp_path):
    """A checkpoint whose header config still holds the K-FAC settings of
    older versions loads, its hash checked over the stored dict, and serves
    as a refit's base."""
    net = PolicyValueNet(OBS_DIM, N_ACTIONS, (8,), seed=0)
    config = {**dataclasses.asdict(TrainConfig(total_steps=1, hidden=(8,))), "natural_gradient": False,
              "kfac_damping": 0.01, "kfac_ema": 0.95, "kfac_update_every": 20}
    config_hash = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]
    header = {"format": 2, "obs_dim": OBS_DIM, "n_actions": N_ACTIONS, "hidden": [8],
              "config": config, "config_hash": config_hash, "extra": {}}
    base = tmp_path / "base.bin"
    base.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n"
                     + net.flat_parameters().astype("<f8").tobytes())
    loaded, stored = load_checkpoint(base)
    np.testing.assert_array_equal(loaded.flat_parameters(), net.flat_parameters())
    assert stored["config"]["kfac_update_every"] == 20

    cfg = {"out": str(tmp_path / "out"), "base_checkpoint": str(base),
           "train": {"total_steps": 8, "households": 2}}
    assert main(["train", "--config", _write_config(tmp_path, cfg)]) == EXIT_OK
    refit, refit_header = load_checkpoint(tmp_path / "out" / "checkpoint.bin")
    assert refit.hidden == (8,)
    assert not any(k.startswith("kfac") or k == "natural_gradient" for k in refit_header["config"])


def test_only_simulate_takes_workers(tmp_path, capsys):
    """Only ``simulate`` runs a process pool, so only it parses ``--workers``
    or records workers in its resolved config."""
    for command in ("train", "compare", "calibrate", "emtr-scan"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--workers", "2"])
        assert exc.value.code == EXIT_CONFIG
        assert "--workers" in capsys.readouterr().err
    assert build_parser().parse_args(["simulate", "--workers", "2"]).workers == 2

    cfg = {"out": str(tmp_path / "out"), "emtr_scan": {"wage_max_monthly": 100.0}}
    assert main(["emtr-scan", "--config", _write_config(tmp_path, cfg)]) == EXIT_OK
    resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
    assert "workers" not in resolved and resolved["seed"] == 0


def test_compare_rejects_train_total_steps(tmp_path, capsys):
    """A compare refits for ``compare.refit_steps``; a ``train.total_steps``
    it would not read is a config error, not silently dropped."""
    ckpt = tmp_path / "policy.pkl"
    save_checkpoint(ckpt, PolicyValueNet(OBS_DIM, N_ACTIONS, (8,), seed=0), TrainConfig(total_steps=1), {})
    cfg = {"out": str(tmp_path / "out"), "train": {"total_steps": 64, "households": 2},
           "compare": {"checkpoint": str(ckpt), "reform": str(params_dir() / "reforms" / "orpo.yaml"),
                       "refit_steps": 8, "repeats": 2, "cohort": 2}}
    assert main(["compare", "--config", _write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert "compare.refit_steps" in capsys.readouterr().err


def test_simulate_collects_incentives(tmp_path):
    """``simulate.collect_incentives`` takes EMTR and PTR samples, which the
    cohort report writes as histograms and medians."""
    ckpt = tmp_path / "policy.pkl"
    save_checkpoint(ckpt, PolicyValueNet(OBS_DIM, N_ACTIONS, (8,), seed=0), TrainConfig(total_steps=1), {})
    cfg = {"out": str(tmp_path / "out"),
           "simulate": {"checkpoint": str(ckpt), "cohort": 4, "collect_incentives": True}}
    assert main(["simulate", "--config", _write_config(tmp_path, cfg)]) == EXIT_OK
    cohort = tmp_path / "out" / "cohort"
    assert (cohort / "emtr_histogram.csv").exists() and (cohort / "ptr_histogram.csv").exists()
    assert np.isfinite(json.loads((cohort / "summary.json").read_text())["emtr_median"])


@pytest.mark.parametrize("cfg, path", [
    ({"emtr_scan": {"wage_max_montly": 200.0}}, "emtr_scan.wage_max_montly"),
    ({"sed": 3}, "sed"),
    ({"simulate": {"cohorts": 4}}, "simulate.cohorts"),
    ({"train": {"total_steps": 8, "seed": 3}}, "train.seed"),
    ({"compare": {"mode": "greedly"}}, "compare.mode"),
    ({"simulate": {"mode": "Sample"}}, "simulate.mode"),
    ({"calibrate": ["targets.csv"]}, "calibrate"),
])
def test_a_setting_no_subcommand_reads_is_a_config_error(tmp_path, capsys, cfg, path):
    """Each subcommand rejects a key that none reads, and a mode that is
    neither sample nor greedy, naming its dotted path; a key another
    subcommand reads is accepted."""
    cfg = {"out": str(tmp_path / "out"), "train": {"households": 2}, "compare": {"repeats": 2}, **cfg}
    cfg["emtr_scan"] = {"wage_max_monthly": 200.0, **cfg.get("emtr_scan", {})}
    assert main(["emtr-scan", "--config", _write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert path in capsys.readouterr().err
    assert not (tmp_path / "out" / "emtr_scan.csv").exists()


def test_settings_of_other_subcommands_are_accepted(tmp_path):
    cfg = {"out": str(tmp_path / "out"), "seed": 3, "train": {"total_steps": 8, "households": 2},
           "simulate": {"mode": "greedy", "cohort": 4}, "compare": {"mode": "sample", "repeats": 2},
           "calibrate": {"budget": 1}, "emtr_scan": {"wage_max_monthly": 200.0}}
    assert main(["emtr-scan", "--config", _write_config(tmp_path, cfg)]) == EXIT_OK
    assert len((tmp_path / "out" / "emtr_scan.csv").read_text().splitlines()) == 4


@pytest.mark.parametrize("argv, workers", [([], "two"), (["--workers", "0"], None), (["--workers", "-3"], None)],
                         ids=["config-two", "flag-0", "flag-minus-3"])
def test_a_worker_count_below_one_or_not_an_integer_is_a_config_error(tmp_path, capsys, argv, workers):
    """``workers`` from the config or the flag must be an integer of at
    least 1; the cohort does not run."""
    ckpt = tmp_path / "policy.bin"
    save_checkpoint(ckpt, PolicyValueNet(OBS_DIM, N_ACTIONS, (8,), seed=0), TrainConfig(total_steps=1), {})
    cfg = {"out": str(tmp_path / "out"), "simulate": {"checkpoint": str(ckpt), "cohort": 2}}
    if workers is not None:
        cfg["workers"] = workers
    assert main(["simulate", "--config", _write_config(tmp_path, cfg), *argv]) == EXIT_CONFIG
    assert "workers" in capsys.readouterr().err
    assert not (tmp_path / "out" / "cohort").exists()


@pytest.mark.parametrize("section, key, value", [("simulate", "cohort", "many"), ("compare", "repeats", 2.5),
                                                 ("calibrate", "budget", True), ("train", "households", "two"),
                                                 ("emtr_scan", "children", "two")])
def test_a_count_that_is_not_an_integer_is_a_config_error(tmp_path, capsys, section, key, value):
    """Every subcommand rejects a count that is not an integer, in any
    section, naming its dotted path."""
    cfg = {"out": str(tmp_path / "out"), "emtr_scan": {"wage_max_monthly": 200.0}, section: {key: value}}
    assert main(["emtr-scan", "--config", _write_config(tmp_path, cfg)]) == EXIT_CONFIG
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "emtr_scan.csv").exists()
