"""Batch command-line entry point.

Subcommands: train, simulate, compare, calibrate, emtr-scan.  Every run is
driven by a YAML config file plus a handful of flag overrides (``--workers``
on ``simulate`` only, the one subcommand that runs a process pool); the
config is copied verbatim into the output directory so any run can be
reproduced from its outputs alone.  Exit codes: 0 success, 2 config error,
3 training divergence.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

import yaml

from .calibrate import calibrate, load_targets
from .env import LifecycleEnv
from .errors import ConfigError, LifesimError, ParameterError, ReformError, TrainingDiverged
from .paramfiles import load_yaml
from .pipelines import EnvPaths, ProtocolConfig, build_env, reform_pipeline, train_policy
from .population import init_population
from .reform import load_reform
from .reports import write_comparison_csvs, write_csv, write_report_csvs
from .rules import AdultSnapshot, HouseholdSnapshot, emtr, load_ruleset
from .simulate import aggregate, run_cohort_parallel, scale_to_population
from .solver import TrainConfig, load_checkpoint, save_checkpoint
from .states import EmploymentState as S

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


# Every key some subcommand reads, by section (None: the top level); one
# config may serve several subcommands, so each accepts them all.
_SETTINGS = {
    None: {"out", "seed", "workers", "year", "ruleset", "utility", "wages", "demographics", "checkpoint", "reform",
           "base_checkpoint", "train", "simulate", "compare", "calibrate", "emtr_scan"},
    "train": {f.name for f in dataclasses.fields(TrainConfig)} - {"seed"} | {"households"},
    "simulate": {"checkpoint", "cohort", "mode", "collect_incentives"},
    "compare": {"checkpoint", "reform", "refit_steps", "repeats", "cohort", "mode"},
    "calibrate": {"targets", "budget", "cohort", "train_steps", "parameters"},
    "emtr_scan": {"wage_min_monthly", "wage_max_monthly", "wage_step_monthly", "children", "rent_monthly"},
}


def _load_config(path: str | None) -> dict:
    """The config mapping; a missing, malformed or non-mapping file is a
    ``ParameterError`` naming the path, a key no subcommand reads or a mode
    but ``sample`` or ``greedy`` a ``ConfigError`` naming its dotted path."""
    cfg = {} if path is None else load_yaml(path)
    for section, keys in _SETTINGS.items():
        body = cfg if section is None else cfg.get(section, {})
        if not isinstance(body, dict):
            raise ConfigError(f"{section} must be a mapping of settings")
        unknown = sorted(str(key) if section is None else f"{section}.{key}" for key in set(body) - keys)
        if unknown:
            raise ConfigError(f"unknown {section or 'top-level'} settings: {unknown}")
        if body.get("mode", "sample") not in ("sample", "greedy"):
            raise ConfigError(f"{section}.mode must be sample or greedy, not {body['mode']!r}")
    return cfg


def _env_paths(cfg: dict) -> EnvPaths:
    year = int(cfg.get("year", 2023))
    paths = EnvPaths.packaged(year)
    if cfg.get("ruleset"):
        paths = dataclasses.replace(paths, ruleset=Path(cfg["ruleset"]))
    for key in ("utility", "wages", "demographics"):
        if cfg.get(key):
            paths = dataclasses.replace(paths, **{key: Path(cfg[key])})
    return paths


def _prepare_out(cfg: dict, args: argparse.Namespace) -> Path:
    out = Path(args.out or cfg.get("out") or "out")
    out.mkdir(parents=True, exist_ok=True)
    if args.config:
        shutil.copyfile(args.config, out / "config.yaml")
    resolved = dict(cfg)
    resolved["seed"] = _seed(cfg, args)
    if "workers" in args:
        resolved["workers"] = _workers(cfg, args)
    with open(out / "resolved_config.json", "w") as f:
        json.dump(resolved, f, indent=2, sort_keys=True, default=str)
        f.write("\n")
    return out


def _seed(cfg: dict, args: argparse.Namespace) -> int:
    return int(args.seed if args.seed is not None else cfg.get("seed", 0))


def _workers(cfg: dict, args: argparse.Namespace) -> int:
    w = args.workers if args.workers is not None else cfg.get("workers")
    return int(w) if w is not None else (os.cpu_count() or 1)


def _train_config(cfg: dict, seed: int, defaults: dict | None = None) -> tuple[TrainConfig, int]:
    merged = {**(defaults or {}), **cfg.get("train", {})}
    households = int(merged.pop("households", 32))
    if "hidden" in merged:
        merged["hidden"] = tuple(int(h) for h in merged["hidden"])
    if "total_steps" not in merged:
        raise ConfigError("train.total_steps is required")
    return TrainConfig(seed=seed, **merged), households


def _write_metrics(path: Path, metrics: list[dict]) -> None:
    if metrics:
        with open(path, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=list(metrics[0]))
            w.writeheader()
            w.writerows(metrics)


def cmd_train(cfg: dict, args: argparse.Namespace) -> int:
    out = _prepare_out(cfg, args)
    seed = _seed(cfg, args)
    env = build_env(_env_paths(cfg))
    tc, households = _train_config(cfg, seed)
    base_net = None
    if cfg.get("base_checkpoint"):
        base_net, _ = load_checkpoint(cfg["base_checkpoint"])
        if "hidden" in cfg.get("train", {}) and tc.hidden != base_net.hidden:
            raise ConfigError(f"train.hidden {list(tc.hidden)} differs from the base checkpoint's "
                              f"hidden {list(base_net.hidden)}; a refit keeps the base net's shape")
        tc = dataclasses.replace(tc, hidden=base_net.hidden)
    result = train_policy(env, tc, n_households=households, base_net=base_net)
    save_checkpoint(out / "checkpoint.bin", result.net, tc,
                    extra={"steps_done": result.steps_done})
    _write_metrics(out / "metrics.csv", result.metrics)
    print(f"checkpoint written to {out / 'checkpoint.bin'} ({result.steps_done} steps)")
    return EXIT_OK


def cmd_simulate(cfg: dict, args: argparse.Namespace) -> int:
    out = _prepare_out(cfg, args)
    seed = _seed(cfg, args)
    workers = _workers(cfg, args)
    sim = cfg.get("simulate", {})
    ckpt = sim.get("checkpoint") or cfg.get("checkpoint")
    if not ckpt:
        raise ConfigError("simulate.checkpoint is required")
    net, _ = load_checkpoint(ckpt)
    env = build_env(_env_paths(cfg))
    cohort = int(sim.get("cohort", 2000))
    pop = init_population(cohort, env, seed=seed)
    log = run_cohort_parallel(net, pop, env, workers=workers,
                              mode=sim.get("mode", "sample"),
                              collect_incentives=bool(sim.get("collect_incentives", False)))
    report = aggregate(log)
    write_report_csvs(report, out / "cohort")
    scaled = scale_to_population(report, env.tables.weight_at_age)
    write_report_csvs(scaled, out / "scaled")
    print(f"reports written under {out} (fte_total={report.fte['total']:.1f})")
    return EXIT_OK


def cmd_compare(cfg: dict, args: argparse.Namespace) -> int:
    out = _prepare_out(cfg, args)
    seed = _seed(cfg, args)
    comp = cfg.get("compare", {})
    if "total_steps" in cfg.get("train", {}):
        raise ConfigError("compare refits for compare.refit_steps steps; remove train.total_steps, "
                          "which compare does not read")
    ckpt = comp.get("checkpoint") or cfg.get("checkpoint")
    overlay = comp.get("reform") or cfg.get("reform")
    if not ckpt or not overlay:
        raise ConfigError("compare needs compare.checkpoint and compare.reform")
    net, _ = load_checkpoint(ckpt)
    env = build_env(_env_paths(cfg))
    spec = load_reform(overlay)
    # The refit starts from a clone of ``net``, so its shape is the checkpoint's.
    refit_steps = int(comp.get("refit_steps", 100_000))
    tc, households = _train_config({"train": cfg.get("train", {})}, seed, {"total_steps": refit_steps})
    protocol = ProtocolConfig(
        refit_steps=refit_steps,
        n_repeats=int(comp.get("repeats", 5)),
        cohort_size=int(comp.get("cohort", 2000)),
        n_households=households,
        mode=comp.get("mode", "sample"),
        seed=seed,
        refit=tc,
    )
    run = reform_pipeline(net, spec, env, protocol)
    write_comparison_csvs(run.comparison, out)
    n_sig = len(run.comparison.significant_cells())
    print(f"comparison written to {out} ({n_sig} significant cells)")
    return EXIT_OK


def cmd_calibrate(cfg: dict, args: argparse.Namespace) -> int:
    out = _prepare_out(cfg, args)
    seed = _seed(cfg, args)
    cal = cfg.get("calibrate", {})
    if "targets" not in cal:
        raise ConfigError("calibrate.targets (CSV path) is required")
    targets = load_targets(cal["targets"])
    budget = int(cal.get("budget", 3))
    cohort = int(cal.get("cohort", 500))
    steps = int(cal.get("train_steps", 20_000))
    env = build_env(_env_paths(cfg))
    initial = {str(k): float(v) for k, v in (cal.get("parameters") or
                                             {"kappa_scale": 1.0, "friction_scale": 1.0}).items()}

    def evaluate(params: dict[str, float]):
        tuned = _apply_calibration_params(env, params)
        tc = TrainConfig(total_steps=steps, hidden=(64, 64), seed=seed)
        net = train_policy(tuned, tc, n_households=16).net
        pop = init_population(cohort, tuned, seed=seed)
        log = run_cohort_parallel(net, pop, tuned, workers=1)
        return aggregate(log)

    result = calibrate(evaluate, initial, targets, budget=budget)
    with open(out / "fitted_parameters.yaml", "w") as f:
        yaml.safe_dump({"parameters": result.params, "loss": result.loss}, f)
    _write_metrics(out / "trace.csv", [dataclasses.asdict(t) for t in result.trace])
    print(f"calibration done: loss {result.loss:.6g}, parameters {result.params}")
    return EXIT_OK


def _apply_calibration_params(env: LifecycleEnv, params: dict[str, float]) -> LifecycleEnv:
    """Map free calibration parameters onto a tuned environment copy."""
    uparams = env.uparams
    tables = env.tables
    for name, value in params.items():
        if name == "kappa_scale":
            kappa = {
                g: dataclasses.replace(row, work_hours={h: k * value for h, k in row.work_hours.items()})
                for g, row in uparams.kappa.items()
            }
            uparams = dataclasses.replace(uparams, kappa=kappa)
        elif name == "friction_scale":
            js = tables.job_search
            scaled = {
                kind: {
                    gender: tuple((lo, tuple(min(0.95, p * value) for p in row)) for lo, row in table)
                    for gender, table in getattr(js, kind).items()
                }
                for kind in ("full_time", "part_time")
            }
            tables = dataclasses.replace(tables, job_search=dataclasses.replace(js, **scaled))
        else:
            raise ConfigError(f"unknown calibration parameter {name!r}")
    return LifecycleEnv(rules=env.rules, uparams=uparams, wparams=env.wparams, tables=tables)


def cmd_emtr_scan(cfg: dict, args: argparse.Namespace) -> int:
    out = _prepare_out(cfg, args)
    scan = cfg.get("emtr_scan", {})
    env_paths = _env_paths(cfg)
    rules = load_ruleset(env_paths.ruleset)
    lo = float(scan.get("wage_min_monthly", 0.0))
    hi = float(scan.get("wage_max_monthly", 10_000.0))
    step = float(scan.get("wage_step_monthly", 100.0))
    children = int(scan.get("children", 0))
    rent = float(scan.get("rent_monthly", rules.rent_for_size(1 + children)))

    rows = []
    parts_keys: list[str] = []
    wage = lo
    while wage <= hi + 1e-9:
        hh = HouseholdSnapshot(
            adults=(AdultSnapshot(state=S.FULL_TIME, wage_quarterly=wage * 3.0),),
            children_under3=0, children_under7=0, children_under18=children,
            rent_monthly=rent,
        )
        parts = emtr(hh, rules)
        if not parts_keys:
            parts_keys = [k for k in parts if k != "total"]
        rows.append([wage, parts["total"]] + [parts[k] for k in parts_keys])
        wage += step
    path = write_csv(out / "emtr_scan.csv", ["wage_monthly", "emtr_total"] + parts_keys, rows)
    print(f"scan written to {path} ({len(rows)} rows)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lifesim",
                                     description="Life-cycle labor-supply simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("train", cmd_train), ("simulate", cmd_simulate),
                     ("compare", cmd_compare), ("calibrate", cmd_calibrate),
                     ("emtr-scan", cmd_emtr_scan)):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="YAML config file")
        p.add_argument("--seed", type=int, default=None)
        if name == "simulate":
            p.add_argument("--workers", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.set_defaults(func=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return args.func(cfg, args)
    except TrainingDiverged as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ConfigError, ParameterError, ReformError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LifesimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
