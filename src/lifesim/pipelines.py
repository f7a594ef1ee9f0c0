"""Wiring between parameter files, the trainer, the simulator and the
comparison machinery; shared by the command-line entry points and the
acceptance suite."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .env import LifecycleEnv, load_utility_params
from .env.vector import LifecycleVectorEnv
from .paramfiles import params_dir, ruleset_path
from .population import init_population, load_demographics
from .reform import ComparisonReport, ReformSpec, apply_reform, compare_runs
from .rules import load_ruleset
from .simulate import RepeatResult, repeat_protocol
from .solver import TrainConfig, TrainResult, train_actor_critic
from .solver.network import PolicyValueNet
from .wage import load_wage_params


@dataclass
class EnvPaths:
    ruleset: Path
    utility: Path
    wages: Path
    demographics: Path

    @classmethod
    def packaged(cls, year: int = 2023) -> "EnvPaths":
        p = params_dir()
        return cls(
            ruleset=ruleset_path(year),
            utility=p / "utility.yaml",
            wages=p / "wages.yaml",
            demographics=p / "demographics.yaml",
        )


def build_env(paths: EnvPaths) -> LifecycleEnv:
    return LifecycleEnv(
        rules=load_ruleset(paths.ruleset),
        uparams=load_utility_params(paths.utility),
        wparams=load_wage_params(paths.wages),
        tables=load_demographics(paths.demographics),
    )


def derived_seed(*words: int) -> int:
    """A 32-bit seed drawn from ``words``: each seed a run derives from its own."""
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def train_policy(env: LifecycleEnv, config: TrainConfig, n_households: int = 32,
                 base_net: PolicyValueNet | None = None) -> TrainResult:
    """A2C on ``n_households`` pair households drawn from ``env`` (for the
    rule set's year), their pool seeded apart from any cohort's.  With
    ``base_net`` training continues from a clone of it, and the base net
    fixes the shape: ``config.hidden`` is not read."""
    venv = LifecycleVectorEnv(env, n_households=n_households, seed=derived_seed(config.seed, 0xF00D))
    net = base_net.clone() if base_net is not None else None
    return train_actor_critic(venv, config, net=net)


@dataclass
class ProtocolConfig:
    refit_steps: int = 5_000_000
    n_repeats: int = 50
    cohort_size: int = 50_000
    n_households: int = 32
    mode: str = "sample"
    seed: int = 0
    refit: TrainConfig | None = None

    def refit_config(self, repeat_index: int, base_seed_salt: int) -> TrainConfig:
        base = self.refit or TrainConfig(total_steps=self.refit_steps, seed=0)
        return dataclasses.replace(
            base,
            total_steps=self.refit_steps,
            seed=derived_seed(self.seed, base_seed_salt, repeat_index),
        )


def run_repeat_protocol(base_net: PolicyValueNet, env: LifecycleEnv,
                        protocol: ProtocolConfig, arm_salt: int = 0) -> RepeatResult:
    """The refit-then-simulate loop; repeat ``i`` of every arm shares the
    population seed so rule changes are isolated from sampling noise.  The
    cohort is drawn with the group shares of the rule set's year."""

    def make_refit(i: int) -> PolicyValueNet:
        if protocol.refit_steps <= 0:
            return base_net
        cfg = protocol.refit_config(i, arm_salt)
        return train_policy(env, cfg, n_households=protocol.n_households,
                            base_net=base_net).net

    def make_population(i: int):
        # Population seeds are paired across arms: they do not carry the salt.
        return init_population(protocol.cohort_size, env, seed=derived_seed(protocol.seed, i))

    return repeat_protocol(make_refit, make_population, env, n_repeats=protocol.n_repeats, mode=protocol.mode)


@dataclass
class ReformRun:
    comparison: ComparisonReport
    baseline: RepeatResult
    reform: RepeatResult


def reform_pipeline(base_net: PolicyValueNet, spec: ReformSpec, env: LifecycleEnv,
                    protocol: ProtocolConfig) -> ReformRun:
    """Retrain under the reformed rules with identical preferences, run the
    repeat protocol on both arms with paired population seeds, compare."""
    reformed_rules, _ = apply_reform(env.rules, spec)
    env_reform = env.with_rules(reformed_rules)
    baseline = run_repeat_protocol(base_net, env, protocol, arm_salt=1)
    reform = run_repeat_protocol(base_net, env_reform, protocol, arm_salt=2)
    comparison = compare_runs(baseline.reports, reform.reports)
    return ReformRun(comparison=comparison, baseline=baseline, reform=reform)
