"""Where the traced run cuts the program into layers, and the per-layer
metrics derived from the spans.

Each target is the name a caller looks a function up by: a module global
(``lifesim.env.mdp.net_income`` is what ``household_flows`` calls, while
``emtr``/``ptr`` call ``lifesim.rules.engine.net_income``) or a class
attribute (methods).  Patching the defining module alone would miss callers
that imported the name.
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter

import lifesim.env.mdp as mdp
import lifesim.env.vector as vector
import lifesim.pipelines as pipelines
import lifesim.rules as rules_api
import lifesim.rules.engine as engine
import lifesim.simulate as simulate
import lifesim.solver.actor_critic as actor_critic
from lifesim.env import LifecycleEnv
from lifesim.env.vector import LifecycleVectorEnv
from lifesim.rules import AdultSnapshot, HouseholdSnapshot
from lifesim.solver.network import Adam, PolicyValueNet

from spans import LayerStats

_adult_key = attrgetter(*(f.name for f in dataclasses.fields(AdultSnapshot)))
_household_key = attrgetter(*(f.name for f in dataclasses.fields(HouseholdSnapshot) if f.name != "adults"))


class SnapshotLog:
    """Counts ``net_income`` calls whose (snapshot, rule set) pair was
    already evaluated earlier in the same round.

    During a round it only keeps references; keys are built in
    :meth:`end_round`, outside every span, so the count adds no time to the
    layers it measures.
    """

    def __init__(self) -> None:
        self.pending: list = []
        self.calls = 0
        self.dups = 0

    def __call__(self, *args, **kwargs) -> None:
        self.pending.append((args, kwargs))

    def end_round(self) -> None:
        seen = set()
        for args, kwargs in self.pending:
            hh = kwargs["hh"] if "hh" in kwargs else args[0]
            rules = kwargs["rules"] if "rules" in kwargs else args[1]
            seen.add((id(rules), _household_key(hh), tuple(_adult_key(a) for a in hh.adults)))
        self.calls += len(self.pending)
        self.dups += len(self.pending) - len(seen)
        self.pending.clear()

    @property
    def dup_share(self) -> float:
        return self.dups / self.calls if self.calls else 0.0


def _forward_note(net: PolicyValueNet, obs, cache=None) -> tuple[int, int]:
    """(rows, flops): two flops per multiply-add over every weight matrix,
    the bias row included."""
    rows = obs.shape[0] if obs.ndim == 2 else 1
    per_row = sum(2 * w.size for w in net.parameters())
    return rows, rows * per_row


def _population_note(n, *args, **kwargs) -> int:
    return n


_COHORT_QUARTERS = int(round((simulate.MAX_AGE - simulate.AGE_MIN) / simulate.DT))


def _cohort_note(net, pop, env, *args, **kwargs) -> int:
    return pop.size * _COHORT_QUARTERS


def targets(snapshots: SnapshotLog) -> list[tuple]:
    """(span name, owner, attribute, note) for every layer boundary."""
    return [
        ("rules.net_income", engine, "net_income", snapshots),
        ("rules.net_income", mdp, "net_income", snapshots),
        ("rules.emtr", rules_api, "emtr", None),
        ("rules.ptr", rules_api, "ptr", None),
        ("env.step", LifecycleEnv, "step", None),
        ("env.static_quarter", LifecycleEnv, "static_quarter", None),
        ("env.terminal_value", LifecycleEnv, "terminal_value", None),
        ("env.encode", simulate, "encode", None),
        ("env.encode", vector, "encode", None),
        ("env.legal_mask", simulate, "legal_mask", None),
        ("env.legal_mask", vector, "legal_mask", None),
        ("env.legal_mask", mdp, "legal_mask", None),
        ("env.vector_step", LifecycleVectorEnv, "step", None),
        ("solver.forward", PolicyValueNet, "forward", _forward_note),
        ("solver.a2c_loss_grads", actor_critic, "a2c_loss_grads", None),
        ("solver.adam", Adam, "step", None),
        ("solver.train_actor_critic", pipelines, "train_actor_critic", None),
        ("population.init_population", pipelines, "init_population", _population_note),
        ("population.spawn_pair_household", vector, "spawn_pair_household", None),
        ("simulate.run_cohort", simulate, "run_cohort", _cohort_note),
        ("simulate.aggregate", simulate, "aggregate", None),
        ("pipelines.train_policy", pipelines, "train_policy", None),
        ("reform.apply_reform", pipelines, "apply_reform", None),
        ("reform.compare_runs", pipelines, "compare_runs", None),
    ]


def per_layer_metrics(stats: LayerStats, snapshots: SnapshotLog, n_ops: int,
                      traced_ns: int, untraced_ns: int) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``.

    Counts are per operation; times are self times (a span minus its child
    spans) except where a name says share of the whole.  A layer the
    workload never calls reads 0.
    """
    us, ms = 1e3, 1e6
    op_ns = stats.total_ns["op"]

    def share(ns: float) -> float:
        return ns / op_ns if op_ns else 0.0

    calls = stats.calls
    fwd_rows = sum(r for r, _ in stats.notes["solver.forward"])
    fwd_flops = sum(f for _, f in stats.notes["solver.forward"])
    fwd_ns = stats.self_ns["solver.forward"]
    agents = sum(stats.notes["population.init_population"])
    agent_quarters = sum(stats.notes["simulate.run_cohort"])
    cohort_ns = stats.total_ns["simulate.run_cohort"]
    ni_calls = calls["rules.net_income"]
    return {
        "rules.net_income.calls": (ni_calls / n_ops, "count"),
        "rules.net_income.us": (stats.mean_self("rules.net_income", us), "us"),
        "rules.net_income.dup_share": (snapshots.dup_share, "ratio"),
        "rules.share": (share(stats.self_sum("rules.")), "ratio"),
        "env.step.calls": (calls["env.step"] / n_ops, "count"),
        "env.step.us": (stats.mean_self("env.step", us), "us"),
        "env.static_quarter.calls": (calls["env.static_quarter"] / n_ops, "count"),
        "env.static_quarter.us": (stats.mean_self("env.static_quarter", us), "us"),
        "env.encode.us": (stats.mean_self("env.encode", us), "us"),
        "env.legal_mask.us": (stats.mean_self("env.legal_mask", us), "us"),
        "env.terminal_value.us": (stats.mean_self("env.terminal_value", us), "us"),
        "env.vector_step.ms": (stats.mean_self("env.vector_step", ms), "ms"),
        "solver.forward.calls": (calls["solver.forward"] / n_ops, "count"),
        "solver.forward.rows_per_call": (fwd_rows / calls["solver.forward"] if fwd_rows else 0.0, "count"),
        "solver.forward.us_per_row": (fwd_ns / fwd_rows / us if fwd_rows else 0.0, "us"),
        "solver.forward.gflop_per_s": (fwd_flops / fwd_ns if fwd_ns else 0.0, "GFLOP/s"),
        "solver.a2c_loss_grads.ms": (stats.mean_self("solver.a2c_loss_grads", ms), "ms"),
        "solver.adam.ms": (stats.mean_self("solver.adam", ms), "ms"),
        "population.init_population.us_per_agent": (
            stats.self_ns["population.init_population"] / agents / us if agents else 0.0, "us"),
        "population.spawn_pair_household.ms": (stats.mean_self("population.spawn_pair_household", ms), "ms"),
        "simulate.run_cohort.agent_quarters_per_s": (agent_quarters / cohort_ns * 1e9 if cohort_ns else 0.0, "1/s"),
        "simulate.run_cohort.self_share": (
            stats.self_ns["simulate.run_cohort"] / cohort_ns if cohort_ns else 0.0, "ratio"),
        "simulate.aggregate.ms": (stats.mean_self("simulate.aggregate", ms), "ms"),
        "pipelines.refit.share": (share(stats.total_ns["pipelines.train_policy"]), "ratio"),
        "pipelines.simulate.share": (
            share(stats.total_ns["simulate.run_cohort"] + stats.total_ns["simulate.aggregate"]), "ratio"),
        "reform.apply_reform.ms": (stats.mean_self("reform.apply_reform", ms), "ms"),
        "reform.compare_runs.ms": (stats.mean_self("reform.compare_runs", ms), "ms"),
        "trace.overhead": (traced_ns / untraced_ns - 1.0, "ratio"),
    }
