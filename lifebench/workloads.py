"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``__init__`` (the timed
set-up), exposes ``items`` (the operations of one round, each timed on its
own), ``run_item`` (one call into the program's public functions) and
``check`` (output checks and the behaviour digest of one round) and
``headline`` (the issue-named figures of an untraced run).  Every round
of a run repeats the same inputs, so every round must give the same digest.

Workload sizes and why each workload exists are in README.md.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import statistics
from time import perf_counter_ns

import numpy as np

import lifesim.pipelines as pipelines
import lifesim.rules as rules_api
import lifesim.simulate as simulate
from lifesim.env import DECISION_END_AGE, DT, N_ACTIONS, OBS_DIM
from lifesim.paramfiles import params_dir, ruleset_path
from lifesim.pipelines import EnvPaths, ProtocolConfig
from lifesim.reform import apply_reform, load_reform
from lifesim.rules import AdultSnapshot, HouseholdSnapshot, net_income
from lifesim.rules.engine import BENEFIT_FIELDS, CONTRIB_FIELDS, TAX_FIELDS
from lifesim.solver import TrainConfig
from lifesim.solver.network import PolicyValueNet
from lifesim.states import EmploymentState as S

YEAR = 2023
HIDDEN = (256, 256, 128)
EPISODE_QUARTERS = int(round((DECISION_END_AGE - 18.0) / DT))
VALID_STATES = np.array([int(s) for s in S])


@dataclasses.dataclass
class RoundCheck:
    digest: str
    failed: int                 # failed operations in the round
    problems: list[str]
    work: int                   # work items: agent-quarters, actor-steps, points


def _digest_arrays(h, arrays) -> None:
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())


@contextlib.contextmanager
def _recording(owner, attr: str, sink: list):
    """Append ``(wall_ns, result)`` of every call made at ``owner.attr``."""
    original = getattr(owner, attr)

    def record(*args, **kwargs):
        t0 = perf_counter_ns()
        out = original(*args, **kwargs)
        sink.append((perf_counter_ns() - t0, out))
        return out

    setattr(owner, attr, record)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Compare:
    """One ``reform_pipeline`` run: 2023 rules against 2023 + ``orpo``."""

    name = "compare"
    REFIT_STEPS_PER_AGENT = 100   # ProtocolConfig defaults: 5M refit steps / 50k agents

    def __init__(self, seed: int, toy: bool) -> None:
        cohort = 4 if toy else 24
        self.env = pipelines.build_env(EnvPaths.packaged(YEAR))
        self.spec = load_reform(params_dir() / "reforms" / "orpo.yaml")
        self.net = PolicyValueNet(OBS_DIM, N_ACTIONS, HIDDEN, seed=seed)
        self.protocol = ProtocolConfig(
            refit_steps=self.REFIT_STEPS_PER_AGENT * cohort, n_repeats=2, cohort_size=cohort,
            n_households=4 if toy else 32, mode="sample", seed=seed,
        )
        self.items = [self.protocol]
        self.logs: list = []
        self.refits: list = []
        self.refit_ns = 0
        self.refit_steps = 0

    def recording(self):
        """Keep each cohort log and refit result, which ``reform_pipeline``
        does not return, for the checks and the digest."""
        stack = contextlib.ExitStack()
        stack.enter_context(_recording(simulate, "run_cohort", self.logs))
        stack.enter_context(_recording(pipelines, "train_policy", self.refits))
        return stack

    def run_item(self, protocol: ProtocolConfig):
        return pipelines.reform_pipeline(self.net, self.spec, self.env, protocol)

    def check(self, results: list) -> RoundCheck:
        logs = [log for _, log in self.logs]
        self.refit_ns += sum(ns for ns, _ in self.refits)
        self.refit_steps += sum(r.steps_done for _, r in self.refits)
        self.logs.clear()
        self.refits.clear()
        run = results[0]
        problems = []
        if run is None:
            problems.append("reform_pipeline raised")
        else:
            expected = 2 * self.protocol.n_repeats
            if len(logs) != expected:
                problems.append(f"{len(logs)} cohort logs, expected {expected}")
            for log in logs:
                if not np.isin(log.states, VALID_STATES).all():
                    problems.append("invalid state code in SimulationLog")
                dead = log.states == int(S.DEAD)
                if (dead[:, :-1] & ~dead[:, 1:]).any():
                    problems.append("an agent left the DEAD state")
            reports = run.baseline.reports + run.reform.reports
            for rep in reports:
                if (np.diff(rep.alive_share) > 0).any():
                    problems.append("alive_share increases with age")
            for row in run.comparison.rows:
                values = (row.reform, row.baseline, row.difference, row.pooled_se, row.threshold)
                if not all(math.isfinite(v) for v in values):
                    problems.append(f"comparison row {row.cell} is not finite")
        h = hashlib.sha256()
        for log in logs:
            _digest_arrays(h, (log.states, log.hours, log.paid_wage, log.er_days_used, log.gender,
                               log.group, log.consumption_by_age, log.emtr_samples, log.ptr_samples))
            _digest_arrays(h, (log.flows_by_age[k] for k in sorted(log.flows_by_age)))
        if run is not None:
            for rep in reports:
                cells = rep.cells()
                h.update(repr(sorted(cells.items())).encode())
        work = sum(log.states.size for log in logs)
        return RoundCheck(h.hexdigest(), int(bool(problems)), problems, work)

    def headline(self, times: list[int], work: int) -> list[str]:
        """``compare_s`` and its linear projection to the ProtocolConfig
        defaults: refit time scales with refit steps, the rest with
        simulated agents."""
        default, p = ProtocolConfig(), self.protocol
        sim_ns_per_agent = (sum(times) - self.refit_ns) / (len(times) * 2 * p.n_repeats * p.cohort_size)
        per_run_ns = (default.refit_steps * self.refit_ns / self.refit_steps
                      + default.cohort_size * sim_ns_per_agent)
        hours = 2 * default.n_repeats * per_run_ns / 3.6e12
        return [f"compare_s = {statistics.median(times) / 1e9:.4f} s per reform comparison "
                f"(median of {len(times)}); projected to ProtocolConfig defaults: {hours:.1f} h"]


class Train:
    """``train_policy`` at the CLI defaults, long enough for every actor slot
    to finish two episodes."""

    name = "train"

    def __init__(self, seed: int, toy: bool) -> None:
        self.households = 4 if toy else 32
        actors = 2 * self.households
        rollout = TrainConfig.rollout
        updates = 2 if toy else math.ceil(2 * EPISODE_QUARTERS / rollout)
        self.env = pipelines.build_env(EnvPaths.packaged(YEAR))
        self.config = TrainConfig(total_steps=updates * rollout * actors, seed=seed)
        # A metrics row may lack an episode return only while no episode can have ended.
        self.first_episode_steps = EPISODE_QUARTERS * actors
        self.items = [self.config]

    def recording(self):
        return contextlib.nullcontext()

    def run_item(self, config: TrainConfig):
        return pipelines.train_policy(self.env, config, n_households=self.households)

    def check(self, results: list) -> RoundCheck:
        res = results[0]
        if res is None:
            return RoundCheck("", 1, ["train_policy raised"], 0)
        problems = []
        if res.steps_done != self.config.total_steps:
            problems.append(f"steps_done {res.steps_done} != budget {self.config.total_steps}")
        for row in res.metrics:
            for key, value in row.items():
                if math.isfinite(value):
                    continue
                if key == "mean_episode_return" and row["steps"] < self.first_episode_steps:
                    continue
                problems.append(f"metrics row at update {row['update']:.0f}: {key} = {value}")
        h = hashlib.sha256()
        h.update(res.net.flat_parameters().tobytes())
        h.update(repr([sorted(row.items()) for row in res.metrics]).encode())
        return RoundCheck(h.hexdigest(), int(bool(problems)), problems, res.steps_done)

    def headline(self, times: list[int], work: int) -> list[str]:
        return [f"actor_steps_per_s = {work / (sum(times) / 1e9):.1f} actor-steps/s over "
                f"{len(times)} train_policy runs of {self.config.total_steps} steps"]


class EmtrScan:
    """A fixed grid of scalar ``emtr`` + ``ptr`` points under 2023 rules and
    under 2023 + ``orpo``; the seed draws the wages and the other amounts."""

    name = "emtr_scan"
    PARTNERS = ("single", "full_time", "er_unemployed", "basic_unemployed", "retired", "home_care")
    CHILDREN = ("none", "one_under7", "under3_plus_older", "three_school_age")
    WORK = (S.FULL_TIME, S.PART_TIME)

    def __init__(self, seed: int, toy: bool) -> None:
        base = rules_api.load_ruleset(ruleset_path(YEAR))
        reformed, _ = apply_reform(base, load_reform(params_dir() / "reforms" / "orpo.yaml"))
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5CA1)))
        n_wages = 5 if toy else 100
        edges = np.linspace(100.0, 10_000.0, n_wages + 1)
        self.items = []
        for partner in self.PARTNERS:
            for children in self.CHILDREN:
                for state in self.WORK:
                    for lo, hi in zip(edges[:-1], edges[1:]):
                        hh = self._household(rng, partner, children, state, rng.uniform(lo, hi), base)
                        unemployed = dataclasses.replace(
                            hh.adults[0], state=S.BASIC_UNEMPLOYED, wage_quarterly=0.0)
                        hh_u = dataclasses.replace(hh, adults=(unemployed, *hh.adults[1:]))
                        for rules in (base, reformed):
                            self.items.append((rules, hh, hh_u))
        # Interleave household types in time, so that a swing in machine
        # speed hits all of them alike and leaves the latency quantiles'
        # positions in the mixture unchanged.
        rng.shuffle(self.items)

    @staticmethod
    def _household(rng, partner: str, children: str, state: S, wage_monthly: float,
                   rules) -> HouseholdSnapshot:
        adults = [AdultSnapshot(state=state, wage_quarterly=3.0 * wage_monthly,
                                age=rng.uniform(25.0, 60.0), fund_member=True,
                                wage_basis_monthly=wage_monthly)]
        if partner == "full_time":
            adults.append(AdultSnapshot(state=S.FULL_TIME, wage_quarterly=3.0 * rng.uniform(1500.0, 6000.0),
                                        age=rng.uniform(25.0, 60.0)))
        elif partner == "er_unemployed":
            adults.append(AdultSnapshot(state=S.ER_UNEMPLOYED, age=rng.uniform(25.0, 60.0),
                                        ub_basis_monthly=rng.uniform(1500.0, 4500.0),
                                        ub_days_used=rng.uniform(0.0, 350.0), fund_member=True))
        elif partner == "basic_unemployed":
            adults.append(AdultSnapshot(state=S.BASIC_UNEMPLOYED, age=rng.uniform(25.0, 60.0)))
        elif partner == "retired":
            adults.append(AdultSnapshot(state=S.RETIRED, age=rng.uniform(65.0, 75.0),
                                        pension_paid_monthly=rng.uniform(900.0, 2500.0)))
        elif partner == "home_care":
            adults.append(AdultSnapshot(state=S.HOME_CARE, age=rng.uniform(25.0, 45.0)))
        if children == "none":
            u3 = u7 = u18 = 0
        elif children == "one_under7":
            u3, u7, u18 = int(rng.uniform(0.0, 7.0) < 3.0), 1, 1
        elif children == "under3_plus_older":
            older = rng.uniform(3.0, 17.0)
            u3, u7, u18 = 1, 1 + int(older < 7.0), 2
        else:
            u3, u7, u18 = 0, 0, 3
        return HouseholdSnapshot(
            adults=tuple(adults), children_under3=u3, children_under7=u7, children_under18=u18,
            partnered=len(adults) == 2, rent_monthly=rules.rent_for_size(len(adults) + u18),
        )

    def recording(self):
        return contextlib.nullcontext()

    def run_item(self, item):
        rules, hh, hh_u = item
        return rules_api.emtr(hh, rules), rules_api.ptr(hh, hh_u, rules)

    def check(self, results: list) -> RoundCheck:
        problems = []
        failed = 0
        values = []
        for (rules, hh, hh_u), out in zip(self.items, results):
            bad = []
            if out is None:
                bad.append("emtr/ptr raised")
            else:
                parts, p = out
                total = parts["total"]
                if abs(sum(v for k, v in parts.items() if k != "total") - total) > 1e-9:
                    bad.append(f"emtr parts do not sum to total {total}")
                if not math.isfinite(p):
                    bad.append(f"ptr is {p}")
                for snap in (hh, hh_u):
                    cf = net_income(snap, rules)
                    identity = (cf.gross_wage + sum(getattr(cf, f) for f in BENEFIT_FIELDS)
                                - sum(getattr(cf, f) for f in TAX_FIELDS + CONTRIB_FIELDS))
                    if abs(cf.net_income - identity) > 1e-9 * max(1.0, abs(cf.net_income)):
                        bad.append(f"net_income {cf.net_income} != gross + benefits - taxes - contributions")
                values.append([total, *parts.values(), p])
            failed += bool(bad)
            problems += bad
        h = hashlib.sha256()
        _digest_arrays(h, [np.asarray(values, dtype=np.float64)])
        return RoundCheck(h.hexdigest(), failed, problems, len(results))

    def headline(self, times: list[int], work: int) -> list[str]:
        n = len(times)
        p50, p99 = statistics.median(times) / 1e3, float(np.percentile(times, 99)) / 1e3
        return [f"emtr_points_per_s = {work / (sum(times) / 1e9):.1f} points/s over {n} points",
                f"emtr_point_us_p50 = {p50:.2f} us, emtr_point_us_p99 = {p99:.2f} us "
                f"(n = {n}, {n // 100} samples above p99)"]


WORKLOADS = {w.name: w for w in (Compare, Train, EmtrScan)}
