"""Cohort simulation, outcome aggregation, population scaling, and the
repeat (refit-then-simulate) protocol.

A simulation runs the trained policy quarterly from age 18 to 75, then plays
the static phase to age 100, in fixed blocks of ``BLOCK_HOUSEHOLDS``
households, each packed once into a :class:`~lifesim.agent.HouseholdBlock`
(one row per adult in household then slot order, one column per field) and
stepped phase by phase.  Each household draws its ``rng_exo`` in the order
it would if stepped alone: ``standard_normal(2)``, ``random(12)``, then
partnership, fertility, adult 0's and adult 1's conditional draws.
Transcendentals stay scalar (``math.log``/``math.exp`` per value) and sums
keep Python's left-to-right order: a quarter's flow rows add into their age
cell one at a time, in household then unit order.

The log keeps raw per-agent state histories (for independent re-analysis)
plus flow sums by age cell; aggregation turns those into the report: rates
by age and gender, occupancy shares, benefit expenditure, wage sums, hours
and incentive histograms, and the unemployment-duration table.
"""

from __future__ import annotations

import copy
import dataclasses
import operator
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .agent import HouseholdBlock, HouseholdState
# ``encode`` and ``legal_mask`` (one adult each) stay module names here for
# the traced benchmark run (lifebench/layers.py), which wraps them where
# callers used to look them up.  The simulator calls neither: it encodes and
# masks whole blocks through ``observe``.
from .env.actions import N_ACTIONS, legal_mask  # noqa: F401
from .env.features import OBS_DIM, encode  # noqa: F401
from .env.mdp import DECISION_END_AGE, DT, LifecycleEnv, MAX_AGE
from .env.vector import observe
from .errors import ContractViolation
from .population import CohortPopulation
from .rules import emtr as emtr_op, ptr as ptr_op
from .rules.engine import BENEFIT_FIELDS, CONTRIB_FIELDS, TAX_FIELDS, HouseholdSnapshot
from .solver.network import PolicyValueNet, sample_masked
from .states import (
    ALLOWED_HOURS,
    UNEMPLOYMENT_STATES,
    WORKING_STATES,
    EmploymentState as S,
)

AGE_MIN = 18
AGE_MAX = 100
N_AGES = AGE_MAX - AGE_MIN  # yearly cells 18..99
FLOW_NAMES = ("gross_wage",) + TAX_FIELDS + CONTRIB_FIELDS + BENEFIT_FIELDS + (
    "employer_contrib", "net_income", "vat", "consumption",
)
DURATION_AGE_BANDS = ((20, 29), (30, 39), (40, 49), (50, 59), (60, 65))
DURATION_BIN_EDGES = (130.0, 260.0, 390.0, 520.0)   # ER days at ~21.67/mo
FTE_CLASSES = ("total", "part_time", "full_time", "age_18_62", "age_63_plus", "retired")
# Households per simulation block: one policy forward pass per block and
# decision quarter.  Fixed, so trajectories do not depend on cohort size or
# worker count.
BLOCK_HOUSEHOLDS = 64

_flow_values = operator.attrgetter(*FLOW_NAMES)


@dataclass
class SimulationLog:
    """Raw per-agent histories plus per-age flow sums for one cohort run."""

    cohort_size: int
    seed: int
    n_quarters: int
    states: np.ndarray        # (agents, quarters) int8
    hours: np.ndarray         # (agents, quarters) int8
    paid_wage: np.ndarray     # (agents, quarters) float32, annual rate
    er_days_used: np.ndarray  # (agents, quarters) float32
    gender: np.ndarray        # (agents,) 0 men / 1 women
    group: np.ndarray         # (agents,) int8
    flows_by_age: dict[str, np.ndarray]  # name -> (N_AGES,) EUR sums
    consumption_by_age: np.ndarray
    emtr_samples: np.ndarray
    ptr_samples: np.ndarray
    # (blocks, N_AGES, len(FLOW_NAMES)) per-block flow sums in block order,
    # from which merge_logs refolds flows_by_age.
    flow_blocks: np.ndarray | None = None


def _counterfactual_unemployed(hh_snap: HouseholdSnapshot, adult_idx: int) -> HouseholdSnapshot:
    adults = list(hh_snap.adults)
    adults[adult_idx] = dataclasses.replace(
        adults[adult_idx], state=S.BASIC_UNEMPLOYED, wage_quarterly=0.0, ub_days_used=0.0)
    return dataclasses.replace(hh_snap, adults=tuple(adults))


def _incentive_samples(env: LifecycleEnv, b: HouseholdBlock | HouseholdState, emtr_samples: list[float],
                       ptr_samples: list[float]) -> None:
    """EMTR and PTR of every adult of ``b`` (a block, or one household) who
    works for pay, each taken on the budget unit that holds the adult, in
    household then slot order."""
    if isinstance(b, HouseholdState):
        b = env.block([b])
    rows = env.pricing_rows(b)
    for h in range(b.m):
        for snap, unit in env.unit_snapshots(b, h, rows):
            for pos, r in enumerate(unit):
                if b.state[r] in (S.FULL_TIME, S.PART_TIME) and b.paid_wage[r] > 0:
                    emtr_samples.append(emtr_op(snap, env.rules, adult=pos)["total"])
                    ptr_samples.append(ptr_op(snap, _counterfactual_unemployed(snap, pos), env.rules))


def _flow_rows(b: HouseholdBlock) -> np.ndarray:
    """The ``FLOW_NAMES`` values of every budget unit of ``b``, one row each,
    in household then unit order."""
    return np.array([_flow_values(cf) for flows in b.flows for cf in flows]).reshape(-1, len(FLOW_NAMES))


def _blocks(households: list[HouseholdState]) -> list[list[HouseholdState]]:
    return [households[i:i + BLOCK_HOUSEHOLDS] for i in range(0, len(households), BLOCK_HOUSEHOLDS)]


def _fold_flows(flow_blocks: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Per-age flow sums: the block partials added in block order."""
    total = np.zeros((N_AGES, len(FLOW_NAMES)))
    for partial in flow_blocks:
        total += partial
    by_age = {name: total[:, j].copy() for j, name in enumerate(FLOW_NAMES)}
    return by_age, by_age["consumption"].copy()


def run_cohort(
    net: PolicyValueNet,
    pop: CohortPopulation,
    env: LifecycleEnv,
    mode: str = "sample",
    collect_incentives: bool = False,
) -> SimulationLog:
    """Simulate the whole cohort: quarterly decisions 18-75, static to 100.

    Households run in fixed blocks of ``BLOCK_HOUSEHOLDS``, each block
    packed once into a :class:`~lifesim.agent.HouseholdBlock` and stepped
    from age 18 to 100 with one policy forward pass per decision quarter;
    at the end each block writes its state back into the population's
    records.  Flow sums and incentive samples are kept per block and joined
    in block order, so the log does not depend on how blocks are split
    across workers.  A quarter's flow rows add into their age cell one
    after another, in household then unit order.
    """
    return _run_blocks(net, _blocks(pop.households), env, mode, collect_incentives,
                       pop.size, pop.seed)


def _run_blocks(net: PolicyValueNet, blocks: list[list[HouseholdState]], env: LifecycleEnv,
                mode: str, collect_incentives: bool, cohort_size: int, seed: int) -> SimulationLog:
    decision_q = int(round((DECISION_END_AGE - AGE_MIN) / DT))
    total_q = int(round((MAX_AGE - AGE_MIN) / DT))
    agents = [a for block in blocks for hh in block for a in hh.adults]
    n_agents = len(agents)

    states = np.zeros((n_agents, total_q), dtype=np.int8)
    hours = np.zeros((n_agents, total_q), dtype=np.int8)
    paid = np.zeros((n_agents, total_q), dtype=np.float32)
    er_days = np.zeros((n_agents, total_q), dtype=np.float32)
    gender = np.array([0 if a.gender == "men" else 1 for a in agents], dtype=np.int8)
    group = np.array([a.group for a in agents], dtype=np.int8)

    flow_blocks = np.zeros((len(blocks), N_AGES, len(FLOW_NAMES)))
    emtr_samples: list[float] = []
    ptr_samples: list[float] = []

    row0 = 0
    for households, flows in zip(blocks, flow_blocks):
        b = env.block(households)
        rows = slice(row0, row0 + b.n)
        obs = np.zeros((b.n, OBS_DIM))
        masks = np.zeros((b.n, N_ACTIONS), dtype=bool)
        act_row = 2 * b.hh + b.slot   # each household draws two action uniforms
        for q in range(total_q):
            age_cell = min(int(q * DT), N_AGES - 1)
            if q < decision_q:
                observe(b, env, obs, masks)
                logits = net.masked_logits(obs, masks)
                if mode == "greedy":
                    acts = logits.argmax(axis=1)
                else:
                    u = np.concatenate([rng.random(2) for rng in b.rng_act])[act_row]
                    acts = sample_masked(logits, masks, u)
                env.step_block(b, acts, masks)
                unit_flows = _flow_rows(b)
                if collect_incentives and q % 4 == 0:
                    _incentive_samples(env, b, emtr_samples, ptr_samples)
            elif env.static_block(b).size:
                unit_flows = _flow_rows(b)
            # np.add.reduce over rows adds them one at a time, in row order.
            flows[age_cell] = np.add.reduce(np.vstack((flows[age_cell], unit_flows)), axis=0)
            states[rows, q] = b.state
            hours[rows, q] = b.hours
            paid[rows, q] = b.paid_wage
            er_days[rows, q] = b.ub_days_used
            if q == decision_q - 1:
                env.freeze_block(b)
        b.write_back(households)
        row0 += b.n

    flows_by_age, cons_by_age = _fold_flows(flow_blocks)
    return SimulationLog(
        cohort_size=cohort_size, seed=seed, n_quarters=total_q, states=states, hours=hours,
        paid_wage=paid, er_days_used=er_days, gender=gender, group=group,
        flows_by_age=flows_by_age, consumption_by_age=cons_by_age,
        emtr_samples=np.asarray(emtr_samples), ptr_samples=np.asarray(ptr_samples),
        flow_blocks=flow_blocks,
    )


def merge_logs(parts: list[SimulationLog]) -> SimulationLog:
    """Join chunk logs in chunk order; flows refold from the block partials."""
    joined = {name: np.concatenate([getattr(p, name) for p in parts])
              for name in ("states", "hours", "paid_wage", "er_days_used", "gender", "group",
                           "emtr_samples", "ptr_samples", "flow_blocks")}
    flows_by_age, cons_by_age = _fold_flows(joined["flow_blocks"])
    return SimulationLog(
        cohort_size=sum(p.cohort_size for p in parts), seed=parts[0].seed,
        n_quarters=parts[0].n_quarters, flows_by_age=flows_by_age,
        consumption_by_age=cons_by_age, **joined,
    )


def _run_chunk(args) -> SimulationLog:
    net, blocks, env, mode, collect, seed = args
    size = sum(len(hh.adults) for block in blocks for hh in block)
    return _run_blocks(net, blocks, env, mode, collect, size, seed)


def run_cohort_parallel(
    net: PolicyValueNet,
    pop: CohortPopulation,
    env: LifecycleEnv,
    workers: int = 1,
    mode: str = "sample",
    collect_incentives: bool = False,
) -> SimulationLog:
    """Split the cohort's household blocks across processes; chunks end on
    block boundaries and merge in block order, so the merged log is
    identical for any worker count."""
    blocks = _blocks(pop.households)
    workers = min(workers, len(blocks))
    if workers <= 1:
        return run_cohort(net, pop, env, mode=mode, collect_incentives=collect_incentives)
    from concurrent.futures import ProcessPoolExecutor

    jobs = [(net, [blocks[i] for i in chunk], env, mode, collect_incentives, pop.seed)
            for chunk in np.array_split(np.arange(len(blocks)), workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_run_chunk, jobs))
    merged = merge_logs(parts)
    merged.cohort_size = pop.size
    return merged


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

WORKING_CODES = np.array([int(s) for s in WORKING_STATES])
UNEMP_CODES = np.array([int(s) for s in UNEMPLOYMENT_STATES])
RETIRED_CODES = np.array([int(S.RETIRED), int(S.RETIRED_PT), int(S.RETIRED_FT)])


@dataclass
class AggregateReport:
    cohort_size: int
    ages: np.ndarray                      # yearly ages 18..99
    occupancy: np.ndarray                 # (N_AGES, 16) shares among alive
    employment_rate: np.ndarray           # (N_AGES, 2) by gender
    unemployment_rate: np.ndarray         # (N_AGES, 2) share of workforce
    parttime_share: np.ndarray            # (N_AGES, 2) among employed
    disability_rate: np.ndarray           # (N_AGES, 2)
    workforce_share_narrow: np.ndarray    # (N_AGES,) employed+unemployed
    workforce_share_broad: np.ndarray     # (N_AGES,) incl. retired
    alive_share: np.ndarray               # (N_AGES,)
    hours_histogram: dict[int, float]
    hours_by_age: dict[int, np.ndarray]   # hours choice -> (N_AGES,) agent-years
    fte: dict[str, float]
    fte_by_age: dict[str, np.ndarray]     # FTE class -> (N_AGES,)
    flows: dict[str, float]               # EUR per cohort-lifetime (or scaled)
    flows_by_age: dict[str, np.ndarray]
    public_net: float
    duration_bins: np.ndarray             # (bands, 5) row-normalized
    duration_counts: np.ndarray           # (bands, 5) raw spell counts
    emtr_histogram: np.ndarray
    ptr_histogram: np.ndarray
    emtr_median: float
    ptr_median: float
    scaled: bool = False

    def cells(self) -> dict[str, float]:
        """Flat scalar view used by the comparison machinery."""
        out: dict[str, float] = {}
        for k, v in self.fte.items():
            out[f"fte_{k}"] = v
        for k, v in self.flows.items():
            out[f"flow_{k}"] = v
        out["public_net"] = self.public_net
        for b, (lo, hi) in enumerate(DURATION_AGE_BANDS):
            for j, label in enumerate(("0_6m", "6_12m", "12_18m", "18_24m", "over_24m")):
                out[f"duration_{lo}_{hi}_{label}"] = float(self.duration_bins[b, j])
        bands = ((18, 62), (63, 74))
        for lo, hi in bands:
            sel = slice(lo - AGE_MIN, hi + 1 - AGE_MIN)
            out[f"employment_rate_{lo}_{hi}"] = nan_mean(self.employment_rate[sel])
            out[f"unemployment_rate_{lo}_{hi}"] = nan_mean(self.unemployment_rate[sel])
        out["emtr_median"] = self.emtr_median
        out["ptr_median"] = self.ptr_median
        return out


def scan_unemployment_spells(states: np.ndarray, er_days: np.ndarray,
                             decision_q: int | None = None) -> list[tuple[float, float]]:
    """(age at spell start, ER days used in spell) for every completed spell.

    A spell is consecutive quarters in any unemployment state; any other
    quarter ends it.
    """
    unemp = np.isin(states, UNEMP_CODES)
    n_agents, n_q = states.shape
    out: list[tuple[float, float]] = []
    horizon = n_q if decision_q is None else decision_q
    for i in range(n_agents):
        row = unemp[i]
        q = 0
        while q < horizon:
            if row[q]:
                start = q
                days0 = er_days[i, q - 1] if q > 0 else 0.0
                while q < horizon and row[q]:
                    q += 1
            else:
                q += 1
                continue
            days1 = er_days[i, q - 1]
            used = max(0.0, days1 - days0)
            out.append((AGE_MIN + start * DT, used))
    return out


def _duration_tables(log: SimulationLog) -> tuple[np.ndarray, np.ndarray]:
    counts = np.zeros((len(DURATION_AGE_BANDS), 5))
    decision_q = int(round((DECISION_END_AGE - AGE_MIN) / DT))
    for age, used in scan_unemployment_spells(log.states, log.er_days_used, decision_q):
        for b, (lo, hi) in enumerate(DURATION_AGE_BANDS):
            if lo <= age <= hi:
                j = int(np.searchsorted(DURATION_BIN_EDGES, used, side="right"))
                counts[b, j] += 1
                break
    shares = counts.copy()
    row_sums = shares.sum(axis=1, keepdims=True)
    np.divide(shares, row_sums, out=shares, where=row_sums > 0)
    return shares, counts


def _public_net(flows: dict[str, float]) -> float:
    """Taxes, contributions and VAT collected, less benefits paid."""
    taxes = sum(flows[name] for name in TAX_FIELDS)
    contribs = sum(flows[name] for name in CONTRIB_FIELDS)
    benefits = sum(flows[name] for name in BENEFIT_FIELDS)
    return taxes + contribs + flows["employer_contrib"] + flows["vat"] - benefits


def _age_totals(by_age: dict) -> dict:
    """Each per-age array summed in age order from 0.0, one addition at a time
    (``np.sum`` adds pairwise and would change the last bits)."""
    return {k: reduce(operator.add, v, 0.0) for k, v in by_age.items()}


def aggregate(log: SimulationLog) -> AggregateReport:
    n_agents, total_q = log.states.shape
    ages = np.arange(AGE_MIN, AGE_MAX)
    occupancy = np.zeros((N_AGES, 16))
    employment_rate = np.zeros((N_AGES, 2))
    unemployment_rate = np.zeros((N_AGES, 2))
    parttime_share = np.zeros((N_AGES, 2))
    disability_rate = np.zeros((N_AGES, 2))
    workforce_narrow = np.zeros(N_AGES)
    workforce_broad = np.zeros(N_AGES)
    alive_share = np.zeros(N_AGES)

    hours_by_age = {h: np.zeros(N_AGES) for h in ALLOWED_HOURS}
    fte_by_age = {k: np.zeros(N_AGES) for k in FTE_CLASSES}

    for a_idx in range(N_AGES):
        q0, q1 = a_idx * 4, min((a_idx + 1) * 4, total_q)
        s = log.states[:, q0:q1]
        h = log.hours[:, q0:q1]
        alive = s != int(S.DEAD)
        n_alive = alive.sum()
        if n_alive == 0:
            employment_rate[a_idx] = np.nan
            unemployment_rate[a_idx] = np.nan
            parttime_share[a_idx] = np.nan
            disability_rate[a_idx] = np.nan
            continue
        alive_share[a_idx] = n_alive / s.size
        # Shares among the living; the dead column carries the share of all.
        for code in range(15):
            occupancy[a_idx, code] = ((s == code) & alive).sum() / max(n_alive, 1)
        occupancy[a_idx, int(S.DEAD)] = 1.0 - n_alive / s.size
        working = np.isin(s, WORKING_CODES)
        unemployed = np.isin(s, UNEMP_CODES)
        retired = np.isin(s, RETIRED_CODES)
        disabled = s == int(S.DISABLED)
        for g in (0, 1):
            rows = log.gender == g
            alive_g = alive[rows].sum()
            if alive_g == 0:
                employment_rate[a_idx, g] = np.nan
                unemployment_rate[a_idx, g] = np.nan
                parttime_share[a_idx, g] = np.nan
                disability_rate[a_idx, g] = np.nan
                continue
            emp_g = working[rows].sum()
            un_g = unemployed[rows].sum()
            employment_rate[a_idx, g] = emp_g / alive_g
            wf = emp_g + un_g
            unemployment_rate[a_idx, g] = un_g / wf if wf > 0 else np.nan
            pt_g = ((s[rows] == int(S.PART_TIME)) | (s[rows] == int(S.RETIRED_PT))).sum()
            parttime_share[a_idx, g] = pt_g / emp_g if emp_g > 0 else np.nan
            disability_rate[a_idx, g] = disabled[rows].sum() / alive_g
        workforce_narrow[a_idx] = (working.sum() + unemployed.sum()) / n_alive
        workforce_broad[a_idx] = (working | unemployed | retired).sum() / n_alive

        fte_cells = (h[working] / 40.0).sum() / 4.0
        fte_by_age["total"][a_idx] = fte_cells
        fte_by_age["part_time"][a_idx] = (h[working & (h <= 24)] / 40.0).sum() / 4.0
        fte_by_age["full_time"][a_idx] = (h[working & (h >= 32)] / 40.0).sum() / 4.0
        fte_by_age["age_18_62" if AGE_MIN + a_idx <= 62 else "age_63_plus"][a_idx] = fte_cells
        fte_by_age["retired"][a_idx] = (h[retired & working] / 40.0).sum() / 4.0
        for hh_choice in ALLOWED_HOURS:
            hours_by_age[hh_choice][a_idx] = ((h == hh_choice) & working).sum() / 4.0

    flows = {name: float(v.sum()) for name, v in log.flows_by_age.items()}

    duration_shares, duration_counts = _duration_tables(log)

    emtr_hist, _ = np.histogram(log.emtr_samples, bins=np.linspace(0, 1.5, 31))
    ptr_hist, _ = np.histogram(log.ptr_samples, bins=np.linspace(0, 1.5, 31))

    return AggregateReport(
        cohort_size=log.cohort_size,
        ages=ages,
        occupancy=occupancy,
        employment_rate=employment_rate,
        unemployment_rate=unemployment_rate,
        parttime_share=parttime_share,
        disability_rate=disability_rate,
        workforce_share_narrow=workforce_narrow,
        workforce_share_broad=workforce_broad,
        alive_share=alive_share,
        hours_histogram=_age_totals(hours_by_age),
        hours_by_age=hours_by_age,
        fte=_age_totals(fte_by_age),
        fte_by_age=fte_by_age,
        flows=flows,
        flows_by_age={k: v.copy() for k, v in log.flows_by_age.items()},
        public_net=_public_net(flows),
        duration_bins=duration_shares,
        duration_counts=duration_counts,
        emtr_histogram=emtr_hist.astype(float),
        ptr_histogram=ptr_hist.astype(float),
        emtr_median=float(np.median(log.emtr_samples)) if log.emtr_samples.size else float("nan"),
        ptr_median=float(np.median(log.ptr_samples)) if log.ptr_samples.size else float("nan"),
    )


def scale_to_population(report: AggregateReport, weights_by_age) -> AggregateReport:
    """Rescale cohort sums to a cross-section population; rates unchanged.

    ``weights_by_age`` maps a yearly age to the number of persons in that
    cell (callable or banded table lookup); sums become persons-weighted
    per-capita aggregates, i.e. national euro/FTE totals per year.
    """
    scaled = copy.deepcopy(report)
    n = report.cohort_size
    weights = np.array([float(weights_by_age(a)) for a in report.ages])

    for name, by_age in report.flows_by_age.items():
        scaled.flows_by_age[name] = by_age * weights / n
        scaled.flows[name] = float(scaled.flows_by_age[name].sum())
    scaled.public_net = _public_net(scaled.flows)

    for name, by_age in report.fte_by_age.items():
        scaled.fte_by_age[name] = by_age * weights / n
    for h, by_age in report.hours_by_age.items():
        scaled.hours_by_age[h] = by_age * weights / n
    scaled.fte = _age_totals(scaled.fte_by_age)
    scaled.hours_histogram = _age_totals(scaled.hours_by_age)
    scaled.scaled = True
    return scaled


# ---------------------------------------------------------------------------
# Repeat protocol
# ---------------------------------------------------------------------------

@dataclass
class RepeatResult:
    mean_cells: dict[str, float]
    sd_cells: dict[str, float]
    reports: list[AggregateReport] = field(default_factory=list)


def nan_mean(values: np.ndarray) -> float:
    """``np.nanmean``, but NaN without a warning when every value is NaN."""
    return float(np.nanmean(values)) if not np.isnan(values).all() else float("nan")


def nan_sd(values: np.ndarray) -> float:
    """Sample s.d. (ddof 1) of the non-NaN values; NaN without a warning
    when fewer than two values are left."""
    return float(np.nanstd(values, ddof=1)) if np.count_nonzero(~np.isnan(values)) > 1 else float("nan")


def summarize_reports(reports: list[AggregateReport]) -> RepeatResult:
    keys = reports[0].cells().keys()
    table = {k: np.array([r.cells()[k] for r in reports]) for k in keys}
    mean = {k: nan_mean(v) for k, v in table.items()}
    sd = {k: nan_sd(v) if len(reports) > 1 else 0.0 for k, v in table.items()}
    return RepeatResult(mean_cells=mean, sd_cells=sd, reports=list(reports))


def repeat_protocol(
    make_refit,          # (repeat_index) -> PolicyValueNet
    make_population,     # (repeat_index) -> CohortPopulation
    env: LifecycleEnv,
    n_repeats: int,
    mode: str = "sample",
    collect_incentives: bool = False,
) -> RepeatResult:
    """Refit-then-simulate ``n_repeats`` times and summarize per cell."""
    if n_repeats < 1:
        raise ContractViolation("repeat protocol needs at least one repeat")
    reports = []
    for r in range(n_repeats):
        net = make_refit(r)
        pop = make_population(r)
        log = run_cohort(net, pop, env, mode=mode, collect_incentives=collect_incentives)
        reports.append(aggregate(log))
    return summarize_reports(reports)
