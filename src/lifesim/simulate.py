"""Cohort simulation, outcome aggregation, population scaling, and the
repeat (refit-then-simulate) protocol.

A simulation runs the trained policy quarterly from age 18 to 75, then plays
the static phase to age 100, in fixed blocks of ``BLOCK_HOUSEHOLDS``
households, each a copy of their rows of the population's
:class:`~lifesim.agent.HouseholdBlock` (one row per adult in household then
slot order, one column per field), stepped phase by phase.  When a block
starts it draws its households' life draws, and in sample mode their action
uniforms (none in greedy mode), from their keys (see
:mod:`lifesim.population`); the population holds no draws and never
changes, so every run of it simulates the same cohort.  Transcendentals
stay scalar (``math.log``/``math.exp`` per value) and sums keep Python's
left-to-right order: a quarter's flow rows add into their age cell one at a
time, in household then unit order.

A block is priced after its quarters, through the
:class:`~lifesim.env.mdp.PricingLedger` training uses too: each quarter runs
the transition alone (``LifecycleEnv.advance_block`` or ``static_block``)
and is recorded, a static quarter whose inputs did not change as the last
recorded rows again, and the log holds no rewards.  Every quarter's ages
are checked as it runs.  The EMTR and PTR samples are priced on the block's
columns, with each sampled adult's raised-wage and unemployed copies
appended (``_incentive_samples``).

The log keeps raw per-agent state histories (for independent re-analysis)
plus flow sums by age cell; aggregation turns those into the report: rates
by age and gender, occupancy shares, benefit expenditure, wage sums, hours
and incentive histograms, and the unemployment-duration table.  It counts
agent-quarters by gender, yearly age, state and hours in one pass over the
matrices; only the FTE sums run one ``np.sum`` per age, which keeps their
summation order.  The spell scan finds every spell's first and last quarter
on the whole state matrix.
"""

from __future__ import annotations

import copy
import operator
from dataclasses import dataclass, field
from functools import reduce
from itertools import groupby, repeat

import numpy as np

from .agent import DECISION_QUARTERS, DT, ENTRY_AGE, LIFE_QUARTERS, MAX_AGE, HouseholdBlock
# ``encode`` and ``legal_mask`` (one adult each) stay module names here for
# the traced benchmark run (lifebench/layers.py), which wraps them where
# callers used to look them up.  The simulator calls neither: it encodes and
# masks whole blocks through ``observe``.
from .env.actions import N_ACTIONS, legal_mask  # noqa: F401
from .env.features import OBS_DIM, encode  # noqa: F401
from .env.mdp import LifecycleEnv, PricingLedger
from .env.utility import check_ages
from .env.vector import observe
from .errors import ContractViolation
from .population import CohortPopulation, action_uniforms, draw_life
from .rules import MONTHS_PER_QUARTER, AdultColumns
from .rules.engine import BENEFIT_FIELDS, CONTRIB_FIELDS, EMTR_DELTA_MONTHLY, FLOW_COLUMNS, TAX_FIELDS, price_units
from .solver.network import PolicyValueNet, sample_masked
from .states import ALLOWED_HOURS, IS_RETIRED, IS_UNEMPLOYED, IS_WORKING, N_STATES, EmploymentState as S, state_flags

AGE_MIN, AGE_MAX = int(ENTRY_AGE), int(MAX_AGE)
N_AGES = AGE_MAX - AGE_MIN  # yearly cells 18..99
FLOW_NAMES = ("gross_wage",) + TAX_FIELDS + CONTRIB_FIELDS + BENEFIT_FIELDS + (
    "employer_contrib", "net_income", "vat", "consumption",
)
DURATION_AGE_BANDS = ((20, 29), (30, 39), (40, 49), (50, 59), (60, 65))
DURATION_BIN_EDGES = (130.0, 260.0, 390.0, 520.0)   # ER days at ~21.67/mo
# The EMTR and PTR histograms' bin edges (samples outside count as under- and overflow).
INCENTIVE_BINS = np.linspace(0.0, 1.5, 31)
FTE_CLASSES = ("total", "part_time", "full_time", "age_18_62", "age_63_plus", "retired")
# Households per simulation block: one policy forward pass per block and
# decision quarter.  Fixed, so trajectories do not depend on cohort size or
# worker count.
BLOCK_HOUSEHOLDS = 64
# The FLOW_NAMES columns of a priced flow matrix (``rules.price_units``).
_FLOW_COLUMNS = np.array([FLOW_COLUMNS.index(name) for name in FLOW_NAMES])
_NET_INCOME, _GROSS_WAGE = map(FLOW_COLUMNS.index, ("net_income", "gross_wage"))
_FULL_TIME, _PART_TIME, _BASIC_UNEMPLOYED, _DEAD = map(int, (S.FULL_TIME, S.PART_TIME, S.BASIC_UNEMPLOYED, S.DEAD))


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


def _incentive_samples(env: LifecycleEnv, b: HouseholdBlock, emtr_samples: list[float],
                       ptr_samples: list[float]) -> None:
    """EMTR and PTR of every adult of ``b`` who works for pay, in row order,
    as ``rules.emtr``'s total and ``rules.ptr`` give them on the adult's
    budget unit.  One ``price_units`` call prices each such unit as it
    stands, with the adult's wage raised by ``EMTR_DELTA_MONTHLY`` a month,
    and with the adult basic-unemployed, without wage or used benefit days."""
    rows = (((b.state == _FULL_TIME) | (b.state == _PART_TIME)) & (b.paid_wage > 0)).nonzero()[0]
    m = len(rows)
    if not m:
        return
    units = env.units(b)
    # A living adult is in the last unit that starts at or before its row.
    own = units.first.searchsorted(rows, side="right") - 1
    first, second = units.first[own], units.second[own]
    # The block's adults, then each sampled adult's bumped and jobless copies.
    adults = AdultColumns(*(np.concatenate((c, c[rows], c[rows])) for c in env.adult_columns(b)))
    bumped, jobless = b.n + np.arange(m), b.n + m + np.arange(m)
    dq = EMTR_DELTA_MONTHLY * MONTHS_PER_QUARTER
    adults.wage_quarterly[bumped] += dq
    adults.state[jobless] = _BASIC_UNEMPLOYED
    adults.wage_quarterly[jobless] = adults.ub_days_used[jobless] = 0.0
    # Each changed unit points at the copy in place of the adult's own row.
    at_first = first == rows
    flows = price_units(
        adults, np.concatenate((first, np.where(at_first, bumped, first), np.where(at_first, jobless, first))),
        np.concatenate((second, np.where(at_first, second, bumped), np.where(at_first, second, jobless))),
        *(np.tile(column[own], 3) for column in units[2:]), env.rules)
    net_base, net_bumped, net_jobless = flows[:, _NET_INCOME].reshape(3, m)
    emtr_samples.extend((1.0 - (net_bumped - net_base) / dq).tolist())
    ptr_samples.extend((1.0 - (net_base - net_jobless) / flows[:m, _GROSS_WAGE]).tolist())


def _price_into(partial: np.ndarray, cells: list[int], pricing: PricingLedger) -> None:
    """Price the quarters ``pricing`` recorded and add each quarter's rows
    into its age cell, ``cells`` in quarter order, in quarter, household
    and unit order."""
    flows, rows, _, _ = pricing.price()
    flows = flows.take(_FLOW_COLUMNS, axis=1)
    # np.add.reduce over the rows of a row-major matrix (``take`` and
    # ``vstack`` keep that layout) adds them one at a time, in row order.
    for cell, quarters in groupby(zip(cells, rows), key=operator.itemgetter(0)):
        partial[cell] = np.add.reduce(np.vstack((partial[cell], *(flows[q] for _, q in quarters))), axis=0)
    cells.clear()


def _blocks(b: HouseholdBlock) -> list[HouseholdBlock]:
    return [b.take(lo, min(lo + BLOCK_HOUSEHOLDS, b.m)) for lo in range(0, b.m, BLOCK_HOUSEHOLDS)]


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

    Households run in fixed blocks of ``BLOCK_HOUSEHOLDS``, each block a
    copy of their rows of ``pop.block`` (which stays as drawn), stepped
    from age 18 to 100 with one policy forward pass per decision quarter.
    A block's quarters are priced together after they ran (see the module
    docstring).  Flow sums and incentive samples are kept per block and
    joined in block order, so the log does not depend on how blocks are
    split across workers.  A quarter's flow rows add into their age cell
    one after another, in household then unit order.
    """
    return _run_blocks(net, _blocks(pop.block), env, mode, collect_incentives, pop.size, pop.seed)


def _run_blocks(net: PolicyValueNet, blocks: list[HouseholdBlock], env: LifecycleEnv,
                mode: str, collect_incentives: bool, cohort_size: int, seed: int) -> SimulationLog:
    n_agents = sum(b.n for b in blocks)
    if any(b.worked.shape[1] != env.window for b in blocks):
        raise ContractViolation("a cohort runs under rules with the work window it was drawn with")

    states = np.zeros((n_agents, LIFE_QUARTERS), dtype=np.int8)
    hours = np.zeros((n_agents, LIFE_QUARTERS), dtype=np.int8)
    paid = np.zeros((n_agents, LIFE_QUARTERS), dtype=np.float32)
    er_days = np.zeros((n_agents, LIFE_QUARTERS), dtype=np.float32)
    gender = np.concatenate([b.women for b in blocks]).astype(np.int8)
    group = np.concatenate([b.group for b in blocks]).astype(np.int8)

    flow_blocks = np.zeros((len(blocks), N_AGES, len(FLOW_NAMES)))
    emtr_samples: list[float] = []
    ptr_samples: list[float] = []

    row0 = 0
    for b, flows in zip(blocks, flow_blocks):
        pricing = PricingLedger(env)
        cells: list[int] = []   # each recorded quarter's age cell
        rows = slice(row0, row0 + b.n)
        obs = np.zeros((b.n, OBS_DIM))
        masks = np.zeros((b.n, N_ACTIONS), dtype=bool)
        draw_life(b, LIFE_QUARTERS)
        if mode != "greedy":
            uniforms = action_uniforms(b, DECISION_QUARTERS)
        for q in range(LIFE_QUARTERS):
            age_cell = min(int(q * DT), N_AGES - 1)
            if q < DECISION_QUARTERS:
                observe(b, env, obs, masks)
                logits = net.masked_logits(obs, masks)
                if mode == "greedy":
                    acts = logits.argmax(axis=1)
                else:
                    acts = sample_masked(logits, masks, uniforms[q])
                env.advance_block(b, acts, masks)
                changed = True
                if collect_incentives and q % 4 == 0:
                    _incentive_samples(env, b, emtr_samples, ptr_samples)
            else:
                changed = env.static_block(b).size > 0
            check_ages(b.age[b.state != _DEAD])
            pricing.record(b, changed)
            cells.append(age_cell)
            if pricing.full:
                _price_into(flows, cells, pricing)
            states[rows, q] = b.state
            hours[rows, q] = b.hours
            paid[rows, q] = b.paid_wage
            er_days[rows, q] = b.ub_days_used
            if q == DECISION_QUARTERS - 1:
                env.freeze_block(b)
        if cells:
            _price_into(flows, cells, pricing)
        b.uniforms = b.normals = None   # about 60 kB a household
        row0 += b.n

    flows_by_age, cons_by_age = _fold_flows(flow_blocks)
    return SimulationLog(
        cohort_size=cohort_size, seed=seed, n_quarters=LIFE_QUARTERS, states=states, hours=hours,
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
    blocks = _blocks(pop.block)
    workers = min(workers, len(blocks))
    if workers <= 1:
        return run_cohort(net, pop, env, mode=mode, collect_incentives=collect_incentives)
    from concurrent.futures import ProcessPoolExecutor

    chunks = [[blocks[i] for i in chunk] for chunk in np.array_split(np.arange(len(blocks)), workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_run_blocks, repeat(net), chunks, repeat(env), repeat(mode), repeat(collect_incentives),
                              [sum(b.n for b in chunk) for chunk in chunks], repeat(pop.seed)))
    merged = merge_logs(parts)
    merged.cohort_size = pop.size
    return merged


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

_IS_PART_TIME = state_flags({S.PART_TIME, S.RETIRED_PT})
# The ALLOWED_HOURS slot of each int8 hours value, and one more slot for any
# other value (a negative value indexes from the end, into that slot too).
_HOURS_SLOT = np.full(256, len(ALLOWED_HOURS), dtype=np.intp)
_HOURS_SLOT[list(ALLOWED_HOURS)] = np.arange(len(ALLOWED_HOURS))
# Agents per pass of ``_state_counts``: bounds its index array.
_COUNT_CHUNK = 4096


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
    emtr_histogram: np.ndarray            # counts in INCENTIVE_BINS
    ptr_histogram: np.ndarray
    emtr_underflow: int                   # samples below the first bin
    emtr_overflow: int                    # samples above the last bin
    ptr_underflow: int
    ptr_overflow: int
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
                             horizon: int) -> list[tuple[float, float]]:
    """(age at spell start, ER days used in spell) for every completed spell
    that starts before quarter ``horizon``, in agent then start order.

    A spell is consecutive quarters in any unemployment state; any other
    quarter, or the horizon, ends it.  The days used are the float32 difference of the ER day counts at
    the spell's last quarter and at the quarter before it (0 at the first
    quarter), floored at 0.
    """
    unemp = np.isin(states[:, :horizon], np.flatnonzero(IS_UNEMPLOYED))
    ongoing = np.zeros_like(unemp)   # unemployed the quarter before
    ongoing[:, 1:] = unemp[:, :-1]
    agent, start = (unemp & ~ongoing).nonzero()
    ongoing[:, :-1] = unemp[:, 1:]   # now: unemployed the quarter after
    ongoing[:, -1:] = False
    end = (unemp & ~ongoing).nonzero()[1]
    days0 = np.where(start > 0, er_days[agent, start - 1], np.float32(0.0))
    used = er_days[agent, end] - days0
    return list(zip((AGE_MIN + start * DT).tolist(), np.where(used > 0.0, used, np.float32(0.0)).tolist()))


def _duration_tables(log: SimulationLog) -> tuple[np.ndarray, np.ndarray]:
    """Spell counts by start-age band (the first band holding the start age;
    none for an age between bands) and ER-days bin, and their row shares."""
    spells = scan_unemployment_spells(log.states, log.er_days_used, DECISION_QUARTERS)
    age, used = np.array(spells, dtype=float).reshape(-1, 2).T
    band = np.full(age.shape, -1)
    for b, (lo, hi) in reversed(list(enumerate(DURATION_AGE_BANDS))):
        band[(lo <= age) & (age <= hi)] = b
    counted = band >= 0
    j = np.searchsorted(DURATION_BIN_EDGES, used[counted], side="right")
    counts = np.bincount(band[counted] * 5 + j, minlength=len(DURATION_AGE_BANDS) * 5).reshape(-1, 5).astype(float)
    shares = counts.copy()
    row_sums = shares.sum(axis=1, keepdims=True)
    np.divide(shares, row_sums, out=shares, where=row_sums > 0)
    return shares, counts


def _public_net(flows: dict[str, float]) -> float:
    """Taxes, contributions and VAT collected, less benefits paid, each sum
    added left to right (builtin ``sum`` compensates from Python 3.12)."""
    taxes = reduce(operator.add, (flows[name] for name in TAX_FIELDS), 0.0)
    contribs = reduce(operator.add, (flows[name] for name in CONTRIB_FIELDS), 0.0)
    benefits = reduce(operator.add, (flows[name] for name in BENEFIT_FIELDS), 0.0)
    return taxes + contribs + flows["employer_contrib"] + flows["vat"] - benefits


def _age_totals(by_age: dict) -> dict:
    """Each per-age array summed in age order from 0.0, one addition at a time
    (``np.sum`` adds pairwise and would change the last bits)."""
    return {k: reduce(operator.add, v, 0.0) for k, v in by_age.items()}


def _rate(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den``, NaN where ``den`` is 0."""
    return np.divide(num, den, out=np.full(num.shape, np.nan), where=den > 0)


def _state_counts(log: SimulationLog) -> np.ndarray:
    """Agent-quarters by gender (0, 1, then any other code), yearly age
    cell and state code, counted a chunk of agents at a time."""
    n_agents = log.states.shape[0]
    gender = np.where((log.gender == 0) | (log.gender == 1), log.gender, 2).astype(np.intp)
    cell = np.repeat(np.arange(N_AGES) * N_STATES, 4)
    counts = np.zeros(3 * N_AGES * N_STATES, dtype=np.int64)
    for lo in range(0, n_agents, _COUNT_CHUNK):
        rows = slice(lo, lo + _COUNT_CHUNK)
        key = (gender[rows, None] * (N_AGES * N_STATES) + cell) + log.states[rows]
        counts += np.bincount(key.ravel(), minlength=counts.size)
    return counts.reshape(3, N_AGES, N_STATES)


def _work_by_age(log: SimulationLog) -> tuple[dict[str, np.ndarray], dict[int, np.ndarray]]:
    """Full-time equivalents by FTE class and worked agent-years by hours
    choice, by age.  An FTE cell sums its working agent-quarters'
    ``hours / 40`` in agent then quarter order, one ``np.sum`` per age and
    class, and divides by 4."""
    n_agents = log.states.shape[0]
    # (age, agent, quarter of the year) views of the matrices.
    states = log.states.reshape(n_agents, N_AGES, 4).transpose(1, 0, 2)
    hours = log.hours.reshape(n_agents, N_AGES, 4).transpose(1, 0, 2)
    working = IS_WORKING[states]
    slots = len(ALLOWED_HOURS) + 1
    cell = np.repeat(np.arange(N_AGES) * slots, np.count_nonzero(working, axis=(1, 2)))
    worked = np.bincount(cell + _HOURS_SLOT[hours[working]], minlength=N_AGES * slots).reshape(N_AGES, slots)
    fte_by_age = {k: np.zeros(N_AGES) for k in FTE_CLASSES}
    for name, cells in (("total", working), ("part_time", working & (hours <= 24)),
                        ("full_time", working & (hours >= 32)), ("retired", working & IS_RETIRED[states])):
        values = hours[cells] / 40.0
        ends = np.cumsum(np.count_nonzero(cells, axis=(1, 2))).tolist()
        fte_by_age[name][:] = [values[lo:hi].sum() / 4.0 for lo, hi in zip([0] + ends, ends)]
    young = AGE_MIN + np.arange(N_AGES) <= 62
    fte_by_age["age_18_62"][young] = fte_by_age["total"][young]
    fte_by_age["age_63_plus"][~young] = fte_by_age["total"][~young]
    return fte_by_age, {h: worked[:, k] / 4.0 for k, h in enumerate(ALLOWED_HOURS)}


def _incentive_histograms(log: SimulationLog) -> dict:
    """The EMTR and PTR samples' counts in each of the ``INCENTIVE_BINS``
    (the last closed), and the counts below and above them."""
    out = {}
    for name, samples in (("emtr", log.emtr_samples), ("ptr", log.ptr_samples)):
        out[f"{name}_histogram"] = np.histogram(samples, bins=INCENTIVE_BINS)[0].astype(float)
        out[f"{name}_underflow"] = int(np.count_nonzero(samples < INCENTIVE_BINS[0]))
        out[f"{name}_overflow"] = int(np.count_nonzero(samples > INCENTIVE_BINS[-1]))
    return out


def aggregate(log: SimulationLog) -> AggregateReport:
    """The report of one cohort log.  Rates, shares and counts come from
    the agent-quarter counts by gender, age and state; the FTE sums and the
    hours from :func:`_work_by_age`.  A rate whose denominator is 0 is NaN;
    an age at which nobody lives has zero shares."""
    n_agents, total_q = log.states.shape
    if total_q != 4 * N_AGES:
        raise ContractViolation(f"a cohort log holds {4 * N_AGES} quarters, got {total_q}")
    if log.states.size and not 0 <= log.states.min() <= log.states.max() < N_STATES:
        raise ContractViolation("a cohort log holds employment state codes only")
    ages = np.arange(AGE_MIN, AGE_MAX)
    by_state = _state_counts(log)                 # (gender, age, state)
    everyone = by_state.sum(axis=0)               # (age, state)
    n_alive = 4 * n_agents - everyone[:, int(S.DEAD)]
    lived = n_alive > 0
    alive_share = n_alive / max(4 * n_agents, 1)
    # Shares among the living; the dead column, the last, carries the share
    # of all.
    occupancy = np.zeros((N_AGES, N_STATES))
    occupancy[lived, :int(S.DEAD)] = everyone[lived, :int(S.DEAD)] / n_alive[lived, None]
    occupancy[lived, int(S.DEAD)] = 1.0 - n_alive[lived] / (4 * n_agents)
    working, unemployed = everyone[:, IS_WORKING].sum(axis=1), everyone[:, IS_UNEMPLOYED].sum(axis=1)
    in_force = everyone[:, IS_WORKING | IS_UNEMPLOYED | IS_RETIRED].sum(axis=1)
    workforce_narrow = (working + unemployed) / np.maximum(n_alive, 1)   # 0 where nobody lives
    workforce_broad = in_force / np.maximum(n_alive, 1)

    # By gender: (2, age) counts, transposed to (age, gender).
    alive_g = by_state[:2, :, :int(S.DEAD)].sum(axis=2).T
    emp_g = by_state[:2][:, :, IS_WORKING].sum(axis=2).T
    un_g = by_state[:2][:, :, IS_UNEMPLOYED].sum(axis=2).T
    pt_g = by_state[:2][:, :, _IS_PART_TIME].sum(axis=2).T
    employment_rate = _rate(emp_g, alive_g)
    unemployment_rate = _rate(un_g, emp_g + un_g)
    parttime_share = _rate(pt_g, emp_g)
    disability_rate = _rate(by_state[:2, :, int(S.DISABLED)].T, alive_g)

    fte_by_age, hours_by_age = _work_by_age(log)

    flows = {name: float(v.sum()) for name, v in log.flows_by_age.items()}

    duration_shares, duration_counts = _duration_tables(log)

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
        **_incentive_histograms(log),
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
    cells = [r.cells() for r in reports]
    table = {k: np.array([c[k] for c in cells]) for k in cells[0]}
    mean = {k: nan_mean(v) for k, v in table.items()}
    sd = {k: nan_sd(v) if len(reports) > 1 else 0.0 for k, v in table.items()}
    return RepeatResult(mean_cells=mean, sd_cells=sd, reports=list(reports))


def repeat_protocol(
    make_refit,          # (repeat_index) -> PolicyValueNet
    make_population,     # (repeat_index) -> CohortPopulation
    env: LifecycleEnv,
    n_repeats: int,
    mode: str = "sample",
) -> RepeatResult:
    """Refit-then-simulate ``n_repeats`` times and summarize per cell."""
    if n_repeats < 1:
        raise ContractViolation("repeat protocol needs at least one repeat")
    reports = []
    for r in range(n_repeats):
        net = make_refit(r)
        pop = make_population(r)
        reports.append(aggregate(run_cohort(net, pop, env, mode=mode)))
    return summarize_reports(reports)
