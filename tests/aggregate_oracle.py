"""Cohort aggregation and the unemployment-spell scan as they stood before
they were written on whole matrices, kept verbatim as a test oracle:
``aggregate`` with its per-age loop, ``scan_unemployment_spells`` with its
loop over agents and quarters, and ``_duration_tables``.

The tests assert that ``lifesim.simulate.aggregate`` and
``scan_unemployment_spells`` give the same bits as these functions on
seeded cohorts and on hand-built logs.  Do not edit the functions below;
they pin today's behaviour.  The state code arrays they read are copied
from the simulator, which now reads the flag tables of ``lifesim.states``.
"""

from __future__ import annotations

import numpy as np

from lifesim.agent import DECISION_END_AGE, DT
from lifesim.simulate import (
    AGE_MAX,
    AGE_MIN,
    DURATION_AGE_BANDS,
    DURATION_BIN_EDGES,
    FTE_CLASSES,
    N_AGES,
    AggregateReport,
    SimulationLog,
    _age_totals,
    _public_net,
)
from lifesim.states import ALLOWED_HOURS, UNEMPLOYMENT_STATES, WORKING_STATES, EmploymentState as S

WORKING_CODES = np.array([int(s) for s in WORKING_STATES])
UNEMP_CODES = np.array([int(s) for s in UNEMPLOYMENT_STATES])
RETIRED_CODES = np.array([int(S.RETIRED), int(S.RETIRED_PT), int(S.RETIRED_FT)])


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
        emtr_underflow=sum(1 for x in log.emtr_samples.tolist() if x < 0.0),
        emtr_overflow=sum(1 for x in log.emtr_samples.tolist() if x > 1.5),
        ptr_underflow=sum(1 for x in log.ptr_samples.tolist() if x < 0.0),
        ptr_overflow=sum(1 for x in log.ptr_samples.tolist() if x > 1.5),
        emtr_median=float(np.median(log.emtr_samples)) if log.emtr_samples.size else float("nan"),
        ptr_median=float(np.median(log.ptr_samples)) if log.ptr_samples.size else float("nan"),
    )
