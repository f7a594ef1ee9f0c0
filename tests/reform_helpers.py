"""Reform and significance arithmetic that only the tests call: undoing a
reform from its audit log, the minimal significant difference of two arms,
and the paired one-sided t-test on paired-seed repeats."""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from lifesim.errors import ReformError
from lifesim.reform import AuditEntry, _set_path
from lifesim.rules import RuleSet


def revert_reform(reformed: RuleSet, audit: list[AuditEntry]) -> RuleSet:
    rules = reformed
    for entry in reversed(audit):
        rules = _set_path(rules, entry.path, entry.old)
    return rules


def minimal_significant_difference(sd_a: float, sd_b: float, n: int,
                                   confidence: float = 0.99) -> float:
    """Smallest mean difference significant at ``confidence`` (one-sided z)
    for two arms of ``n`` repeats with the given per-arm dispersions."""
    if n < 2:
        raise ReformError("significance needs at least two repeats per arm")
    z = NormalDist().inv_cdf(confidence)
    return z * float(np.sqrt((sd_a ** 2 + sd_b ** 2) / n))


def paired_one_sided_pvalue(diffs: np.ndarray, alternative: str = "less") -> float:
    """Paired t-test p-value on per-pair differences.

    ``alternative='less'`` tests mean(diff) < 0, ``'greater'`` the opposite.
    Used by the directional checks on paired-seed repeats.
    """
    diffs = np.asarray(diffs, dtype=float)
    n = diffs.size
    if n < 2:
        raise ReformError("paired test needs at least two pairs")
    mean = diffs.mean()
    se = diffs.std(ddof=1) / np.sqrt(n)
    if se == 0:
        hit = mean < 0 if alternative == "less" else mean > 0
        return 0.0 if hit else 1.0
    t = mean / se
    if alternative == "less":
        return _t_sf(-t, n - 1)
    if alternative == "greater":
        return _t_sf(t, n - 1)
    raise ReformError(f"unknown alternative {alternative!r}")


def _t_sf(t: float, df: int) -> float:
    """Survival function of Student's t with integer ``df``, in closed form.

    ``(1 - A) / 2``, where ``A = P(|T| <= t)`` is the finite series of
    Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4 (even df) in
    ``theta = atan(t / sqrt(df))``; ``A`` is odd in ``t``, so any sign works.
    """
    theta = math.atan(t / math.sqrt(df))
    sin, cos = math.sin(theta), math.cos(theta)
    series = 0.0
    if df % 2:
        term = cos  # terms cos^1 .. cos^(df-2)
        for k in range(1, (df - 1) // 2 + 1):
            series += term
            term *= cos * cos * (2 * k) / (2 * k + 1)
        a = 2.0 / math.pi * (theta + sin * series)
    else:
        term = 1.0  # terms cos^0 .. cos^(df-2)
        for k in range(1, df // 2 + 1):
            series += term
            term *= cos * cos * (2 * k - 1) / (2 * k)
        a = sin * series
    return 0.5 * (1.0 - a)
