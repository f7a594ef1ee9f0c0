"""Parameter calibration: fit free-time penalties and job-search frictions
so simulated aggregates match target statistics.

The loss is a weighted sum of squared relative errors over named report
cells.  The search is coordinate descent with accept-if-improved moves; the
evaluation callable is injected so candidates can share common random
numbers, which keeps the stochastic loss comparable across moves.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .errors import ConfigError, ContractViolation
from .simulate import AggregateReport


@dataclass(frozen=True)
class TargetCell:
    value: float
    weight: float = 1.0


@dataclass(frozen=True)
class CalibrationTargets:
    cells: dict[str, TargetCell]

    def __post_init__(self) -> None:
        for name, cell in self.cells.items():
            if not (math.isfinite(cell.value) and 0 <= cell.weight < math.inf):
                raise ContractViolation(f"target {name!r} needs a finite value and a finite non-negative weight")


def load_targets(path: str | Path) -> CalibrationTargets:
    """CSV with columns cell,value and an optional weight (1 without the
    column).  A missing file or column, a value or weight that is not a
    number and a repeated cell are config errors naming ``path``."""
    try:
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
    except OSError as exc:
        raise ConfigError(f"cannot read calibration targets {path}: {exc.strerror}") from None
    cells = {}
    for line, row in enumerate(rows, start=2):
        name = row.get("cell")
        if name is None or "value" not in row:
            raise ConfigError(f"calibration targets {path} need the columns cell and value")
        if name in cells:
            raise ConfigError(f"calibration targets {path} line {line}: cell {name!r} is repeated")
        try:
            cells[name] = TargetCell(value=float(row["value"]), weight=float(row.get("weight", 1.0)))
        except (TypeError, ValueError):
            raise ConfigError(f"calibration targets {path} line {line}: the value and weight of {name!r} "
                              f"must be numbers") from None
    if not cells:
        raise ConfigError(f"no calibration targets found in {path}")
    return CalibrationTargets(cells)


def loss(report: AggregateReport, targets: CalibrationTargets) -> float:
    """Weighted sum of squared relative errors; zero iff weighted cells match."""
    cells = report.cells()
    total = 0.0
    for name, target in targets.cells.items():
        if name not in cells:
            raise ConfigError(f"target cell {name!r} not present in the report")
        if target.weight == 0.0:
            continue
        denom = abs(target.value) if target.value != 0 else 1.0
        rel = (cells[name] - target.value) / denom
        total += target.weight * rel * rel
    return total


@dataclass
class TraceEntry:
    iteration: int
    parameter: str
    candidate: float
    loss: float
    accepted: bool


@dataclass
class CalibrationResult:
    params: dict[str, float]
    loss: float
    trace: list[TraceEntry] = field(default_factory=list)


def calibrate(
    evaluate: Callable[[dict[str, float]], AggregateReport],
    initial: dict[str, float],
    targets: CalibrationTargets,
    budget: int,
    step_sizes: dict[str, float] | None = None,
) -> CalibrationResult:
    """Coordinate descent over parameter blocks with accept-if-improved moves.

    One outer iteration proposes +/- step moves on every parameter in turn;
    a move is kept only if the evaluated loss decreases.  A parameter's step
    halves when neither direction improves.  ``evaluate`` must be deterministic for
    a given parameter dict (common random numbers), which the callers arrange
    by fixing seeds inside the closure.
    """
    if budget < 1:
        raise ContractViolation("calibration budget must be at least 1")
    steps = {k: (step_sizes or {}).get(k, max(abs(v) * 0.1, 0.01)) for k, v in initial.items()}
    best = dict(initial)
    best_loss = loss(evaluate(best), targets)
    trace: list[TraceEntry] = [TraceEntry(0, "<initial>", float("nan"), best_loss, True)]

    for outer in range(1, budget + 1):
        improved_any = False
        for name in sorted(best):
            for direction in (+1.0, -1.0):
                candidate = dict(best)
                candidate[name] = best[name] + direction * steps[name]
                cand_loss = loss(evaluate(candidate), targets)
                accepted = cand_loss < best_loss
                trace.append(TraceEntry(outer, name, candidate[name], cand_loss, accepted))
                if accepted:
                    best, best_loss = candidate, cand_loss
                    improved_any = True
                    break
            else:
                steps[name] *= 0.5
        if not improved_any and all(s < 1e-9 for s in steps.values()):
            break
    return CalibrationResult(params=best, loss=best_loss, trace=trace)
