import dataclasses

import pytest

from lifesim.calibrate import (
    CalibrationTargets,
    TargetCell,
    calibrate,
    load_targets,
    loss,
)
from lifesim.errors import ConfigError, ContractViolation


class FakeReport:
    def __init__(self, **cells):
        self._cells = cells

    def cells(self):
        return dict(self._cells)


def test_loss_zero_on_match():
    targets = CalibrationTargets({"employment_rate_18_62": TargetCell(0.75, 1.0)})
    assert loss(FakeReport(employment_rate_18_62=0.75), targets) == 0.0


def test_loss_ten_percent_off_is_point_oh_one():
    targets = CalibrationTargets({"x": TargetCell(1.0, 1.0)})
    assert loss(FakeReport(x=1.1), targets) == pytest.approx(0.01)


def test_zero_weight_cells_ignored():
    targets = CalibrationTargets({"x": TargetCell(1.0, 1.0), "y": TargetCell(5.0, 0.0)})
    a = loss(FakeReport(x=1.2, y=100.0), targets)
    b = loss(FakeReport(x=1.2, y=-3.0), targets)
    assert a == b


def test_missing_cell_rejected():
    targets = CalibrationTargets({"nope": TargetCell(1.0)})
    with pytest.raises(ConfigError):
        loss(FakeReport(x=1.0), targets)


def test_negative_weight_rejected():
    with pytest.raises(ContractViolation):
        CalibrationTargets({"x": TargetCell(1.0, -1.0)})


@pytest.mark.parametrize("value, weight", [(float("nan"), 1.0), (float("inf"), 1.0), (1.0, float("nan")),
                                           (1.0, float("inf"))])
def test_non_finite_target_rejected(value, weight):
    """A NaN or infinite target would make every loss NaN, and the search
    would then accept no move."""
    with pytest.raises(ContractViolation):
        CalibrationTargets({"x": TargetCell(value, weight)})


def test_budget_one_no_improvement_returns_initial():
    targets = CalibrationTargets({"x": TargetCell(0.5, 1.0)})

    def evaluate(params):
        return FakeReport(x=0.5)   # already perfect regardless of params

    res = calibrate(evaluate, {"kappa": -0.7}, targets, budget=1)
    assert res.params == {"kappa": -0.7}
    assert res.loss == 0.0


def test_monotone_model_recovers_target():
    # The report cell equals the parameter itself: the calibrator should
    # drive it to the target within 0.01.
    targets = CalibrationTargets({"x": TargetCell(0.62, 1.0)})

    def evaluate(params):
        return FakeReport(x=params["kappa"])

    res = calibrate(evaluate, {"kappa": 0.0}, targets, budget=60,
                    step_sizes={"kappa": 0.25})
    assert res.params["kappa"] == pytest.approx(0.62, abs=0.01)


def test_two_parameter_recovery():
    targets = CalibrationTargets({
        "emp": TargetCell(0.74, 1.0),
        "unemp": TargetCell(0.07, 2.0),
    })

    def evaluate(params):
        emp = 0.9 + 0.2 * params["kappa_ft"]          # increasing in kappa
        unemp = 0.02 + 0.1 * params["friction"]
        return FakeReport(emp=emp, unemp=unemp)

    res = calibrate(evaluate, {"kappa_ft": -0.3, "friction": 0.9}, targets, budget=80)
    assert res.loss < 1e-4


def test_accepted_losses_non_increasing():
    targets = CalibrationTargets({"x": TargetCell(1.0, 1.0)})

    def evaluate(params):
        return FakeReport(x=params["a"] + 0.3 * params["b"])

    res = calibrate(evaluate, {"a": 3.0, "b": -2.0}, targets, budget=40)
    accepted = [t.loss for t in res.trace if t.accepted]
    assert all(b <= a + 1e-15 for a, b in zip(accepted, accepted[1:]))


def test_calibration_deterministic():
    targets = CalibrationTargets({"x": TargetCell(0.4, 1.0)})

    def evaluate(params):
        return FakeReport(x=params["k"] ** 2)

    r1 = calibrate(evaluate, {"k": 1.0}, targets, budget=30)
    r2 = calibrate(evaluate, {"k": 1.0}, targets, budget=30)
    assert r1.params == r2.params and r1.loss == r2.loss
    assert len(r1.trace) == len(r2.trace)


def test_load_targets_csv(tmp_path):
    p = tmp_path / "targets.csv"
    p.write_text("cell,value,weight\nemployment_rate_18_62,0.74,1.0\nfte_total,2.1e6,0.5\n")
    t = load_targets(p)
    assert t.cells["employment_rate_18_62"].value == 0.74
    assert t.cells["fte_total"].weight == 0.5


@pytest.mark.parametrize("text, message", [
    (None, "cannot read"),
    ("name,value\nx,0.5\n", "columns cell and value"),
    ("cell,weight\nx,1.0\n", "columns cell and value"),
    ("cell,value,weight\nx,high,1.0\n", "line 2"),
    ("cell,value,weight\nx,0.5,1.0\ny,0.5,heavy\n", "line 3"),
    ("cell,value,weight\nx,0.5,1.0\ny,0.5\n", "line 3"),
    ("cell,value\nx,0.5\nx,0.6\n", "'x' is repeated"),
])
def test_malformed_targets_are_config_errors_naming_the_file(tmp_path, text, message):
    p = tmp_path / "targets.csv"
    if text is not None:
        p.write_text(text)
    with pytest.raises(ConfigError, match=message) as exc:
        load_targets(p)
    assert str(p) in str(exc.value)
