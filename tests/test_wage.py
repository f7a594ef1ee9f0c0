import math

import numpy as np
import pytest

from lifesim.errors import ContractViolation
from lifesim.paramfiles import params_dir
from lifesim.states import EmploymentState as S
from lifesim.wage import load_wage_params, paid_wage, update_wage_reduction
from one_household import potential_wage_step


@pytest.fixture(scope="module")
def wp():
    return load_wage_params(params_dir() / "wages.yaml")


def test_on_profile_zero_shock(wp):
    a40 = wp.mean_wage("men", 1, 40.0)
    a41 = wp.mean_wage("men", 1, 41.0)
    w = potential_wage_step(a40, 40.0, 41.0, "men", 1, wp, shock=0.0, dt=1.0)
    assert w == pytest.approx(a41 * math.exp(-0.5 * wp.shock_sd**2))


def test_zero_sigma_geometric_decay(wp):
    import dataclasses

    det = dataclasses.replace(wp, shock_sd=0.0)
    w = det.mean_wage("women", 2, 30.0) * math.exp(0.4)  # start 40 log points above profile
    x = 0.4
    for k in range(8):
        w = potential_wage_step(w, 30.0 + k, 31.0 + k, "women", 2, det, shock=0.0, dt=1.0)
        x *= det.autocorr
        assert math.log(w / det.mean_wage("women", 2, 31.0 + k)) == pytest.approx(x, rel=1e-9)


def test_autocorrelation_and_mean_annual_path(wp):
    rng = np.random.default_rng(7)
    n = 100_000
    age = 40.0  # flat profile point, age held fixed to isolate the process
    w = wp.mean_wage("men", 1, age)
    xs = np.empty(n)
    for i in range(n):
        w = potential_wage_step(w, age, age, "men", 1, wp, shock=rng.standard_normal(), dt=1.0)
        xs[i] = math.log(w / wp.mean_wage("men", 1, age))
    x = xs - xs.mean()
    lag1 = float(np.dot(x[1:], x[:-1]) / np.dot(x, x))
    assert lag1 == pytest.approx(wp.autocorr, abs=0.02)
    assert float(np.exp(xs).mean()) == pytest.approx(1.0, abs=0.02)


def test_quarterly_scaling_preserves_annual_autocorr(wp):
    rng = np.random.default_rng(11)
    n = 80_000
    age = 45.0
    w = wp.mean_wage("women", 0, age)
    xs = np.empty(n)
    for i in range(n):
        w = potential_wage_step(w, age, age, "women", 0, wp, shock=rng.standard_normal(), dt=0.25)
        xs[i] = math.log(w / wp.mean_wage("women", 0, age))
    x = xs - xs.mean()
    lag4 = float(np.dot(x[4:], x[:-4]) / np.dot(x, x))
    assert lag4 == pytest.approx(wp.autocorr, abs=0.03)


def test_paid_wage_identity_and_arithmetic():
    assert paid_wage(30000.0, 40, 0.0) == 30000.0
    assert paid_wage(30000.0, 8, 0.1) == pytest.approx(5400.0)
    assert paid_wage(30000.0, 48, 0.0) == pytest.approx(1.2 * 30000.0)


def test_paid_wage_rejects_bad_hours():
    with pytest.raises(ContractViolation):
        paid_wage(30000.0, 37, 0.0)


def test_reduction_full_time_floor(wp):
    assert update_wage_reduction(0.0, S.FULL_TIME, wp) == 0.0


def test_reduction_er_unemployed_one_year(wp):
    r = 0.0
    for _ in range(4):
        r = update_wage_reduction(r, S.ER_UNEMPLOYED, wp)
    assert r == pytest.approx(0.045)


def test_reduction_sick_leave_one_year(wp):
    r = 0.0
    for _ in range(4):
        r = update_wage_reduction(r, S.SICK_LEAVE, wp)
    assert r == pytest.approx(0.25)


def test_reduction_clamped(wp):
    r = 0.99
    for _ in range(40):
        r = update_wage_reduction(r, S.SICK_LEAVE, wp)
    assert r == 1.0
    r = 0.01
    for _ in range(40):
        r = update_wage_reduction(r, S.FULL_TIME, wp)
    assert r == 0.0


def test_career_gap_ordering(wp):
    # Same shocks, one history has four unemployment quarters: its paid wage
    # can never exceed the uninterrupted one.
    rng = np.random.default_rng(3)
    shocks = rng.standard_normal(40)
    def run(gap_quarters):
        w = wp.mean_wage("men", 2, 18.0)
        red = 0.0
        age = 18.0
        for q, s in enumerate(shocks):
            state = S.ER_UNEMPLOYED if q in gap_quarters else S.FULL_TIME
            w = potential_wage_step(w, age, age + 0.25, "men", 2, wp, shock=s, dt=0.25)
            red = update_wage_reduction(red, state, wp)
            age += 0.25
        return paid_wage(w, 40, red)

    assert run(gap_quarters={8, 9, 10, 11}) <= run(gap_quarters=set())
