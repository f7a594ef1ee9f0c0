import math

import numpy as np
import pytest

from lifesim.errors import ReformError
from lifesim.paramfiles import params_dir
from lifesim.reform import (
    ReformDelta,
    ReformSpec,
    apply_reform,
    compare_cell_lists,
    load_reform,
)
from lifesim.rules import unemployment_benefit
from reform_helpers import minimal_significant_difference, paired_one_sided_pvalue, revert_reform


@pytest.fixture(scope="module")
def orpo():
    return load_reform(params_dir() / "reforms" / "orpo.yaml")


def test_empty_spec_is_identity(rules2023):
    reformed, audit = apply_reform(rules2023, ReformSpec(name="noop", deltas=()))
    assert reformed == rules2023
    assert audit == []


def test_grading_delta_changes_benefit_multipliers(rules2023, orpo):
    reformed, _ = apply_reform(rules2023, orpo)
    basis = 3500.0
    md = reformed.unemployment.er.max_days_default
    initial = unemployment_benefit(basis, 0, True, reformed, md)
    assert unemployment_benefit(basis, 100, True, reformed, md) / initial == pytest.approx(0.80)
    assert unemployment_benefit(basis, 200, True, reformed, md) / initial == pytest.approx(0.75)
    # Baseline has no grading.
    md = rules2023.unemployment.er.max_days_default
    base_initial = unemployment_benefit(basis, 0, True, rules2023, md)
    assert unemployment_benefit(basis, 100, True, rules2023, md) == base_initial


def test_employment_condition_delta(rules2023, orpo):
    reformed, _ = apply_reform(rules2023, orpo)
    assert rules2023.unemployment.er.condition_months == 6
    assert reformed.unemployment.er.condition_months == 12


def test_extended_er_removed_and_disregards_zeroed(rules2023, orpo):
    reformed, _ = apply_reform(rules2023, orpo)
    assert reformed.unemployment.er.extended_min_age is None
    assert reformed.housing_benefit.general.earnings_disregard == 0.0
    assert reformed.housing_benefit.general.compensation_share == pytest.approx(0.70)
    assert reformed.family.child_benefit_monthly == pytest.approx(
        rules2023.family.child_benefit_monthly + 10.0
    )


def test_income_tax_shift_scales_bounds(rules2023, orpo):
    reformed, _ = apply_reform(rules2023, orpo)
    base_bounds = [lo for lo, _ in rules2023.tax.state_brackets]
    new_bounds = [lo for lo, _ in reformed.tax.state_brackets]
    for b, nb in zip(base_bounds[1:], new_bounds[1:]):
        assert nb == pytest.approx(b * 1.02)


def test_apply_then_revert_restores_exactly(rules2023, orpo):
    reformed, audit = apply_reform(rules2023, orpo)
    assert reformed != rules2023
    restored = revert_reform(reformed, audit)
    assert restored == rules2023


def test_untouched_fields_identical(rules2023, orpo):
    reformed, _ = apply_reform(rules2023, orpo)
    assert reformed.pension == rules2023.pension
    assert reformed.contributions.employee is rules2023.contributions.employee


def test_unknown_kind_rejected(rules2023):
    spec = ReformSpec(name="bad", deltas=(ReformDelta(kind="flat_tax_utopia"),))
    with pytest.raises(ReformError, match="flat_tax_utopia"):
        apply_reform(rules2023, spec)


@pytest.mark.parametrize("path", sorted((params_dir() / "reforms").glob("*.yaml")), ids=lambda p: p.name)
def test_packaged_overlays_load_and_apply_strictly(path, rules2023):
    reformed, audit = apply_reform(rules2023, load_reform(path))
    assert audit and reformed != rules2023


@pytest.mark.parametrize("delta, message", [
    (ReformDelta("income_tax_shift", {"bracket_scal": 1.5}), "'income_tax_shift' has unknown key 'bracket_scal'"),
    (ReformDelta("remove_extended_er", {"age": 63}), "'remove_extended_er' has unknown key 'age'"),
    (ReformDelta("employment_condition_months"), "'employment_condition_months' is missing key 'months'"),
    (ReformDelta("child_benefit_change", {"delta": 5.0}), "'child_benefit_change' has unknown key 'delta'"),
    (ReformDelta("employment_condition_months", {"months": "twelve"}),
     "'employment_condition_months' has a malformed value"),
    (ReformDelta("ub_grading", {"schedule": [40, 0.8]}), "'ub_grading' has a malformed value"),
    (ReformDelta("employment_condition_months", {"months": 12.7}),
     "'employment_condition_months' has a malformed value for key 'months'"),
    (ReformDelta("employment_condition_months", {"months": True}),
     "'employment_condition_months' has a malformed value for key 'months'"),
    (ReformDelta("ub_grading", {"schedule": [[40.9, 0.8]]}),
     "'ub_grading' has a malformed value for key 'schedule'"),
    (ReformDelta("income_tax_shift", {"bracket_scale": True}),
     "'income_tax_shift' has a malformed value for key 'bracket_scale'"),
    (ReformDelta("income_tax_shift", {"bracket_scale": "1.5"}),
     "'income_tax_shift' has a malformed value for key 'bracket_scale'"),
    (ReformDelta("child_benefit_change", {"delta_monthly": "10"}),
     "'child_benefit_change' has a malformed value for key 'delta_monthly'"),
])
def test_malformed_delta_payload_rejected(rules2023, delta, message):
    with pytest.raises(ReformError, match=message):
        apply_reform(rules2023, ReformSpec(name="bad", deltas=(delta,)))


@pytest.mark.parametrize("text", [None, "deltas: [\n", "- just\n- a list\n", "name: x\n",
                                  "deltas: [income_tax_shift]\n"],
                         ids=["missing", "not-yaml", "not-a-mapping", "no-deltas", "delta-not-a-mapping"])
def test_malformed_overlay_file_raises_reform_error(tmp_path, text):
    path = tmp_path / "overlay.yaml"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ReformError):
        load_reform(path)


def test_reserved_kind_rejected_by_name(rules2023):
    spec = ReformSpec(name="reserved", deltas=(ReformDelta(kind="index_freeze"),))
    with pytest.raises(ReformError, match="reserved"):
        apply_reform(rules2023, spec)


# ---------------------------------------------------------------------------
# significance machinery
# ---------------------------------------------------------------------------

def test_minimal_significant_difference_reproduces_reference():
    msd = minimal_significant_difference(4998.0, 4082.0, 50)
    assert msd == pytest.approx(2123.0, rel=0.05)
    assert msd == pytest.approx(2123.05, abs=0.5)


def test_identical_reports_no_significance():
    cells = [{"fte_total": 100.0, "flow_vat": 5.0} for _ in range(4)]
    report = compare_cell_lists(cells, [dict(c) for c in cells])
    for row in report.rows:
        assert row.difference == 0.0
        assert not row.significant


def test_shifted_mean_detected_at_analytic_threshold():
    rng = np.random.default_rng(0)
    n, sd = 50, 1.0
    threshold = minimal_significant_difference(sd, sd, n)
    base = [{"x": float(v)} for v in rng.normal(0.0, sd, n)]
    shifted = [{"x": float(v)} for v in rng.normal(2.5 * threshold, sd, n)]
    same = [{"x": float(v)} for v in rng.normal(0.0, sd, n)]
    assert compare_cell_lists(base, shifted).row("x").significant
    assert not compare_cell_lists(base, same).row("x").significant


def test_threshold_column_matches_msd_formula():
    rng = np.random.default_rng(1)
    a = [{"x": float(v)} for v in rng.normal(0, 3.0, 50)]
    b = [{"x": float(v)} for v in rng.normal(0, 4.0, 50)]
    report = compare_cell_lists(a, b)
    row = report.row("x")
    sd_a = np.std([c["x"] for c in a], ddof=1)
    sd_b = np.std([c["x"] for c in b], ddof=1)
    assert row.threshold == pytest.approx(minimal_significant_difference(sd_b, sd_a, 50))


def test_mismatched_shapes_rejected():
    with pytest.raises(ReformError, match="mismatched"):
        compare_cell_lists([{"a": 1.0}, {"a": 2.0}], [{"b": 1.0}, {"b": 2.0}])


def test_paired_pvalue_directions():
    down = np.array([-2.0, -1.5, -2.2, -1.8, -2.1])
    assert paired_one_sided_pvalue(down, "less") < 0.01
    assert paired_one_sided_pvalue(down, "greater") > 0.95
    assert paired_one_sided_pvalue(-down, "greater") < 0.01


@pytest.mark.parametrize("diffs", [[1.0, 3.0], [-0.4, 0.1], [1.0, 2.0, 3.0], [-1.0, 0.5, -2.5]])
def test_paired_pvalue_matches_closed_form(diffs):
    d = np.array(diffs)
    t = d.mean() / (d.std(ddof=1) / math.sqrt(d.size))
    if d.size == 2:   # df = 1: Cauchy
        expected = 0.5 - math.atan(t) / math.pi
    else:             # df = 2
        expected = 0.5 * (1.0 - t / math.sqrt(t * t + 2.0))
    assert paired_one_sided_pvalue(d, "greater") == pytest.approx(expected, rel=1e-12)
    assert paired_one_sided_pvalue(d, "less") == pytest.approx(1.0 - expected, rel=1e-12)
