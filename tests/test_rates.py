import csv
import hashlib

import numpy as np
import numpy.testing as npt
import pytest

from taxcascade import (
    COMPONENT_ORDER,
    CoefficientSystem,
    IncidenceResult,
    build_system,
    component_shares,
    effective_rates,
    first_stage_intermediate_share,
    propagate_closed_form,
    redistribute_margins,
    single_rate_equivalent,
)
from taxcascade.accounts import file_digest
from taxcascade.engine import with_totals
from taxcascade.tables import MAX_LISTED_FAILURES
from taxcascade.reporting import (
    ND,
    _array_digest,
    format_number,
    write_final_incidence_table,
    write_first_stage_table,
    write_rates_table,
)
from taxcascade.tables import DEFAULT_REPORT_COMPONENTS, incidence_cells

from oracles import make_activities

HH = 2  # households column


def make_result(final_incidence, first_intermediate=None, subsequent=None):
    """An IncidenceResult with consistent first-stage pieces for rate tests."""
    fi = np.asarray(final_incidence, dtype=float)
    n = fi.shape[0]
    if subsequent is None:
        subsequent = np.zeros_like(fi)
    subsequent = np.asarray(subsequent, dtype=float)
    if first_intermediate is None:
        first_intermediate = subsequent.sum(axis=1)
    return IncidenceResult(
        activities=make_activities(n),
        first_stage_intermediate=np.asarray(first_intermediate, dtype=float),
        first_stage_final=fi - subsequent,
        subsequent_stage=subsequent,
        method="closed-form",
        stages=None,
        series_residual=0.0,
        converged=True,
    )


def test_rate_is_tax_exclusive():
    fi = np.zeros((1, 6))
    fi[0, HH] = 16.0
    expenditure = np.zeros((1, 6))
    expenditure[0, HH] = 100.0
    report = effective_rates(make_result(fi), expenditure, threshold=0.0)
    assert report.rates[0, HH] == pytest.approx(100.0 * 16.0 / 84.0)
    # an inclusive definition would have given 16.0
    assert report.rates[0, HH] > 16.0


def test_rate_round_trips_through_its_definition():
    rng = np.random.default_rng(1234)
    target = rng.uniform(0.5, 40.0, size=(5, 6))
    expenditure = rng.uniform(2000.0, 9000.0, size=(5, 6))
    incidence = expenditure * target / (100.0 + target)
    report = effective_rates(make_result(incidence), expenditure, threshold=0.0)
    npt.assert_allclose(report.rates[:-1, :6], target, rtol=1e-12)


def test_rate_increases_with_incidence():
    expenditure = np.full((1, 6), 5000.0)
    previous = -1.0
    for inc in (0.0, 10.0, 100.0, 1000.0, 4000.0):
        fi = np.zeros((1, 6))
        fi[0, HH] = inc
        report = effective_rates(make_result(fi), expenditure, threshold=0.0)
        assert report.rates[0, HH] > previous
        previous = report.rates[0, HH]


def test_zero_incidence_zero_rate():
    report = effective_rates(
        make_result(np.zeros((2, 6))), np.full((2, 6), 50.0), threshold=0.0
    )
    npt.assert_array_equal(report.rates[:-1, :6], np.zeros((2, 6)))
    assert not report.masked[:, :6].any()


def test_threshold_masks_small_expenditure():
    fi = np.zeros((2, 6))
    fi[:, HH] = 10.0
    expenditure = np.zeros((2, 6))
    expenditure[0, HH] = 1000.0  # at the threshold: masked
    expenditure[1, HH] = 1000.01  # just above: not masked
    report = effective_rates(make_result(fi), expenditure)
    assert report.masked[0, HH]
    assert np.isnan(report.rates[0, HH])
    assert not report.masked[1, HH]
    assert report.rates[1, HH] == pytest.approx(100.0 * 10.0 / 990.01)


def test_nonpositive_net_base_masked_with_diagnostic():
    fi = np.zeros((1, 6))
    fi[0, HH] = 2500.0
    expenditure = np.zeros((1, 6))
    expenditure[0, HH] = 2000.0
    report = effective_rates(make_result(fi), expenditure)
    assert report.masked[0, HH]
    assert any("s00" in d and "households" in d for d in report.diagnostics)


def test_cell_diagnostics_are_bounded():
    # 4 activities x (6 components + total): every cell's net base is negative
    report = effective_rates(make_result(np.full((4, 6), 2500.0)), np.full((4, 6), 2000.0))
    assert report.masked.all()
    cells = [d for d in report.diagnostics if d.endswith("rate masked as ND")]
    assert len(cells) == MAX_LISTED_FAILURES
    assert cells[0].startswith("s00 / ")
    assert report.diagnostics[MAX_LISTED_FAILURES:] == (
        f"... and {28 - MAX_LISTED_FAILURES} more cells masked as ND "
        "despite expenditure above the threshold",
    )


def test_zero_over_zero_is_masked_not_nan_noise():
    report = effective_rates(
        make_result(np.zeros((1, 6))), np.zeros((1, 6)), threshold=0.0
    )
    assert report.masked.all()
    # below-threshold masking is routine and carries no cell diagnostics
    assert not any("masked as ND" in d for d in report.diagnostics)


def test_masking_never_feeds_back_into_totals():
    fi = np.zeros((2, 6))
    fi[:, HH] = [10.0, 40.0]
    expenditure = np.zeros((2, 6))
    expenditure[:, HH] = [500.0, 8000.0]  # first row masked by threshold
    report = effective_rates(make_result(fi), expenditure)
    assert report.masked[0, HH]
    # totals still include the masked row's incidence and expenditure
    expected = 100.0 * 50.0 / (8500.0 - 50.0)
    assert report.rates[-1, HH] == pytest.approx(expected)


def test_rates_are_one_table_with_the_total_row():
    fi = np.zeros((3, 6))
    fi[:, HH] = [10.0, 40.0, 0.0]
    expenditure = np.zeros((3, 6))
    expenditure[:, HH] = [500.0, 8000.0, 4000.0]
    report = effective_rates(make_result(fi), expenditure)
    assert report.rates.shape == (4, 7)
    npt.assert_array_equal(report.masked, np.isnan(report.rates[:-1]))
    assert report.masked.sum() == 3 * 7 - 4  # households and total of rows 1 and 2 only
    with pytest.raises(AttributeError):
        report.masked = np.zeros((3, 7), dtype=bool)


def test_threshold_changes_masks_not_values():
    rng = np.random.default_rng(5)
    fi = rng.uniform(0.0, 50.0, (4, 6))
    expenditure = rng.uniform(200.0, 5000.0, (4, 6))
    loose = effective_rates(make_result(fi), expenditure, threshold=0.0)
    strict = effective_rates(make_result(fi), expenditure, threshold=2000.0)
    both = ~loose.masked & ~strict.masked
    npt.assert_array_equal(loose.rates[:-1][both], strict.rates[:-1][both])
    assert strict.masked.sum() > loose.masked.sum()


def test_total_column_is_all_six_components():
    fi = np.zeros((1, 6))
    fi[0, :] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    expenditure = np.full((1, 6), 4000.0)
    report = effective_rates(make_result(fi), expenditure, threshold=0.0)
    assert report.rates[0, 6] == pytest.approx(100.0 * 21.0 / (24000.0 - 21.0))


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
def test_threshold_must_be_finite(threshold):
    with pytest.raises(ValueError, match=f"threshold must be finite, got {threshold}"):
        effective_rates(make_result(np.ones((1, 6))), np.full((1, 6), 4000.0), threshold=threshold)


def test_brazil_grand_total_is_one_double(brazil_accounts):
    # the result, the final-incidence table and the Total-row rate read one sum
    adjusted, _ = redistribute_margins(brazil_accounts)
    result = propagate_closed_form(build_system(adjusted))
    report = effective_rates(result, adjusted.finaldemand)
    total = result.grand_total
    assert incidence_cells(result.final_incidence.tolist(), DEFAULT_REPORT_COMPONENTS)[-1][-1] == total
    spent = with_totals(adjusted.finaldemand)[-1, -1]
    assert report.rates[-1, 6] == 100.0 * total / (spent - total)


def test_expenditure_shape_checked():
    with pytest.raises(ValueError, match="expenditure"):
        effective_rates(make_result(np.zeros((2, 6))), np.zeros((3, 6)))


def test_component_shares_sum_to_100():
    fi = np.zeros((2, 6))
    fi[0] = [5.0, 1.0, 30.0, 0.0, 4.0, 0.0]
    fi[1] = [2.0, 3.0, 50.0, 1.0, 4.0, 0.0]
    shares = component_shares(make_result(fi))
    assert shares.sum() == pytest.approx(100.0)
    assert shares[HH] == pytest.approx(100.0 * 80.0 / 100.0)


def test_component_shares_zero_grand_raises():
    with pytest.raises(ValueError, match="zero"):
        component_shares(make_result(np.zeros((1, 6))))
    report = effective_rates(
        make_result(np.zeros((1, 6))), np.full((1, 6), 10.0), threshold=0.0
    )
    assert np.isnan(report.component_shares).all()
    assert any("shares undefined" in d for d in report.diagnostics)


def test_first_stage_intermediate_share():
    final_tax = np.zeros((2, 6))
    final_tax[:, HH] = [2.0, 4.0]
    system = CoefficientSystem(
        activities=make_activities(2),
        intermediate_shares=np.zeros((2, 2)),
        final_shares=np.zeros((2, 6)),
        intermediate_tax=np.array([3.0, 1.0]),
        final_tax=final_tax,
    )
    assert first_stage_intermediate_share(system) == pytest.approx(40.0)

    empty = CoefficientSystem(
        activities=make_activities(2),
        intermediate_shares=np.zeros((2, 2)),
        final_shares=np.zeros((2, 6)),
        intermediate_tax=np.zeros(2),
        final_tax=np.zeros((2, 6)),
    )
    with pytest.raises(ValueError, match="zero"):
        first_stage_intermediate_share(empty)


def test_single_rate_equivalent():
    fi = np.zeros((2, 6))
    fi[0, HH] = 40.0
    fi[1, HH] = 20.0
    fi[0, 0] = 40.0  # exports incidence counts in the numerator too
    expenditure = np.zeros((2, 6))
    expenditure[:, HH] = [300.0, 200.0]
    rate = single_rate_equivalent(make_result(fi), expenditure)
    assert rate == pytest.approx(100.0 * 100.0 / (500.0 - 60.0))

    with pytest.raises(ValueError, match="positive"):
        single_rate_equivalent(make_result(fi), np.zeros((2, 6)))


def test_format_number_grouping_styles():
    assert format_number(59917.0) == "59917"
    assert format_number(1234567.891, 2) == "1234567.89"
    assert format_number(7.04, 1) == "7.0"
    assert format_number(-1234.5, 1) == "-1234.5"
    assert format_number(0.0, 1) == "0.0"


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_rates_table_rendering(tmp_path):
    fi = np.zeros((2, 6))
    fi[:, HH] = [10.0, 40.0]
    expenditure = np.zeros((2, 6))
    expenditure[:, HH] = [500.0, 8000.0]
    report = effective_rates(make_result(fi), expenditure)
    path = write_rates_table(report, tmp_path / "rates.csv")
    rows = read_csv(path)
    assert rows[0] == ["code", "label", "exports", "government", "households", "gfcf", "total"]
    assert rows[1][4] == ND  # masked by threshold
    assert rows[2][4] == format_number(100.0 * 40.0 / 7960.0, 1)
    assert rows[3][0] == "Total"
    assert len(rows) == 4


def test_final_incidence_table_total_includes_hidden_columns(tmp_path):
    fi = np.zeros((1, 6))
    fi[0] = [1.0, 2.0, 3.0, 7.0, 4.0, 5.0]  # isflsf and inventory are hidden
    path = write_final_incidence_table(make_result(fi), tmp_path / "fi.csv")
    rows = read_csv(path)
    assert rows[0][-1] == "total"
    assert rows[1][2:] == ["1.00", "2.00", "3.00", "4.00", "22.00"]
    assert rows[2] == ["Total", "", "1.00", "2.00", "3.00", "4.00", "22.00"]


def test_first_stage_table_layout(tmp_path):
    fi = np.zeros((2, 6))
    fi[0, HH] = 6.0
    fi[1, 0] = 2.0
    result = make_result(fi, first_intermediate=[3.0, 1.0])
    path = write_first_stage_table(result, tmp_path / "fs.csv")
    rows = read_csv(path)
    assert rows[0][:4] == ["code", "label", "statutory", "intermediate"]
    assert rows[1][2] == "9.00"  # 3 intermediate + 6 households
    assert rows[1][3] == "3.00"
    assert rows[3][0] == "Total"
    assert rows[3][2] == "12.00"


def test_tables_can_render_all_components(tmp_path):
    fi = np.ones((1, 6))
    path = write_final_incidence_table(
        make_result(fi), tmp_path / "all.csv", components=COMPONENT_ORDER
    )
    rows = read_csv(path)
    assert rows[0][2:] == [*COMPONENT_ORDER, "total"]


@pytest.mark.parametrize("shape", [(0,), (5,), (0, 3), (3, 0), (3, 150), (150, 3)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_array_digest_is_of_the_c_order_bytes(shape, order):
    # hashed a block of rows at a time, a column-major table is never copied whole
    a = np.asarray(np.random.default_rng(2).normal(size=shape), order=order)
    for array in (a, a[::2]):
        expected = hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()
        assert _array_digest(array) == expected


def test_file_digest_streams_blocks(tmp_path):
    # more than one block of 1 MiB
    path = tmp_path / "table.csv"
    path.write_bytes(bytes(range(256)) * 10_000)
    assert file_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()
