import csv
import tracemalloc
from dataclasses import fields
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import taxcascade.margins as margins
from taxcascade import (
    COMPONENT_ORDER,
    IOAccounts,
    MarginError,
    TaxDestinationTable,
    load_bundle,
    redistribute_margins,
    save_bundle,
    validate,
)
from taxcascade.reporting import write_margin_audit

from oracles import dense_redistribute_margins, make_activities, random_accounts


def rebuilt_deltas(accounts, record):
    """The (n, n+6) supply and tax deltas that the README's rule rebuilds from the
    input ``accounts`` and a margin ``record``: {destination column: (supply pool,
    tax pool, weight base)}, whose unlisted columns have zero pools.  Weights
    come from the supply rows; margin rows lose their margin share of each cell."""
    mu = accounts.marginshares
    margin = mu > 0
    supply_rows = np.hstack([accounts.flows, accounts.finaldemand])
    pools = np.zeros((2, supply_rows.shape[1]))
    weights = np.zeros_like(supply_rows)
    for d, (supply, tax, base) in record.items():
        pools[:, d] = supply, tax
        weights[~margin, d] = supply_rows[~margin, d] / base
    deltas = []
    for rows, pool in ((supply_rows, pools[0]), (accounts.taxdest.dest, pools[1])):
        removed = np.zeros_like(rows)
        removed[margin] = mu[margin, None] * rows[margin]
        deltas.append(weights * pool - removed)
    return deltas


def adjustment_record(adjustment):
    """The record of a :class:`MarginAdjustment`: its columns with a nonzero pool."""
    return {
        d: (adjustment.supply_pool[d], adjustment.tax_pool[d], adjustment.weight_base[d])
        for d in np.flatnonzero((adjustment.supply_pool != 0) | (adjustment.tax_pool != 0))
    }


def read_margin_audit(path, codes):
    """The record that ``margin_adjustment.csv`` at ``path`` holds, for activities ``codes``."""
    columns = {label: j for j, label in enumerate((*codes, *(c.value for c in COMPONENT_ORDER)))}
    record = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["destination", "supply_pool", "tax_pool", "weight_base"]
        for destination, supply, tax, base in reader:
            assert columns[destination] not in record, destination
            record[columns[destination]] = float(supply), float(tax), float(base)
    return record


def assert_margin_audit_is_exact(path, accounts):
    """``accounts``' [flows | finaldemand] and destination rows, rebuilt with the
    record in the ``margin_adjustment.csv`` at ``path``, are the redistributed
    rows, bit for bit."""
    adjusted, _ = redistribute_margins(accounts)
    supply_delta, tax_delta = rebuilt_deltas(accounts, read_margin_audit(path, accounts.codes))
    for rows, delta, want in (
        (np.hstack([accounts.flows, accounts.finaldemand]), supply_delta,
         np.hstack([adjusted.flows, adjusted.finaldemand])),
        (accounts.taxdest.dest, tax_delta, adjusted.taxdest.dest),
    ):
        npt.assert_array_equal((rows + delta).view(np.int64), want.view(np.int64))


def test_no_margins_is_identity(accounts_factory, tmp_path):
    accounts = accounts_factory(
        flows=[[1.0, 2.0], [0.5, 0.0]], finaldemand=np.ones((2, 6))
    )
    adjusted, adjustment = redistribute_margins(accounts)
    assert adjusted is accounts
    assert adjustment.total_supply_moved == 0.0
    assert adjustment.total_tax_moved == 0.0
    for pool in (adjustment.supply_pool, adjustment.tax_pool, adjustment.weight_base):
        npt.assert_array_equal(pool, np.zeros(8))
    # no column is listed: the file is its header alone
    path = write_margin_audit(adjustment, tmp_path / "margin_adjustment.csv")
    assert path.read_text(encoding="utf-8") == "destination,supply_pool,tax_pool,weight_base\n"


def test_full_margin_hand_example(accounts_factory):
    # Two goods activities and one pure margin activity selling only to
    # households.  Goods household sales are 30 and 10, so the margin's 10
    # must land 7.5 / 2.5.
    fd = np.zeros((3, 6))
    fd[0, 2] = 30.0
    fd[1, 2] = 10.0
    fd[2, 2] = 10.0
    dest = np.zeros((3, 9))
    dest[2, 2 + 3] = 4.0  # margin tax destined to households
    accounts = accounts_factory(
        flows=np.zeros((3, 3)),
        finaldemand=fd,
        dest=dest,
        marginshares=[0.0, 0.0, 1.0],
    )
    adjusted, adjustment = redistribute_margins(accounts)
    npt.assert_allclose(adjusted.finaldemand[:, 2], [37.5, 12.5, 0.0])
    npt.assert_allclose(adjusted.supply, [37.5, 12.5, 0.0])
    npt.assert_allclose(adjusted.taxdest.final[:, 2], [3.0, 1.0, 0.0])
    npt.assert_allclose(adjusted.taxdest.statutory, [3.0, 1.0, 0.0])
    assert adjustment.total_supply_moved == pytest.approx(10.0)
    assert adjustment.total_tax_moved == pytest.approx(4.0)
    # one column is listed: households, with the goods' 40 of supply as weight base
    assert adjustment_record(adjustment) == {3 + 2: (10.0, 4.0, 40.0)}
    supply_delta, tax_delta = rebuilt_deltas(accounts, adjustment_record(adjustment))
    npt.assert_array_equal(supply_delta[:, 3 + 2], [7.5, 2.5, -10.0])
    npt.assert_array_equal(tax_delta[:, 3 + 2], [3.0, 1.0, -4.0])


def test_partial_margin_share(demo_manifest):
    accounts = load_bundle(demo_manifest)
    adjusted, adjustment = redistribute_margins(accounts)
    # trade keeps a fifth of its output
    assert adjusted.supply[2] == pytest.approx(0.2 * 50.0, rel=1e-12)
    # households pool is 0.8 * 38; farm and mill split it 20:120
    delta, _ = rebuilt_deltas(accounts, adjustment_record(adjustment))
    assert delta[0, 3 + 2] == pytest.approx(30.4 * 20.0 / 140.0, rel=1e-12)
    assert delta[1, 3 + 2] == pytest.approx(30.4 * 120.0 / 140.0, rel=1e-12)
    assert delta[2, 3 + 2] == pytest.approx(-30.4, rel=1e-12)
    # trade's household tax of 4 moves 0.8 * 4 by the same weights
    assert adjusted.taxdest.final[0, 2] == pytest.approx(
        2.0 + 3.2 * 20.0 / 140.0, rel=1e-12
    )
    assert adjusted.taxdest.final[1, 2] == pytest.approx(
        24.0 + 3.2 * 120.0 / 140.0, rel=1e-12
    )
    npt.assert_array_equal(adjusted.marginshares, np.zeros(3))
    assert validate(adjusted).ok


def test_margin_rows_only_lose_goods_rows_only_gain(demo_manifest):
    accounts = load_bundle(demo_manifest)
    _, adjustment = redistribute_margins(accounts)
    supply_delta, tax_delta = rebuilt_deltas(accounts, adjustment_record(adjustment))
    mu = accounts.marginshares
    margin = mu > 0
    # margin rows lose exactly their margin fraction and receive nothing
    supply_rows = np.hstack([accounts.flows, accounts.finaldemand])
    npt.assert_array_equal(supply_delta[margin], -(mu[margin, None] * supply_rows[margin]))
    npt.assert_array_equal(
        tax_delta[margin], -(mu[margin, None] * accounts.taxdest.dest[margin])
    )
    # goods rows only receive (the demo's supply and taxes are nonnegative)
    assert np.all(supply_delta[~margin] >= 0)
    assert np.all(tax_delta[~margin] >= 0)
    assert supply_delta[~margin].any()
    assert tax_delta[~margin].any()


def test_column_totals_conserved_randomly():
    rng = np.random.default_rng(20150515)
    for trial in range(20):
        n = int(rng.integers(4, 9))
        margins = int(rng.integers(1, min(3, n - 1) + 1))
        accounts = random_accounts(rng, n=n, margins=margins)
        adjusted, adjustment = redistribute_margins(accounts)

        before = np.hstack([accounts.flows, accounts.finaldemand])
        after = np.hstack([adjusted.flows, adjusted.finaldemand])
        npt.assert_allclose(after.sum(axis=0), before.sum(axis=0), rtol=1e-12)
        npt.assert_allclose(
            adjusted.taxdest.dest.sum(axis=0),
            accounts.taxdest.dest.sum(axis=0),
            rtol=1e-12,
        )
        assert adjusted.taxdest.statutory.sum() == pytest.approx(
            accounts.taxdest.statutory.sum(), rel=1e-12
        )
        assert adjusted.supply.sum() == pytest.approx(
            accounts.supply.sum(), rel=1e-9
        )
        # each column's gain on goods rows matches its loss on margin rows
        margin = accounts.marginshares > 0
        for delta in rebuilt_deltas(accounts, adjustment_record(adjustment)):
            npt.assert_allclose(
                delta[~margin].sum(axis=0), -delta[margin].sum(axis=0), rtol=1e-12
            )
        assert validate(adjusted).ok


def test_adjusted_rows_equal_original_plus_delta():
    rng = np.random.default_rng(7)
    accounts = random_accounts(rng, n=5, margins=2)
    adjusted, adjustment = redistribute_margins(accounts)
    supply_delta, tax_delta = rebuilt_deltas(accounts, adjustment_record(adjustment))
    before = np.hstack([accounts.flows, accounts.finaldemand])
    after = np.hstack([adjusted.flows, adjusted.finaldemand])
    npt.assert_array_equal(after.view(np.int64), (before + supply_delta).view(np.int64))
    npt.assert_array_equal(
        adjusted.taxdest.dest.view(np.int64), (accounts.taxdest.dest + tax_delta).view(np.int64)
    )


def test_brazil_margin_audit_is_exact(brazil_accounts, tmp_path):
    _, adjustment = redistribute_margins(brazil_accounts)
    path = write_margin_audit(adjustment, tmp_path / "margin_adjustment.csv")
    assert_margin_audit_is_exact(path, brazil_accounts)


def test_tax_only_destination_is_listed_and_exact(accounts_factory, tmp_path):
    # the margin activity sells nothing to government but its tax lands there,
    # so the government column is listed with a zero supply pool
    fd = np.zeros((3, 6))
    fd[:, 2] = [30.0, 10.0, 10.0]
    fd[:2, 1] = [6.0, 2.0]
    dest = np.zeros((3, 9))
    dest[2, 3 + 1] = 4.0  # margin tax destined to government
    accounts = accounts_factory(
        flows=np.zeros((3, 3)), finaldemand=fd, dest=dest, marginshares=[0.0, 0.0, 0.5]
    )
    _, adjustment = redistribute_margins(accounts)
    path = write_margin_audit(adjustment, tmp_path / "margin_adjustment.csv")
    assert path.read_text(encoding="utf-8").splitlines() == [
        "destination,supply_pool,tax_pool,weight_base",
        "government,0.0,2.0,8.0",
        "households,5.0,0.0,40.0",
    ]
    assert_margin_audit_is_exact(path, accounts)


def test_margin_record_holds_one_entry_per_destination(brazil_accounts):
    _, adjustment = redistribute_margins(brazil_accounts)
    n = brazil_accounts.n
    arrays = [
        getattr(adjustment, f.name)
        for f in fields(adjustment)
        if isinstance(getattr(adjustment, f.name), np.ndarray)
    ]
    assert len(arrays) == 3
    assert all(a.size <= n + 6 for a in arrays)


def test_double_application_is_identity(demo_manifest):
    adjusted, _ = redistribute_margins(load_bundle(demo_manifest))
    again, adjustment = redistribute_margins(adjusted)
    assert again is adjusted
    assert adjustment.total_supply_moved == 0.0


def test_margin_on_zero_supply_rejected(accounts_factory):
    accounts = accounts_factory(
        flows=np.zeros((2, 2)),
        finaldemand=[[0.0] * 6, [5.0, 0, 0, 0, 0, 0]],
        marginshares=[1.0, 0.0],
    )
    with pytest.raises(MarginError, match="zero-supply.*s00"):
        redistribute_margins(accounts)


def test_unservable_destination_rejected(accounts_factory):
    # the margin activity sells to itself; no goods activity serves that
    # column, so there is nowhere to put the removed supply
    flows = [[0.0, 0.0], [1.0, 4.0]]
    fd = np.zeros((2, 6))
    fd[0, 2] = 10.0
    fd[1, 2] = 5.0
    accounts = accounts_factory(flows=flows, finaldemand=fd, marginshares=[0.0, 0.5])
    with pytest.raises(MarginError, match="s01"):
        redistribute_margins(accounts)


def test_tax_only_destination_also_needs_weights(accounts_factory):
    # no margin supply goes to government, but margin tax does; government
    # has no goods supply either, so redistribution must refuse
    fd = np.zeros((2, 6))
    fd[0, 2] = 10.0
    fd[1, 2] = 5.0
    dest = np.zeros((2, 8))
    dest[1, 2 + 1] = 2.0  # margin tax destined to government
    accounts = accounts_factory(
        flows=np.zeros((2, 2)), finaldemand=fd, dest=dest, marginshares=[0.0, 0.5]
    )
    with pytest.raises(MarginError, match="government"):
        redistribute_margins(accounts)


def test_weights_come_from_supply_not_tax(accounts_factory):
    # two goods rows with equal supply into households but very different
    # tax rows: the moved tax must follow supply weights, not tax weights
    fd = np.zeros((3, 6))
    fd[0, 2] = 10.0
    fd[1, 2] = 10.0
    fd[2, 2] = 8.0
    dest = np.zeros((3, 9))
    dest[0, 3 + 2] = 100.0
    dest[2, 3 + 2] = 6.0
    accounts = accounts_factory(
        flows=np.zeros((3, 3)), finaldemand=fd, dest=dest, marginshares=[0, 0, 1.0]
    )
    adjusted, _ = redistribute_margins(accounts)
    npt.assert_allclose(adjusted.taxdest.final[:2, 2], [103.0, 3.0])


# Signed zeros often, so that margin and goods rows both hold -0.0 cells.
MARGIN_CELLS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3))


@st.composite
def margin_bundles(draw) -> IOAccounts:
    """Accounts with margin rows anywhere (first, last, not contiguous) and each
    table in C or Fortran order on its own."""
    n = draw(st.integers(2, 24))

    def table(width):
        cells = draw(arrays(np.float64, (n, width), elements=MARGIN_CELLS))
        return np.asfortranarray(cells) if draw(st.booleans()) else cells

    flows, finaldemand, dest = table(n), table(6), table(n + 6)
    supply = flows.sum(axis=1) + finaldemand.sum(axis=1)
    # a margin activity without supply is refused before any margin moves
    margin = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n))) & (supply != 0)
    assume(margin.any())
    shares = draw(arrays(np.float64, n, elements=st.floats(0.05, 1.0)))
    return IOAccounts(
        activities=make_activities(n),
        flows=flows,
        finaldemand=finaldemand,
        supply=supply,
        taxdest=TaxDestinationTable(dest=dest, statutory=dest.sum(axis=1)),
        marginshares=np.where(margin, shares, 0.0),
    )


def margin_outcome(step, accounts):
    """The bits and memory order of every array and total ``step`` returns, or its error."""
    try:
        adjusted, record = step(accounts)
    except MarginError as exc:
        return str(exc)
    arrays_out = {
        "flows": adjusted.flows,
        "finaldemand": adjusted.finaldemand,
        "supply": adjusted.supply,
        "dest": adjusted.taxdest.dest,
        "statutory": adjusted.taxdest.statutory,
        "supply_pool": record.supply_pool,
        "tax_pool": record.tax_pool,
        "weight_base": record.weight_base,
        "totals": np.array([record.total_supply_moved, record.total_tax_moved]),
    }
    return {
        name: (values.view(np.int64).tolist(), values.flags.c_contiguous, values.flags.f_contiguous)
        for name, values in arrays_out.items()
    }


@pytest.mark.parametrize("block", [1, 3, 5, margins.MARGIN_BLOCK])
@settings(max_examples=150, deadline=None)
@given(accounts=margin_bundles())
def test_blocked_margin_step_matches_dense_bit_for_bit(block, accounts):
    # n + 6 is 8 to 30 columns, so blocks of 3 and 5 often leave a partial last one;
    # 8 or more goods rows make a pairwise column sum round differently
    with mock.patch.object(margins, "MARGIN_BLOCK", block):
        blocked = margin_outcome(redistribute_margins, accounts)
    assert blocked == margin_outcome(dense_redistribute_margins, accounts)


def test_margin_step_holds_at_most_three_tables_above_its_input(tmp_path):
    # Column-major tables, as load_bundle gives them.  The two adjusted tables
    # are two of the three; numpy's ufunc buffers (a fixed 64 KB or so each) and
    # the block scratch share the third, and the dense step held seven.
    n = 400
    accounts = load_bundle(save_bundle(random_accounts(np.random.default_rng(5), n, 5), tmp_path))
    table = n * (n + 6) * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        redistribute_margins(accounts)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 3 * table, f"{peak / table:.2f} tables"
