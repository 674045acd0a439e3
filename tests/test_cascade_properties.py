"""Property tests of the cascade over balanced random accounts: incidence and
rates follow the activities when the manifest lists them in another order,
doubling every tax doubles every incidence cell exactly on both methods, as
rescaling every money table by a power of two rescales every incidence cell and
leaves the shares, the rates and the condition number bit for bit,
incidence is linear in the scenario scales, both methods conserve tax, the
closed form, the truncated stage loop and the plain-Python stage oracle
agree, the scaled input plus ``margin_adjustment.csv`` is the redistributed
input, a run's recorded totals are the Total row of its table, and accounts laid
out as the loader parses them give the bits of their saved bundle.  The rescaling
and the split of an activity in two also hold through ``compute`` on saved bundles."""

import json
import tempfile
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taxcascade.cli as cli
from taxcascade import (
    COMPONENT_ORDER,
    IOAccounts,
    TaxDestinationTable,
    apply_scenario,
    build_system,
    effective_rates,
    load_bundle,
    propagate_closed_form,
    propagate_truncated,
    redistribute_margins,
    save_bundle,
)
from taxcascade.reporting import result_record, write_margin_audit
from taxcascade.tables import incidence_cells

from oracles import make_activities, random_accounts, stagewise_final_incidence
from test_bundle_properties import bits
from test_margins import assert_margin_audit_is_exact


@st.composite
def economies(draw) -> IOAccounts:
    """Balanced accounts with subsidies, at least one margin activity and one
    goods activity, and one idle activity: it has zero supply, buys nothing
    and carries no tax.  Where two goods activities or more are drawn, some of
    them may form a near-closed block that sells a share U(0.99, 0.999) of its
    output inside itself and the rest to final demand, and buys only from
    itself: the stage series then runs thousands of stages, through the
    truncated loop's blocks."""
    n = draw(st.integers(3, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    idle = draw(st.integers(0, n - 1))
    others = [i for i in range(n) if i != idle]
    margins = rng.choice(others, size=draw(st.integers(1, len(others) - 1)), replace=False)

    flows = rng.uniform(1.0, 100.0, (n, n))
    finaldemand = rng.uniform(1.0, 100.0, (n, 6))
    dest = rng.uniform(-1.0, 5.0, (n, n + 6))
    flows[idle] = flows[:, idle] = finaldemand[idle] = dest[idle] = dest[:, idle] = 0.0
    goods = [i for i in others if i not in margins]
    if len(goods) > 1 and draw(st.booleans()):
        inside = np.zeros(n, dtype=bool)
        inside[rng.choice(goods, size=draw(st.integers(1, len(goods) - 1)), replace=False)] = True
        flows[np.ix_(inside, ~inside)] = flows[np.ix_(~inside, inside)] = 0.0
        share = rng.uniform(0.99, 0.999)
        flows[inside] *= (
            share / (1.0 - share) * finaldemand[inside].sum(axis=1) / flows[inside].sum(axis=1)
        )[:, None]
    marginshares = np.zeros(n)
    marginshares[margins] = rng.uniform(0.1, 1.0, margins.size)
    return IOAccounts(
        activities=make_activities(n),
        flows=flows,
        finaldemand=finaldemand,
        supply=flows.sum(axis=1) + finaldemand.sum(axis=1),
        taxdest=TaxDestinationTable(dest=dest, statutory=dest.sum(axis=1)),
        marginshares=marginshares,
    )


METHODS = (propagate_closed_form, partial(propagate_truncated, tol=1e-12, maxstages=100_000))


def coefficient_system(accounts: IOAccounts):
    adjusted, _ = redistribute_margins(accounts)
    return build_system(adjusted)


def cascade(accounts: IOAccounts):
    adjusted, _ = redistribute_margins(accounts)
    result = propagate_closed_form(build_system(adjusted))
    return result, effective_rates(result, adjusted.finaldemand, threshold=0.0)


@settings(max_examples=40, deadline=None)
@given(accounts=economies(), data=st.data())
def test_manifest_order_permutes_incidence_and_rates(accounts, data):
    perm = np.array(data.draw(st.permutations(range(accounts.n))))
    with tempfile.TemporaryDirectory() as directory:
        manifest = save_bundle(accounts, directory)
        spec = json.loads(manifest.read_text(encoding="utf-8"))
        spec["activities"] = [spec["activities"][i] for i in perm]
        manifest.write_text(json.dumps(spec), encoding="utf-8")
        shuffled = load_bundle(manifest)
    assert shuffled.codes == tuple(accounts.codes[i] for i in perm)

    result, report = cascade(accounts)
    result_p, report_p = cascade(shuffled)
    # pivoting and summation order move the last bits, nothing more
    final = result.final_incidence
    np.testing.assert_allclose(
        result_p.final_incidence, final[perm], rtol=0, atol=1e-12 * np.abs(final).max()
    )
    np.testing.assert_array_equal(report_p.masked, report.masked[perm])
    rows = [*perm, len(perm)]  # the Total row stays last
    rate_scale = np.nanmax(np.abs(report.rates))
    np.testing.assert_allclose(report_p.rates, report.rates[rows], rtol=0, atol=1e-12 * rate_scale)


@settings(max_examples=40, deadline=None)
@given(accounts=economies())
def test_doubling_every_tax_doubles_incidence_exactly(accounts):
    system = coefficient_system(accounts)
    doubled_system = coefficient_system(apply_scenario(accounts, np.full(accounts.n, 2.0)))
    for propagate in METHODS:
        result, doubled = propagate(system), propagate(doubled_system)
        assert doubled.stages == result.stages
        np.testing.assert_array_equal(doubled.final_incidence, 2.0 * result.final_incidence)


@settings(max_examples=40, deadline=None)
@given(accounts=economies())
def test_methods_and_stage_oracle_agree(accounts):
    system = coefficient_system(accounts)
    closed = propagate_closed_form(system)
    truncated = propagate_truncated(system, tol=1e-14, maxstages=100_000)
    oracle, _ = stagewise_final_incidence(
        system.intermediate_shares.tolist(),
        system.final_shares.tolist(),
        system.intermediate_tax.tolist(),
        first_final=system.final_tax.tolist(),
        stages=100_000,
        settle=1e-14 * float(np.abs(system.intermediate_tax).sum()),
    )
    assert truncated.converged
    assert closed.conserved and truncated.conserved
    final = closed.final_incidence
    atol = 1e-9 * np.abs(final).max()
    np.testing.assert_allclose(truncated.final_incidence, final, rtol=0, atol=atol)
    np.testing.assert_allclose(np.array(oracle), final, rtol=0, atol=atol)


@settings(max_examples=40, deadline=None)
@given(accounts=economies())
def test_both_methods_conserve_tax(accounts):
    system = coefficient_system(accounts)
    for propagate in METHODS:
        assert propagate(system).conserved


def rescaled(accounts: IOAccounts, factor: float) -> IOAccounts:
    """``accounts`` with every money table times ``factor``; margin shares are not money."""
    taxdest = accounts.taxdest
    return IOAccounts(
        activities=accounts.activities,
        flows=accounts.flows * factor,
        finaldemand=accounts.finaldemand * factor,
        supply=accounts.supply * factor,
        taxdest=TaxDestinationTable(
            dest=taxdest.dest * factor, statutory=taxdest.statutory * factor
        ),
        marginshares=accounts.marginshares,
    )


@settings(max_examples=60, deadline=None)
@given(accounts=economies(), k=st.integers(-20, 20))
def test_units_rescale_incidence_exactly_and_leave_shares_rates_and_condition(accounts, k):
    runs = []
    for source in (accounts, rescaled(accounts, 2.0**k)):
        adjusted, _ = redistribute_margins(source)
        system = build_system(adjusted)
        results = [propagate(system) for propagate in METHODS]
        rates = [effective_rates(result, adjusted.finaldemand, threshold=0.0) for result in results]
        runs.append((system, results, rates))
    (system, results, rates), (scaled_system, scaled_results, scaled_rates) = runs
    for name in ("intermediate_shares", "final_shares"):
        np.testing.assert_array_equal(
            bits(getattr(scaled_system, name)), bits(getattr(system, name)), name
        )
    assert scaled_results[0].condition == results[0].condition
    for result, scaled, report, scaled_report in zip(results, scaled_results, rates, scaled_rates):
        assert scaled.stages == result.stages
        np.testing.assert_array_equal(
            bits(scaled.final_incidence), bits(2.0**k * result.final_incidence)
        )
        np.testing.assert_array_equal(bits(scaled_report.rates), bits(report.rates))
        np.testing.assert_array_equal(scaled_report.masked, report.masked)


#: Eight scenario scales in [0, 3] in steps of 0.01; an economy uses its first n.
scales = st.lists(st.integers(0, 300).map(lambda k: k / 100), min_size=8, max_size=8)


@settings(max_examples=40, deadline=None)
@given(accounts=economies(), s1=scales, s2=scales)
def test_incidence_is_linear_in_the_scale_vector(accounts, s1, s2):
    s1, s2 = np.array(s1[: accounts.n]), np.array(s2[: accounts.n])
    systems = [coefficient_system(apply_scenario(accounts, s)) for s in (s1 + s2, s1, s2)]
    for propagate in METHODS:
        both, first, second = (propagate(system).final_incidence for system in systems)
        atol = 1e-9 * np.abs(both).max()
        np.testing.assert_allclose(first + second, both, rtol=0, atol=atol)


@settings(max_examples=40, deadline=None)
@given(accounts=economies(), scale=scales)
def test_margin_adjustment_is_exact_record(accounts, scale):
    scaled = apply_scenario(accounts, np.array(scale[: accounts.n]))
    _, adjustment = redistribute_margins(scaled)
    with tempfile.TemporaryDirectory() as directory:
        path = write_margin_audit(adjustment, Path(directory) / "margin_adjustment.csv")
        assert_margin_audit_is_exact(path, scaled)


@settings(max_examples=40, deadline=None)
@given(accounts=economies())
def test_recorded_totals_are_the_table_total_row(accounts):
    result, report = cascade(accounts)
    record = result_record(result, report, components=COMPONENT_ORDER)
    total_row = incidence_cells(record["final_incidence"], COMPONENT_ORDER)[-1]
    totals = record["totals"]
    assert [totals["by_component"][c.value] for c in COMPONENT_ORDER] == total_row[:-1]
    assert totals["final_incidence"] == total_row[-1]


def column_major(accounts: IOAccounts) -> IOAccounts:
    """``accounts`` with each table copied in the memory order ``load_bundle`` parses into."""
    dest, statutory = accounts.taxdest.dest, accounts.taxdest.statutory
    return IOAccounts(
        activities=accounts.activities,
        flows=np.asfortranarray(accounts.flows),
        finaldemand=np.asfortranarray(accounts.finaldemand),
        supply=accounts.supply.copy(),
        taxdest=TaxDestinationTable(dest=np.asfortranarray(dest), statutory=statutory.copy()),
        marginshares=accounts.marginshares.copy(),
    )


@pytest.mark.parametrize("propagate", METHODS, ids=["closed-form", "truncated"])
@pytest.mark.parametrize("seed", [1, 2, 5])
def test_saved_bundle_gives_the_bits_of_column_major_accounts(tmp_path, seed, propagate):
    """numpy rounds sums by memory order, so row-major accounts may differ from their
    saved bundle in the last digits; laid out as the loader parses, they do not."""
    accounts = column_major(random_accounts(np.random.default_rng(seed), 300, 5))
    runs = []
    for source in (accounts, load_bundle(save_bundle(accounts, tmp_path))):
        adjusted, adjustment = redistribute_margins(source)
        result = propagate(build_system(adjusted))
        runs.append({
            "supply_pool": adjustment.supply_pool,
            "tax_pool": adjustment.tax_pool,
            "weight_base": adjustment.weight_base,
            "moved": [adjustment.total_supply_moved, adjustment.total_tax_moved],
            "first_stage_final": result.first_stage_final,
            "subsequent_stage": result.subsequent_stage,
            "rates": effective_rates(result, adjusted.finaldemand, threshold=0.0).rates,
        })
    in_memory, saved = runs
    for name, values in in_memory.items():
        np.testing.assert_array_equal(
            np.asarray(values).view(np.int64), np.asarray(saved[name]).view(np.int64), name
        )


def split(accounts: IOAccounts, j: int, w: float) -> IOAccounts:
    """``accounts`` with activity ``j`` split in two of the same shares: ``j`` keeps
    ``w`` of each of its rows and columns (flows, final demand, supply and
    destinations) and a new last activity takes the rest, with ``j``'s margin share."""
    n = accounts.n
    expand = np.vstack([np.eye(n), np.eye(n)[j]])  # (n + 1, n): new rows from old
    expand[j, j], expand[n, j] = w, 1.0 - w
    dest = accounts.taxdest.dest
    dest = np.hstack([expand @ dest[:, :n] @ expand.T, expand @ dest[:, n:]])
    return IOAccounts(
        activities=make_activities(n + 1),
        flows=expand @ accounts.flows @ expand.T,
        finaldemand=expand @ accounts.finaldemand,
        supply=expand @ accounts.supply,
        taxdest=TaxDestinationTable(dest=dest, statutory=dest.sum(axis=1)),
        marginshares=np.append(accounts.marginshares, accounts.marginshares[j]),
    )


@settings(max_examples=40, deadline=None)
@given(accounts=economies(), data=st.data(), w=st.integers(1, 99).map(lambda k: k / 100))
def test_splitting_an_activity_in_two_of_its_shares_splits_its_incidence(accounts, data, w):
    j = data.draw(st.integers(0, accounts.n - 1))
    runs = []
    for source in (accounts, split(accounts, j, w)):
        adjusted, _ = redistribute_margins(source)
        system = build_system(adjusted)
        results = [propagate(system) for propagate in METHODS]
        runs.append(
            [(r, effective_rates(r, adjusted.finaldemand, threshold=0.0)) for r in results]
        )
    for (result, report), (halves, halves_report) in zip(*runs):
        final = result.final_incidence
        summed = halves.final_incidence[:-1].copy()
        summed[j] += halves.final_incidence[-1]
        np.testing.assert_allclose(summed, final, rtol=0, atol=1e-12 * np.abs(final).max())
        # each half carries j's rates; the Total row is the original's
        rows = [*range(accounts.n), j, accounts.n]
        np.testing.assert_allclose(halves_report.rates, report.rates[rows], rtol=1e-10, atol=0)


#: The command-line flags of each method.
CLI_METHODS = ((), ("--method", "truncated", "--tol", "1e-12", "--maxstages", "100000"))


def computed(accounts: IOAccounts, directory: Path) -> list[tuple[dict, dict]]:
    """``result.json`` and ``audit.json`` of ``compute`` on ``accounts`` saved as a
    bundle, every rate unmasked, by each of :data:`CLI_METHODS`; without a cache,
    so that every run solves and builds from its own bundle."""
    manifest = save_bundle(accounts, directory / "bundle")
    runs = []
    with mock.patch.object(cli, "cache_directory", lambda: None):
        for k, method in enumerate(CLI_METHODS):
            out = directory / f"out{k}"
            argv = ["compute", "--manifest", str(manifest), "--out", str(out), "--threshold", "0"]
            assert cli.main([*argv, *method]) == 0
            runs.append(tuple(
                json.loads((out / name).read_text(encoding="utf-8"))
                for name in ("result.json", "audit.json")
            ))
    return runs


INCIDENCE = ("first_stage_intermediate", "first_stage_final", "subsequent_stage", "final_incidence")


@settings(max_examples=8, deadline=None)
@given(accounts=economies())
def test_compute_on_saved_bundles_rescales_incidence_exactly_and_leaves_rates(accounts):
    with tempfile.TemporaryDirectory() as directory:
        runs = {k: computed(rescaled(accounts, 2.0**k), Path(directory, str(k))) for k in (0, -7, 5)}
    for k in (-7, 5):
        for (result, audit), (scaled, scaled_audit) in zip(runs[0], runs[k]):
            for key in INCIDENCE:
                assert np.array_equal(np.array(scaled[key]), 2.0**k * np.array(result[key])), key
            totals = result["totals"]
            assert scaled["totals"]["final_incidence"] == 2.0**k * totals["final_incidence"]
            assert scaled["effective_rates"] == result["effective_rates"]
            assert scaled_audit["solve"]["condition"] == audit["solve"]["condition"]
            assert scaled_audit["stages"] == audit["stages"]


@settings(max_examples=8, deadline=None)
@given(accounts=economies(), data=st.data(), w=st.integers(1, 99).map(lambda k: k / 100))
def test_compute_on_a_saved_bundle_with_an_activity_split_splits_its_incidence(accounts, data, w):
    j = data.draw(st.integers(0, accounts.n - 1))
    with tempfile.TemporaryDirectory() as directory:
        runs = [computed(source, Path(directory, name))
                for name, source in (("whole", accounts), ("split", split(accounts, j, w)))]
    for (result, _), (halves, _) in zip(*runs):
        final, split_final = np.array(result["final_incidence"]), np.array(halves["final_incidence"])
        summed = split_final[:-1].copy()
        summed[j] += split_final[-1]
        np.testing.assert_allclose(summed, final, rtol=0, atol=1e-12 * np.abs(final).max())
        # each half carries j's rates, masked (null) where j's are; the Total row is the original's
        rates, split_rates = (np.array(r["effective_rates"], dtype=float) for r in (result, halves))
        rows = [*range(accounts.n), j, accounts.n]
        np.testing.assert_allclose(split_rates, rates[rows], rtol=1e-10, atol=0)
