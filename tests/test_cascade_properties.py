"""Property tests of the cascade over balanced random accounts: incidence and
rates follow the activities when the manifest lists them in another order,
doubling every tax doubles every incidence cell exactly on both methods,
incidence is linear in the scenario scales, both methods conserve tax, the
closed form, the truncated stage loop and the plain-Python stage oracle
agree, the scaled input plus ``margin_adjustment.csv`` is the redistributed
input, and a run's recorded totals are the Total row of its table."""

import json
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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

from oracles import make_activities, stagewise_final_incidence
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
    np.testing.assert_array_equal(report_p.total_masked, report.total_masked)
    rate_scale = np.nanmax(np.abs(report.rates))
    np.testing.assert_allclose(report_p.rates, report.rates[perm], rtol=0, atol=1e-12 * rate_scale)
    np.testing.assert_allclose(
        report_p.total_rates, report.total_rates, rtol=0, atol=1e-12 * rate_scale
    )


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
