"""End-to-end acceptance checks against frozen published aggregates.

Each test prints one verdict line (run pytest with -s to see them).  The
criteria pin the conservation identity at full national scale, the fixture
transcriptions, the published shares and effective rates, cross-method and
brute-force equivalence of the propagation routes, margin conservation, and
a hand-solved reference system.
"""

import itertools
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from taxcascade import (
    COMPONENT_ORDER,
    CoefficientSystem,
    build_system,
    component_shares,
    effective_rates,
    first_stage_intermediate_share,
    load_bundle,
    propagate_closed_form,
    propagate_truncated,
    redistribute_margins,
    single_rate_equivalent,
)

import brazil2015
from oracles import (
    make_activities,
    random_accounts,
    random_system,
    stagewise_final_incidence,
)
from test_rates import make_result

IBGE_ENV = "TAXCASCADE_IBGE_BUNDLE"


@contextmanager
def verdict(number, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_1_conservation_at_national_scale(brazil_manifest):
    with verdict(1, "conservation at national scale"):
        start = time.perf_counter()
        accounts = load_bundle(brazil_manifest)
        adjusted, _ = redistribute_margins(accounts)
        system = build_system(adjusted)
        result = propagate_closed_form(system)
        elapsed = time.perf_counter() - start

        assert accounts.n == 67
        dest = accounts.taxdest
        assert dest.statutory.sum() == pytest.approx(840_186.0, abs=1e-4)
        assert dest.intermediate.sum() == pytest.approx(363_735.0, abs=1e-4)
        assert dest.final.sum() == pytest.approx(476_451.0, abs=1e-4)

        assert abs(result.grand_total - 840_186.0) <= 1e-9 * 840_186.0
        assert result.conserved
        assert elapsed < 1.0, f"pipeline took {elapsed:.3f}s"


def test_2_fixture_transcription_sums():
    with verdict(2, "final-incidence fixture column sums"):
        codes, _, inc4, totals = brazil2015.load_final_incidence()
        assert len(codes) == 67
        assert len(set(codes)) == 67
        printed = brazil2015.FINAL_INCIDENCE_TOTALS
        for j in range(4):
            assert abs(inc4[:, j].sum() - printed[j]) <= 50.0, printed[j]
        assert abs(totals.sum() - printed[4]) <= 50.0


def test_3_component_and_intermediate_shares():
    with verdict(3, "published component shares"):
        printed = brazil2015.FINAL_INCIDENCE_TOTALS
        incidence = np.zeros((1, 6))
        for j, comp in enumerate(brazil2015.FOUR_COMPONENTS):
            incidence[0, COMPONENT_ORDER.index(comp)] = printed[j]
        # the published grand total exceeds the four shown columns by the
        # incidence of the two columns the table omits; shares are quoted
        # against the grand total, so carry that remainder explicitly
        incidence[0, COMPONENT_ORDER.index("isflsf")] = printed[4] - sum(printed[:4])
        shares = component_shares(make_result(incidence))
        expected = {"exports": 6.7, "government": 3.2, "households": 76.0, "gfcf": 13.9}
        for comp in brazil2015.FOUR_COMPONENTS:
            assert abs(shares[COMPONENT_ORDER.index(comp)] - expected[comp]) <= 0.05, comp

        final_tax = np.zeros((1, 6))
        totals = brazil2015.FIRST_STAGE_TOTALS
        for comp in brazil2015.FOUR_COMPONENTS:
            final_tax[0, COMPONENT_ORDER.index(comp)] = totals[comp]
        system = CoefficientSystem(
            activities=make_activities(1),
            intermediate_shares=np.zeros((1, 1)),
            final_shares=np.zeros((1, 6)),
            intermediate_tax=np.array([totals["intermediate"]]),
            final_tax=final_tax,
        )
        share = first_stage_intermediate_share(system)
        assert abs(share - brazil2015.INTERMEDIATE_SHARE_PCT) <= 0.05


def published_rate_inputs():
    """Incidence from the transcribed fixture plus the expenditure base the
    published total rates imply: each component column's expenditure is
    incidence * (100 + rate) / rate, spread over activities in proportion to
    their incidence, and the overall rate fixes the remaining expenditure of
    the two unpublished components."""
    _, _, inc4, _ = brazil2015.load_final_incidence()
    n = inc4.shape[0]
    incidence = np.zeros((n, 6))
    expenditure = np.zeros((n, 6))
    printed = brazil2015.FINAL_INCIDENCE_TOTALS
    rates = brazil2015.TOTAL_EFFECTIVE_RATES
    column_spend = []
    for j, comp in enumerate(brazil2015.FOUR_COMPONENTS):
        incidence[:, COMPONENT_ORDER.index(comp)] = inc4[:, j]
        spend = printed[j] * (100.0 + rates[j]) / rates[j]
        column_spend.append(spend)
        expenditure[:, COMPONENT_ORDER.index(comp)] = spend * inc4[:, j] / inc4[:, j].sum()
    total_spend = printed[4] * (100.0 + rates[4]) / rates[4]
    rest = total_spend - sum(column_spend)
    assert rest > 0
    expenditure[0, COMPONENT_ORDER.index("isflsf")] = rest
    return make_result(incidence), expenditure


def test_4_published_total_effective_rates():
    with verdict(4, "published total effective rates"):
        result, expenditure = published_rate_inputs()
        report = effective_rates(result, expenditure)
        rates = brazil2015.TOTAL_EFFECTIVE_RATES
        for j, comp in enumerate(brazil2015.FOUR_COMPONENTS):
            assert abs(report.rates[-1, COMPONENT_ORDER.index(comp)] - rates[j]) <= 0.05, comp
        assert abs(report.rates[-1, 6] - rates[4]) <= 0.05


def test_5_single_rate_equivalent():
    with verdict(5, "single-rate household equivalent"):
        result, expenditure = published_rate_inputs()
        rate = single_rate_equivalent(result, expenditure)
        assert 24.5 <= rate <= 25.5, rate


def test_6_method_equivalence_random_systems():
    with verdict(6, "closed form vs truncated on random systems"):
        rng = np.random.default_rng(20210831)
        warmup = random_system(rng, n=10)  # untimed: a first call's one-time set-up
        propagate_closed_form(warmup)
        propagate_truncated(warmup, tol=1e-12, maxstages=10000)
        for trial in range(100):
            system = random_system(rng, n=10)
            closed, closed_s = best_of_three(propagate_closed_form, system)
            truncated, truncated_s = best_of_three(
                propagate_truncated, system, tol=1e-12, maxstages=10000
            )
            bound = 1e-9 * (1.0 + np.abs(closed.final_incidence))
            assert np.all(
                np.abs(closed.final_incidence - truncated.final_incidence) <= bound
            ), trial
            assert truncated.converged
            assert closed_s < 0.010, f"closed form took {closed_s:.4f}s"
            assert truncated_s < 0.010, f"truncated took {truncated_s:.4f}s"


def best_of_three(solve, *args, **kwargs):
    """The result of ``solve(*args, **kwargs)`` and its fastest wall time over three
    calls: one slow sample from a busy machine does not fail the bound, a solve
    that is slow on every call does."""
    seconds = []
    for _ in range(3):
        t0 = time.perf_counter()
        result = solve(*args, **kwargs)
        seconds.append(time.perf_counter() - t0)
    return result, min(seconds)


def test_7_brute_force_oracle_enumeration():
    with verdict(7, "stage-loop oracle over enumerable systems"):
        levels = (0.0, 0.25, 0.5)
        rows = [r for r in itertools.product(levels, repeat=3) if sum(r) <= 0.75]
        assert len(rows) == 17
        start_mass = [1.0, 2.0, 4.0]
        worst = 0.0
        count = 0
        for chosen in itertools.product(rows, repeat=3):
            shares = [list(row) for row in chosen]
            final = [[0.0] * 6 for _ in range(3)]
            for i, row in enumerate(shares):
                final[i][2] = 1.0 - sum(row)
            # every row keeps at least a quarter of its mass exiting per
            # stage, so stopping once the circulating mass falls below
            # 1e-13 of the start bounds the truncation error by 7e-13,
            # far inside the 1e-8 comparison tolerance
            oracle, _ = stagewise_final_incidence(
                shares, final, start_mass, stages=10000, settle=1e-13 * 7.0
            )
            system = CoefficientSystem(
                activities=make_activities(3),
                intermediate_shares=np.array(shares),
                final_shares=np.array(final),
                intermediate_tax=np.array(start_mass),
                final_tax=np.zeros((3, 6)),
            )
            closed = propagate_closed_form(system)
            worst = max(
                worst, float(np.abs(closed.final_incidence - np.array(oracle)).max())
            )
            count += 1
        assert count == 17**3
        assert worst <= 1e-8, worst


def test_8_margin_conservation_machine_precision():
    with verdict(8, "margin redistribution conserves totals"):
        rng = np.random.default_rng(41)
        for trial in range(25):
            n = int(rng.integers(4, 9))
            margins = int(rng.integers(1, 4))
            accounts = random_accounts(rng, n=n, margins=min(margins, n - 1))
            adjusted, _ = redistribute_margins(accounts)

            before = np.hstack([accounts.flows, accounts.finaldemand])
            after = np.hstack([adjusted.flows, adjusted.finaldemand])
            scale = np.maximum(1.0, np.abs(before.sum(axis=0)))
            assert np.all(
                np.abs(after.sum(axis=0) - before.sum(axis=0)) <= 1e-12 * scale
            ), trial
            tax_before = accounts.taxdest.dest.sum(axis=0)
            tax_after = adjusted.taxdest.dest.sum(axis=0)
            tax_scale = np.maximum(1.0, np.abs(tax_before))
            assert np.all(np.abs(tax_after - tax_before) <= 1e-12 * tax_scale), trial
            assert abs(adjusted.supply.sum() - accounts.supply.sum()) <= 1e-12 * max(
                1.0, accounts.supply.sum()
            )

        untouched = random_accounts(rng, n=5, margins=0)
        same, adjustment = redistribute_margins(untouched)
        assert same is untouched
        assert adjustment.total_supply_moved == 0.0
        assert adjustment.total_tax_moved == 0.0


def test_9_hand_solved_two_activity_case():
    with verdict(9, "hand-solved 2x2 subsequent stage"):
        final_shares = np.zeros((2, 6))
        final_shares[0, 2] = 0.5
        final_shares[1, 2] = 0.9
        system = CoefficientSystem(
            activities=make_activities(2),
            intermediate_shares=np.array([[0.2, 0.3], [0.1, 0.0]]),
            final_shares=final_shares,
            intermediate_tax=np.array([10.0, 5.0]),
            final_tax=np.zeros((2, 6)),
        )
        result = propagate_closed_form(system)
        npt.assert_allclose(
            result.subsequent_stage[:, 2], [6.8182, 8.1818], rtol=0, atol=1e-4
        )


@pytest.mark.skipif(
    IBGE_ENV not in os.environ,
    reason=f"set {IBGE_ENV} to a bundle manifest built from the official "
    "2015 matrices to run the cell-level comparison",
)
def test_10_official_bundle_cell_level():
    with verdict(10, "official bundle cell-level incidence"):
        manifest = Path(os.environ[IBGE_ENV])
        accounts = load_bundle(manifest)
        adjusted, _ = redistribute_margins(accounts)
        result = propagate_closed_form(build_system(adjusted))
        index = {a.code: i for i, a in enumerate(result.activities)}

        codes, _, inc4, _ = brazil2015.load_final_incidence()
        missing = [c for c in codes if c not in index]
        assert not missing, f"bundle lacks activities: {missing}"
        for row, code in enumerate(codes):
            i = index[code]
            for j, comp in enumerate(brazil2015.FOUR_COMPONENTS):
                got = result.final_incidence[i, COMPONENT_ORDER.index(comp)]
                want = inc4[row, j]
                assert abs(got - want) <= 1.0, (code, comp, got, want)
