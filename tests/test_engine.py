import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from taxcascade import (
    CoefficientSystem,
    SingularSystemError,
    Truncation,
    apply_scenario,
    build_system,
    load_bundle,
    propagate_closed_form,
    propagate_truncated,
    redistribute_margins,
    save_bundle,
)

from taxcascade.engine import (
    BLOCK_CHECKPOINT,
    LOOKAHEAD,
    MAX_BLOCK,
    STATUTORY,
    _block_to_build,
    first_stage_table,
    with_totals,
)
from taxcascade.tables import COMPONENT_ORDER, N_COMPONENTS, incidence_cells, rate_cells

from oracles import make_activities, random_accounts, random_system, stagewise_final_incidence


def two_by_two() -> CoefficientSystem:
    """Hand-solved reference system used across the routing tests.

    Cumulative intermediate mass is exactly [1050/77, 700/77], so the
    subsequent-stage incidence is [525/77, 630/77].
    """
    final_shares = np.zeros((2, 6))
    final_shares[0, 2] = 0.5
    final_shares[1, 2] = 0.9
    return CoefficientSystem(
        activities=make_activities(2),
        intermediate_shares=np.array([[0.2, 0.3], [0.1, 0.0]]),
        final_shares=final_shares,
        intermediate_tax=np.array([10.0, 5.0]),
        final_tax=np.zeros((2, 6)),
    )


def test_build_system_normalizes_by_supplier(accounts_factory):
    flows = np.array([[10.0, 30.0], [5.0, 0.0]])
    fd = np.zeros((2, 6))
    fd[0, 0] = 60.0
    fd[1, 2] = 45.0
    dest = np.zeros((2, 8))
    dest[0, :2] = [1.0, 3.0]
    dest[0, 2] = 6.0
    dest[1, 1] = 2.0
    accounts = accounts_factory(flows=flows, finaldemand=fd, dest=dest)
    system = build_system(accounts)
    npt.assert_allclose(system.intermediate_shares, [[0.1, 0.3], [0.1, 0.0]])
    assert system.final_shares[0, 0] == pytest.approx(0.6)
    assert system.final_shares[1, 2] == pytest.approx(0.9)
    npt.assert_allclose(system.intermediate_tax, [4.0, 2.0])
    assert system.final_tax[0, 0] == pytest.approx(6.0)
    totals = first_stage_table(system.intermediate_tax, system.final_tax)[-1]
    assert totals[STATUTORY] == pytest.approx(12.0)


def test_build_system_zero_supply_row_is_all_zero(accounts_factory):
    accounts = accounts_factory(
        flows=[[0.0, 0.0], [2.0, 0.0]], finaldemand=[[0.0] * 6, [0, 0, 8, 0, 0, 0]]
    )
    system = build_system(accounts)
    npt.assert_array_equal(system.intermediate_shares[0], [0.0, 0.0])
    npt.assert_array_equal(system.final_shares[0], np.zeros(6))


def test_build_system_rejects_live_margins(demo_manifest):
    accounts = load_bundle(demo_manifest)
    with pytest.raises(ValueError, match="redistribute_margins"):
        build_system(accounts)
    system = build_system(accounts, allow_unredistributed_margins=True)
    assert system.n == 3


def test_build_system_warns_on_share_imbalance(accounts_factory):
    flows = np.array([[10.0, 30.0], [5.0, 0.0]])
    fd = np.zeros((2, 6))
    fd[0, 0] = 60.0
    fd[1, 2] = 45.0
    accounts = accounts_factory(
        flows=flows, finaldemand=fd, supply=[100.1, 50.0]
    )
    with pytest.warns(UserWarning, match="deviate"):
        build_system(accounts)


def test_build_system_warns_on_trapped_tax(accounts_factory):
    dest = np.zeros((2, 8))
    dest[0, 1] = 3.0
    accounts = accounts_factory(
        flows=np.zeros((2, 2)),
        finaldemand=[[0.0] * 6, [0, 0, 9, 0, 0, 0]],
        dest=dest,
    )
    with pytest.warns(UserWarning, match="cannot be propagated"):
        system = build_system(accounts)
    result = propagate_closed_form(system)
    assert result.conservation_residual == pytest.approx(-3.0)
    assert not result.conserved


def test_closed_form_two_by_two_frozen_values():
    result = propagate_closed_form(two_by_two())
    npt.assert_allclose(
        result.subsequent_stage[:, 2], [525.0 / 77.0, 630.0 / 77.0], rtol=1e-13
    )
    assert result.grand_total == pytest.approx(15.0, rel=1e-13)
    assert result.statutory_total == 15.0
    assert result.method == "closed-form"
    assert result.stages is None
    assert result.converged
    assert result.conserved
    # summed once, then read by the incidence table and result.json alike
    assert result.final_incidence is result.final_incidence
    npt.assert_array_equal(result.final_incidence, result.first_stage_final + result.subsequent_stage)


def test_truncated_matches_closed_form_two_by_two():
    system = two_by_two()
    closed = propagate_closed_form(system)
    truncated = propagate_truncated(system, tol=1e-14, maxstages=10000)
    npt.assert_allclose(
        truncated.final_incidence, closed.final_incidence, rtol=0, atol=1e-12
    )
    assert truncated.method == "truncated"
    assert truncated.converged
    assert truncated.stages < 100
    assert abs(truncated.series_residual) <= 1e-12


def test_no_interlinkage_means_first_stage_only():
    final_shares = np.tile(np.array([[0.0, 0.0, 1.0, 0.0, 0.0, 0.0]]), (3, 1))
    system = CoefficientSystem(
        activities=make_activities(3),
        intermediate_shares=np.zeros((3, 3)),
        final_shares=final_shares,
        intermediate_tax=np.array([1.0, 2.0, 3.0]),
        final_tax=np.zeros((3, 6)),
    )
    result = propagate_closed_form(system)
    npt.assert_allclose(result.subsequent_stage[:, 2], [1.0, 2.0, 3.0])
    one_stage = propagate_truncated(system, tol=1e-12, maxstages=5)
    assert one_stage.stages == 1
    npt.assert_allclose(one_stage.final_incidence, result.final_incidence)


def test_zero_tax_propagates_to_zero():
    system = CoefficientSystem(
        activities=make_activities(2),
        intermediate_shares=np.array([[0.2, 0.3], [0.1, 0.0]]),
        final_shares=np.full((2, 6), 0.5 / 6),
        intermediate_tax=np.zeros(2),
        final_tax=np.zeros((2, 6)),
    )
    for result in (propagate_closed_form(system), propagate_truncated(system)):
        assert result.grand_total == 0.0
        assert result.converged
        assert result.conserved


def test_singular_cycle_raises_with_advice():
    system = CoefficientSystem(
        activities=make_activities(2),
        intermediate_shares=np.array([[0.0, 1.0], [1.0, 0.0]]),
        final_shares=np.zeros((2, 6)),
        intermediate_tax=np.array([1.0, 1.0]),
        final_tax=np.zeros((2, 6)),
    )
    with pytest.raises(SingularSystemError, match="truncated") as raised:
        propagate_closed_form(system)
    assert "condition estimate inf" in str(raised.value)


def test_near_singular_gate_both_sides():
    def cycle(eps: float) -> CoefficientSystem:
        return CoefficientSystem(
            activities=make_activities(2),
            intermediate_shares=np.array([[0.0, 1.0 - eps], [1.0 - eps, 0.0]]),
            final_shares=np.full((2, 6), 0.0) + np.eye(2, 6) * eps,
            intermediate_tax=np.array([1.0, 1.0]),
            final_tax=np.zeros((2, 6)),
        )

    with pytest.raises(SingularSystemError, match="condition"):
        propagate_closed_form(cycle(1e-14))
    result = propagate_closed_form(cycle(1e-3))
    assert result.conserved


@st.composite
def nonnegative_systems(draw) -> CoefficientSystem:
    """Sparse nonnegative supply shares with row sums in [0, 0.99]."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.1, 1.0))
    totals = raw.sum(axis=1, keepdims=True)
    shares = np.divide(raw, totals, out=np.zeros_like(raw), where=totals > 0)
    shares *= rng.uniform(0.0, 0.99, (n, 1))
    final_shares = np.zeros((n, 6))
    final_shares[:, 2] = 1.0 - shares.sum(axis=1)
    return CoefficientSystem(
        activities=make_activities(n),
        intermediate_shares=shares,
        final_shares=final_shares,
        intermediate_tax=rng.uniform(0.0, 100.0, n),
        final_tax=np.zeros((n, 6)),
    )


@settings(max_examples=60, deadline=None)
@given(nonnegative_systems())
def test_closed_form_condition_is_exact(system):
    result = propagate_closed_form(system)
    lhs = (np.eye(system.n) - system.intermediate_shares).T
    assert result.condition == pytest.approx(np.linalg.cond(lhs, 1), rel=1e-12)
    assert 0.0 <= result.solve_residual <= 1e-12 * (1.0 + system.intermediate_tax.max())
    truncated = propagate_truncated(system)
    assert truncated.condition is None and truncated.solve_residual is None


def test_closed_form_condition_matches_gecon_on_brazil(brazil_accounts):
    from scipy.linalg import get_lapack_funcs, lu_factor

    system = build_system(redistribute_margins(brazil_accounts)[0])
    lhs = (np.eye(system.n) - system.intermediate_shares).T
    gecon = get_lapack_funcs("gecon", (lhs,))
    rcond, info = gecon(lu_factor(lhs)[0], np.linalg.norm(lhs, 1))
    assert info == 0
    assert propagate_closed_form(system).condition == pytest.approx(1.0 / rcond, rel=1e-12)


@pytest.mark.parametrize("column_major", [False, True])
def test_shares_and_solve_match_whole_table_forms_bit_for_bit(tmp_path, column_major):
    # build_system divides into zeroed tables and the closed form builds I - shares
    # without an identity matrix; both keep the bits and memory order of the forms
    # that held one more n x n table each
    accounts = random_accounts(np.random.default_rng(11), n=200, margins=3)
    if column_major:  # as load_bundle gives them
        accounts = load_bundle(save_bundle(accounts, tmp_path))
    accounts = redistribute_margins(accounts)[0]
    system = build_system(accounts)
    supply = accounts.supply[:, None]
    safe = np.where(supply > 0, supply, 1.0)
    for got, table in (
        (system.intermediate_shares, accounts.flows),
        (system.final_shares, accounts.finaldemand),
    ):
        want = np.where(supply > 0, table / safe, 0.0)
        npt.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert got.flags.f_contiguous == want.flags.f_contiguous == column_major
    lhs = (np.eye(system.n) - system.intermediate_shares).T
    inverse_norm = np.abs(np.linalg.solve(lhs.T, np.ones(system.n))).max()
    cumulative = np.linalg.solve(lhs, system.intermediate_tax)
    result = propagate_closed_form(system)
    assert result.condition == float(np.linalg.norm(lhs, 1) * inverse_norm)
    assert result.solve_residual == float(np.abs(lhs @ cumulative - system.intermediate_tax).max())


def test_truncated_flags_non_convergence():
    system = CoefficientSystem(
        activities=make_activities(2),
        intermediate_shares=np.array([[0.0, 1.0], [1.0, 0.0]]),
        final_shares=np.zeros((2, 6)),
        intermediate_tax=np.array([2.0, 1.0]),
        final_tax=np.zeros((2, 6)),
    )
    # row sums of exactly 1: past stage 64 the loop jumps in blocks
    for maxstages in (50, 1000):
        result = propagate_truncated(system, tol=1e-12, maxstages=maxstages)
        assert not result.converged
        assert result.stages == maxstages
        assert (result.truncation.block > 1) == (maxstages > 64)
        # all starting mass is still circulating, none was delivered
        assert result.series_residual == 3.0
        assert result.grand_total == 0.0
        assert not result.conserved


def single_stage_loop(system: CoefficientSystem, tol: float, maxstages: int):
    """The truncated method without blocks: one dense matvec per stage.  Returns the
    subsequent-stage incidence, the circulating mass and the stages run."""
    shares_t = np.ascontiguousarray(system.intermediate_shares.T)
    threshold = tol * float(np.abs(system.intermediate_tax).sum())
    mass, cumulative = system.intermediate_tax, np.zeros(system.n)
    for stage in range(1, maxstages + 1):
        cumulative += mass
        mass = shares_t @ mass
        if float(np.abs(mass).sum()) <= threshold:
            break
    return cumulative[:, None] * system.final_shares, mass, stage


def near_closed_system(inside: float, n: int = 12, block: int = 4, seed: int = 11):
    """Activities 0..block-1 sell ``inside`` of their output to each other and the
    rest to exports; the others sell 20-90% of theirs to every activity."""
    rng = np.random.default_rng(seed)
    rowsum = np.where(np.arange(n) < block, inside, rng.uniform(0.2, 0.9, n))
    raw = rng.random((n, n))
    raw[:block, block:] = 0.0
    shares = raw / raw.sum(axis=1, keepdims=True) * rowsum[:, None]
    final_shares = np.zeros((n, 6))
    final_shares[:, 4] = 1.0 - rowsum
    return CoefficientSystem(
        activities=make_activities(n),
        intermediate_shares=shares,
        final_shares=final_shares,
        intermediate_tax=rng.uniform(0.0, 100.0, n),
        final_tax=np.zeros((n, 6)),
    )


def test_truncated_blocks_keep_the_stage_count():
    system = near_closed_system(0.999)
    result = propagate_truncated(system, tol=1e-12, maxstages=100_000)
    expected, mass, stages = single_stage_loop(system, tol=1e-12, maxstages=100_000)
    assert result.truncation.block > 1 and 0 < result.truncation.from_stage < stages
    assert result.converged and result.stages == stages > 1000
    npt.assert_allclose(result.subsequent_stage, expected, rtol=1e-13, atol=0)
    assert result.series_residual == pytest.approx(mass.sum(), rel=1e-11)

    oracle, _ = stagewise_final_incidence(
        system.intermediate_shares.tolist(),
        system.final_shares.tolist(),
        system.intermediate_tax.tolist(),
        stages=stages,
    )
    npt.assert_allclose(result.final_incidence, np.array(oracle), rtol=0, atol=1e-9)

    again = propagate_truncated(system, tol=1e-12, maxstages=100_000)
    assert again.truncation == result.truncation and again.stages == result.stages
    npt.assert_array_equal(again.subsequent_stage, result.subsequent_stage)
    assert again.series_residual == result.series_residual


def row_sum_above_one_system() -> CoefficientSystem:
    """``near_closed_system(0.99)`` with its last activity selling 1.3 times its
    supply to the others, the excess drawn from inventory: a converging series
    that no block may jump."""
    system = near_closed_system(0.99)
    shares = system.intermediate_shares.copy()
    shares[-1] *= 1.3 / shares[-1].sum()
    final_shares = system.final_shares.copy()
    final_shares[-1, 4] = -0.3
    return CoefficientSystem(
        activities=system.activities,
        intermediate_shares=shares,
        final_shares=final_shares,
        intermediate_tax=system.intermediate_tax,
        final_tax=system.final_tax,
    )


def test_truncated_row_sum_above_one_takes_no_block():
    system = row_sum_above_one_system()
    result = propagate_truncated(system, tol=1e-12, maxstages=100_000)
    expected, mass, stages = single_stage_loop(system, tol=1e-12, maxstages=100_000)
    assert result.truncation == Truncation(block=1, from_stage=0)
    assert result.converged and result.stages == stages > 1000
    npt.assert_array_equal(result.subsequent_stage, expected)
    assert result.series_residual == float(mass.sum())


def test_block_cost_gate():
    # at n = 500 a block pays back over 512 stages ahead, not over 256
    assert _block_to_build(500, 256) == 1
    assert _block_to_build(500, 512) == 8
    assert _block_to_build(500, 1 << 20) == MAX_BLOCK
    # a built block only grows
    assert _block_to_build(500, 64, built=32) == 32
    # at n = 2000 a dense product costs as much as ~230 stages
    assert _block_to_build(2000, 1024) == 1
    assert _block_to_build(2000, 2048) > 1
    # the loop plans for LOOKAHEAD times the stages run: at n = 500 its first
    # checkpoint builds a block, at n = 2000 the third
    assert _block_to_build(500, LOOKAHEAD * BLOCK_CHECKPOINT) == 8
    assert _block_to_build(2000, LOOKAHEAD * BLOCK_CHECKPOINT * 2) == 1
    assert _block_to_build(2000, LOOKAHEAD * BLOCK_CHECKPOINT * 4) == 8


def test_truncated_single_stage_residual():
    system = two_by_two()
    result = propagate_truncated(system, tol=0.0, maxstages=1)
    assert result.stages == 1
    npt.assert_allclose(
        result.subsequent_stage[:, 2], [10.0 * 0.5, 5.0 * 0.9]
    )
    # undelivered mass after one stage is shares' @ intermediate_tax
    expected = system.intermediate_shares.T @ system.intermediate_tax
    assert result.series_residual == pytest.approx(expected.sum())
    assert not result.converged


def test_truncated_rejects_bad_arguments():
    system = two_by_two()
    with pytest.raises(ValueError, match="maxstages"):
        propagate_truncated(system, tol=1e-9, maxstages=0)
    for tol in (-1e-9, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            propagate_truncated(system, tol=tol, maxstages=10)


def test_incidence_is_linear_in_taxes():
    base = two_by_two()
    doubled = CoefficientSystem(
        activities=base.activities,
        intermediate_shares=base.intermediate_shares,
        final_shares=base.final_shares,
        intermediate_tax=2.0 * base.intermediate_tax,
        final_tax=2.0 * base.final_tax,
    )
    npt.assert_allclose(
        propagate_closed_form(doubled).final_incidence,
        2.0 * propagate_closed_form(base).final_incidence,
        rtol=1e-13,
    )


def test_nonnegative_taxes_give_nonnegative_incidence():
    rng = np.random.default_rng(99)
    for _ in range(5):
        system = random_system(rng, n=8)
        result = propagate_closed_form(system)
        assert result.final_incidence.min() >= -1e-12
        assert result.conserved


def test_both_routes_match_stage_oracle():
    rng = np.random.default_rng(4242)
    system = random_system(rng, n=4)
    oracle, leftover = stagewise_final_incidence(
        system.intermediate_shares.tolist(),
        system.final_shares.tolist(),
        system.intermediate_tax.tolist(),
        first_final=system.final_tax.tolist(),
        stages=3000,
    )
    assert sum(abs(x) for x in leftover) < 1e-12
    closed = propagate_closed_form(system)
    truncated = propagate_truncated(system, tol=1e-13, maxstages=5000)
    npt.assert_allclose(closed.final_incidence, np.array(oracle), rtol=0, atol=1e-9)
    npt.assert_allclose(truncated.final_incidence, np.array(oracle), rtol=0, atol=1e-9)


def test_demo_pipeline_conserves(demo_manifest):
    adjusted, _ = redistribute_margins(load_bundle(demo_manifest))
    system = build_system(adjusted)
    producing = adjusted.supply > 0
    rowsums = (
        system.intermediate_shares.sum(axis=1) + system.final_shares.sum(axis=1)
    )
    npt.assert_allclose(rowsums[producing], 1.0, rtol=1e-12)
    result = propagate_closed_form(system)
    assert result.grand_total == pytest.approx(43.0, rel=1e-12)
    assert result.conserved


def test_apply_scenario_identity_and_scaling(demo_manifest):
    accounts = load_bundle(demo_manifest)
    same = apply_scenario(accounts, [1.0, 1.0, 1.0])
    npt.assert_array_equal(same.taxdest.dest, accounts.taxdest.dest)

    removed = apply_scenario(accounts, [1.0, 0.0, 1.0])
    assert removed.taxdest.statutory[1] == 0.0
    assert removed.taxdest.statutory.sum() == pytest.approx(
        accounts.taxdest.statutory.sum() - 30.0
    )

    doubled = apply_scenario(accounts, [2.0, 1.0, 1.0])
    npt.assert_allclose(doubled.taxdest.dest[0], 2.0 * accounts.taxdest.dest[0])
    npt.assert_array_equal(doubled.flows, accounts.flows)
    npt.assert_array_equal(doubled.supply, accounts.supply)


def test_apply_scenario_shares_untouched_arrays(demo_manifest):
    accounts = load_bundle(demo_manifest)
    scaled = apply_scenario(accounts, np.ones(accounts.n))
    for name in ("flows", "finaldemand", "supply", "marginshares"):
        assert np.shares_memory(getattr(scaled, name), getattr(accounts, name)), name
        assert not getattr(scaled, name).flags.writeable, name


def test_apply_scenario_rejects_bad_scale(demo_manifest):
    accounts = load_bundle(demo_manifest)
    for bad in (-0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="negative or non-finite .*: mill"):
            apply_scenario(accounts, [1.0, bad, 1.0])
    with pytest.raises(ValueError, match="length"):
        apply_scenario(accounts, [1.0, 1.0])


def numpy_totals(matrix: np.ndarray) -> np.ndarray:
    """Table totals as numpy summed them: numpy row sums, then an fsum Total row."""
    rows = np.column_stack([matrix, matrix.sum(axis=1)])
    return np.vstack([rows, [math.fsum(column) for column in rows.T.tolist()]])


# Mixed signs, signed zeros and subnormals; bounded so no sum overflows.
TABLE_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]),
    st.floats(min_value=-1e300, max_value=1e300),
)


@st.composite
def tables(draw) -> np.ndarray:
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 7)))
    matrix = draw(arrays(np.float64, shape, elements=TABLE_CELLS))
    if draw(st.booleans()):
        matrix[draw(st.integers(0, shape[0] - 1))] = -0.0
    return np.asfortranarray(matrix) if draw(st.booleans()) else matrix


@settings(max_examples=300, deadline=None)
@given(tables())
def test_row_totals_are_numpys_bit_for_bit(matrix):
    # the pure-Python totals give numpy's bits at every width a table has (six or
    # seven columns, and fewer), in C and Fortran order, +0.0 on an all--0.0 row
    ours = with_totals(matrix)
    npt.assert_array_equal(ours.view(np.int64), numpy_totals(matrix).view(np.int64))


@settings(max_examples=300, deadline=None)
@given(
    arrays(np.float64, st.tuples(st.integers(1, 12), st.just(N_COMPONENTS)), elements=TABLE_CELLS),
    st.booleans(),
    st.sets(st.sampled_from(COMPONENT_ORDER), min_size=1),
)
def test_incidence_table_gives_diffs_cells_bit_for_bit(matrix, fortran, shown):
    # the rates and result.json's totals come from the array with_totals built; the
    # final-incidence table, compute's and diff's, sums the cells with incidence_cells
    matrix = np.asfortranarray(matrix) if fortran else matrix
    ours = rate_cells(with_totals(matrix).tolist(), tuple(shown))
    theirs = incidence_cells(matrix.tolist(), tuple(shown))
    npt.assert_array_equal(np.array(ours).view(np.int64), np.array(theirs).view(np.int64))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("width", range(1, 8))
def test_negative_zero_rows_total_positive_zero(width, order):
    matrix = np.full((2, width), -0.0, order=order)
    totals = with_totals(matrix)
    assert np.signbit(totals[:-1, -1]).tolist() == [False, False]
    npt.assert_array_equal(totals.view(np.int64), numpy_totals(matrix).view(np.int64))
