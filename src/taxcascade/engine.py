"""Multi-stage propagation of input taxes to final demand.

The share matrices here are row-normalized by the SUPPLYING activity: entry
(i, j) of ``intermediate_shares`` is the fraction of activity i's total supply
delivered to activity j, and row i of ``final_shares`` is the fraction
delivered to each final-demand component.  This is not the usual
column-normalized technical-coefficient convention; each row of
[intermediate_shares | final_shares] sums to one, which is exactly what makes
the cascade conserve tax mass.

First-stage tax destined to intermediate use is a cost of the purchasing
activities and is passed on stage by stage through those supply shares until
it reaches final demand.  Two routes compute the limit: a closed-form linear
solve and an explicit truncated stage loop; they must agree and are
cross-checked in the test suite.
"""

from __future__ import annotations

import hashlib
import math
import os
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .accounts import (
    Activity, IOAccounts, TaxDestinationTable, read_float_entry, write_float_entry,
)
from .tables import BLAS_THREADS, N_COMPONENTS, listing, totals

#: Abort the closed form when the 1-norm condition number exceeds this.
CONDITION_LIMIT = 1e12
#: Default stopping tolerance for the truncated stage loop (fraction of the
#: first-stage intermediate mass still circulating).
TRUNCATION_TOL = 1e-12
#: The truncated loop considers jumping ahead at these stage counts: the first
#: checkpoint, then each doubling of it.
BLOCK_CHECKPOINT = 64
#: The truncated loop builds the block that pays back if the run lasts this
#: many times as many stages more as it has run.  Guessing long builds a deep
#: run's last block sooner, at the price of products that a run stopping soon
#: after a checkpoint does not repay.
LOOKAHEAD = 8
#: Largest block, in stages, that the truncated loop jumps at once.  An
#: uncapped block outgrows the work left, and replaying the block the stopping
#: test falls in then costs more than the jumps saved.
MAX_BLOCK = 256
#: Cost model of the truncated loop in ns, fitted to one BLAS thread of numpy's
#: OpenBLAS on a 2-core x86-64 host.  Timed in the loop, at n = 500 a stage
#: took 59-94 us, a matvec 59-65 us and a product 5.0-6.8 ms; at n = 2000
#: 1.5-2.0 ms, 1.7 ms and 0.34 s.  Only n enters it, never a clock, so the same
#: input always takes the same schedule and gives the same bytes.
STAGE_NS = 15e3  # Python overhead of one stage
MATVEC_NS = 0.35  # times n^2: one dense matrix-vector product
PRODUCT_NS = 0.04  # times n^3: one dense matrix product
#: Relative tolerance for the conservation identity
#: total final incidence == total statutory tax.
CONSERVATION_RTOL = 1e-9
#: Rows of [intermediate_shares | final_shares] should sum to 1 within this;
#: beyond it conservation degrades to the imbalance scale and we warn.
ROW_SHARE_ATOL = 1e-9
#: Columns of a :func:`first_stage_table` after the six final-demand components.
INTERMEDIATE, STATUTORY = N_COMPONENTS, N_COMPONENTS + 1
#: The BLAS thread settings numpy loaded with (it loads before this module): a solve
#: rounds by thread count, so they are part of every condition entry's key.
_BLAS_SETTINGS = tuple(f"{name}={os.environ.get(name, '')}" for name in BLAS_THREADS)


def _array_digest(arr: np.ndarray) -> str:
    """sha256 of ``arr``'s float64 cells in C order, 64 rows at a time: never one whole copy."""
    arr = np.atleast_1d(np.asarray(arr, dtype=float))
    digest = hashlib.sha256()
    for start in range(0, len(arr), 64):
        digest.update(np.ascontiguousarray(arr[start : start + 64]))
    return digest.hexdigest()


def with_totals(matrix: np.ndarray) -> np.ndarray:
    """(n, k) ``matrix`` with its row-total column, then its Total row, as summed by
    :func:`~taxcascade.tables.totals`."""
    row_totals, total_row = totals(matrix.tolist())
    return np.vstack([np.column_stack([matrix, row_totals]), total_row])


def first_stage_table(intermediate: np.ndarray, final: np.ndarray) -> np.ndarray:
    """(n + 1, 8) first-stage tax with totals: the six final-demand components,
    :data:`INTERMEDIATE`, then :data:`STATUTORY` (their row total)."""
    return with_totals(np.column_stack([final, intermediate]))


class SingularSystemError(RuntimeError):
    """The inter-activity share structure leaves (I - shares) unsolvable."""


@dataclass(frozen=True)
class CoefficientSystem:
    """Share matrices and first-stage incidence extracted from accounts."""

    activities: tuple[Activity, ...]
    intermediate_shares: np.ndarray  # (n, n) supplier-normalized supply shares
    final_shares: np.ndarray  # (n, 6)
    intermediate_tax: np.ndarray  # (n,) first-stage tax on intermediate demand
    final_tax: np.ndarray  # (n, 6) first-stage tax on final demand

    @property
    def n(self) -> int:
        return len(self.activities)

    @cached_property
    def share_row_sums(self) -> np.ndarray:
        """(n,) the intermediate plus final shares of each activity's supply:
        about 1 where it has supply, 0 where it has none."""
        return self.intermediate_shares.sum(axis=1) + self.final_shares.sum(axis=1)

    @cached_property
    def shares_digest(self) -> str:
        """sha256 of ``intermediate_shares`` in C order, hashed once: the closed
        form's condition entry is named by it and ``system_digest.json`` records it."""
        return _array_digest(self.intermediate_shares)


def build_system(
    accounts: IOAccounts, *, allow_unredistributed_margins: bool = False
) -> CoefficientSystem:
    """Normalize accounts into a :class:`CoefficientSystem`.

    Margin shares must already be redistributed (all zero); pass
    ``allow_unredistributed_margins=True`` to skip that step deliberately.
    Zero-supply activities get all-zero share rows; tax destined to their
    intermediate use can then never reach final demand, so a warning is
    issued and the conservation residual will show the trapped amount.
    """
    if accounts.marginshares.any() and not allow_unredistributed_margins:
        raise ValueError(
            "accounts still carry margin shares; run redistribute_margins first "
            "or pass allow_unredistributed_margins=True"
        )
    supply = accounts.supply[:, None]
    shares, final_shares = (
        np.divide(table, supply, out=np.zeros_like(table), where=supply > 0)
        for table in (accounts.flows, accounts.finaldemand)
    )
    producing = supply[:, 0] > 0
    system = CoefficientSystem(
        activities=accounts.activities,
        intermediate_shares=shares,
        final_shares=final_shares,
        intermediate_tax=accounts.taxdest.intermediate.sum(axis=1),
        final_tax=accounts.taxdest.final.copy(),
    )

    off = np.abs(system.share_row_sums[producing] - 1.0)
    if off.size and off.max() > ROW_SHARE_ATOL:
        warnings.warn(
            f"supply-share rows deviate from 1 by up to {off.max():.3e}; "
            "conservation of propagated tax degrades to that scale",
            stacklevel=2,
        )

    trapped = (~producing) & (system.intermediate_tax > 0)
    if trapped.any():
        names = ", ".join(listing([accounts.codes[i] for i in np.flatnonzero(trapped)]))
        warnings.warn(
            f"tax on intermediate demand of zero-supply activities cannot be "
            f"propagated: {names}",
            stacklevel=2,
        )

    return system


@dataclass(frozen=True)
class Truncation:
    """How the truncated loop ran: in blocks of ``block`` stages from stage
    ``from_stage`` on; ``block`` is 1 and ``from_stage`` 0 when it built none."""

    block: int
    from_stage: int


@dataclass(frozen=True)
class IncidenceResult:
    """Final incidence of the taxes in one coefficient system.

    ``final_incidence = first_stage_final + subsequent_stage``; its grand
    total must match the statutory total up to :data:`CONSERVATION_RTOL`
    whenever the stage series converged.
    """

    activities: tuple[Activity, ...]
    first_stage_intermediate: np.ndarray  # (n,)
    first_stage_final: np.ndarray  # (n, 6)
    subsequent_stage: np.ndarray  # (n, 6) incidence arriving after stage one
    method: str  # "closed-form" or "truncated"
    stages: int | None  # accumulated stages (truncated only)
    series_residual: float  # tax mass never delivered to final demand
    converged: bool
    condition: float | None = None  # exact 1-norm condition number (closed form only)
    solve_residual: float | None = None  # ||M v - t||_inf of the solve (closed form only)
    truncation: Truncation | None = None  # the stage loop's blocks (truncated only)

    @cached_property
    def final_incidence(self) -> np.ndarray:
        """(n, 6) incidence on final demand, first stage plus later stages."""
        return self.first_stage_final + self.subsequent_stage

    @cached_property
    def incidence_table(self) -> np.ndarray:
        """(n + 1, 7) final incidence with its totals, from :func:`with_totals`."""
        return with_totals(self.final_incidence)

    @property
    def component_totals(self) -> np.ndarray:
        return self.incidence_table[-1, :-1]

    @property
    def grand_total(self) -> float:
        return float(self.incidence_table[-1, -1])

    @cached_property
    def first_stage(self) -> np.ndarray:
        """(n + 1, 8) first-stage tax with its totals, from :func:`first_stage_table`."""
        return first_stage_table(self.first_stage_intermediate, self.first_stage_final)

    @property
    def statutory_total(self) -> float:
        return float(self.first_stage[-1, STATUTORY])

    @property
    def conservation_residual(self) -> float:
        """Signed difference between delivered and statutory totals."""
        return self.grand_total - self.statutory_total

    @property
    def conservation_relative(self) -> float:
        return abs(self.conservation_residual) / max(1.0, abs(self.statutory_total))

    @property
    def conserved(self) -> bool:
        return self.conservation_relative <= CONSERVATION_RTOL


def _result(
    system: CoefficientSystem,
    cumulative: np.ndarray,
    *,
    method: str,
    stages: int | None,
    series_residual: float,
    converged: bool,
    condition: float | None = None,
    solve_residual: float | None = None,
    truncation: Truncation | None = None,
) -> IncidenceResult:
    """Both methods end here: ``cumulative`` (n,) is the intermediate mass
    summed over every stage, and each activity's final-demand shares split it
    into the subsequent-stage incidence."""
    return IncidenceResult(
        activities=system.activities,
        first_stage_intermediate=system.intermediate_tax.copy(),
        first_stage_final=system.final_tax.copy(),
        subsequent_stage=cumulative[:, None] * system.final_shares,
        method=method,
        stages=stages,
        series_residual=series_residual,
        converged=converged,
        condition=condition,
        solve_residual=solve_residual,
        truncation=truncation,
    )


def condition_key(shares_digest: str) -> str:
    """The name of the cache entry of the closed form's condition number for the
    supply shares of this sha256 (:attr:`CoefficientSystem.shares_digest`): with
    numpy's version, this module's source and the BLAS thread settings numpy
    loaded with, which decide how the solve rounds."""
    source = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()
    parts = [shares_digest, np.__version__, source, *_BLAS_SETTINGS]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def propagate_closed_form(
    system: CoefficientSystem, *, cache: str | Path | None = None
) -> IncidenceResult:
    """Propagate the full stage series at once via a linear solve.

    The cumulative intermediate mass v solves M v = intermediate tax with
    M = (I - shares)'; the subsequent-stage incidence is v scaled by each
    activity's final-demand shares.  The shares are nonnegative, and where the
    stage series converges (rows summing to at most one, as balanced accounts
    without inventory drawdowns give) M is an M-matrix with M^-1 >= 0, so one
    more solve gives its 1-norm condition number exactly:
    ||M^-1||_1 = max |M^-T 1|.  Otherwise that figure is a lower bound, like
    any LAPACK condition estimate.  A condition number beyond
    ``CONDITION_LIMIT``, or an exactly singular M, raises
    :class:`SingularSystemError`, in which case :func:`propagate_truncated`
    can still show how mass circulates in such structures.

    The condition number depends on the shares alone.  With a ``cache``
    directory it is read from the entry :func:`condition_key` names, and only
    v is solved (nothing at all when the stored figure refuses); else both
    solves run and the figure they give, a refusal's too, is stored there.
    The cache never fails a run: an entry that cannot be read is a miss, and
    one that cannot be written is skipped.
    """
    # (I - shares).T bit for bit and in its memory order, without an identity matrix
    lhs = np.subtract(0.0, system.intermediate_shares, order="C").T
    lhs.flat[:: system.n + 1] += 1.0
    entry = stored = None
    if cache is not None:
        try:
            entry = Path(cache) / f"{condition_key(system.shares_digest)}.condition"
        except OSError:  # this module's source cannot be read
            pass
        else:
            stored = read_float_entry(entry)
            if not (stored is None or stored >= 0):  # NaN or negative: no condition number
                stored = None
    try:
        if stored is None:
            inverse_norm = np.abs(np.linalg.solve(lhs.T, np.ones(system.n))).max()
        if stored is None or stored <= CONDITION_LIMIT:
            cumulative = np.linalg.solve(lhs, system.intermediate_tax)
    except np.linalg.LinAlgError:
        condition = math.inf
    else:
        condition = float(np.linalg.norm(lhs, 1) * inverse_norm) if stored is None else stored
    if entry is not None and stored is None:
        try:
            write_float_entry(entry, condition)
        except OSError:
            pass
    if not condition <= CONDITION_LIMIT:
        estimate = "inf" if condition == math.inf else f"{condition:.3e}"
        raise SingularSystemError(
            f"(I - intermediate_shares) is singular or near-singular "
            f"(condition estimate {estimate} exceeds {CONDITION_LIMIT:.1e}); "
            "the truncated method can propagate such systems stage by stage"
        )
    # The solve itself reports conservation honestly via the residual; zero
    # final-demand shares with trapped mass show up there, not as an error.
    return _result(
        system,
        cumulative,
        method="closed-form",
        stages=None,
        series_residual=0.0,
        converged=True,
        condition=condition,
        solve_residual=float(np.abs(lhs @ cumulative - system.intermediate_tax).max()),
    )


def _block_to_build(n: int, stages: int, built: int = 1) -> int:
    """The block, a power of two from ``built`` to :data:`MAX_BLOCK`, that finishes
    ``stages`` more stages at the least modelled cost; ``built`` if none pays back.

    A stage costs ``STAGE_NS + MATVEC_NS n^2``.  Each doubling of a block costs two
    dense products (one from a single stage), each jump two dense matvecs, and the
    block the stopping test falls in is replayed stage by stage."""
    stage = STAGE_NS + MATVEC_NS * n**2
    product = PRODUCT_NS * n**3
    jump = STAGE_NS + 2 * MATVEC_NS * n**2

    def cost(block: int) -> float:
        if block == 1:
            return stages * stage
        doublings = block.bit_length() - built.bit_length()
        products = 2 * doublings - (built == 1)
        return products * product + -(-stages // block) * jump + block * stage

    blocks = [built << k for k in range((MAX_BLOCK // built).bit_length())]
    return min(blocks, key=cost)


def propagate_truncated(
    system: CoefficientSystem,
    tol: float = TRUNCATION_TOL,
    maxstages: int = 10000,
) -> IncidenceResult:
    """Propagate stage by stage, truncating the series explicitly.

    At each stage the mass sitting on intermediate demand hands its
    final-demand share out and passes the rest along the supply shares.  The
    loop stops once the circulating mass drops to ``tol`` times the
    first-stage intermediate mass (absolute sums, so oscillating signed
    entries cannot fake convergence), or after ``maxstages`` stages with
    ``converged=False``.  Either way the undelivered mass is recorded as
    ``series_residual``, never silently dropped.

    A stage is one dense matvec on the transposed supply shares S; the mass
    handed to final demand is summed per activity and split by
    ``final_shares`` once, after the loop.  A deep series jumps ahead in blocks
    of k stages: P = I + S + ... + S^(k-1) and Q = S^k, built by repeated
    squaring, give the block's sum P m and its end Q m in two dense matvecs.
    At stage :data:`BLOCK_CHECKPOINT` and each doubling of it, the loop builds
    the block (a power of two up to :data:`MAX_BLOCK`) that the cost model
    says pays back if the run lasts :data:`LOOKAHEAD` times as many more
    stages as it has run; the model depends on n only, so the schedule is
    deterministic.  Blocks run
    only where no row of the shares sums to more than 1 in absolute value,
    so the circulating mass never rises: no stage inside a block can pass the
    stopping test unless its end does.  When a block's end would pass, the
    loop replays that block stage by stage, so ``stages`` is the first passing
    stage, as in the single-stage loop, and no block runs past ``maxstages``.
    Summing in blocks moves the cells in their last digits only.
    ``truncation`` records the block and the stage it was built at.  A series
    that diverges until the mass overflows raises ValueError at the next
    checkpoint.
    """
    if maxstages < 1:
        raise ValueError(f"maxstages must be at least 1, got {maxstages}")
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    n = system.n
    shares_t = np.ascontiguousarray(system.intermediate_shares.T)
    # blocks may run: no row sum above 1
    contracting = np.abs(system.intermediate_shares).sum(axis=1).max(initial=0.0) <= 1.0
    threshold = tol * float(np.abs(system.intermediate_tax).sum())
    mass = system.intermediate_tax
    cumulative = np.zeros(n)
    stages = 0
    converged = False
    block, from_stage, checkpoint = 1, 0, BLOCK_CHECKPOINT
    total = work = ahead = None  # P, a product buffer, Q
    # an overflowing series is caught at a checkpoint, without a warning per stage
    with np.errstate(over="ignore", invalid="ignore"):
        while stages < maxstages and not converged:
            if block == 1:
                count = min(checkpoint, maxstages) - stages
            elif stages + block > maxstages:
                count = maxstages - stages
            else:
                jumped = ahead @ mass
                if float(np.abs(jumped).sum()) > threshold:
                    cumulative += total @ mass
                    mass = jumped
                    stages += block
                    count = 0
                else:
                    count = block
            for _ in range(count):
                cumulative += mass
                mass = shares_t @ mass
                stages += 1
                if float(np.abs(mass).sum()) <= threshold:
                    converged = True
                    break
            if converged or stages < checkpoint:
                continue
            if not np.isfinite(mass).all():
                break
            while checkpoint <= stages:
                checkpoint *= 2
            target = _block_to_build(n, min(LOOKAHEAD * stages, maxstages - stages), block)
            if target == block or not contracting:
                continue
            if block == 1:
                shares = system.intermediate_shares.T
                total = np.array(shares, order="C")
                total.flat[:: n + 1] += 1.0
                work, ahead = np.empty((n, n)), np.empty((n, n))
                np.matmul(shares, shares, out=ahead)
                block = 2
            while block < target:
                np.matmul(ahead, total, out=work)
                total += work
                np.matmul(ahead, ahead, out=work)
                ahead, work = work, ahead
                block *= 2
            from_stage = stages
        del shares_t, total, work, ahead
        series_residual = float(mass.sum())
    # a non-finite mass stays in the running sum, so one test after the loop finds it
    if not (np.isfinite(cumulative).all() and math.isfinite(series_residual)):
        raise ValueError(f"the stage series diverges: the tax mass overflowed in {stages} stages")
    return _result(
        system,
        cumulative,
        method="truncated",
        stages=stages,
        series_residual=series_residual,
        converged=converged,
        truncation=Truncation(block=block, from_stage=from_stage),
    )


def apply_scenario(accounts: IOAccounts, scale) -> IOAccounts:
    """Scale each activity's tax-destination row; flows and supply are untouched.

    ``scale`` is a length-n finite nonnegative vector (1.0 leaves an activity alone,
    0.0 removes its taxes, 2.0 doubles them).  Statutory amounts are recomputed
    from the scaled destination rows.
    """
    scale = np.asarray(scale, dtype=float)
    if scale.shape != (accounts.n,):
        raise ValueError(
            f"scale must have length {accounts.n}, got shape {scale.shape}"
        )
    bad = ~(np.isfinite(scale) & (scale >= 0))
    if bad.any():
        names = ", ".join(listing([accounts.codes[i] for i in np.flatnonzero(bad)]))
        raise ValueError(f"negative or non-finite scenario scale for: {names}")
    dest = accounts.taxdest.dest * scale[:, None]
    return IOAccounts(
        activities=accounts.activities,
        flows=accounts.flows,
        finaldemand=accounts.finaldemand,
        supply=accounts.supply,
        taxdest=TaxDestinationTable(dest=dest, statutory=dest.sum(axis=1)),
        marginshares=accounts.marginshares,
    )
