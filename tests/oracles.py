"""Independent reference implementations and deterministic generators.

The stage simulator here is deliberately plain Python over lists: it moves
tax parcels through explicit stages with no linear algebra, so it shares no
code path with either engine route it is used to check.  The dense margin
step is the whole-table form of ``redistribute_margins`` that the blocked one
must match bit for bit.
"""

from __future__ import annotations

import numpy as np

from taxcascade import (
    COMPONENT_ORDER,
    Activity,
    CoefficientSystem,
    IOAccounts,
    MarginAdjustment,
    MarginError,
    TaxDestinationTable,
)
from taxcascade.tables import listing


def make_activities(n: int) -> tuple[Activity, ...]:
    return tuple(Activity(i, f"s{i:02d}") for i in range(n))


def stagewise_final_incidence(
    shares_rows,
    final_rows,
    start_mass,
    first_final=None,
    stages: int = 10000,
    settle: float = 0.0,
):
    """Move tax parcel by parcel through explicit stages.

    At every stage, the mass sitting on each activity sends its final-demand
    share out (accumulated into the result) and the rest along the activity's
    supply shares.  Stops early once the total absolute circulating mass is at
    or below ``settle``.  Returns (final incidence as nested lists, leftover
    mass per activity).
    """
    n = len(start_mass)
    m = len(final_rows[0])
    if first_final is None:
        exits = [[0.0] * m for _ in range(n)]
    else:
        exits = [[float(first_final[i][c]) for c in range(m)] for i in range(n)]
    mass = [float(x) for x in start_mass]
    for _ in range(stages):
        moved = [0.0] * n
        for i in range(n):
            amount = mass[i]
            if amount == 0.0:
                continue
            row = exits[i]
            zrow = final_rows[i]
            for c in range(m):
                row[c] += amount * zrow[c]
            arow = shares_rows[i]
            for j in range(n):
                moved[j] += amount * arow[j]
        mass = moved
        if sum(abs(x) for x in mass) <= settle:
            break
    return exits, mass


def random_system(rng: np.random.Generator, n: int = 10) -> CoefficientSystem:
    """A well-conditioned random system: share row sums drawn in [0.2, 0.9]."""
    raw = rng.random((n, n))
    rowsum = rng.uniform(0.2, 0.9, size=n)
    shares = raw / raw.sum(axis=1, keepdims=True) * rowsum[:, None]
    zraw = rng.random((n, 6))
    final_shares = zraw / zraw.sum(axis=1, keepdims=True) * (1.0 - rowsum)[:, None]
    return CoefficientSystem(
        activities=make_activities(n),
        intermediate_shares=shares,
        final_shares=final_shares,
        intermediate_tax=rng.uniform(0.0, 100.0, n),
        final_tax=rng.uniform(0.0, 50.0, (n, 6)),
    )


def random_accounts(
    rng: np.random.Generator, n: int = 6, margins: int = 2
) -> IOAccounts:
    """A balanced random bundle with ``margins`` margin activities."""
    prelim = rng.uniform(50.0, 500.0, n)
    alpha = rng.uniform(0.2, 0.6, n)
    weights = prelim / prelim.sum()
    flows = (alpha * prelim)[:, None] * weights[None, :]
    split = rng.dirichlet(np.ones(6), size=n)
    finaldemand = ((1.0 - alpha) * prelim)[:, None] * split
    supply = flows.sum(axis=1) + finaldemand.sum(axis=1)
    dest = np.hstack([rng.uniform(0.0, 5.0, (n, n)), rng.uniform(0.0, 5.0, (n, 6))])
    marginshares = np.zeros(n)
    chosen = rng.choice(n, size=margins, replace=False)
    marginshares[chosen] = rng.uniform(0.1, 1.0, margins)
    return IOAccounts(
        activities=make_activities(n),
        flows=flows,
        finaldemand=finaldemand,
        supply=supply,
        taxdest=TaxDestinationTable(dest=dest, statutory=dest.sum(axis=1)),
        marginshares=marginshares,
    )


def dense_redistribute_margins(accounts: IOAccounts) -> tuple[IOAccounts, MarginAdjustment]:
    """``redistribute_margins`` on whole (n, n+6) tables, one dense temporary per
    term: the reference for the blocked step's bits and memory order."""
    mu = accounts.marginshares
    margin = mu > 0
    n = accounts.n
    codes = accounts.codes
    destinations = codes + COMPONENT_ORDER

    if not margin.any():
        zeros = np.zeros(n + len(COMPONENT_ORDER))
        return accounts, MarginAdjustment(codes, destinations, zeros, zeros, zeros, 0.0, 0.0)

    dead = margin & (accounts.supply == 0)
    if dead.any():
        names = ", ".join(listing([codes[i] for i in np.flatnonzero(dead)]))
        raise MarginError(f"margin share set on zero-supply activities: {names}")

    supply_rows = np.hstack([accounts.flows, accounts.finaldemand])
    tax_rows = accounts.taxdest.dest

    removed_supply = np.zeros_like(supply_rows)
    removed_supply[margin] = mu[margin, None] * supply_rows[margin]
    removed_tax = np.zeros_like(tax_rows)
    removed_tax[margin] = mu[margin, None] * tax_rows[margin]

    goods_rows = supply_rows[~margin]
    weight_base = goods_rows.sum(axis=0)

    supply_pool = removed_supply.sum(axis=0)
    tax_pool = removed_tax.sum(axis=0)
    needs = (supply_pool != 0) | (tax_pool != 0)
    blocked = needs & (weight_base == 0)
    if blocked.any():
        names = ", ".join(listing([destinations[d] for d in np.flatnonzero(blocked)]))
        raise MarginError(
            f"margin supply or tax destined to columns with no non-margin supply: {names}"
        )

    weights = np.zeros_like(supply_rows)
    cols = np.flatnonzero(needs)
    weights[np.ix_(~margin, cols)] = goods_rows[:, cols] / weight_base[cols]

    new_supply_rows = supply_rows + (weights * supply_pool - removed_supply)
    new_tax_rows = tax_rows + (weights * tax_pool - removed_tax)
    adjusted = IOAccounts(
        activities=accounts.activities,
        flows=new_supply_rows[:, :n],
        finaldemand=new_supply_rows[:, n:],
        supply=new_supply_rows.sum(axis=1),
        taxdest=TaxDestinationTable(dest=new_tax_rows, statutory=new_tax_rows.sum(axis=1)),
        marginshares=np.zeros(n),
    )
    return adjusted, MarginAdjustment(
        activity_codes=codes,
        destination_labels=destinations,
        supply_pool=supply_pool,
        tax_pool=tax_pool,
        weight_base=weight_base,
        total_supply_moved=float(removed_supply.sum()),
        total_tax_moved=float(removed_tax.sum()),
    )
