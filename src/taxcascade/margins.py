"""Redistribution of trade and transport margins onto the goods they move.

Margin activities (positive ``marginshares``) do not bear tax on the margin
portion of their output; that portion is a markup on goods produced elsewhere.
For each margin activity the margin fraction of every supply-row entry and
every tax-destination entry is removed and handed, destination column by
destination column, to the non-margin activities in proportion to their own
supply into that column.  Totals are conserved exactly: total supply, every
destination-column total, and total statutory tax are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accounts import COMPONENT_ORDER, IOAccounts, N_COMPONENTS, TaxDestinationTable


class MarginError(ValueError):
    """Raised when margin redistribution is impossible for a bundle."""


@dataclass(frozen=True)
class MarginAdjustment:
    """Audit record of one redistribution, one entry per destination column.

    ``supply_pool``, ``tax_pool`` and ``weight_base`` are (n+6,): the n
    intermediate destinations followed by the six final-demand components.
    The pools are the supply and tax the margin activities gave up into each
    column; the weight base is the non-margin activities' supply into it,
    which the pools are shared out by.  With the input rows and the margin
    shares they rebuild the adjusted rows bit for bit.  The totals are sums
    of everything removed.
    """

    activity_codes: tuple[str, ...]
    destination_labels: tuple[str, ...]  # n activity codes + 6 component names
    supply_pool: np.ndarray
    tax_pool: np.ndarray
    weight_base: np.ndarray
    total_supply_moved: float
    total_tax_moved: float


def redistribute_margins(accounts: IOAccounts) -> tuple[IOAccounts, MarginAdjustment]:
    """Strip margin output from margin activities and reassign it to goods rows.

    Reallocation weights for destination column d are the non-margin
    activities' original supply into d divided by their total; they are
    computed once from the input accounts, so the result does not depend on
    any ordering of margin activities.  The returned accounts carry
    ``marginshares = 0`` and a supply vector recomputed from the adjusted
    rows, hence exact row balance.

    Raises :class:`MarginError` when a margin activity has positive share but
    zero supply, or when a destination column receives margin supply or tax
    that no non-margin activity serves (zero reallocation weight base).
    """
    mu = accounts.marginshares
    margin = mu > 0
    n = accounts.n
    codes = accounts.codes
    destinations = codes + tuple(c.value for c in COMPONENT_ORDER)

    if not margin.any():
        zeros = np.zeros(n + N_COMPONENTS)
        return accounts, MarginAdjustment(codes, destinations, zeros, zeros, zeros, 0.0, 0.0)

    dead = margin & (accounts.supply == 0)
    if dead.any():
        names = ", ".join(codes[i] for i in np.flatnonzero(dead))
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
        names = ", ".join(destinations[d] for d in np.flatnonzero(blocked))
        raise MarginError(
            f"margin supply or tax destined to columns with no non-margin supply: {names}"
        )

    weights = np.zeros_like(supply_rows)
    cols = np.flatnonzero(needs)
    weights[np.ix_(~margin, cols)] = goods_rows[:, cols] / weight_base[cols]

    # Reallocated minus removed, in this order, so that the input and the
    # record rebuild these rows bit for bit by the rule in the README.
    new_supply_rows = supply_rows + (weights * supply_pool - removed_supply)
    new_tax_rows = tax_rows + (weights * tax_pool - removed_tax)
    adjusted = IOAccounts(
        activities=accounts.activities,
        flows=new_supply_rows[:, :n],
        finaldemand=new_supply_rows[:, n:],
        supply=new_supply_rows.sum(axis=1),
        taxdest=TaxDestinationTable(
            dest=new_tax_rows, statutory=new_tax_rows.sum(axis=1)
        ),
        marginshares=np.zeros(n),
        metadata=accounts.metadata,
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
