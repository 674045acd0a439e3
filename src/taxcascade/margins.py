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

from .accounts import IOAccounts, TaxDestinationTable
from .tables import COMPONENT_ORDER, N_COMPONENTS, listing


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


#: Destination columns adjusted at a time: the step's scratch is a few (n, MARGIN_BLOCK)
#: arrays beside the input and the two adjusted tables.  At n = 1000 and 2000, blocks
#: of 32 ran faster and held less than blocks of 64 or 128.
MARGIN_BLOCK = 32


def _strip(
    rows: np.ndarray, margin: np.ndarray, mu: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """The margin rows' removed part of ``rows`` (margin rows only), its column
    sums and its total.

    Both sums run over a zero-filled table of ``rows``' shape and memory order:
    numpy sums pairwise, grouping cells by position, so summing the margin rows
    alone would round differently.
    """
    removed = np.zeros_like(rows)
    removed[margin] = mu[margin, None] * rows[margin]
    return removed[margin], removed.sum(axis=0), float(removed.sum())


def _column_sums(rows: np.ndarray) -> np.ndarray:
    """Each column of ``rows`` summed top to bottom, starting from 0.0.

    That is how numpy sums a C-order table of two or more columns over axis 0;
    a single column it sums pairwise, which rounds differently.
    """
    sums = np.zeros(rows.shape[1])
    if len(rows):
        sums += np.cumsum(rows, axis=0)[-1]
    return sums


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
        names = ", ".join(listing([codes[i] for i in np.flatnonzero(dead)]))
        raise MarginError(f"margin share set on zero-supply activities: {names}")

    # supply_rows becomes the adjusted supply table.  Each table's transient in
    # _strip is freed before the tax table is copied; the blocks then adjust both.
    supply_rows = np.hstack([accounts.flows, accounts.finaldemand])
    supply_removed, supply_pool, supply_moved = _strip(supply_rows, margin, mu)
    tax_removed, tax_pool, tax_moved = _strip(accounts.taxdest.dest, margin, mu)

    goods = ~margin
    blocks = [slice(a, a + MARGIN_BLOCK) for a in range(0, n + N_COMPONENTS, MARGIN_BLOCK)]
    weight_base = np.concatenate([_column_sums(supply_rows[:, b][goods]) for b in blocks])
    needs = (supply_pool != 0) | (tax_pool != 0)
    blocked = needs & (weight_base == 0)
    if blocked.any():
        names = ", ".join(listing([destinations[d] for d in np.flatnonzero(blocked)]))
        raise MarginError(
            f"margin supply or tax destined to columns with no non-margin supply: {names}"
        )

    # Column-major only when both tables are, as the outputs have always been:
    # numpy's row sums round by memory order.
    tax_rows = accounts.taxdest.dest.copy(order="K" if supply_rows.flags.f_contiguous else "C")
    for b in blocks:
        weights = np.divide(
            supply_rows[:, b], weight_base[b],
            out=np.zeros((n, len(weight_base[b]))), where=goods[:, None] & needs[b],
        )
        for rows, removed, pool in (
            (supply_rows, supply_removed, supply_pool),
            (tax_rows, tax_removed, tax_pool),
        ):
            # Reallocated minus removed, in this order, so that the input and the
            # record rebuild these rows bit for bit by the rule in the README.
            # Goods rows have nothing removed, and x - 0.0 is x, -0.0 included.
            step = weights * pool[b]
            step[margin] -= removed[:, b]
            rows[:, b] += step
    adjusted = IOAccounts(
        activities=accounts.activities,
        flows=supply_rows[:, :n],
        finaldemand=supply_rows[:, n:],
        supply=supply_rows.sum(axis=1),
        taxdest=TaxDestinationTable(
            dest=tax_rows, statutory=tax_rows.sum(axis=1)
        ),
        marginshares=np.zeros(n),
    )
    return adjusted, MarginAdjustment(
        activity_codes=codes,
        destination_labels=destinations,
        supply_pool=supply_pool,
        tax_pool=tax_pool,
        weight_base=weight_base,
        total_supply_moved=supply_moved,
        total_tax_moved=tax_moved,
    )
