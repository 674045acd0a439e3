"""Redistribution of trade and transport margins onto the goods they move.

Margin activities (positive ``marginshares``) do not bear tax on the margin
portion of their output; that portion is a markup on goods produced elsewhere.
For each margin activity the margin fraction of every supply-row entry and
every tax-destination entry is removed and handed, destination column by
destination column, to the non-margin activities in proportion to their own
supply into that column.  Totals are conserved exactly: total supply, every
destination-column total, and total statutory tax are untouched.  The one record
of what moved is :class:`MarginAdjustment`; its ``moved`` columns are those shared out.
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
    of everything removed.  ``moved`` marks the columns with a nonzero pool.
    """

    activity_codes: tuple[str, ...]
    destination_labels: tuple[str, ...]  # n activity codes + 6 component names
    supply_pool: np.ndarray
    tax_pool: np.ndarray
    weight_base: np.ndarray
    total_supply_moved: float
    total_tax_moved: float

    @property
    def moved(self) -> np.ndarray:
        """The destination columns that margin supply or tax is moved into."""
        return (self.supply_pool != 0) | (self.tax_pool != 0)


#: Destination columns adjusted at a time: the step's scratch is a few (n, MARGIN_BLOCK)
#: arrays beside the input and the two adjusted tables.  At n = 1000 and 2000, blocks
#: of 32 ran faster and held less than blocks of 64 or 128.
MARGIN_BLOCK = 32


def _strip(rows: np.ndarray, margin: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, float]:
    """The column sums and the total of the margin rows' removed part of ``rows``.

    Both sums run over a zero-filled table of ``rows``' shape and memory order:
    numpy sums pairwise, grouping cells by position, so summing the margin rows
    alone would round differently.
    """
    removed = np.zeros_like(rows)
    removed[margin] = mu[margin, None] * rows[margin]
    return removed.sum(axis=0), float(removed.sum())


def _column_sums(rows: np.ndarray) -> np.ndarray:
    """Each column of ``rows`` summed top to bottom, starting from 0.0.

    That is how numpy sums a C-order table of two or more columns over axis 0;
    a single column it sums pairwise, which rounds differently.
    """
    sums = np.zeros(rows.shape[1])
    if len(rows):
        sums += np.cumsum(rows, axis=0)[-1]
    return sums


def _blocks(width: int) -> list[slice]:
    return [slice(a, a + MARGIN_BLOCK) for a in range(0, width, MARGIN_BLOCK)]


def _strip_margins(accounts: IOAccounts, margin: np.ndarray) -> tuple[MarginAdjustment, np.ndarray]:
    """The step's record, and the supply table it adjusts in place: flows beside final demand."""
    mu = accounts.marginshares
    supply_rows = np.hstack([accounts.flows, accounts.finaldemand])
    # Each table's transient in _strip is freed before the next is made.
    supply_pool, supply_moved = _strip(supply_rows, margin, mu)
    tax_pool, tax_moved = _strip(accounts.taxdest.dest, margin, mu)
    goods = ~margin
    blocks = _blocks(supply_rows.shape[1])
    weight_base = np.concatenate([_column_sums(supply_rows[:, b][goods]) for b in blocks])
    codes = accounts.codes
    record = MarginAdjustment(
        codes, codes + COMPONENT_ORDER, supply_pool, tax_pool, weight_base, supply_moved, tax_moved
    )
    return record, supply_rows


def refusals(accounts: IOAccounts) -> dict[str, list[str]]:
    """Why :func:`redistribute_margins` refuses ``accounts``: each reason, worded as its
    :class:`MarginError` words it, with every activity or destination column it names.
    Empty when the step can run.

    The reasons, in the order the step raises them: a margin activity (positive
    share) with zero supply, and a destination column that receives margin supply
    or tax but no non-margin supply, so nothing weights its share-out.
    """
    margin = accounts.marginshares > 0
    if not margin.any():
        return {}
    return _refused(accounts, _strip_margins(accounts, margin)[0])


def _refused(accounts: IOAccounts, record: MarginAdjustment) -> dict[str, list[str]]:
    """:func:`refusals`, given the step's record of ``accounts``."""
    dead = (accounts.marginshares > 0) & (accounts.supply == 0)
    blocked = record.moved & (record.weight_base == 0)
    found = {
        "margin share set on zero-supply activities": dead,
        "margin supply or tax destined to columns with no non-margin supply": blocked,
    }
    return {
        reason: [record.destination_labels[i] for i in np.flatnonzero(bad)]
        for reason, bad in found.items()
        if bad.any()
    }


def redistribute_margins(accounts: IOAccounts) -> tuple[IOAccounts, MarginAdjustment]:
    """Strip margin output from margin activities and reassign it to goods rows.

    Reallocation weights for destination column d are the non-margin
    activities' original supply into d divided by their total; they are
    computed once from the input accounts, so the result does not depend on
    any ordering of margin activities.  The returned accounts carry
    ``marginshares = 0`` and a supply vector recomputed from the adjusted
    rows, hence exact row balance.

    Raises :class:`MarginError` naming the first of :func:`refusals`.
    """
    mu = accounts.marginshares
    margin = mu > 0
    n = accounts.n

    if not margin.any():
        zeros = np.zeros(n + N_COMPONENTS)
        codes = accounts.codes
        record = MarginAdjustment(codes, codes + COMPONENT_ORDER, zeros, zeros, zeros, 0.0, 0.0)
        return accounts, record

    record, supply_rows = _strip_margins(accounts, margin)
    found = _refused(accounts, record)
    if found:
        reason, names = next(iter(found.items()))
        raise MarginError(f"{reason}: {', '.join(listing(names))}")
    weight_base, moved = record.weight_base, record.moved
    goods = ~margin
    shares = mu[margin, None]

    # Column-major only when both tables are, as the outputs have always been:
    # numpy's row sums round by memory order.
    tax_rows = accounts.taxdest.dest.copy(order="K" if supply_rows.flags.f_contiguous else "C")
    for b in _blocks(n + N_COMPONENTS):
        weights = np.divide(
            supply_rows[:, b], weight_base[b],
            out=np.zeros((n, len(weight_base[b]))), where=goods[:, None] & moved[b],
        )
        for rows, pool in ((supply_rows, record.supply_pool), (tax_rows, record.tax_pool)):
            # Reallocated minus removed, in this order, so that the input and the
            # record rebuild these rows bit for bit by the rule in the README.
            # Goods rows have nothing removed, and x - 0.0 is x, -0.0 included.
            # The removed part is _strip's product, taken before the block changes.
            step = weights * pool[b]
            step[margin] -= shares * rows[margin, b]
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
    return adjusted, record
