"""Tax-exclusive effective rates and aggregate summary figures.

Rates follow the tax-exclusive definition: incidence divided by expenditure
net of that incidence, in percent.  Expenditure is at purchasers' prices
(tax included), so the natural base is the final-demand matrix of the same
accounts the incidence was propagated from.  Cells are masked as not
determinable (ND) when expenditure is at or below a smallness threshold or
when the net base is nonpositive; masking is purely presentational and never
feeds back into totals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accounts import Activity
from .engine import (
    INTERMEDIATE, STATUTORY, CoefficientSystem, IncidenceResult, first_stage_table, with_totals
)
from .tables import COMPONENT_ORDER, DISPLAY_THRESHOLD, N_COMPONENTS, DemandComponent, listing


@dataclass(frozen=True)
class RateReport:
    """Effective rates by activity, then the Total row, as ``result.json`` holds them.

    ``rates`` has one column per :data:`COMPONENT_ORDER` entry plus a trailing
    total-final-demand column, from one rate computation on incidence and
    expenditure with their totals (:func:`~taxcascade.engine.with_totals`).
    """

    activities: tuple[Activity, ...]
    rates: np.ndarray  # (n + 1, 7) percent, NaN where ND
    component_shares: np.ndarray  # (6,) percent of grand total, NaN if undefined
    diagnostics: tuple[str, ...] = ()

    @property
    def masked(self) -> np.ndarray:
        """(n, 7) bool: the activity cells masked as ND."""
        return np.isnan(self.rates[:-1])


def _expenditure_table(result: IncidenceResult, expenditure) -> np.ndarray:
    expenditure = np.asarray(expenditure, dtype=float)
    n = len(result.activities)
    if expenditure.shape != (n, N_COMPONENTS):
        raise ValueError(
            f"expenditure must be {n}x{N_COMPONENTS}, got {expenditure.shape}"
        )
    return with_totals(expenditure)


def effective_rates(
    result: IncidenceResult,
    expenditure,
    *,
    threshold: float = DISPLAY_THRESHOLD,
) -> RateReport:
    """Compute tax-exclusive effective rates against an expenditure base.

    ``expenditure`` is an (n, 6) matrix of final-demand expenditure at
    purchasers' prices, aligned with the result's activities and with
    :data:`COMPONENT_ORDER`.  Every unmasked cell satisfies
    ``rate = 100 * incidence / (expenditure - incidence)``; cells where the
    net base is nonpositive despite expenditure above the threshold are
    masked and reported in ``diagnostics`` rather than raising: the first
    :data:`~taxcascade.tables.MAX_LISTED_FAILURES` cell by cell, the rest as one count.
    """
    if not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    expenditure = _expenditure_table(result, expenditure)
    incidence = result.incidence_table
    net = expenditure - incidence
    masked = (expenditure <= threshold) | (net <= 0)
    rates = np.full(incidence.shape, np.nan)
    np.divide(100.0 * incidence, net, out=rates, where=~masked)

    labels = [c.value for c in COMPONENT_ORDER] + ["total"]
    rows, cols = np.nonzero(masked[:-1] & (expenditure[:-1] > threshold))
    cells = (
        f"{result.activities[i].code} / {labels[j]}: expenditure "
        f"{expenditure[i, j]:.6g} does not exceed incidence "
        f"{incidence[i, j]:.6g}; rate masked as ND"
        for i, j in zip(rows, cols)
    )
    more = " cells masked as ND despite expenditure above the threshold"
    diagnostics = listing(cells, rows.size, more)

    try:
        shares = component_shares(result)
    except ValueError as exc:
        shares = np.full(N_COMPONENTS, np.nan)
        diagnostics.append(str(exc))

    return RateReport(result.activities, rates, shares, tuple(diagnostics))


def component_shares(result: IncidenceResult) -> np.ndarray:
    """Each component's share of grand-total final incidence, in percent."""
    grand = result.grand_total
    if grand == 0:
        raise ValueError("grand-total incidence is zero; component shares undefined")
    return 100.0 * result.component_totals / grand


def first_stage_intermediate_share(system: CoefficientSystem) -> float:
    """Percent of statutory tax that lands on intermediate demand at stage one."""
    totals = first_stage_table(system.intermediate_tax, system.final_tax)[-1]
    if totals[STATUTORY] == 0:
        raise ValueError("statutory total is zero; share is undefined")
    return float(100.0 * totals[INTERMEDIATE] / totals[STATUTORY])


def single_rate_equivalent(result: IncidenceResult, expenditure) -> float:
    """The one household-consumption rate that would raise the same revenue.

    Grand-total incidence divided by household expenditure net of the
    incidence already borne by households, in percent.
    """
    household = DemandComponent.HOUSEHOLDS.column
    spent = _expenditure_table(result, expenditure)[-1, household]
    net_base = float(spent - result.component_totals[household])
    if net_base <= 0:
        raise ValueError(f"household net expenditure base must be positive, got {net_base}")
    return 100.0 * result.grand_total / net_base
