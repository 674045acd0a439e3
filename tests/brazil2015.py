"""Published 2015 Brazilian indirect-tax aggregates used as test fixtures.

Two transcribed tables live under ``data/`` as tab-delimited text (labels
contain commas and semicolons): the statutory tax per activity with its
first-stage destination split, and the final incidence per activity and
demand component.  Cells are rounded to currency millions in the source, so
column sums drift from the printed totals by a few units; the printed totals
themselves are frozen here and tests check the transcription against them.

``build_accounts`` constructs a synthetic 67-activity economy whose
tax-destination totals match the published first-stage totals exactly.  The
inter-activity flow pattern is invented (the underlying matrix is not public
at this granularity), which is fine for every total-level check: propagation
conserves tax mass for any valid flow structure.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from taxcascade import (
    Activity,
    DemandComponent,
    IOAccounts,
    N_COMPONENTS,
    TaxDestinationTable,
)

DATA = Path(__file__).parent / "data"

# Printed totals row of the first-stage table.
FIRST_STAGE_TOTALS = {
    "statutory": 840_186.0,
    "intermediate": 363_735.0,
    "exports": 100.0,
    "government": 1_903.0,
    "households": 422_257.0,
    "gfcf": 52_191.0,
}

# Printed totals row of the final-incidence table (exports, government,
# households, gfcf, all-components total).
FINAL_INCIDENCE_TOTALS = (56_314.0, 27_076.0, 638_367.0, 116_739.0, 840_186.0)

# Printed totals row of the effective-rates table, in percent.
TOTAL_EFFECTIVE_RATES = (7.3, 2.3, 19.1, 11.4, 13.1)

# Share of statutory tax landing on intermediate demand at the first stage.
INTERMEDIATE_SHARE_PCT = 43.3

# Margin shares of the margin activities: wholesale/retail trade, land
# transport, water transport.
MARGIN_SHARES = {"a41": 0.895, "a42": 0.322, "a43": 0.079}

FOUR_COMPONENTS = (
    DemandComponent.EXPORTS,
    DemandComponent.GOVERNMENT,
    DemandComponent.HOUSEHOLDS,
    DemandComponent.GFCF,
)


def _read_tsv(name: str) -> tuple[list[str], list[list[str]]]:
    with open(DATA / name, encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh, delimiter="\t") if row]
    return rows[0], rows[1:]


def load_first_stage():
    """codes, labels, statutory (67,), intermediate (67,), final (67, 4)."""
    _, rows = _read_tsv("brazil2015_first_stage.tsv")
    codes = [r[0] for r in rows]
    labels = [r[1] for r in rows]
    values = np.array([[float(v) for v in r[2:]] for r in rows])
    return codes, labels, values[:, 0], values[:, 1], values[:, 2:]


def load_final_incidence():
    """codes, labels, incidence (67, 4), all-components totals (67,)."""
    _, rows = _read_tsv("brazil2015_final_incidence.tsv")
    codes = [r[0] for r in rows]
    labels = [r[1] for r in rows]
    values = np.array([[float(v) for v in r[2:]] for r in rows])
    return codes, labels, values[:, :4], values[:, 4]


def pinned_first_stage():
    """First-stage destinations with column totals pinned to the printed row.

    Source cells are rounded, so each transcribed column can be off by a few
    units; the difference is folded into the column's largest cell.  Statutory
    amounts are then the exact row sums.
    """
    codes, labels, _, intermediate, final4 = load_first_stage()
    columns = [intermediate] + [final4[:, j].copy() for j in range(4)]
    printed = [
        FIRST_STAGE_TOTALS["intermediate"],
        FIRST_STAGE_TOTALS["exports"],
        FIRST_STAGE_TOTALS["government"],
        FIRST_STAGE_TOTALS["households"],
        FIRST_STAGE_TOTALS["gfcf"],
    ]
    pinned = []
    for col, target in zip(columns, printed):
        col = col.copy()
        col[np.argmax(col)] += target - col.sum()
        pinned.append(col)
    intermediate = pinned[0]
    final4 = np.column_stack(pinned[1:])
    statutory = intermediate + final4.sum(axis=1)
    return codes, labels, statutory, intermediate, final4


def build_accounts() -> IOAccounts:
    """Synthetic accounts shaped to the published first-stage aggregates.

    Deterministic construction: preliminary supply proportional to statutory
    tax (floored), a varying intermediate-use fraction, flows spread over
    producing activities in proportion to their size, and final demand split
    over all six components with a negative inventory change every 13th row.
    The last activity (domestic services) is kept at zero supply to exercise
    the degenerate all-zero row.  Final supply is recomputed as the exact row
    sum, so the share rows of the derived system sum to one at machine
    precision.
    """
    codes, labels, statutory, intermediate, final4 = pinned_first_stage()
    n = len(codes)

    prelim = np.maximum(6.0 * statutory, 20_000.0)
    prelim[-1] = 0.0  # zero-supply row; it also has zero tax everywhere

    alpha = 0.3 + 0.3 * (np.arange(n) % 7) / 6.0
    weights = np.where(prelim > 0, prelim, 0.0)
    weights = weights / weights.sum()

    flows = (alpha * prelim)[:, None] * weights[None, :]

    split = np.tile([0.15, 0.05, 0.55, 0.05, 0.15, 0.05], (n, 1))
    drawdown = np.arange(n) % 13 == 0
    split[drawdown] = [0.17, 0.05, 0.64, 0.05, 0.11, -0.02]
    finaldemand = ((1.0 - alpha) * prelim)[:, None] * split
    flows[-1] = 0.0
    finaldemand[-1] = 0.0

    supply = flows.sum(axis=1) + finaldemand.sum(axis=1)

    dest = np.zeros((n, n + N_COMPONENTS))
    rowtotal = flows.sum(axis=1)
    producing = rowtotal > 0
    dest[producing, :n] = (
        intermediate[producing, None] * flows[producing] / rowtotal[producing, None]
    )
    for j, component in enumerate(FOUR_COMPONENTS):
        dest[:, n + component.column] = final4[:, j]

    marginshares = np.zeros(n)
    for code, share in MARGIN_SHARES.items():
        marginshares[codes.index(code)] = share

    activities = tuple(
        Activity(i, code, label) for i, (code, label) in enumerate(zip(codes, labels))
    )
    return IOAccounts(
        activities=activities,
        flows=flows,
        finaldemand=finaldemand,
        supply=supply,
        taxdest=TaxDestinationTable(dest=dest, statutory=dest.sum(axis=1)),
        marginshares=marginshares,
    )
