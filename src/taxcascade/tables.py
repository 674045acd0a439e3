"""Numpy-free layer: final-demand components, table layouts and totals, ``diff``,
and the one rule for listing offending items.

``taxcascade diff`` subtracts two ``result.json`` records and needs nothing
else, so it runs on this module alone and never loads numpy.  The numpy
modules import the component names from here and sum every table's totals
with :func:`totals`, so ``diff`` and the tables a ``compute`` writes share one
arithmetic.
"""

from __future__ import annotations

import csv
import json
import math
from enum import Enum
from itertools import islice
from pathlib import Path


class DemandComponent(Enum):
    """Final-demand components, in canonical column order."""

    EXPORTS = "exports"
    GOVERNMENT = "government"
    HOUSEHOLDS = "households"
    ISFLSF = "isflsf"
    GFCF = "gfcf"
    INVENTORY = "inventory"

    @property
    def column(self) -> int:
        return _COMPONENT_INDEX[self]


COMPONENT_ORDER: tuple[DemandComponent, ...] = tuple(DemandComponent)
_COMPONENT_INDEX = {c: i for i, c in enumerate(COMPONENT_ORDER)}
N_COMPONENTS = len(COMPONENT_ORDER)

# Default component subset for reports: nonprofit consumption and inventory
# change are folded into totals but not shown as columns.
DEFAULT_REPORT_COMPONENTS: tuple[DemandComponent, ...] = (
    DemandComponent.EXPORTS,
    DemandComponent.GOVERNMENT,
    DemandComponent.HOUSEHOLDS,
    DemandComponent.GFCF,
)

#: Expenditure at or below this (currency millions) is too small for a
#: meaningful rate and is masked as ND.
DISPLAY_THRESHOLD = 1000.0

ND = "ND"

#: A message or record lists at most this many offending cells, rows, codes or
#: columns, and counts the rest in one closing line: it stays bounded at any size.
MAX_LISTED_FAILURES = 10


def listing(items, count: int | None = None, more: str = "") -> list[str]:
    """The first :data:`MAX_LISTED_FAILURES` of ``items``, which may be lazy so that
    only these are worded, then ``... and k more`` + ``more`` for the rest of ``count``
    (default ``len(items)``)."""
    count = len(items) if count is None else count
    listed = list(islice(items, min(count, MAX_LISTED_FAILURES)))
    if count > len(listed):
        listed.append(f"... and {count - len(listed)} more{more}")
    return listed


def totals(rows: list[list[float]]) -> tuple[list[float], list[float]]:
    """The row totals of ``rows`` (n rows of k cells) and its Total row (k + 1 cells,
    the last over the row totals): the one place a table's totals are summed.

    A row total adds the cells left to right from 0.0, which is what numpy's row sum
    does below eight columns (every table has six or seven), so an all-``-0.0`` row
    totals ``+0.0``.  Each Total-row cell is the correctly rounded sum of its column
    (``math.fsum``), so it does not depend on the order of the activities."""
    row_totals = []
    for row in rows:
        total = 0.0
        for value in row:
            total += value
        row_totals.append(total)
    return row_totals, [*map(math.fsum, zip(*rows)), math.fsum(row_totals)]


def _component_columns(components: tuple[DemandComponent, ...]) -> tuple[list[int], list[str]]:
    """Columns and names of the chosen components, in canonical order."""
    indices = [c.column for c in COMPONENT_ORDER if c in components]
    return indices, [COMPONENT_ORDER[i].value for i in indices]


def _table_header(components: tuple[DemandComponent, ...]) -> list[str]:
    """Header of the final-incidence and rate tables."""
    return ["code", "label"] + _component_columns(components)[1] + ["total"]


def rate_cells(
    rates: list[list[float]], components: tuple[DemandComponent, ...]
) -> list[list[float]]:
    """The rate table's (n + 1, k + 1) cells, NaN where ND, from (n + 1, 7) ``rates``:
    activities then Total, by the shown components then the all-components column."""
    columns = _component_columns(components)[0] + [N_COMPONENTS]
    return [[row[c] for c in columns] for row in rates]


def incidence_cells(
    final_incidence: list[list[float]], components: tuple[DemandComponent, ...]
) -> list[list[float]]:
    """The final-incidence table's (n + 1, k + 1) cells from (n, 6) ``final_incidence``:
    the columns of :func:`rate_cells` (the total over all six components, so hidden
    ones still count) of the table with its :func:`totals`."""
    row_totals, total_row = totals(final_incidence)
    table = [[*row, total] for row, total in zip(final_incidence, row_totals)]
    return rate_cells(table + [total_row], components)


def write_rows(path: Path, header: list[str], rows: list[list[str]]) -> Path:
    """A header and rows of strings as CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _is_table(value, rows: int, width: int) -> bool:
    """Whether ``value`` is a list of ``rows`` lists of ``width`` cells each."""
    return (
        isinstance(value, list)
        and len(value) == rows
        and all(isinstance(row, list) and len(row) == width for row in value)
    )


def read_result_json(path: Path) -> dict:
    """The record in ``path``; ValueError naming the file if it lacks a key diff reads,
    if its labels or matrices do not have one row per activity (and Total), and also
    the key and the cell if a matrix cell is not a number or ``null``, or a shown
    component not one of :data:`COMPONENT_ORDER`."""
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from None
    keys = ("activities", "labels", "report_components", "final_incidence", "effective_rates")
    missing = [key for key in keys if not isinstance(record, dict) or key not in record]
    if missing:
        raise ValueError(f"{path}: no {', '.join(missing)}; recompute this run to diff it")
    n = len(record["activities"])
    shapes = {"final_incidence": (n, N_COMPONENTS), "effective_rates": (n + 1, N_COMPONENTS + 1)}
    wrong = [key for key, shape in shapes.items() if not _is_table(record[key], *shape)]
    if not (isinstance(record["labels"], list) and len(record["labels"]) == n):
        wrong.insert(0, "labels")
    if wrong:
        raise ValueError(
            f"{path}: {', '.join(wrong)} not shaped for its {n} activities; "
            "recompute this run to diff it"
        )
    for key in shapes:
        for i, row in enumerate(record[key]):
            for j, value in enumerate(row):
                # JSON numbers or null; type() also turns away true and false
                if value is not None and type(value) not in (int, float):
                    raise ValueError(
                        f"{path}: {key}[{i}][{j}] must be a number or null, got {value!r:.60}"
                    )
    names = [c.value for c in COMPONENT_ORDER]
    shown = record["report_components"]
    if not isinstance(shown, list):
        raise ValueError(f"{path}: report_components must be an array, got {shown!r:.60}")
    for k, name in enumerate(shown):
        if name not in names:
            raise ValueError(
                f"{path}: report_components[{k}] must be one of {names}, got {name!r:.60}"
            )
    return record


def _floats(rows: list[list]) -> list[list[float]]:
    """A record's matrix as floats; ``null`` (a masked rate) is NaN."""
    return [[math.nan if v is None else float(v) for v in row] for row in rows]


def _delta_cells(base: list[float], scen: list[float]) -> list[str]:
    """Delta and pct of each cell pair; both ND where either cell is, pct ND on a 0 base."""
    cells = []
    for b, s in zip(base, scen):
        if math.isnan(b) or math.isnan(s):
            cells += [ND, ND]
        else:
            cells += [f"{s - b:.6f}", ND if b == 0 else f"{100.0 * (s - b) / abs(b):.6f}"]
    return cells


def diff_tables(baseline: dict, scenario: dict) -> dict[str, tuple[list[str], list[list[str]]]]:
    """Scenario minus baseline: (header, rows) of the final-incidence and rate diffs by stem.

    Each shown column becomes ``<name>_delta`` and ``<name>_pct`` (percent of the baseline's
    magnitude) from the full-precision cells the tables round.  ValueError when the runs
    show different columns or activities."""
    runs = (baseline, scenario)
    components = [tuple(map(DemandComponent, r["report_components"])) for r in runs]
    header_b, header_s = map(_table_header, components)
    if header_b != header_s:
        raise ValueError(f"column mismatch: {header_b} vs {header_s}")
    keys_b, keys_s = ([*r["activities"], "Total"] for r in runs)
    if keys_b != keys_s:
        first = next((f"{a!r} vs {b!r}" for a, b in zip(keys_b, keys_s) if a != b), "row count")
        raise ValueError(
            f"row mismatch: baseline has {len(keys_b)} rows, scenario {len(keys_s)}; "
            f"first difference at {first}"
        )
    header = header_b[:2] + [f"{name}_{x}" for name in header_b[2:] for x in ("delta", "pct")]
    labels = [[code, label] for code, label in zip(keys_b, [*baseline["labels"], ""])]
    tables = {}
    for stem, cells in (("final_incidence", incidence_cells), ("effective_rates", rate_cells)):
        base, scen = (cells(_floats(r[stem]), components[0]) for r in runs)
        tables[stem] = (header, [k + _delta_cells(b, s) for k, b, s in zip(labels, base, scen)])
    return tables
