"""Report emission: incidence tables, rate tables, audit records.

Three table layouts mirror the standard presentation: statutory tax plus its
first-stage destinations, final incidence by component with an all-components
total column, and effective rates with ND masking.  Every writer is
deterministic (fixed column order, fixed line endings, no timestamps) so that
identical inputs produce identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from .accounts import COMPONENT_ORDER, DEFAULT_REPORT_COMPONENTS, DemandComponent
from .engine import CoefficientSystem, IncidenceResult
from .margins import MarginAdjustment
from .rates import RateReport

ND = "ND"

MONEY_PRECISION = 2
RATE_PRECISION = 1


def format_number(value: float, precision: int = 0) -> str:
    """Format one number plainly, with ``precision`` decimals ('59917', '7.0')."""
    return f"{value:.{precision}f}"


def _table_rows(activities, values, totals, precision: int, masked=None) -> list[list[str]]:
    """One row per activity from (n, k) ``values``, then the Total row from (k,) ``totals``.

    ``masked`` is an optional (n + 1, k) mask of cells written as ND.
    """
    cells = np.vstack([values, totals])
    if masked is None:
        masked = np.zeros(cells.shape, dtype=bool)
    labels = [[a.code, a.label] for a in activities] + [["Total", ""]]
    return [
        label + [ND if m else format_number(v, precision) for v, m in zip(row, hidden)]
        for label, row, hidden in zip(labels, cells.tolist(), masked.tolist())
    ]


def write_json(data, path: str | Path) -> Path:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline."""
    path = Path(path)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _component_columns(
    components: tuple[DemandComponent, ...],
) -> tuple[list[int], list[str]]:
    indices = [c.column for c in COMPONENT_ORDER if c in components]
    names = [COMPONENT_ORDER[i].value for i in indices]
    return indices, names


def write_rows(path: Path, header: list[str], rows: list[list[str]], *, fmt: str) -> Path:
    """A header and rows of strings as CSV, or as JSON records with ``fmt='json'``."""
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    elif fmt == "json":
        write_json({"columns": header, "rows": [dict(zip(header, row)) for row in rows]}, path)
    else:
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    return path


def write_first_stage_table(
    result: IncidenceResult,
    path: str | Path,
    *,
    components: tuple[DemandComponent, ...] = DEFAULT_REPORT_COMPONENTS,
    fmt: str = "csv",
) -> Path:
    """Statutory tax and its first-stage split: intermediate vs final demand."""
    idx, names = _component_columns(components)
    header = ["code", "label", "statutory", "intermediate"] + names
    statutory = result.first_stage_intermediate + result.first_stage_final.sum(axis=1)
    columns = [statutory, result.first_stage_intermediate]
    columns += [result.first_stage_final[:, j] for j in idx]
    totals = [c.sum() for c in columns]
    rows = _table_rows(result.activities, np.column_stack(columns), totals, MONEY_PRECISION)
    return write_rows(Path(path), header, rows, fmt=fmt)


def write_final_incidence_table(
    result: IncidenceResult,
    path: str | Path,
    *,
    components: tuple[DemandComponent, ...] = DEFAULT_REPORT_COMPONENTS,
    fmt: str = "csv",
) -> Path:
    """Final incidence by component.

    The total column always sums all six components, even when only a subset
    is shown, so hidden components remain visible in the totals.
    """
    idx, names = _component_columns(components)
    header = ["code", "label"] + names + ["total"]
    matrix = result.final_incidence
    columns = [matrix[:, j] for j in idx] + [matrix.sum(axis=1)]
    totals = [c.sum() for c in columns]
    rows = _table_rows(result.activities, np.column_stack(columns), totals, MONEY_PRECISION)
    return write_rows(Path(path), header, rows, fmt=fmt)


def write_rates_table(
    report: RateReport,
    path: str | Path,
    *,
    components: tuple[DemandComponent, ...] = DEFAULT_REPORT_COMPONENTS,
    fmt: str = "csv",
) -> Path:
    """Effective rates with ND where masked; trailing all-components column."""
    idx, names = _component_columns(components)
    columns = idx + [report.rates.shape[1] - 1]
    header = ["code", "label"] + names + ["total"]
    masked = np.vstack([report.masked[:, columns], report.total_masked[columns]])
    rows = _table_rows(
        report.activities,
        report.rates[:, columns],
        report.total_rates[columns],
        RATE_PRECISION,
        masked,
    )
    return write_rows(Path(path), header, rows, fmt=fmt)


def write_margin_audit(adjustment: MarginAdjustment, path: str | Path) -> Path:
    """Net supply and tax deltas per (activity, destination), nonzero cells only."""
    path = Path(path)
    supply_delta = adjustment.supply_delta
    tax_delta = adjustment.tax_delta
    rows, cols = np.nonzero((supply_delta != 0) | (tax_delta != 0))
    codes = adjustment.activity_codes
    labels = adjustment.destination_labels
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["activity", "destination", "supply_delta", "tax_delta"])
        writer.writerows(
            [codes[i], labels[j], repr(s), repr(t)]
            for i, j, s, t in zip(
                rows.tolist(),
                cols.tolist(),
                supply_delta[rows, cols].tolist(),
                tax_delta[rows, cols].tolist(),
            )
        )
    return path


def _array_digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=float).tobytes()).hexdigest()


def write_system_digest(system: CoefficientSystem, path: str | Path) -> Path:
    """Checkable summary of a coefficient system (shapes, totals, checksums)."""
    rowsums = system.intermediate_shares.sum(axis=1) + system.final_shares.sum(axis=1)
    supplyless = [
        a.code
        for a, total in zip(system.activities, rowsums)
        if total == 0
    ]
    digest = {
        "activities": len(system.activities),
        "zero_share_rows": supplyless,
        "share_row_sums": {
            "min": float(rowsums.min()),
            "max": float(rowsums.max()),
        },
        "first_stage": {
            "intermediate_total": float(system.intermediate_tax.sum()),
            "final_totals": {
                c.value: float(system.final_tax[:, c.column].sum())
                for c in COMPONENT_ORDER
            },
            "statutory_total": system.statutory_total,
        },
        "sha256": {
            "intermediate_shares": _array_digest(system.intermediate_shares),
            "final_shares": _array_digest(system.final_shares),
            "intermediate_tax": _array_digest(system.intermediate_tax),
            "final_tax": _array_digest(system.final_tax),
        },
    }
    return write_json(digest, path)


#: Keys of :func:`result_record` that make up the run summary; ``audit.json``
#: repeats them.
SUMMARY_KEYS = (
    "method", "stages", "converged", "series_residual", "conservation", "tolerances", "totals"
)


def result_record(result: IncidenceResult, *, tolerances: dict) -> dict:
    """Structured form of a result: the run summary, then the full arrays."""
    return {
        "method": result.method,
        "stages": result.stages,
        "converged": result.converged,
        "series_residual": result.series_residual,
        "conservation": {
            "residual": result.conservation_residual,
            "relative": result.conservation_relative,
            "within_tolerance": result.conserved,
        },
        "tolerances": tolerances,
        "totals": {
            "statutory": result.statutory_total,
            "final_incidence": result.grand_total,
            "by_component": {
                c.value: float(result.component_totals[c.column])
                for c in COMPONENT_ORDER
            },
        },
        "activities": [a.code for a in result.activities],
        "components": [c.value for c in COMPONENT_ORDER],
        "first_stage_intermediate": result.first_stage_intermediate.tolist(),
        "first_stage_final": result.first_stage_final.tolist(),
        "subsequent_stage": result.subsequent_stage.tolist(),
        "final_incidence": result.final_incidence.tolist(),
    }


def write_result_json(result: IncidenceResult, path: str | Path, *, tolerances: dict) -> Path:
    return write_json(result_record(result, tolerances=tolerances), path)


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def bundle_digests(manifest_path: str | Path) -> dict:
    """sha256 of the manifest and of every table file it references."""
    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    files = {"manifest": {"path": manifest_path.name, "sha256": file_digest(manifest_path)}}
    for name, rel in sorted(manifest.get("tables", {}).items()):
        target = manifest_path.parent / rel
        entry = {"path": rel}
        if target.exists():
            entry["sha256"] = file_digest(target)
        files[name] = entry
    return files
