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
import math
from pathlib import Path

import numpy as np

from .accounts import COMPONENT_ORDER, DEFAULT_REPORT_COMPONENTS, N_COMPONENTS, DemandComponent
from .engine import (
    INTERMEDIATE, STATUTORY, CoefficientSystem, IncidenceResult, first_stage_table, with_totals
)
from .margins import MarginAdjustment
from .rates import RateReport

ND = "ND"

MONEY_PRECISION = 2
RATE_PRECISION = 1


def format_number(value: float, precision: int = 0) -> str:
    """Format one number plainly, with ``precision`` decimals ('59917', '7.0')."""
    return f"{value:.{precision}f}"


def _table_rows(activities, cells: np.ndarray, precision: int) -> list[list[str]]:
    """One row per activity, then the Total row, from (n + 1, k) ``cells``; NaN is ND."""
    labels = [[a.code, a.label] for a in activities] + [["Total", ""]]
    return [
        label + [ND if math.isnan(v) else format_number(v, precision) for v in row]
        for label, row in zip(labels, cells.tolist())
    ]


def write_json(data, path: str | Path) -> Path:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline."""
    path = Path(path)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _component_columns(components: tuple[DemandComponent, ...]) -> tuple[list[int], list[str]]:
    """Columns and names of the chosen components, in canonical order."""
    indices = [c.column for c in COMPONENT_ORDER if c in components]
    return indices, [COMPONENT_ORDER[i].value for i in indices]


def _table_header(components: tuple[DemandComponent, ...]) -> list[str]:
    """Header of the final-incidence and rate tables."""
    return ["code", "label"] + _component_columns(components)[1] + ["total"]


def incidence_cells(
    final_incidence: np.ndarray, components: tuple[DemandComponent, ...]
) -> np.ndarray:
    """The final-incidence table's (n + 1, k + 1) cells: the shown components and the
    total over all six (so hidden ones still count), by activity, then the Total row,
    from the totals of :func:`~taxcascade.engine.with_totals`."""
    return with_totals(final_incidence)[:, _component_columns(components)[0] + [N_COMPONENTS]]


def rate_cells(rates: np.ndarray, components: tuple[DemandComponent, ...]) -> np.ndarray:
    """The rate table's (n + 1, k + 1) cells, NaN where ND, from (n + 1, 7) ``rates``:
    activities then Total, by the six components then the all-components column."""
    return rates[:, _component_columns(components)[0] + [N_COMPONENTS]]


def write_rows(path: Path, header: list[str], rows: list[list[str]]) -> Path:
    """A header and rows of strings as CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_first_stage_table(
    result: IncidenceResult,
    path: str | Path,
    *,
    components: tuple[DemandComponent, ...] = DEFAULT_REPORT_COMPONENTS,
) -> Path:
    """Statutory tax and its first-stage split: intermediate vs final demand."""
    idx, names = _component_columns(components)
    header = ["code", "label", "statutory", "intermediate"] + names
    table = first_stage_table(result.first_stage_intermediate, result.first_stage_final)
    cells = table[:, [STATUTORY, INTERMEDIATE] + idx]
    rows = _table_rows(result.activities, cells, MONEY_PRECISION)
    return write_rows(Path(path), header, rows)


def write_final_incidence_table(
    result: IncidenceResult,
    path: str | Path,
    *,
    components: tuple[DemandComponent, ...] = DEFAULT_REPORT_COMPONENTS,
) -> Path:
    """Final incidence by component, with the cells of :func:`incidence_cells`."""
    cells = incidence_cells(result.final_incidence, components)
    rows = _table_rows(result.activities, cells, MONEY_PRECISION)
    return write_rows(Path(path), _table_header(components), rows)


def write_rates_table(
    report: RateReport,
    path: str | Path,
    *,
    components: tuple[DemandComponent, ...] = DEFAULT_REPORT_COMPONENTS,
) -> Path:
    """Effective rates, with the cells of :func:`rate_cells` (ND where masked)."""
    cells = rate_cells(np.vstack([report.rates, report.total_rates]), components)
    rows = _table_rows(report.activities, cells, RATE_PRECISION)
    return write_rows(Path(path), _table_header(components), rows)


def write_margin_audit(adjustment: MarginAdjustment, path: str | Path) -> Path:
    """Supply pool, tax pool and weight base of each destination column a margin
    activity gave up supply or tax into, at full precision."""
    columns = (adjustment.supply_pool, adjustment.tax_pool, adjustment.weight_base)
    listed = np.flatnonzero((columns[0] != 0) | (columns[1] != 0)).tolist()
    rows = [
        [adjustment.destination_labels[d], *(repr(float(c[d])) for c in columns)]
        for d in listed
    ]
    return write_rows(Path(path), ["destination", "supply_pool", "tax_pool", "weight_base"], rows)


def _array_digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=float).tobytes()).hexdigest()


def write_system_digest(system: CoefficientSystem, path: str | Path) -> Path:
    """Checkable summary of a coefficient system (shapes, totals, checksums)."""
    rowsums = system.intermediate_shares.sum(axis=1) + system.final_shares.sum(axis=1)
    supplyless = [a.code for a, total in zip(system.activities, rowsums) if total == 0]
    totals = first_stage_table(system.intermediate_tax, system.final_tax)[-1].tolist()
    digest = {
        "activities": len(system.activities),
        "zero_share_rows": supplyless,
        "share_row_sums": {"min": float(rowsums.min()), "max": float(rowsums.max())},
        "first_stage": {
            "intermediate_total": totals[INTERMEDIATE],
            "final_totals": {c.value: totals[c.column] for c in COMPONENT_ORDER},
            "statutory_total": totals[STATUTORY],
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


def result_record(
    result: IncidenceResult,
    report: RateReport,
    *,
    tolerances: dict,
    components: tuple[DemandComponent, ...],
) -> dict:
    """Structured form of a run: the run summary, then the full arrays diff reads."""
    totals = result.incidence_table[-1].tolist()
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
            "final_incidence": totals[-1],
            "by_component": {c.value: totals[c.column] for c in COMPONENT_ORDER},
        },
        "activities": [a.code for a in result.activities],
        "labels": [a.label for a in result.activities],
        "components": [c.value for c in COMPONENT_ORDER],
        "report_components": _component_columns(components)[1],
        "first_stage_intermediate": result.first_stage_intermediate.tolist(),
        "first_stage_final": result.first_stage_final.tolist(),
        "subsequent_stage": result.subsequent_stage.tolist(),
        "final_incidence": result.final_incidence.tolist(),
        "effective_rates": [
            [None if math.isnan(v) else v for v in row]
            for row in np.vstack([report.rates, report.total_rates]).tolist()
        ],
    }


def write_result_json(record: dict, path: str | Path) -> Path:
    """A :func:`result_record` as ``result.json``, the file ``diff`` reads."""
    return write_json(record, path)


def read_result_json(path: Path) -> dict:
    """The record in ``path``; ValueError naming the file if it lacks a key diff reads."""
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from None
    keys = ("activities", "labels", "report_components", "final_incidence", "effective_rates")
    missing = [key for key in keys if not isinstance(record, dict) or key not in record]
    if missing:
        raise ValueError(f"{path}: no {', '.join(missing)}; recompute this run to diff it")
    return record


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
        base, scen = (cells(np.array(r[stem], dtype=float), components[0]).tolist() for r in runs)
        tables[stem] = (header, [k + _delta_cells(b, s) for k, b, s in zip(labels, base, scen)])
    return tables


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
