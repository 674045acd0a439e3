"""Report emission: incidence tables, rate tables, audit records.

Three table layouts mirror the standard presentation: statutory tax plus its
first-stage destinations, final incidence by component with an all-components
total column, and effective rates with ND masking.  Every writer is
deterministic (fixed column order, fixed line endings, no timestamps) so that
identical inputs produce identical bytes.

Each fact of a run is in one file: ``result.json`` holds the numbers, ``audit.json``
how the run went and ``system_digest.json`` the coefficient system.  ``result.json``
is compact JSON, one line with sorted keys (``python -m json.tool`` indents it for
reading); ``audit.json``, ``system_digest.json`` and ``validation_report.json`` are
indented by :func:`write_json`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .accounts import IOAccounts
from .engine import (
    CONDITION_LIMIT, CONSERVATION_RTOL, INTERMEDIATE, STATUTORY, CoefficientSystem, IncidenceResult
)
from .margins import MarginAdjustment
from .rates import RateReport
from .tables import (
    COMPONENT_ORDER, DEFAULT_REPORT_COMPONENTS, ND, DemandComponent, _component_columns,
    _table_header, rate_cells, write_rows,
)

MONEY_PRECISION = 2
RATE_PRECISION = 1


def format_number(value: float, precision: int = 0) -> str:
    """Format one number plainly, with ``precision`` decimals ('59917', '7.0')."""
    return f"{value:.{precision}f}"


def _table_rows(activities, cells: list[list[float]], precision: int) -> list[list[str]]:
    """One row per activity, then the Total row, from (n + 1, k) ``cells``; NaN is ND."""
    labels = [[a.code, a.label] for a in activities] + [["Total", ""]]
    return [
        label + [ND if math.isnan(v) else format_number(v, precision) for v in row]
        for label, row in zip(labels, cells)
    ]


def write_json(data, path: str | Path) -> Path:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline.

    For the small records (``audit.json``, ``system_digest.json`` and
    ``validation_report.json``); ``result.json`` is compact, see :func:`write_result_json`.
    """
    path = Path(path)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
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
    cells = result.first_stage[:, [STATUTORY, INTERMEDIATE] + idx].tolist()
    rows = _table_rows(result.activities, cells, MONEY_PRECISION)
    return write_rows(Path(path), header, rows)


def write_final_incidence_table(
    result: IncidenceResult,
    path: str | Path,
    *,
    components: tuple[DemandComponent, ...] = DEFAULT_REPORT_COMPONENTS,
) -> Path:
    """Final incidence by component, with the cells of :func:`rate_cells` (the total
    over all six components, so hidden ones still count)."""
    cells = rate_cells(result.incidence_table.tolist(), components)
    rows = _table_rows(result.activities, cells, MONEY_PRECISION)
    return write_rows(Path(path), _table_header(components), rows)


def write_rates_table(
    report: RateReport,
    path: str | Path,
    *,
    components: tuple[DemandComponent, ...] = DEFAULT_REPORT_COMPONENTS,
) -> Path:
    """Effective rates, with the cells of :func:`rate_cells` (ND where masked)."""
    cells = rate_cells(report.rates.tolist(), components)
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
    """sha256 of ``arr``'s float64 cells in C order, 64 rows at a time: never one whole copy."""
    arr = np.atleast_1d(np.asarray(arr, dtype=float))
    digest = hashlib.sha256()
    for start in range(0, len(arr), 64):
        digest.update(np.ascontiguousarray(arr[start : start + 64]))
    return digest.hexdigest()


def write_system_digest(system: CoefficientSystem, path: str | Path) -> Path:
    """Checkable summary of a coefficient system: its share rows and checksums."""
    rowsums = system.share_row_sums
    supplyless = [a.code for a, total in zip(system.activities, rowsums) if total == 0]
    digest = {
        "zero_share_rows": supplyless,
        "share_row_sums": {"min": float(rowsums.min()), "max": float(rowsums.max())},
        "sha256": {
            "intermediate_shares": _array_digest(system.intermediate_shares),
            "final_shares": _array_digest(system.final_shares),
            "intermediate_tax": _array_digest(system.intermediate_tax),
            "final_tax": _array_digest(system.final_tax),
        },
    }
    return write_json(digest, path)


def result_record(
    result: IncidenceResult,
    report: RateReport,
    *,
    components: tuple[DemandComponent, ...],
) -> dict:
    """The numbers of a run, ``result.json``: its totals and the full arrays diff reads."""
    totals = result.incidence_table[-1].tolist()
    return {
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
            for row in report.rates.tolist()
        ],
    }


def write_result_json(record: dict, path: str | Path) -> Path:
    """A :func:`result_record` as ``result.json``, the file ``diff`` reads: compact JSON,
    one line with sorted keys and no whitespace, then a newline.

    Without ``indent`` json encodes in C; every number is written as :func:`write_json`
    writes it.  ``python -m json.tool result.json`` shows it indented.
    """
    path = Path(path)
    text = json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"
    path.write_text(text, encoding="utf-8")
    return path


def audit_record(
    result: IncidenceResult, report: RateReport, adjustment: MarginAdjustment | None, *,
    bundle: dict, manifest: str, scenario: dict | None, tol: float | None,
    maxstages: int | None, threshold: float, outputs: list[str],
) -> dict:
    """How a run went, ``audit.json``: its inputs (``bundle`` from :func:`bundle_digests`,
    ``scenario`` the ``--scenario`` file's path and sha256, or None), method,
    convergence, tolerances, margin totals (None without an ``adjustment``), solve,
    component shares, diagnostics and ``outputs``."""
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
        "tolerances": {
            "conservation_rtol": CONSERVATION_RTOL,
            "condition_limit": CONDITION_LIMIT,
            "truncation_tol": tol,
            "maxstages": maxstages,
            "threshold": threshold,
        },
        "margins": None
        if adjustment is None
        else {
            "supply_moved": adjustment.total_supply_moved,
            "tax_moved": adjustment.total_tax_moved,
        },
        "solve": {"condition": result.condition, "residual": result.solve_residual},
        "truncation": None if result.truncation is None else asdict(result.truncation),
        "component_shares": {
            c.value: None if math.isnan(share) else share
            for c, share in zip(COMPONENT_ORDER, report.component_shares.tolist())
        },
        "diagnostics": list(report.diagnostics),
        "bundle": bundle,
        "manifest": manifest,
        "scenario": scenario,
        "outputs": sorted(outputs),
    }


def bundle_digests(accounts: IOAccounts) -> dict:
    """``audit.json``'s ``bundle``, from :attr:`IOAccounts.sources`: opens no file."""
    return {name: {"path": p, "sha256": d} for name, (p, d) in accounts.sources.items()}
