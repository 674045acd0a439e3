"""Reference results and output checks, written apart from the program.

The reference follows the definitions in the repository README, not the
program's code: margin redistribution strips each margin activity's margin
fraction from its supply row and its tax row and hands every destination
column's pool to the non-margin activities in proportion to their supply into
that column; the stage series is then summed with one dense
``numpy.linalg.solve``.  Every check raises :class:`CheckError` with a message
that names the file and cell.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from inputs import N_COMPONENTS, Economy

COMPONENTS = ("exports", "government", "households", "isflsf", "gfcf", "inventory")
#: Default rate-masking threshold of ``compute`` (expenditure at or below it is ND).
THRESHOLD = 1000.0
CONSERVATION_RTOL = 1e-9
#: Cell agreement between the program and the reference, relative to the
#: largest incidence cell (the truncated series stops at 1e-12 of the mass).
CELL_RTOL = 1e-8
ND = "ND"


class CheckError(AssertionError):
    """An output of the program is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass(frozen=True)
class Reference:
    final: np.ndarray  # (n, 6) final incidence
    expenditure: np.ndarray  # (n, 6) post-margin final demand
    shares: np.ndarray  # (n, n) supplier-normalized intermediate shares
    final_shares: np.ndarray  # (n, 6)
    intermediate_tax: np.ndarray  # (n,)
    first_final: np.ndarray  # (n, 6)
    statutory_total: float  # sum of the generated tax table times the scales


def reference(economy: Economy, scale: np.ndarray) -> Reference:
    n = economy.n
    dest = economy.dest * scale[:, None]
    rows = np.hstack([economy.flows, economy.finaldemand])
    mu = economy.marginshares
    margin = mu > 0
    supply_pool = (mu[margin, None] * rows[margin]).sum(axis=0)
    tax_pool = (mu[margin, None] * dest[margin]).sum(axis=0)
    base = rows[~margin].sum(axis=0)
    weights = np.zeros_like(rows)
    weights[~margin] = rows[~margin] / np.where(base != 0, base, 1.0)
    keep = np.where(margin, 1.0 - mu, 1.0)[:, None]
    rows = rows * keep + weights * supply_pool
    dest = dest * keep + weights * tax_pool

    supply = rows.sum(axis=1)
    positive = supply > 0
    shares_all = np.zeros_like(rows)
    shares_all[positive] = rows[positive] / supply[positive, None]
    shares, final_shares = shares_all[:, :n], shares_all[:, n:]
    intermediate_tax = dest[:, :n].sum(axis=1)
    cumulative = np.linalg.solve(np.eye(n) - shares.T, intermediate_tax)
    first_final = dest[:, n:]
    return Reference(
        final=first_final + cumulative[:, None] * final_shares,
        expenditure=rows[:, n:],
        shares=shares,
        final_shares=final_shares,
        intermediate_tax=intermediate_tax,
        first_final=first_final,
        statutory_total=float((economy.dest * scale[:, None]).sum()),
    )


# ---------------------------------------------------------------------------
# Reading outputs
# ---------------------------------------------------------------------------


def read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path}: unreadable ({exc})") from None


def read_table(path: Path) -> tuple[list[str], dict[str, list[str]]]:
    """Header and rows keyed by the first cell."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise CheckError(f"{path}: unreadable ({exc})") from None
    return rows[0], {row[0]: row for row in rows[1:]}


def tree_digest(directory: Path) -> dict[str, str]:
    """sha256 of every file under ``directory``, keyed by relative path."""
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def _with_total(matrix: np.ndarray) -> np.ndarray:
    """Append the all-components column."""
    return np.column_stack([matrix, matrix.sum(axis=1)])


def _with_total_row(matrix: np.ndarray) -> np.ndarray:
    """Append the all-activities ``Total`` row."""
    return np.vstack([matrix, matrix.sum(axis=0)])


def _column(name: str) -> int:
    return N_COMPONENTS if name == "total" else COMPONENTS.index(name)


def rates(incidence: np.ndarray, expenditure: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tax-exclusive rates with an all-components column, and the ND mask."""
    inc, exp = _with_total(incidence), _with_total(expenditure)
    net = exp - inc
    masked = (exp <= THRESHOLD) | (net <= 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(masked, np.nan, 100.0 * inc / net), masked


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_compute(out: Path, economy: Economy, ref: Reference, *, truncated: bool) -> np.ndarray:
    """Cells, conservation, rates and convergence of one ``compute`` output.

    Returns the program's final incidence (n, 6) at full precision.
    """
    record = read_json(out / "result.json")
    audit = read_json(out / "audit.json")
    _require(
        record.get("activities") == list(economy.codes),
        f"{out}/result.json: activity list differs from the bundle",
    )
    final = np.array(record["final_incidence"], dtype=float)
    _require(final.shape == ref.final.shape, f"{out}/result.json: final_incidence shape {final.shape}")
    scale = max(1.0, float(np.abs(ref.final).max()))
    err = np.abs(final - ref.final)
    worst = np.unravel_index(int(err.argmax()), err.shape)
    _require(
        err[worst] <= CELL_RTOL * scale,
        f"{out}/result.json: final_incidence[{economy.codes[worst[0]]}, "
        f"{COMPONENTS[worst[1]]}] = {float(final[worst])!r}, reference {float(ref.final[worst])!r}",
    )

    grand = float(record["totals"]["final_incidence"])
    statutory = ref.statutory_total
    _require(
        abs(grand - statutory) <= CONSERVATION_RTOL * max(1.0, abs(statutory)),
        f"{out}/result.json: grand total {grand!r} vs statutory total {statutory!r}",
    )
    _require(
        abs(float(final.sum()) - statutory) <= CONSERVATION_RTOL * max(1.0, abs(statutory)),
        f"{out}/result.json: cells sum to {float(final.sum())!r}, statutory {statutory!r}",
    )
    if truncated:
        _require(audit.get("converged") is True, f"{out}/audit.json: converged is {audit.get('converged')!r}")
        _require(audit.get("method") == "truncated", f"{out}/audit.json: method {audit.get('method')!r}")

    check_rates(out / "effective_rates.csv", economy, final, ref.expenditure)
    return final


def check_rates(path: Path, economy: Economy, final: np.ndarray, expenditure: np.ndarray) -> None:
    """Rate identity on unmasked cells (within display rounding); ND only where due."""
    header, rows = read_table(path)
    keys = list(economy.codes) + ["Total"]
    _require(sorted(rows) == sorted(keys), f"{path}: rows differ from the activity list")
    inc, exp = _with_total_row(final), _with_total_row(expenditure)
    want, masked = rates(inc, exp)
    inc, exp = _with_total(inc), _with_total(exp)
    for name in header[2:]:
        j = _column(name)
        for i, code in enumerate(keys):
            cell = rows[code][header.index(name)]
            where = f"{path}: {code} / {name}"
            if cell == ND:
                # The two computations may differ in the last bit, so a cell
                # within 1e-9 of the masking edge may fall either way.
                edge = 1e-9 * max(1.0, abs(exp[i, j]))
                _require(
                    masked[i, j] or exp[i, j] <= THRESHOLD + edge or exp[i, j] - inc[i, j] <= edge,
                    f"{where}: ND, reference rate {float(want[i, j])!r}",
                )
                continue
            _require(not masked[i, j], f"{where}: shown as {cell}, reference masks it")
            _require(
                abs(float(cell) - want[i, j]) <= 0.05 + 1e-9 * abs(want[i, j]),
                f"{where}: shown {cell}, identity gives {float(want[i, j])!r}",
            )


def check_linearity(out: Path, base: np.ndarray, scen: np.ndarray, factor: float) -> None:
    """A uniform power-of-two scale must scale every incidence cell exactly."""
    diff = scen != factor * base
    if diff.any():
        i, j = np.argwhere(diff)[0]
        raise CheckError(
            f"{out}/result.json: uniform scale {factor}: cell ({i}, {COMPONENTS[j]}) is "
            f"{float(scen[i, j])!r}, expected exactly {float(factor * base[i, j])!r}"
        )


def check_diff(
    out: Path,
    economy: Economy,
    base: tuple[Path, Reference],
    scen: tuple[Path, Reference],
) -> None:
    """``diff`` deltas equal scenario minus baseline within display rounding."""
    (base_dir, ref_b), (scen_dir, ref_s) = base, scen
    keys = list(economy.codes) + ["Total"]

    incidence = tuple(_with_total(_with_total_row(r.final)) for r in (ref_b, ref_s))
    exp = _with_total_row(ref_b.expenditure)
    rate_pair = tuple(rates(_with_total_row(r.final), exp)[0] for r in (ref_b, ref_s))

    for target, stem, (want_b, want_s), rounding in (
        ("final_incidence_diff.csv", "final_incidence", incidence, 0.01),
        ("effective_rates_diff.csv", "effective_rates", rate_pair, 0.1),
    ):
        header, rows = read_table(out / target)
        shown_b = read_table(base_dir / f"{stem}.csv")
        shown_s = read_table(scen_dir / f"{stem}.csv")
        _require(sorted(rows) == sorted(keys), f"{out / target}: rows differ from the activity list")
        for col in header[2:]:
            if not col.endswith("_delta"):
                continue
            name = col[: -len("_delta")]
            j = _column(name)
            for i, code in enumerate(keys):
                cell = rows[code][header.index(col)]
                nd = ND in (
                    shown_b[1][code][shown_b[0].index(name)],
                    shown_s[1][code][shown_s[0].index(name)],
                )
                where = f"{out / target}: {code} / {col}"
                if nd or cell == ND:
                    _require(nd and cell == ND, f"{where}: {cell}, but the tables show ND={nd}")
                    continue
                b, s = want_b[i, j], want_s[i, j]
                _require(
                    abs(float(cell) - (s - b)) <= rounding + 1e-6 + CELL_RTOL * max(abs(b), abs(s)),
                    f"{where}: {cell}, scenario minus baseline is {float(s - b)!r}",
                )


def check_oracle(out: Path, ref: Reference, final: np.ndarray, oracle) -> None:
    """Compare with the plain-Python stage simulator of ``tests/oracles.py``."""
    settle = 1e-13 * float(np.abs(ref.intermediate_tax).sum())
    exits, left = oracle.stagewise_final_incidence(
        ref.shares.tolist(),
        ref.final_shares.tolist(),
        ref.intermediate_tax.tolist(),
        first_final=ref.first_final.tolist(),
        settle=settle,
    )
    exits = np.array(exits)
    _require(sum(abs(x) for x in left) <= settle, f"{out}: oracle did not settle")
    scale = max(1.0, float(np.abs(exits).max()))
    err = float(np.abs(final - exits).max())
    _require(err <= CELL_RTOL * scale, f"{out}/result.json: differs from the stage oracle by {err!r}")


def check_validate(out: Path) -> None:
    report = read_json(out / "validation_report.json")
    failed = [c["check"] for c in report if not c["passed"]]
    _require(not failed, f"{out}/validation_report.json: checks failed on a clean bundle: {failed}")
