"""Input-output accounts: data model, bundle ingestion, validation.

A bundle is a manifest (JSON) plus delimited-text tables keyed by activity
code.  Loading aligns every table to the manifest's activity order, checks the
accounting identities, and returns an immutable :class:`IOAccounts`.

Provides:
    - DemandComponent: the six final-demand components, in canonical column
      order used by every matrix in the package (defined in ``tables``).
    - Activity, TaxDestinationTable, IOAccounts: value types.
    - load_bundle / save_bundle: manifest-driven ingestion and serialization of
      the five tables; no other manifest key (``metadata`` among them) is read.
    - read_table: the one reader of delimited text, bundle tables and
      ``--scenario`` files alike; a rejected file is named as ``file:line``.
    - validate: diagnostic checks that never raise, as a ValidationReport.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tables import COMPONENT_ORDER, N_COMPONENTS, DemandComponent, listing

# Relative tolerance for the row balance supply = flows + final demand and for
# statutory-vs-destination consistency.  Published tables are rounded to
# currency millions; this absorbs rounding while still catching structural
# errors.
BALANCE_RTOL = 1e-6


class BundleError(ValueError):
    """Raised when a bundle cannot be loaded or fails its invariants."""


# Header names with a fixed meaning in bundle tables; activity codes must not
# collide with them (or with component names).
_RESERVED_HEADERS = frozenset(
    {"statutory", "supply", "marginshare"} | {c.value for c in COMPONENT_ORDER}
)


def _freeze(obj, **ndims: int) -> None:
    """Set each named field of the frozen dataclass ``obj`` to a read-only float64
    view of its value with the given number of dimensions: no copy, same memory order."""
    for name, ndim in ndims.items():
        arr = np.asarray(getattr(obj, name), dtype=float).view()
        if arr.ndim != ndim:
            raise ValueError(f"expected a {ndim}-dimensional array, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


@dataclass(frozen=True)
class Activity:
    """One producing activity (row/column of the accounts)."""

    index: int
    code: str
    label: str = ""


@dataclass(frozen=True)
class TaxDestinationTable:
    """Where each activity's statutory tax lands at the first stage.

    ``dest`` has one row per taxed activity and n+6 columns: the n
    intermediate-use columns (by purchasing activity) followed by the six
    final-demand components in canonical order.  ``statutory`` is carried
    separately and must agree with the row sums within BALANCE_RTOL; entries
    are net of subsidies and may be negative.  Both are read-only views sharing
    memory with the arrays passed in, as in :class:`IOAccounts`.
    """

    dest: np.ndarray
    statutory: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, dest=2, statutory=1)
        n = self.statutory.shape[0]
        if self.dest.shape != (n, n + N_COMPONENTS):
            raise ValueError(
                f"destination table must be {n}x{n + N_COMPONENTS}, got {self.dest.shape}"
            )

    @property
    def n(self) -> int:
        return self.statutory.shape[0]

    @property
    def intermediate(self) -> np.ndarray:
        """Columns destined to intermediate use, shape (n, n)."""
        return self.dest[:, : self.n]

    @property
    def final(self) -> np.ndarray:
        """Columns destined to final demand, shape (n, 6)."""
        return self.dest[:, self.n :]


@dataclass(frozen=True)
class IOAccounts:
    """An aligned, immutable input-output accounts bundle.

    All matrices are row-indexed by supplying activity; ``finaldemand`` and the
    final block of the destination table are column-indexed by
    :data:`COMPONENT_ORDER`.  Arrays are float64 read-only views sharing memory
    with the arrays passed in: a caller must not write to one after handing it over.
    """

    activities: tuple[Activity, ...]
    flows: np.ndarray  # (n, n) intermediate deliveries, supplier by user
    finaldemand: np.ndarray  # (n, 6)
    supply: np.ndarray  # (n,)
    taxdest: TaxDestinationTable
    marginshares: np.ndarray  # (n,) in [0, 1]; > 0 marks a margin activity

    def __post_init__(self) -> None:
        object.__setattr__(self, "activities", tuple(self.activities))
        _freeze(self, flows=2, finaldemand=2, supply=1, marginshares=1)
        n = len(self.activities)
        if n == 0:
            raise ValueError("accounts need at least one activity")
        codes = [a.code for a in self.activities]
        if len(set(codes)) != n:
            dupes = sorted(c for c, k in Counter(codes).items() if k > 1)
            raise ValueError(f"duplicate activity codes: {', '.join(listing(dupes))}")
        if self.flows.shape != (n, n):
            raise ValueError(f"flows must be {n}x{n}, got {self.flows.shape}")
        if self.finaldemand.shape != (n, N_COMPONENTS):
            raise ValueError(
                f"final demand must be {n}x{N_COMPONENTS}, got {self.finaldemand.shape}"
            )
        if self.supply.shape != (n,):
            raise ValueError(f"supply must have length {n}, got {self.supply.shape}")
        if self.taxdest.n != n:
            raise ValueError(
                f"destination table is for {self.taxdest.n} activities, accounts have {n}"
            )
        if self.marginshares.shape != (n,):
            raise ValueError(
                f"margin shares must have length {n}, got {self.marginshares.shape}"
            )

    @property
    def n(self) -> int:
        return len(self.activities)

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(a.code for a in self.activities)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one validation check."""

    name: str
    passed: bool
    residual: float = 0.0  # worst offending magnitude, 0 when clean
    # human-readable rows/cells that failed: the first MAX_LISTED_FAILURES,
    # then "... and k more" if there are more
    failures: tuple[str, ...] = ()
    count: int = 0  # rows/cells that failed, all of them


@dataclass(frozen=True)
class ValidationReport:
    """All validation checks for one bundle; never raises."""

    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_records(self) -> list[dict]:
        return [
            {
                "check": c.name,
                "passed": c.passed,
                "residual": c.residual,
                "failures": list(c.failures),
                "count": c.count,
            }
            for c in self.checks
        ]


def _result(name: str, failures, count: int, residual: float) -> CheckResult:
    """A check with ``count`` failures, worded by the lazy ``failures`` as far as listed."""
    failures = tuple(listing(failures, count))
    return CheckResult(name, passed=not count, residual=residual, failures=failures, count=count)


def _check(name: str, bad: np.ndarray, residual: float, describe) -> CheckResult:
    """A check failing on the cells set in ``bad``; ``describe(*index)`` words
    each of the first :data:`~taxcascade.tables.MAX_LISTED_FAILURES`."""
    failures = (describe(*index) for index in zip(*np.nonzero(bad)))
    return _result(name, failures, int(np.count_nonzero(bad)), residual)


def _finite_cells(accounts: IOAccounts) -> CheckResult:
    """Every cell of every table is finite; residual counts the cells that are not."""
    codes = accounts.codes
    tables = [(table, columns, values(accounts)) for table, columns, values in _layout(codes)]
    bad = [~np.isfinite(matrix) for *_, matrix in tables]
    failures = (
        f"{table}: {codes[i]} / {columns[j]}: {matrix[i, j]}"
        for (table, columns, matrix), cells in zip(tables, bad)
        for i, j in zip(*np.nonzero(cells))
    )
    count = sum(int(np.count_nonzero(cells)) for cells in bad)
    return _result("finite_cells", failures, count, float(count))


def validate(accounts: IOAccounts) -> ValidationReport:
    """Run every accounting check and report diagnostics without raising.

    Checks: every cell finite, per-row supply balance, sign rules (flows and
    supply nonnegative, final demand nonnegative except inventory change),
    margin-share range, and statutory-vs-destination consistency per row and
    in total.  A bundle with a non-finite cell gets the finiteness check
    alone, since every other check would compare NaN or inf.
    """
    finite = _finite_cells(accounts)
    if not finite.passed:
        return ValidationReport((finite,))
    codes = accounts.codes
    supply = accounts.supply
    flows = accounts.flows
    fd = accounts.finaldemand
    mu = accounts.marginshares
    statutory = accounts.taxdest.statutory

    rowsums = flows.sum(axis=1) + fd.sum(axis=1)
    row_residual = np.abs(supply - rowsums)
    destsums = accounts.taxdest.dest.sum(axis=1)
    statutory_residual = np.abs(statutory - destsums)
    # Inventory change may legitimately be negative (stock drawdowns).
    inventory = DemandComponent.INVENTORY.column
    fd_negative = fd < 0
    fd_negative[:, inventory] = False
    total = float(statutory.sum())
    dest_total = float(accounts.taxdest.dest.sum())
    total_residual = abs(total - dest_total)

    return ValidationReport((
        finite,
        _check(
            "row_balance",
            row_residual > BALANCE_RTOL * np.maximum(1.0, np.abs(supply)),
            float(row_residual.max(initial=0.0)),
            lambda i: f"{codes[i]}: supply {supply[i]:.6f} vs row total "
            f"{rowsums[i]:.6f} (residual {row_residual[i]:.6f})",
        ),
        _check(
            "flow_signs",
            flows < 0,
            max(0.0, float(-flows.min(initial=0.0))),
            lambda i, j: f"{codes[i]} -> {codes[j]}: {flows[i, j]}",
        ),
        _check(
            "finaldemand_signs",
            fd_negative,
            max(0.0, float(-np.delete(fd, inventory, axis=1).min(initial=0.0))),
            lambda i, j: f"{codes[i]} / {COMPONENT_ORDER[j].value}: {fd[i, j]}",
        ),
        _check(
            "supply_signs",
            supply < 0,
            max(0.0, float(-supply.min(initial=0.0))),
            lambda i: f"{codes[i]}: {supply[i]}",
        ),
        _check(
            "margin_share_range",
            (mu < 0) | (mu > 1),
            max(0.0, float(np.maximum(-mu, mu - 1).max(initial=0.0))),
            lambda i: f"{codes[i]}: {mu[i]}",
        ),
        _check(
            "statutory_rows",
            statutory_residual > BALANCE_RTOL * np.maximum(1.0, np.abs(statutory)),
            float(statutory_residual.max(initial=0.0)),
            lambda i: f"{codes[i]}: statutory {statutory[i]:.6f} vs destination sum "
            f"{destsums[i]:.6f}",
        ),
        _check(
            "statutory_total",
            np.array([total_residual > BALANCE_RTOL * max(1.0, abs(total))]),
            total_residual,
            lambda _: f"statutory total {total:.6f} vs destination total {dest_total:.6f}",
        ),
    ))


# ---------------------------------------------------------------------------
# Bundle ingestion
# ---------------------------------------------------------------------------


def _layout(codes: tuple[str, ...]) -> tuple:
    """The five bundle tables, in file order, as (name, value columns, getter).

    ``getter(accounts)`` gives the table's values as an (n, columns) matrix
    with rows in ``codes`` order.
    """
    canonical = [c.value for c in COMPONENT_ORDER]
    return (
        ("flows", list(codes), lambda a: a.flows),
        ("finaldemand", canonical, lambda a: a.finaldemand),
        ("supply", ["supply"], lambda a: a.supply[:, None]),
        (
            "taxdest",
            ["statutory", *codes, *canonical],
            lambda a: np.column_stack([a.taxdest.statutory, a.taxdest.dest]),
        ),
        ("marginshares", ["marginshare"], lambda a: a.marginshares[:, None]),
    )


_OPEN_QUOTE = "a quoted cell runs past the end of the line"


def _parse(lines: list[str], delimiter: str, **options) -> np.ndarray:
    """numpy's C parse of table lines, one row per line unless a quoted cell spans lines."""
    return np.loadtxt(
        lines, delimiter=delimiter, quotechar='"', comments=None, ndmin=2, **options
    )


def _spans_lines(line: str, delimiter: str) -> bool:
    """Whether a quoted cell is still open at the end of ``line``: two copies of
    the line then parse as one row."""
    return '"' in line and len(_parse([line, line], delimiter, dtype=object)) == 1


def read_table(path: Path, delimiter: str) -> tuple[list[str], list[str], np.ndarray]:
    """Read one table: its header, code column first, its row codes in file
    order and the matrix of its values, one row per code.

    numpy's C parser reads the numbers, with no Python object per cell.  Lines
    that are blank, or hold delimiters and spaces only, are skipped.  Where
    numpy rejects the table, or reads it to the wrong shape or with a repeated
    code, each row is parsed again alone by the same parser, only to raise at
    the first defect with its ``path:line``.
    """
    try:
        lines = path.read_text(encoding="utf-8-sig").splitlines()
    except FileNotFoundError:
        raise BundleError(f"table file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise BundleError(f"{path}: not UTF-8 text ({exc})") from None
    # 1-based numbers of the lines that hold a cell; the first character
    # settles almost every line without copying it
    numbers = [
        k
        for k, line in enumerate(lines, 1)
        if line.lstrip()[:1] not in ("", delimiter) or line.replace(delimiter, "").strip()
    ]
    if not numbers:
        raise BundleError(f"{path}: empty table")
    kept = [lines[k - 1] for k in numbers]
    if _spans_lines(kept[0], delimiter):
        raise BundleError(f"{path}:{numbers[0]}: {_OPEN_QUOTE}")
    header = [cell.strip() for cell in _parse(kept[:1], delimiter, dtype=object)[0]]
    if len(kept) == 1:
        return header, [], np.empty((0, len(header) - 1))
    codes: list[str] = []
    # the code column: keep each code, and give numpy a number for it
    keep_code = {0: lambda cell: codes.append(cell.strip()) or 0.0}
    try:
        values = _parse(kept[1:], delimiter, converters=keep_code)
    except ValueError:
        values = None
    # fewer rows than lines: a quoted cell spans lines and merged them
    if (
        values is not None
        and values.shape == (len(kept) - 1, len(header))
        and len(set(codes)) == len(codes)
        and not _spans_lines(kept[-1], delimiter)
    ):
        return header, codes, values[:, 1:]
    # the table is rejected: find its first defect, one line at a time
    seen: set[str] = set()
    for k, line in zip(numbers[1:], kept[1:]):
        if _spans_lines(line, delimiter):
            raise BundleError(f"{path}:{k}: {_OPEN_QUOTE}")
        cells = [cell.strip() for cell in _parse([line], delimiter, dtype=object)[0]]
        if len(cells) != len(header):
            raise BundleError(f"{path}:{k}: expected {len(header)} columns, got {len(cells)}")
        if cells[0] in seen:
            raise BundleError(f"{path}:{k}: duplicate activity code {cells[0]!r}")
        seen.add(cells[0])
        try:
            _parse([line], delimiter, converters=keep_code)
        except ValueError as exc:
            # numpy names the cell's 1-based column: "... at row 0, column 2."
            j = int(re.search(r"column (\d+)", str(exc))[1]) - 1
            raise BundleError(
                f"{path}:{k}: could not convert {cells[j]!r} to a number in column {header[j]!r}"
            ) from None
    raise BundleError(f"{path}: numpy's parser rejects the table")


def _row_order(path: Path, row_codes: list[str], codes: tuple[str, ...]) -> list[int]:
    """Positions in ``row_codes`` of each of ``codes``, which must match it as a set."""
    position = {code: i for i, code in enumerate(row_codes)}
    missing = [c for c in codes if c not in position]
    if missing:
        raise BundleError(f"{path}: missing rows for activities: {', '.join(listing(missing))}")
    known = set(codes)
    extra = [c for c in row_codes if c not in known]
    if extra:
        raise BundleError(f"{path}: unknown activity rows: {', '.join(listing(extra))}")
    return [position[c] for c in codes]


def _column_permutation(table: str, path: Path, header: list[str], wanted: list[str]) -> list[int]:
    """Positions in ``header`` of each of ``wanted``; a mismatch names the missing
    and the unexpected (or repeated) columns."""
    have, want = Counter(header), Counter(wanted)
    if have != want:
        problems = [
            f"{what} {', '.join(listing(list(names.elements())))}"
            for what, names in (("missing", want - have), ("unexpected", have - want))
            if names
        ]
        raise BundleError(f"{path}: {table} columns do not match: {'; '.join(problems)}")
    position = {name: i for i, name in enumerate(header)}
    return [position[name] for name in wanted]


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string"}


def _expect(value, kind: type, where: str):
    """``value``, which ``where`` must hold as a JSON ``kind``."""
    if not isinstance(value, kind):
        raise BundleError(f"{where} must be {_JSON_KINDS[kind]}, got {value!r:.60}")
    return value


def load_bundle(manifest_path: str | Path, *, check: bool = True) -> IOAccounts:
    """Load and align a bundle; raise :class:`BundleError` on any defect.

    The manifest is JSON with keys ``activities`` (list of codes or
    ``{code, label}`` objects, defining row order), ``components`` (the six
    component names in the order used by this bundle's files), ``tables``
    (mapping of table name to file path, relative to the manifest), and
    optionally ``delimiter`` ("," default, or ";").  Every ``tables`` entry
    must be a path string, since the run record hashes each one, but only the
    five tables are read; any other key, such as a descriptive ``metadata``
    block, is not read.

    With ``check=False`` only structural alignment is enforced; accounting
    invariants are skipped so that diagnostic callers can obtain a report via
    :func:`validate` instead.
    """
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise BundleError(f"manifest not found: {manifest_path}") from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise BundleError(f"{manifest_path}: invalid JSON ({exc})") from None
    _expect(manifest, dict, f"{manifest_path}: the manifest")

    for key in ("activities", "components", "tables"):
        if key not in manifest:
            raise BundleError(f"{manifest_path}: manifest missing key {key!r}")

    activities = []
    entries = _expect(manifest["activities"], list, f"{manifest_path}: activities")
    for i, entry in enumerate(entries):
        if isinstance(entry, str):
            code, label = entry, ""
        elif isinstance(entry, dict) and "code" in entry:
            code, label = entry["code"], str(entry.get("label", ""))
        else:
            raise BundleError(
                f"{manifest_path}: activities[{i}] must be a code or an object with a 'code', "
                f"got {entry!r:.60}"
            )
        if not isinstance(code, str) or not code or code != code.strip():
            raise BundleError(
                f"{manifest_path}: activities[{i}] code must be a non-empty string without "
                f"surrounding spaces, got {code!r:.60}"
            )
        activities.append(Activity(i, code, label))
    codes = tuple(a.code for a in activities)
    dupes = sorted(code for code, k in Counter(codes).items() if k > 1)
    if dupes:
        raise BundleError(f"{manifest_path}: duplicate activity codes: {', '.join(listing(dupes))}")
    clashes = sorted(set(codes) & _RESERVED_HEADERS)
    if clashes:
        raise BundleError(
            f"{manifest_path}: activity codes collide with reserved column names: "
            f"{', '.join(clashes)}"
        )

    components = [
        str(c) for c in _expect(manifest["components"], list, f"{manifest_path}: components")
    ]
    canonical = [c.value for c in COMPONENT_ORDER]
    if sorted(components) != sorted(canonical):
        raise BundleError(
            f"{manifest_path}: components must be exactly {canonical}, got {components}"
        )

    delimiter = manifest.get("delimiter", ",")
    if delimiter not in (",", ";"):
        raise BundleError(f"{manifest_path}: delimiter must be ',' or ';', got {delimiter!r}")

    tables = _expect(manifest["tables"], dict, f"{manifest_path}: tables")
    layout = _layout(codes)
    missing = [name for name, _, _ in layout if name not in tables]
    if missing:
        raise BundleError(f"{manifest_path}: tables missing entries: {', '.join(missing)}")
    for name, rel in tables.items():  # the run record hashes every entry
        _expect(rel, str, f"{manifest_path}: tables[{name!r}]")

    aligned = {}
    for name, wanted, _ in layout:
        path = manifest_path.parent / tables[name]
        header, row_codes, values = read_table(path, delimiter)
        header = header[1:]
        if name not in ("supply", "marginshares"):
            perm = _column_permutation(name, path, header, wanted)
        elif len(header) == 1:  # one-column tables accept any header name
            perm = [0]
        else:
            raise BundleError(f"{path}: {name} table must have one value column")
        # One copy, column-major as the accounts have always been: numpy's sums
        # round by memory order, so another layout would change the outputs'
        # last digits.
        aligned[name] = values.T[np.ix_(perm, _row_order(path, row_codes, codes))].T

    try:
        accounts = IOAccounts(
            activities=tuple(activities),
            flows=aligned["flows"],
            finaldemand=aligned["finaldemand"],
            supply=aligned["supply"][:, 0],
            taxdest=TaxDestinationTable(
                dest=aligned["taxdest"][:, 1:], statutory=aligned["taxdest"][:, 0]
            ),
            marginshares=aligned["marginshares"][:, 0],
        )
    except ValueError as exc:
        raise BundleError(str(exc)) from None

    if check:
        report = validate(accounts)
        if not report.ok:
            lines = []
            for result in report.failed():
                lines.append(f"{result.name}: {result.count} failure(s)")
                lines.extend(f"  {f}" for f in result.failures)
            raise BundleError(
                f"bundle at {manifest_path} failed validation:\n" + "\n".join(lines)
            )
    return accounts


def _csv_cell(text: str) -> str:
    """``text`` as :mod:`csv` writes it as one cell of a longer row, quoted where needed."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _table_lines(codes: tuple[str, ...], values: np.ndarray):
    """One CSV line per row of ``values``: its code, then ``repr`` of each cell.

    A zero cell is written as ``"0.0"`` (its ``repr``) without calling ``repr``:
    zeros fill most of a sparse table.  ``-0.0`` still goes through ``repr``."""
    spelled = (values != 0) | np.signbit(values)
    columns = np.nonzero(spelled)[1].tolist()
    cells = values[spelled].tolist()
    end = 0
    for code, count in zip(codes, np.count_nonzero(spelled, axis=1).tolist()):
        line = ["0.0"] * values.shape[1]
        for k in range(end, end + count):
            line[columns[k]] = repr(cells[k])
        end += count
        yield f"{_csv_cell(code)},{','.join(line)}\n"


def save_bundle(accounts: IOAccounts, directory: str | Path) -> Path:
    """Serialize accounts as a manifest plus comma-delimited tables; returns the manifest path.

    Numbers are written with ``repr`` so that a reload reproduces the arrays
    bit for bit.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    codes = accounts.codes
    tables = {}
    for name, columns, values in _layout(codes):
        tables[name] = f"{name}.csv"
        with open(directory / tables[name], "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(["code", *columns])
            fh.writelines(_table_lines(codes, values(accounts)))
    manifest = {
        "activities": [{"code": a.code, "label": a.label} for a in accounts.activities],
        "components": [c.value for c in COMPONENT_ORDER],
        "delimiter": ",",
        "tables": tables,
    }
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    return manifest_path
