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
      Given a cache directory, load_bundle keeps the aligned tables of each
      bundle it parses there, named by a hash of the bytes they were parsed
      from, and reads them back instead of parsing the same bytes again.
      store_entry, read_float_entry and write_float_entry keep other entries
      in the same directory, under the same byte bound.
    - read_table: the one reader of delimited text, bundle tables and
      ``--scenario`` files alike; a rejected file is named as ``file:line``.
    - validate: diagnostic checks that never raise, as a ValidationReport.
"""

from __future__ import annotations

import csv
import errno
import hashlib
import io
import json
import os
import re
import struct
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import islice
from pathlib import Path
from stat import S_ISREG

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
    sources: dict[str, tuple[str, str]] | None = None  # (path, sha256) by file, see load_bundle

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
    # worst offending magnitude, 0 when clean, None if not finite or not a magnitude
    residual: float | None = 0.0
    # human-readable rows/cells that failed: the first MAX_LISTED_FAILURES,
    # then "... and k more" if there are more
    failures: tuple[str, ...] = ()
    count: int = 0  # rows/cells that failed, all of them

    @property
    def passed(self) -> bool:
        return self.count == 0


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


def _result(name: str, failures, count: int, residual: float | None) -> CheckResult:
    """A check with ``count`` failures, worded by the lazy ``failures`` as far as listed."""
    failures = tuple(listing(failures, count))
    return CheckResult(name, residual, failures, count)


def _check(name: str, bad: np.ndarray, residual: float, describe) -> CheckResult:
    """A check failing on the cells set in ``bad``; ``describe(*index)`` words
    each of the first :data:`~taxcascade.tables.MAX_LISTED_FAILURES`."""
    failures = (describe(*index) for index in zip(*np.nonzero(bad)))
    return _result(name, failures, int(np.count_nonzero(bad)), residual)


def _finite_cells(accounts: IOAccounts) -> CheckResult:
    """Every cell of every table is finite; only a failure lays the tables out, to word it."""
    codes, t = accounts.codes, accounts.taxdest
    stored = (accounts.flows, accounts.finaldemand, accounts.supply, accounts.marginshares, t.dest)
    count = sum(int(np.count_nonzero(~np.isfinite(a))) for a in (*stored, t.statutory))
    failures = (
        f"{table}: {codes[i]} / {columns[j]}: {matrix[i, j]}"
        for table, columns, values in _layout(codes)
        for matrix in [values(accounts)]
        for i, j in zip(*np.nonzero(~np.isfinite(matrix)))
    )
    return _result("finite_cells", failures, count, None if count else 0.0)


def _margins(accounts: IOAccounts) -> CheckResult:
    """The margin step's refusals, each a failure line naming all it lists."""
    from .margins import refusals  # margins imports this module

    found = refusals(accounts)
    failures = tuple(f"{reason}: {', '.join(listing(names))}" for reason, names in found.items())
    count = sum(len(names) for names in found.values())
    # what fails is a missing weight or supply, not a magnitude
    return CheckResult("margins", None if count else 0.0, failures, count)


def validate(accounts: IOAccounts, *, margins: bool = True) -> ValidationReport:
    """Run every accounting check and report diagnostics without raising.

    Checks: every cell finite, per-row supply balance, sign rules (flows and
    supply nonnegative, final demand nonnegative except inventory change),
    margin-share range, statutory-vs-destination consistency per row and
    in total, and, with ``margins``, that the margin step would run (see
    :func:`taxcascade.margins.refusals`).  A bundle with a non-finite cell
    gets the finiteness check alone, since every other check would compare
    NaN or inf.  :func:`load_bundle` checks without ``margins``: the margin
    step refuses by itself, unless ``--skip-margins`` skips it.
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
        *([_margins(accounts)] if margins else []),
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

#: Table lines per call of numpy's parser: no table's text or second copy is held whole.
PARSE_ROWS = 64


def _parse(lines: list[str], delimiter: str, **options) -> np.ndarray:
    """numpy's C parse of table lines, one row per line unless a quoted cell spans lines."""
    return np.loadtxt(
        lines, delimiter=delimiter, quotechar='"', comments=None, ndmin=2, **options
    )


def _spans_lines(line: str, delimiter: str) -> bool:
    """Whether a quoted cell is still open at the end of ``line``: two copies of
    the line then parse as one row."""
    return '"' in line and len(_parse([line, line], delimiter, dtype=object)) == 1


def _first_defect(path: Path, header: list[str], numbers, lines, seen: set[str], delimiter: str):
    """Raise at the first of ``lines`` with a defect, parsing each alone; ``seen``
    holds the codes of the lines before them."""
    for k, line in zip(numbers, lines):
        if _spans_lines(line, delimiter):
            raise BundleError(f"{path}:{k}: {_OPEN_QUOTE}")
        cells = [cell.strip() for cell in _parse([line], delimiter, dtype=object)[0]]
        if len(cells) != len(header):
            raise BundleError(f"{path}:{k}: expected {len(header)} columns, got {len(cells)}")
        if cells[0] in seen:
            raise BundleError(f"{path}:{k}: duplicate activity code {cells[0]!r}")
        seen.add(cells[0])
        try:
            _parse([line], delimiter, converters={0: lambda cell: 0.0})
        except ValueError as exc:
            # numpy names the cell's 1-based column: "... at row 0, column 2."
            j = int(re.search(r"column (\d+)", str(exc))[1]) - 1
            raise BundleError(
                f"{path}:{k}: could not convert {cells[j]!r} to a number in column {header[j]!r}"
            ) from None
    raise BundleError(f"{path}: numpy's parser rejects the table")


class _Hashing(io.FileIO):
    """A file opened to read that feeds each byte it gives to :attr:`sha256`."""

    def __init__(self, path: Path) -> None:
        super().__init__(path)
        self.sha256 = hashlib.sha256()

    def readinto(self, buffer) -> int:
        n = super().readinto(buffer)
        self.sha256.update(memoryview(buffer)[:n])
        return n


def read_table(path: Path, delimiter: str, place=None) -> tuple[list, list, np.ndarray, str]:
    """Read one table: its header, code column first, its row codes in file
    order, the matrix of its values, one row per code, and the sha256 of its bytes.

    numpy's C parser reads :data:`PARSE_ROWS` lines at a time, with no Python
    object per cell; blank lines, and lines of delimiters and spaces, are
    skipped.  Where numpy rejects a chunk, or reads it to the wrong shape or
    with a repeated code, each of its lines is parsed again alone, only to
    raise at the first defect with its ``path:line``.  ``place(header)``, if
    given, returns the header position (code column excluded) of each column
    to keep and the row of each code, which must each have one line: the
    chunks are then stored as parsed into one column-major matrix.
    """
    try:
        with _Hashing(path) as raw:
            fh = io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8-sig", newline="")
            return (*_read_lines(path, fh, delimiter, place), raw.sha256.hexdigest())
    except FileNotFoundError:
        raise BundleError(f"table file not found: {path}") from None
    except UnicodeDecodeError:
        try:  # decoded whole, the error gives the byte's offset in the file,
            path.read_bytes().decode("utf-8")  # counting a BOM, a character in utf-8
        except UnicodeDecodeError as exc:
            raise BundleError(f"{path}: not UTF-8 text ({exc})") from None
        raise


def _read_lines(path: Path, fh, delimiter: str, place) -> tuple[list[str], list[str], np.ndarray]:
    """:func:`read_table` of the open file ``fh``."""
    # numbered as str.splitlines numbers the text; the first character settles most lines
    numbered = enumerate((line for physical in fh for line in physical.splitlines()), 1)
    lines = (
        (k, line) for k, line in numbered
        if line.lstrip()[:1] not in ("", delimiter) or line.replace(delimiter, "").strip()
    )
    k, line = next(lines, (0, None))
    if line is None:
        raise BundleError(f"{path}: empty table")
    if _spans_lines(line, delimiter):
        raise BundleError(f"{path}:{k}: {_OPEN_QUOTE}")
    header = [cell.strip() for cell in _parse([line], delimiter, dtype=object)[0]]
    if place is not None:
        columns, rows = place(header)
        # column-major, as the accounts have always been: numpy's sums round by
        # memory order, so another layout would change the outputs' last digits
        out = np.empty((len(rows), len(columns)), order="F")
        if columns == list(range(len(header) - 1)):
            columns = slice(None)  # every column in order: each chunk is stored as it is
    chunks, codes, seen = [], [], set()  # codes and seen differ only at a repeated code
    # the code column: keep each code, and give numpy a number for it
    keep_code = {0: lambda cell: codes.append(cell.strip()) or 0.0}
    while chunk := list(islice(lines, PARSE_ROWS)):
        numbers, kept = zip(*chunk)
        start = len(codes)
        try:
            values = _parse(list(kept), delimiter, converters=keep_code)
        except ValueError:
            values = None
        seen.update(codes[start:])
        # fewer rows than lines: a quoted cell spans lines and merged them
        if (
            values is None or values.shape != (len(kept), len(header))
            or len(seen) != len(codes) or _spans_lines(kept[-1], delimiter)
        ):
            _first_defect(path, header, numbers, kept, set(codes[:start]), delimiter)
        if place is None:
            chunks.append(values[:, 1:])
            continue
        at = [rows.get(code, -1) for code in codes[start:]]
        if -1 not in at:  # else an unknown code, named once every line is checked
            # one slice where the rows run in order, as save_bundle writes them
            target = slice(at[0], at[-1] + 1) if at == list(range(at[0], at[-1] + 1)) else at
            out[target] = values[:, 1:][:, columns]
    if place is None:
        return header, codes, np.concatenate(chunks) if chunks else np.empty((0, len(header) - 1))
    for problem, names in (
        ("missing rows for activities", [code for code in rows if code not in seen]),
        ("unknown activity rows", [code for code in codes if code not in rows]),
    ):
        if names:
            raise BundleError(f"{path}: {problem}: {', '.join(listing(names))}")
    return header, codes, out


def _placement(table: str, path: Path, wanted: list[str], rows: dict, header: list[str]):
    """Where :func:`read_table` puts a bundle table: the header position of each
    of ``wanted`` (any one name in a one-column table), and ``rows``."""
    header = header[1:]
    if table in ("supply", "marginshares"):
        if len(header) != 1:
            raise BundleError(f"{path}: {table} table must have one value column")
        return [0], rows
    have, want = Counter(header), Counter(wanted)
    if have != want:
        problems = [
            f"{what} {', '.join(listing(list(names.elements())))}"
            for what, names in (("missing", want - have), ("unexpected", have - want))
            if names
        ]
        raise BundleError(f"{path}: {table} columns do not match: {'; '.join(problems)}")
    position = {name: i for i, name in enumerate(header)}
    return [position[name] for name in wanted], rows


def not_a_file(path: Path) -> str:
    """Why ``path``, which is not a regular file, cannot be read as a table."""
    return os.strerror(errno.EISDIR) if path.is_dir() else "regular file not found"


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string"}


def _expect(value, kind: type, where: str):
    """``value``, which ``where`` must hold as a JSON ``kind``."""
    if not isinstance(value, kind):
        raise BundleError(f"{where} must be {_JSON_KINDS[kind]}, got {value!r:.60}")
    return value


#: Bytes the files of the cache may hold, parsed tables and condition numbers alike;
#: storing an entry deletes the least recently used until they fit, and an entry
#: larger than this is not stored.
CACHE_BYTES = 256 << 20

#: The modules that parse and align the tables: their source is part of every
#: cache key, so that any change to the parser invalidates every entry.
_PARSER_SOURCES = (Path(__file__), Path(__file__).with_name("tables.py"))


def file_digest(path: str | Path) -> str:
    """sha256 of a file's bytes, read in 1 MiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def _cache_key(manifest: str, digests: list[str]) -> str:
    """The name of the entry for the tables parsed from these bytes: the manifest's
    and the tables' sha256 (``digests``, in :func:`_layout` order), with the
    parser's source and numpy's version."""
    parts = [hashlib.sha256(source.read_bytes()).hexdigest() for source in _PARSER_SOURCES]
    parts += [np.__version__, manifest, *digests]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _read_entry(entry: Path, shapes: list[tuple[int, int]]) -> list[np.ndarray] | None:
    """The arrays stored in ``entry``, or None unless it holds exactly one
    column-major float64 array of each of ``shapes``; pickled data is never read."""
    try:
        with open(entry, "rb") as fh:
            arrays = [np.load(fh, allow_pickle=False) for _ in shapes]
            if fh.read(1):
                return None
    # a damaged header can claim any shape, even one too big to allocate
    except (OSError, ValueError, EOFError, MemoryError):
        return None
    for a, shape in zip(arrays, shapes):
        if a.dtype != np.float64 or a.shape != shape or not a.flags.f_contiguous:
            return None
    try:
        os.utime(entry)  # the most recently used
    except OSError:
        pass
    # np.save stores an array that is both C- and F-contiguous as C: give each
    # the strides of read_table's column-major array
    return [a.ravel("F").reshape(shape, order="F") for a, shape in zip(arrays, shapes)]


def _write_entry(entry: Path, arrays: list[np.ndarray]) -> None:
    """Store ``arrays`` as ``entry`` by :func:`store_entry`, unless they alone would
    be larger than :data:`CACHE_BYTES`."""
    if sum(a.nbytes for a in arrays) > CACHE_BYTES:  # not even written
        return

    def write(fh) -> None:
        for a in arrays:
            np.save(fh, a, allow_pickle=False)

    store_entry(entry, write)


def store_entry(entry: Path, write) -> None:
    """Store what ``write(fh)`` writes into a binary file as ``entry``, whole or
    not at all, unless it is larger than :data:`CACHE_BYTES`; then delete the least
    recently used files in its directory, a killed writer's ``.tmp`` as an entry,
    until those left hold at most :data:`CACHE_BYTES`."""
    entry.parent.mkdir(parents=True, exist_ok=True)
    partial_entry = entry.with_name(f"{entry.stem}.{os.getpid()}.tmp")
    try:
        with open(partial_entry, "wb") as fh:
            write(fh)
            if fh.tell() > CACHE_BYTES:  # the arrays' headers, say, tipped it over
                return
        os.replace(partial_entry, entry)
    finally:
        if partial_entry.exists():
            partial_entry.unlink()
    by_use = []
    for other in entry.parent.iterdir():
        try:
            stat = other.lstat()
        except OSError:  # deleted by another process meanwhile
            continue
        if S_ISREG(stat.st_mode):
            by_use.append((stat.st_mtime_ns, stat.st_size, other))
    kept = 0
    for _, size, old in sorted(by_use, reverse=True):
        kept += size
        if kept > CACHE_BYTES:
            try:
                old.unlink()
            except OSError:
                pass


def read_float_entry(entry: Path) -> float | None:
    """The float64 stored in ``entry`` by :func:`write_float_entry`, or None unless
    it is a file of exactly 8 bytes; reading it counts as a use."""
    try:
        with open(entry, "rb") as fh:
            data = fh.read(9)
    except OSError:  # missing, a directory, unreadable
        return None
    if len(data) != 8:
        return None
    try:
        os.utime(entry)  # the most recently used
    except OSError:
        pass
    return struct.unpack("<d", data)[0]


def write_float_entry(entry: Path, value: float) -> None:
    """Store ``value`` as ``entry``, its 8 little-endian bytes, by :func:`store_entry`."""
    store_entry(entry, lambda fh: fh.write(struct.pack("<d", value)))


def load_bundle(
    manifest_path: str | Path, *, check: bool = True, cache: str | Path | None = None
) -> IOAccounts:
    """Load and align a bundle; raise :class:`BundleError` on any defect.

    The manifest is JSON with keys ``activities`` (list of codes or
    ``{code, label}`` objects, defining row order), ``components`` (the six
    component names, in any order: table columns are matched by header name),
    ``tables`` (mapping of table name to file path, relative to the manifest), and
    optionally ``delimiter`` ("," default, or ";").  Every ``tables`` entry
    must name a regular file, read once for its path and sha256 in ``sources``,
    but only the five tables are parsed; any other key, such as a descriptive
    ``metadata`` block, is not read.

    With ``check=False`` only structural alignment is enforced; accounting
    invariants are skipped so that diagnostic callers can obtain a report via
    :func:`validate` instead.

    With a ``cache`` directory, the five aligned tables are read from the
    entry named by the sha256 of the manifest, of the five tables, of this
    parser's source and of numpy's version, if it is there; else they are
    parsed and stored under the name of the bytes parsed, not of those hashed
    for the lookup.  Everything else runs as without it, on the same arrays
    bit for bit.  The cache never fails a load: an entry that cannot be read
    is a miss, and one that cannot be written is skipped.
    """
    manifest_path = Path(manifest_path)
    try:
        data = manifest_path.read_bytes()
        # as a table: an optional BOM, but an error's offset counts it
        manifest = json.loads(data.decode("utf-8").removeprefix("\ufeff"))
    except FileNotFoundError:
        raise BundleError(f"manifest not found: {manifest_path}") from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise BundleError(f"{manifest_path}: invalid JSON ({exc})") from None
    _expect(manifest, dict, f"{manifest_path}: the manifest")
    sources = {"manifest": (manifest_path.name, hashlib.sha256(data).hexdigest())}

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
    paths = {}
    for name, rel in tables.items():  # the run record hashes every entry: each must be a file
        where = f"{manifest_path}: tables[{name!r}]"
        paths[name] = path = manifest_path.parent / _expect(rel, str, where)
        if not path.is_file():
            raise BundleError(f"{where}: {not_a_file(path)}: {path}")

    files = [paths[name] for name, _, _ in layout]
    arrays = None
    if cache is not None:
        def entry(digests: list[str]) -> Path:
            return Path(cache) / f"{_cache_key(sources['manifest'][1], digests)}.npy"

        shapes = [(len(codes), len(wanted)) for _, wanted, _ in layout]
        try:
            digests = [file_digest(path) for path in files]
            arrays = _read_entry(entry(digests), shapes)
        except OSError:
            pass
    if arrays is None:  # a table that fails to parse raises here, and stores nothing
        rows = {code: i for i, code in enumerate(codes)}
        read = [
            read_table(path, delimiter, partial(_placement, name, path, wanted, rows))
            for path, (name, wanted, _) in zip(files, layout)
        ]
        arrays, digests = [table[2] for table in read], [table[3] for table in read]
        if cache is not None:
            try:
                _write_entry(entry(digests), arrays)
            except OSError:
                pass
    aligned = {name: array for (name, _, _), array in zip(layout, arrays)}
    hashed = dict(zip(aligned, digests))
    for name, rel in tables.items():  # any entry not parsed is hashed here, once
        sources[name] = (rel, hashed.get(name) or file_digest(paths[name]))

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
            sources=sources,
        )
    except ValueError as exc:
        raise BundleError(str(exc)) from None

    if check:
        report = validate(accounts, margins=False)
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
