"""Input-output accounts: data model, bundle ingestion, validation.

A bundle is a manifest (JSON) plus delimited-text tables keyed by activity
code.  Loading aligns every table to the manifest's activity order, checks the
accounting identities, and returns an immutable :class:`IOAccounts`.

Provides:
    - COMPONENT_ORDER: the names of the six final-demand components, in the
      canonical column order used by every matrix in the package (defined in
      ``tables``).
    - Activity, TaxDestinationTable, IOAccounts: value types.
    - load_bundle / save_bundle: manifest-driven ingestion and serialization of
      the five tables; no other manifest key (``metadata`` among them) is read.
      Given a cache directory, load_bundle keeps the aligned tables of each
      bundle it parses there, named by a hash of the bytes they were parsed
      from, and reads them back instead of parsing the same bytes again.
    - cache_entry, read_entry / write_entry: the one key rule and the one entry
      format of the cache, parsed tables, condition numbers and the truncated
      loop's blocks alike: float64 arrays saved one after another, then the XOR
      of their 8-byte words.
    - read_table: the one reader of delimited text, bundle tables and
      ``--scenario`` files alike, each placed by its caller and refused in the
      same words for a code with no row; a rejected line is named as ``file:line``.
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
import shutil
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from itertools import islice
from pathlib import Path
from stat import S_ISREG

import numpy as np

from .tables import COMPONENT_ORDER, N_COMPONENTS, listing

# Relative tolerance for the row balance supply = flows + final demand and for
# statutory-vs-destination consistency.  Published tables are rounded to
# currency millions; this absorbs rounding while still catching a misplaced or
# missing cell.
BALANCE_RTOL = 1e-6


class BundleError(ValueError):
    """Raised when a bundle cannot be loaded or fails its invariants."""


# Header names with a fixed meaning in bundle tables (component names too), and
# the output tables' last row; activity codes must not collide with them.
_RESERVED_NAMES = frozenset(
    {"statutory", "supply", "marginshare", *COMPONENT_ORDER, "Total"}
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
    inventory = COMPONENT_ORDER.index("inventory")
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
            lambda i, j: f"{codes[i]} / {COMPONENT_ORDER[j]}: {fd[i, j]}",
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
    return (
        ("flows", list(codes), lambda a: a.flows),
        ("finaldemand", COMPONENT_ORDER, lambda a: a.finaldemand),
        ("supply", ["supply"], lambda a: a.supply[:, None]),
        (
            "taxdest",
            ["statutory", *codes, *COMPONENT_ORDER],
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


def read_table(path: Path, delimiter: str, place) -> tuple[set[str], np.ndarray, str]:
    """Read one table: the set of its row codes, the matrix ``place(header)``
    gives, holding the table's values, and the sha256 of its bytes.

    ``place`` gets the header, code column first, and returns the header
    position (code column excluded) of each column to keep, the codes of the
    matrix's rows, and the matrix; a row no line has keeps what it held, and
    a code with no row is refused once every line is checked.  numpy's C
    parser reads :data:`PARSE_ROWS` lines at a time, with no Python object
    per cell; blank lines, and lines of delimiters and spaces, are skipped.
    Where numpy rejects a chunk, or reads it to the wrong shape or with a
    repeated code, each of its lines is parsed again alone, only to raise at
    the first defect with its ``path:line``.
    """
    try:
        with _Hashing(path) as raw:
            fh = io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8-sig", newline="")
            return (*_read_lines(path, fh, delimiter, place), raw.sha256.hexdigest())
    except UnicodeDecodeError:
        try:  # decoded whole, the error gives the byte's offset in the file,
            path.read_bytes().decode("utf-8")  # counting a BOM, a character in utf-8
        except UnicodeDecodeError as exc:
            raise BundleError(f"{path}: not UTF-8 text ({exc})") from None
        raise


def _read_lines(path: Path, fh, delimiter: str, place) -> tuple[set[str], np.ndarray]:
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
    columns, order, out = place(header)
    rows = {code: i for i, code in enumerate(order)}
    if columns == list(range(len(header) - 1)):
        columns = slice(None)  # every column in order: each chunk is stored as it is
    codes, seen = [], set()  # differ only at a repeated code
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
        at = [rows.get(code, -1) for code in codes[start:]]
        if -1 not in at:  # else an unknown code, named once every line is checked
            # one slice where the rows run in order, as save_bundle writes them
            target = slice(at[0], at[-1] + 1) if at == list(range(at[0], at[-1] + 1)) else at
            out[target] = values[:, 1:][:, columns]
    unknown = [code for code in codes if code not in rows]
    if unknown:
        raise BundleError(f"{path}: unknown activity codes: {', '.join(listing(unknown))}")
    return seen, out


def _placement(table: str, path: Path, wanted: list[str], codes: tuple, header: list[str]):
    """Where :func:`read_table` puts a bundle table: the header position of each of
    ``wanted`` (any one name in a one-column table), ``codes``, and an empty matrix."""
    header = header[1:]
    if table in ("supply", "marginshares"):
        if len(header) != 1:
            raise BundleError(f"{path}: {table} table must have one value column")
        wanted = header
    have, want = Counter(header), Counter(wanted)
    if have != want:
        problems = [
            f"{what} {', '.join(listing(list(names.elements())))}"
            for what, names in (("missing", want - have), ("unexpected", have - want))
            if names
        ]
        raise BundleError(f"{path}: {table} columns do not match: {'; '.join(problems)}")
    position = {name: i for i, name in enumerate(header)}
    # column-major, as the accounts have always been: numpy's sums round by
    # memory order, so another layout would change the outputs' last digits
    out = np.empty((len(codes), len(wanted)), order="F")
    return [position[name] for name in wanted], codes, out


def not_a_file(path: Path) -> str:
    """Why ``path``, which is not a regular file, cannot be read as a table."""
    return os.strerror(errno.EISDIR) if path.is_dir() else "regular file not found"


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string"}


def _expect(value, kind: type, where: str):
    """``value``, which ``where`` must hold as a JSON ``kind``."""
    if not isinstance(value, kind):
        raise BundleError(f"{where} must be {_JSON_KINDS[kind]}, got {value!r:.60}")
    return value


#: Bytes the files of the cache may hold, every entry alike; storing an entry deletes
#: the least recently used until they fit, and an entry larger than this is not stored.
CACHE_BYTES = 256 << 20

#: The modules that parse and align the tables: their source is part of every
#: table entry's key, so that any change to the parser invalidates every entry.
_PARSER_SOURCES = (Path(__file__), Path(__file__).with_name("tables.py"))


def file_digest(path: str | Path) -> str:
    """sha256 of a file's bytes, read in 1 MiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def cache_entry(cache: str | Path | None, name: str, sources, *parts: str) -> Path | None:
    """The entry ``<key>.<name>`` in ``cache`` of what the code in the files
    ``sources`` computes from the inputs ``parts`` name: ``key`` is a sha256 over
    the sha256 of each source, numpy's version and each part, one a line.  None
    without a cache, or when a source cannot be read."""
    if cache is None:
        return None
    try:
        lines = [*map(file_digest, sources), np.__version__, *parts]
    except OSError:
        return None
    key = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return Path(cache) / f"{key}.{name}"


def _checksum(arrays: list[np.ndarray]) -> np.ndarray:
    """(1,) uint64, the XOR of every 8-byte word of ``arrays``: one flipped bit of
    them flips the same bit of it."""
    words = [np.bitwise_xor.reduce(a.view(np.uint64), axis=None) for a in arrays]
    return np.bitwise_xor.reduce(words, keepdims=True)


def read_entry(entry: Path | None, shapes: list[tuple[int, ...]]) -> list[np.ndarray] | None:
    """The arrays :func:`write_entry` stored as ``entry``, or None unless it holds
    exactly one column-major float64 array of each of ``shapes``, then their
    :func:`_checksum`, which they match; pickled data is never read.  Reading an
    entry counts as a use."""
    if entry is None:
        return None
    try:
        with open(entry, "rb") as fh:
            *arrays, stored = [np.load(fh, allow_pickle=False) for _ in range(len(shapes) + 1)]
            if fh.read(1):
                return None
    # a damaged header can claim any shape, even one too big to allocate, and np.load
    # evaluates it as a Python literal: a flipped bit there raised SyntaxError,
    # tokenize.TokenError and TypeError besides OSError, ValueError and EOFError
    except Exception:
        return None
    for a, shape in zip(arrays, shapes):
        if a.dtype != np.float64 or a.shape != shape or not a.flags.f_contiguous:
            return None
    if stored.dtype != np.uint64 or stored.shape != (1,) or stored != _checksum(arrays):
        return None
    with suppress(OSError):
        os.utime(entry)  # the most recently used
    # np.save stores an array that is both C- and F-contiguous as C: give each
    # the strides of read_table's column-major array
    return [a.ravel("F").reshape(shape, order="F") for a, shape in zip(arrays, shapes)]


def write_entry(entry: Path | None, arrays: list[np.ndarray]) -> None:
    """Store float64 ``arrays``, then their :func:`_checksum`, as ``entry``, whole or
    not at all, unless they are larger than :data:`CACHE_BYTES`; then delete the least
    recently used files in its directory, a killed writer's ``.tmp`` as an entry,
    until those left hold at most :data:`CACHE_BYTES`.  A directory in the entry's
    place is removed; a symbolic link is replaced, never followed.  An entry that
    cannot be stored is skipped: this never raises OSError."""
    if entry is None or sum(a.nbytes for a in arrays) > CACHE_BYTES:  # not even written
        return
    partial_entry = entry.with_name(f"{entry.stem}.{os.getpid()}.tmp")
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(partial_entry, "wb") as fh:
                for a in [*arrays, _checksum(arrays)]:
                    np.save(fh, a, allow_pickle=False)
                if fh.tell() > CACHE_BYTES:  # the arrays' headers, say, tipped it over
                    return
            if entry.is_dir() and not entry.is_symlink():
                shutil.rmtree(entry)
            os.replace(partial_entry, entry)
        finally:
            partial_entry.unlink(missing_ok=True)
        by_use = []
        for other in entry.parent.iterdir():
            with suppress(OSError):  # deleted by another process meanwhile
                stat = other.lstat()
                if S_ISREG(stat.st_mode):
                    by_use.append((stat.st_mtime_ns, stat.st_size, other))
        kept = 0
        for _, size, old in sorted(by_use, reverse=True):
            kept += size
            if kept > CACHE_BYTES:
                with suppress(OSError):
                    old.unlink()
    except OSError:
        pass


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

    With ``check=False`` only alignment is enforced; accounting
    invariants are skipped so that diagnostic callers can obtain a report via
    :func:`validate` instead.

    With a ``cache`` directory, the five aligned tables are read from the
    entry :func:`cache_entry` names by this parser's source, numpy's version
    and the sha256 of the manifest and of the five tables, if it is there;
    else they are parsed and stored under the name of the bytes parsed, not of
    those hashed for the lookup.  Everything else runs as without it, on the
    same arrays bit for bit.  The cache never fails a load: an entry that
    cannot be read is a miss, and one that cannot be written is skipped.
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
    if not entries:
        raise BundleError(f"{manifest_path}: activities must not be empty")
    for i, entry in enumerate(entries):
        if isinstance(entry, str):
            code, label = entry, ""
        elif isinstance(entry, dict) and "code" in entry:
            code, label = entry["code"], entry.get("label", "")
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
        if not isinstance(label, str):
            raise BundleError(
                f"{manifest_path}: activities[{i}] label must be a string, got {label!r:.60}"
            )
        activities.append(Activity(i, code, label))
    codes = tuple(a.code for a in activities)
    dupes = sorted(code for code, k in Counter(codes).items() if k > 1)
    if dupes:
        raise BundleError(f"{manifest_path}: duplicate activity codes: {', '.join(listing(dupes))}")
    clashes = sorted(set(codes) & _RESERVED_NAMES)
    if clashes:
        raise BundleError(
            f"{manifest_path}: activity codes collide with reserved names: "
            f"{', '.join(clashes)}"
        )

    components = [
        str(c) for c in _expect(manifest["components"], list, f"{manifest_path}: components")
    ]
    canonical = list(COMPONENT_ORDER)
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
    entry_of = partial(cache_entry, cache, "npy", _PARSER_SOURCES, sources["manifest"][1])
    arrays = None
    if cache is not None:
        digests = [file_digest(path) for path in files]
        shapes = [(len(codes), len(wanted)) for _, wanted, _ in layout]
        arrays = read_entry(entry_of(*digests), shapes)
    if arrays is None:  # a table that fails to parse raises here, and stores nothing
        arrays, digests = [], []
        for path, (name, wanted, _) in zip(files, layout):
            place = partial(_placement, name, path, wanted, codes)
            found, array, digest = read_table(path, delimiter, place)
            if len(found) < len(codes):  # each code found has a row of its own
                missing = listing([code for code in codes if code not in found])
                raise BundleError(f"{path}: missing rows for activities: {', '.join(missing)}")
            arrays.append(array)
            digests.append(digest)
        write_entry(entry_of(*digests), arrays)
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
        "components": list(COMPONENT_ORDER),
        "delimiter": ",",
        "tables": tables,
    }
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    return manifest_path
