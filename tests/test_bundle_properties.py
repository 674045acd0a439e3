"""Property tests of bundle tables: a save/load round trip is bit-exact, and a
table loads as the csv module and float() read it or names a defective line."""

import csv
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from taxcascade import (
    Activity,
    BundleError,
    IOAccounts,
    TaxDestinationTable,
    load_bundle,
    save_bundle,
)
import taxcascade.accounts
from taxcascade.accounts import _RESERVED_NAMES, read_table

EDGE_VALUES = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072009e-308,  # largest subnormal
    1e-300,
    -1e-300,
    1e300,
    -1e300,
    1.7976931348623157e308,
]
CELLS = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False))
# Codes with delimiters and quotes inside, so that the writer quotes them.
CODES = st.text(alphabet='ab1é,;" ', min_size=1, max_size=5).filter(
    lambda code: code == code.strip() and code not in _RESERVED_NAMES
)


@st.composite
def bundles(draw) -> IOAccounts:
    n = draw(st.integers(1, 8))
    codes = draw(st.lists(CODES, min_size=n, max_size=n, unique=True))

    def matrix(*shape):
        return draw(arrays(np.float64, shape, elements=CELLS))

    return IOAccounts(
        activities=tuple(Activity(i, code) for i, code in enumerate(codes)),
        flows=matrix(n, n),
        finaldemand=matrix(n, 6),
        supply=matrix(n),
        taxdest=TaxDestinationTable(dest=matrix(n, n + 6), statutory=matrix(n)),
        marginshares=matrix(n),
    )


def bits(values: np.ndarray) -> np.ndarray:
    return values.view(np.int64)


@settings(max_examples=60, deadline=None)
@given(accounts=bundles())
def test_save_load_round_trip_is_bit_exact(accounts):
    with tempfile.TemporaryDirectory() as directory:
        again = load_bundle(save_bundle(accounts, directory), check=False)
    assert again.codes == accounts.codes
    for name in ("flows", "finaldemand", "supply", "marginshares"):
        np.testing.assert_array_equal(bits(getattr(again, name)), bits(getattr(accounts, name)))
    np.testing.assert_array_equal(bits(again.taxdest.dest), bits(accounts.taxdest.dest))
    np.testing.assert_array_equal(
        bits(again.taxdest.statutory), bits(accounts.taxdest.statutory)
    )


CODE_CELLS = st.sampled_from(["a", "b", " c ", '"d"', '"e,f"', '"g""h"', ' "i"', '"j"k'])
NUMBER_CELLS = st.sampled_from(
    ["1", " 2.5 ", '"3"', '" 4 "', "-0", "1e-310", "-1E300", "nan", "-inf", "+.5"]
)
# Cells numpy rejects or that change the row's shape or the quoting.
ODD_CELLS = st.sampled_from(["", " ", "x", "1_0", "１", "1 2", '"', '""', '"5', "#1", "0x1"])
WELL_FORMED = st.tuples(CODE_CELLS, NUMBER_CELLS, NUMBER_CELLS)
ROWS = st.one_of(
    WELL_FORMED,
    WELL_FORMED,
    st.lists(st.one_of(CODE_CELLS, NUMBER_CELLS, ODD_CELLS), max_size=4),
)


def is_number(cell: str) -> bool:
    """Whether ``cell`` is a number in plain ASCII: float() reads more, such as
    ``1_0`` and non-ASCII digits, and a table must not hold those."""
    try:
        float(cell)
    except ValueError:
        return False
    return cell.isascii() and "_" not in cell


def oracle(lines: list[str], delimiter: str) -> tuple:
    """The table as the csv module and float() read it, one line at a time: its
    header, codes and values, and the set of numbers of its lines
    that leave a quoted cell open, have the wrong width, repeat a code or hold
    a cell that is not a number."""
    kept = [(k, line) for k, line in enumerate(lines, 1) if line.replace(delimiter, "").strip()]
    cells = {}
    for k, line in kept:
        parsed = list(csv.reader([line, line], delimiter=delimiter))
        # an open quote swallows the second copy of the line
        cells[k] = [cell.strip() for cell in parsed[0]] if len(parsed) == 2 else None
    (first, _), *rows = kept
    header = cells[first]
    if header is None:
        return [], [], [], {first}
    bad = set()
    codes: list[str] = []
    values = []
    for k, _ in rows:
        row = cells[k]
        if row is None or len(row) != len(header) or row[0] in codes:
            bad.add(k)
        elif all(map(is_number, row[1:])):
            values.append([float(cell) for cell in row[1:]])
        else:
            bad.add(k)
        if row is not None:
            codes.append(row[0])
    return header, codes, values, bad


@settings(max_examples=300, deadline=None)
@given(
    header=st.sampled_from([("code", "x1", "x2"), ('"code"', '" x1 "', "x2")]),
    rows=st.lists(ROWS, min_size=1, max_size=6),
    delimiter=st.sampled_from([",", ";"]),
)
# a quoted header cell that spans two lines
@example(header=('"code',), rows=[('a"', "1", "2"), ("b", "3", "4")], delimiter=",")
# a line of quotes and delimiters only, which the csv module reads as a cell
@example(header=("code", "x1", "x2"), rows=[('","""',), ("b", "3", "4")], delimiter=",")
# a quote left open at the end of the file
@example(header=("code", "x1", "x2"), rows=[("a", "1", "2"), ("b", "3", '"5')], delimiter=",")
def test_table_loads_as_oracle_reads_it_or_names_a_bad_line(header, rows, delimiter):
    lines = [delimiter.join(row) for row in (header, *rows)]
    names, codes, values, bad = oracle(lines, delimiter)
    headers = []

    def place(header):
        """Every column in header order, and a row for each code the oracle reads,
        in reverse order."""
        headers.append(header)
        order = list(dict.fromkeys(codes))[::-1]
        return list(range(len(header) - 1)), order, np.empty((len(order), len(header) - 1))

    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "table.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            loaded = read_table(path, delimiter, place)
        except BundleError as exc:
            line = re.match(re.escape(str(path)) + r":(\d+): ", str(exc))
            assert line, str(exc)
            assert int(line[1]) in bad, str(exc)
            return
    assert not bad
    assert headers == [names]
    assert loaded[0] == set(codes)
    expected = np.array(values, dtype=float).reshape(len(codes), len(names) - 1)[::-1]
    np.testing.assert_array_equal(bits(loaded[1]), bits(expected))


@pytest.mark.parametrize(
    "prop",
    [
        test_table_loads_as_oracle_reads_it_or_names_a_bad_line,
        test_save_load_round_trip_is_bit_exact,
    ],
)
def test_properties_hold_two_lines_at_a_time(monkeypatch, prop):
    # rows, defects and open quotes then fall on the boundaries between the
    # chunks numpy parses, and a bundle's rows are stored across them
    monkeypatch.setattr(taxcascade.accounts, "PARSE_ROWS", 2)
    prop()
