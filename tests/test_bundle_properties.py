"""Property tests of bundle tables: a save/load round trip is bit-exact, and
numpy's parse of a table agrees with the row-by-row reader."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from taxcascade import Activity, IOAccounts, TaxDestinationTable, load_bundle, save_bundle
from taxcascade.accounts import _RESERVED_HEADERS, _parse_table, _read_rows

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
    lambda code: code == code.strip() and code not in _RESERVED_HEADERS
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
ODD_CELLS = st.sampled_from(["", " ", "x", "1_0", "１", "1 2", '"', '""', "#1", "0x1"])
WELL_FORMED = st.tuples(CODE_CELLS, NUMBER_CELLS, NUMBER_CELLS)
ROWS = st.one_of(
    WELL_FORMED,
    WELL_FORMED,
    st.lists(st.one_of(CODE_CELLS, NUMBER_CELLS, ODD_CELLS), max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(
    header=st.sampled_from([("code", "x1", "x2"), ('"code"', '" x1 "', "x2")]),
    # distinct first cells, since a duplicate code sends the table to the row reader
    rows=st.lists(ROWS, min_size=1, max_size=6, unique_by=lambda row: tuple(row)[:1]),
    delimiter=st.sampled_from([",", ";"]),
)
# a quoted header cell that spans two lines
@example(header=('"code',), rows=[('a"', "1", "2"), ("b", "3", "4")], delimiter=",")
# a line of quotes and delimiters only, which the csv module reads as a cell
@example(header=("code", "x1", "x2"), rows=[('","""',), ("b", "3", "4")], delimiter=",")
def test_numpy_parse_agrees_with_row_reader(header, rows, delimiter):
    lines = [delimiter.join(row) for row in (header, *rows)]
    parsed = _parse_table(lines, delimiter)
    if parsed is None:
        return  # the row-by-row reader is the one that reads this table
    names, codes, values = _read_rows(Path("table.csv"), lines, delimiter)
    assert parsed[0] == names
    assert parsed[1] == codes
    np.testing.assert_array_equal(bits(parsed[2]), bits(values))
