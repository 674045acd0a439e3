import csv
import io
import json
import shutil
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from taxcascade import (
    BundleError,
    COMPONENT_ORDER,
    DemandComponent,
    IOAccounts,
    TaxDestinationTable,
    load_bundle,
    save_bundle,
    validate,
)
from taxcascade.accounts import PARSE_ROWS, _layout
from taxcascade.tables import MAX_LISTED_FAILURES
from taxcascade.reporting import write_json


def test_demo_bundle_loads(demo_manifest):
    accounts = load_bundle(demo_manifest)
    assert accounts.codes == ("farm", "mill", "trade")
    assert accounts.activities[0].label == "Crop and animal production"
    npt.assert_array_equal(accounts.supply, [100.0, 200.0, 50.0])
    npt.assert_array_equal(accounts.flows[0], [10.0, 60.0, 5.0])
    npt.assert_array_equal(accounts.marginshares, [0.0, 0.0, 0.8])
    npt.assert_array_equal(accounts.taxdest.statutory, [8.0, 30.0, 5.0])


def test_component_order_is_fixed():
    assert [c.value for c in COMPONENT_ORDER] == [
        "exports",
        "government",
        "households",
        "isflsf",
        "gfcf",
        "inventory",
    ]
    assert DemandComponent.HOUSEHOLDS.column == 2


MINIMAL_TABLES = {
    "flows": "flows.csv",
    "finaldemand": "fd.csv",
    "supply": "supply.csv",
    "taxdest": "taxdest.csv",
    "marginshares": "margins.csv",
}


def write_minimal_bundle(directory, *, delimiter=",", edits=None):
    """Two-activity bundle written by hand, with deliberately shuffled
    columns and row order to exercise header/code alignment."""
    d = delimiter
    files = {
        "manifest.json": json.dumps(
            {
                "activities": ["up", "down"],
                "components": [c.value for c in COMPONENT_ORDER],
                "delimiter": delimiter,
                "tables": MINIMAL_TABLES,
            }
        ),
        # columns swapped relative to manifest order, rows swapped too
        "flows.csv": f"code{d}down{d}up\ndown{d}10{d}5\nup{d}40{d}20\n",
        "fd.csv": (
            f"code{d}households{d}exports{d}government{d}gfcf{d}inventory{d}isflsf\n"
            f"up{d}30{d}5{d}0{d}5{d}0{d}0\n"
            f"down{d}20{d}10{d}5{d}0{d}0{d}0\n"
        ),
        "supply.csv": f"code{d}supply\nup{d}100\ndown{d}50\n",
        "taxdest.csv": (
            f"code{d}statutory{d}up{d}down{d}exports{d}government{d}households{d}"
            f"isflsf{d}gfcf{d}inventory\n"
            f"up{d}10{d}2{d}4{d}1{d}0{d}3{d}0{d}0{d}0\n"
            f"down{d}6{d}1{d}1{d}0{d}1{d}3{d}0{d}0{d}0\n"
        ),
        "margins.csv": f"code{d}marginshare\nup{d}0\ndown{d}0\n",
    }
    if edits:
        files.update(edits)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory / "manifest.json"


def test_alignment_by_header_and_code(tmp_path):
    accounts = load_bundle(write_minimal_bundle(tmp_path))
    assert accounts.codes == ("up", "down")
    # flows row "up" was written second and with columns reversed
    npt.assert_array_equal(accounts.flows, [[20.0, 40.0], [5.0, 10.0]])
    assert accounts.finaldemand[0, DemandComponent.EXPORTS.column] == 5.0
    assert accounts.finaldemand[0, DemandComponent.HOUSEHOLDS.column] == 30.0
    npt.assert_array_equal(accounts.taxdest.intermediate, [[2.0, 4.0], [1.0, 1.0]])
    npt.assert_array_equal(accounts.taxdest.final[:, 2], [3.0, 3.0])


def test_semicolon_delimiter(tmp_path):
    accounts = load_bundle(write_minimal_bundle(tmp_path, delimiter=";"))
    npt.assert_array_equal(accounts.supply, [100.0, 50.0])


def test_balance_tolerance_boundary(tmp_path):
    # row total for "up" is 100, so the allowed deviation is 1e-4
    ok_dir = tmp_path / "ok"
    ok_dir.mkdir()
    ok = write_minimal_bundle(
        ok_dir, edits={"supply.csv": "code,supply\nup,100.00009\ndown,50\n"}
    )
    assert load_bundle(ok).supply[0] == 100.00009

    bad_dir = tmp_path / "bad"
    bad_dir.mkdir()
    bad = write_minimal_bundle(
        bad_dir, edits={"supply.csv": "code,supply\nup,100.00011\ndown,50\n"}
    )
    with pytest.raises(BundleError, match="row_balance"):
        load_bundle(bad)


def test_missing_table_file(tmp_path):
    manifest = write_minimal_bundle(tmp_path)
    (tmp_path / "supply.csv").unlink()
    with pytest.raises(BundleError, match="not found"):
        load_bundle(manifest)


def test_missing_manifest_key(tmp_path):
    manifest = write_minimal_bundle(tmp_path)
    data = json.loads(manifest.read_text())
    del data["components"]
    manifest.write_text(json.dumps(data))
    with pytest.raises(BundleError, match="components"):
        load_bundle(manifest)


def test_duplicate_activity_code_in_manifest(tmp_path):
    manifest = write_minimal_bundle(tmp_path)
    data = json.loads(manifest.read_text())
    data["activities"] = ["up", "up"]
    manifest.write_text(json.dumps(data))
    with pytest.raises(BundleError, match="duplicate"):
        load_bundle(manifest)


def test_duplicate_row_in_table(tmp_path):
    manifest = write_minimal_bundle(
        tmp_path, edits={"supply.csv": "code,supply\nup,100\nup,100\ndown,50\n"}
    )
    with pytest.raises(BundleError, match="duplicate activity code"):
        load_bundle(manifest)


def test_missing_and_unknown_rows(tmp_path):
    manifest = write_minimal_bundle(
        tmp_path, edits={"supply.csv": "code,supply\nup,100\nelse,50\n"}
    )
    with pytest.raises(BundleError, match="missing rows|unknown activity"):
        load_bundle(manifest)


def test_wrong_columns_rejected(tmp_path):
    manifest = write_minimal_bundle(
        tmp_path, edits={"flows.csv": "code,up,sideways\nup,20,40\ndown,5,10\n"}
    )
    with pytest.raises(BundleError) as excinfo:
        load_bundle(manifest)
    # the columns that differ, not both whole headers
    assert str(excinfo.value) == (
        f"{tmp_path / 'flows.csv'}: flows columns do not match: missing down; unexpected sideways"
    )


@pytest.mark.parametrize(
    "text, problem",
    [
        ("code,up,up\nup,20,40\ndown,5,10\n", "missing down; unexpected up"),
        ("code,up,down,up\nup,20,40,0\ndown,5,10,0\n", "unexpected up"),
    ],
    ids=["instead-of-another", "extra"],
)
def test_repeated_column_rejected(tmp_path, text, problem):
    manifest = write_minimal_bundle(tmp_path, edits={"flows.csv": text})
    with pytest.raises(BundleError) as excinfo:
        load_bundle(manifest)
    assert str(excinfo.value) == f"{tmp_path / 'flows.csv'}: flows columns do not match: {problem}"


def test_header_typo_names_one_column_of_many(tmp_path, accounts_factory):
    # the whole header of a wide table, twice, used to be the message
    n = 40
    accounts = accounts_factory(flows=np.eye(n), finaldemand=np.ones((n, 6)))
    manifest = save_bundle(accounts, tmp_path)
    path = tmp_path / "taxdest.csv"
    lines = path.read_text(encoding="utf-8").split("\n", 1)
    path.write_text(lines[0].replace(",s03,", ",s03x,") + "\n" + lines[1], encoding="utf-8")
    with pytest.raises(BundleError) as excinfo:
        load_bundle(manifest)
    message = f"{path}: taxdest columns do not match: missing s03; unexpected s03x"
    assert str(excinfo.value) == message


def test_long_lists_stop_at_the_cap(tmp_path, accounts_factory):
    n = 40
    manifest = save_bundle(
        accounts_factory(flows=np.eye(n), finaldemand=np.ones((n, 6))), tmp_path
    )
    (tmp_path / "supply.csv").write_text("code,supply\n", encoding="utf-8")
    with pytest.raises(BundleError) as excinfo:
        load_bundle(manifest)
    listed = ", ".join(f"s{i:02d}" for i in range(MAX_LISTED_FAILURES))
    assert str(excinfo.value) == (
        f"{tmp_path / 'supply.csv'}: missing rows for activities: {listed}, ... and 30 more"
    )


def test_reserved_code_rejected(tmp_path):
    manifest = write_minimal_bundle(tmp_path)
    data = json.loads(manifest.read_text())
    data["activities"] = ["up", "statutory"]
    manifest.write_text(json.dumps(data))
    with pytest.raises(BundleError, match="reserved"):
        load_bundle(manifest)


def test_non_numeric_cell(tmp_path):
    manifest = write_minimal_bundle(
        tmp_path, edits={"supply.csv": "code,supply\nup,abc\ndown,50\n"}
    )
    with pytest.raises(BundleError, match="supply.csv:2"):
        load_bundle(manifest)


def test_line_numbers_count_blank_lines(tmp_path):
    manifest = write_minimal_bundle(
        tmp_path, edits={"supply.csv": "code,supply\n\n   \n,\nup,abc\ndown,50\n"}
    )
    with pytest.raises(BundleError, match=r"supply\.csv:5: could not convert"):
        load_bundle(manifest)


def test_duplicate_code_after_blank_line_names_its_line(tmp_path):
    manifest = write_minimal_bundle(
        tmp_path, edits={"supply.csv": "code,supply\nup,100\n\nup,100\ndown,50\n"}
    )
    with pytest.raises(BundleError, match=r"supply\.csv:4: duplicate activity code 'up'"):
        load_bundle(manifest)


def test_short_taxdest_row(tmp_path):
    manifest = write_minimal_bundle(tmp_path)
    path = tmp_path / "taxdest.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(BundleError, match=r"taxdest\.csv:3: expected 10 columns, got 9"):
        load_bundle(manifest)


def test_byte_order_mark_with_semicolons(tmp_path):
    plain_dir = tmp_path / "plain"
    plain_dir.mkdir()
    plain = load_bundle(write_minimal_bundle(plain_dir, delimiter=";"))
    bom_dir = tmp_path / "bom"
    bom_dir.mkdir()
    manifest = write_minimal_bundle(bom_dir, delimiter=";")
    for table in ("flows.csv", "fd.csv", "supply.csv", "taxdest.csv", "margins.csv"):
        path = bom_dir / table
        path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
    accounts = load_bundle(manifest)
    npt.assert_array_equal(accounts.flows, plain.flows)
    npt.assert_array_equal(accounts.taxdest.dest, plain.taxdest.dest)
    npt.assert_array_equal(accounts.supply, [100.0, 50.0])


def test_spaces_and_quotes_around_cells(tmp_path):
    manifest = write_minimal_bundle(
        tmp_path,
        edits={
            "supply.csv": 'code , "supply"\n up ,  100 \n"down","5e1"\n',
            "flows.csv": 'code,"down",up\n"down", 10,"5 "\n up ,"40",\t20\n',
        },
    )
    accounts = load_bundle(manifest)
    npt.assert_array_equal(accounts.supply, [100.0, 50.0])
    npt.assert_array_equal(accounts.flows, [[20.0, 40.0], [5.0, 10.0]])


@pytest.mark.parametrize(
    "cell, reason",
    [
        ("1_00", "could not convert '1_00' to a number in column 'supply'"),
        ("１００", "could not convert '１００' to a number in column 'supply'"),
        ('"100\n"', "a quoted cell runs past the end of the line"),
    ],
    ids=["underscore", "fullwidth-digits", "quoted-across-lines"],
)
def test_numbers_only_float_reads(tmp_path, cell, reason):
    # float() reads each of these as 100, numpy's parser does not: the table is rejected
    manifest = write_minimal_bundle(
        tmp_path, edits={"supply.csv": f"code,supply\nup,{cell}\ndown,50\n"}
    )
    with pytest.raises(BundleError) as excinfo:
        load_bundle(manifest)
    assert str(excinfo.value) == f"{tmp_path / 'supply.csv'}:2: {reason}"


# Manifest fields replaced, and the message after "<manifest>: "
MALFORMED_MANIFESTS = [
    ({"activities": [0, 1, 2]}, "activities[0] must be a code or an object with a 'code', got 0"),
    (
        {"activities": ["up", {"label": "x"}]},
        "activities[1] must be a code or an object with a 'code', got {'label': 'x'}",
    ),
    (
        {"activities": ["up", {"code": None}]},
        "activities[1] code must be a non-empty string without surrounding spaces, got None",
    ),
    # the tables' codes are stripped, so this one could never match a row
    (
        {"activities": [" up", "down"]},
        "activities[0] code must be a non-empty string without surrounding spaces, got ' up'",
    ),
    (
        {"activities": ["up", {"code": ""}]},
        "activities[1] code must be a non-empty string without surrounding spaces, got ''",
    ),
    ({"activities": "up"}, "activities must be an array, got 'up'"),
    ({"components": 6}, "components must be an array, got 6"),
    ({"tables": ["flows.csv"]}, "tables must be an object, got ['flows.csv']"),
    ({"tables": {**MINIMAL_TABLES, "flows": 5}}, "tables['flows'] must be a string, got 5"),
    # an entry no table reads is still hashed into the run record, so it must be a path
    (
        {"tables": {**MINIMAL_TABLES, "metadata": 5}},
        "tables['metadata'] must be a string, got 5",
    ),
]


def write_malformed_manifest(directory, fields):
    manifest = write_minimal_bundle(directory)
    data = json.loads(manifest.read_text())
    data.update(fields)
    manifest.write_text(json.dumps(data))
    return manifest


@pytest.mark.parametrize("fields, message", MALFORMED_MANIFESTS)
def test_malformed_manifest_names_the_field(tmp_path, fields, message):
    manifest = write_malformed_manifest(tmp_path, fields)
    with pytest.raises(BundleError) as excinfo:
        load_bundle(manifest)
    assert str(excinfo.value) == f"{manifest}: {message}"


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("manifest.json", b"5", "the manifest must be an object, got 5"),
        ("manifest.json", b"\xff\xfe{}", "invalid JSON ("),
        ("supply.csv", "code,supply\nup,100\n".encode("utf-16"), "not UTF-8 text ("),
    ],
)
def test_malformed_file_is_named(tmp_path, name, text, message):
    manifest = write_minimal_bundle(tmp_path)
    (tmp_path / name).write_bytes(text)
    with pytest.raises(BundleError) as excinfo:
        load_bundle(manifest)
    assert str(excinfo.value).startswith(f"{tmp_path / name}: {message}")


@pytest.mark.parametrize(
    "fields, meta",
    [
        # each of these once stopped load_bundle, inline ...
        ({"metadata": [1]}, None),
        ({"metadata": {"year": "abc"}}, None),
        ({"metadata": {"year": 2015.9}}, None),
        ({"metadata": {"year": True}}, None),
        ({"metadata": {"year": "2015"}}, None),
        ({"metadata": {"tax_revenue": [["ICMS"]]}}, None),
        # ... or in a file named under tables
        ({"tables": {**MINIMAL_TABLES, "metadata": "meta.json"}}, b"{"),
        ({"tables": {**MINIMAL_TABLES, "metadata": "meta.json"}}, b"\xff\xfe{}"),
        ({"tables": {**MINIMAL_TABLES, "metadata": "meta.json"}}, b"[1]"),
        ({"tables": {**MINIMAL_TABLES, "metadata": "meta.json"}}, b'{"year": "abc"}'),
        ({"tables": {**MINIMAL_TABLES, "metadata": "meta.json"}}, b'{"tax_revenue": 5}'),
    ],
)
def test_metadata_is_not_read(tmp_path, fields, meta):
    (tmp_path / "plain").mkdir()
    (tmp_path / "extra").mkdir()
    plain = load_bundle(write_minimal_bundle(tmp_path / "plain"))
    manifest = write_malformed_manifest(tmp_path / "extra", fields)
    if meta is not None:
        (tmp_path / "extra" / "meta.json").write_bytes(meta)
    again = load_bundle(manifest)
    assert again.codes == plain.codes
    npt.assert_array_equal(again.flows, plain.flows)
    npt.assert_array_equal(again.finaldemand, plain.finaldemand)
    npt.assert_array_equal(again.supply, plain.supply)
    npt.assert_array_equal(again.taxdest.dest, plain.taxdest.dest)
    npt.assert_array_equal(again.taxdest.statutory, plain.taxdest.statutory)
    npt.assert_array_equal(again.marginshares, plain.marginshares)


def test_loaded_matrices_are_column_major(demo_manifest):
    # numpy's sums round by memory order, so the layout the loader gives is
    # part of what keeps the outputs of every command byte for byte the same
    accounts = load_bundle(demo_manifest)
    for matrix in (accounts.flows, accounts.finaldemand, accounts.taxdest.dest):
        assert matrix.flags.f_contiguous and not matrix.flags.c_contiguous


def sparse_accounts(accounts_factory, n, seed):
    """A balanced n-activity bundle with about 3% of its flows and tax cells set,
    as input-output tables are sparse."""
    rng = np.random.default_rng(seed)

    def sparse(*shape):
        return rng.random(shape) * 1e4 * (rng.random(shape) < 0.03)

    return accounts_factory(
        flows=sparse(n, n), finaldemand=sparse(n, 6) + 1.0, dest=sparse(n, n + 6),
        codes=[f"a{i:04d}" for i in range(n)],
    )


def test_shuffled_table_loads_as_the_whole_file_aligned(tmp_path, accounts_factory):
    # rows shuffled and columns permuted in every table, ";" as the delimiter and
    # more than two chunks of rows: each array is, bit for bit and in memory
    # order, the whole parsed file aligned by one fancy-indexed copy
    n = 2 * PARSE_ROWS + 37
    accounts = sparse_accounts(accounts_factory, n, seed=3)
    manifest = save_bundle(accounts, tmp_path)
    rng = np.random.default_rng(4)
    expected = {}
    for name, columns, values in _layout(accounts.codes):
        rows = rng.permutation(n)
        order = rng.permutation(len(columns))
        in_file = values(accounts)[rows][:, order]
        path = tmp_path / f"{name}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, delimiter=";", lineterminator="\n")
            writer.writerow(["code", *(columns[j] for j in order)])
            for i, row in zip(rows, in_file.tolist()):
                writer.writerow([accounts.codes[i], *map(repr, row)])
        # the loader's copy before tables were parsed in chunks
        expected[name] = in_file.T[np.ix_(np.argsort(order), np.argsort(rows))].T
    data = json.loads(manifest.read_text(encoding="utf-8"))
    manifest.write_text(json.dumps({**data, "delimiter": ";"}), encoding="utf-8")
    loaded = load_bundle(manifest)
    pairs = [
        (loaded.flows, expected["flows"]),
        (loaded.finaldemand, expected["finaldemand"]),
        (loaded.supply, expected["supply"][:, 0]),
        (loaded.taxdest.statutory, expected["taxdest"][:, 0]),
        (loaded.taxdest.dest, expected["taxdest"][:, 1:]),
        (loaded.marginshares, expected["marginshares"][:, 0]),
    ]
    for got, want in pairs:
        npt.assert_array_equal(got.view(np.int64), want.view(np.int64))
        assert got.strides == want.strides
    assert loaded.flows.flags.f_contiguous and loaded.taxdest.dest.flags.f_contiguous


def test_load_bundle_holds_little_beyond_its_arrays(tmp_path, accounts_factory):
    # tables are parsed a chunk at a time into their aligned arrays: no whole
    # file's text and no second copy of a table is held
    n = 800
    manifest = save_bundle(sparse_accounts(accounts_factory, n, seed=5), tmp_path)
    tracemalloc.start()
    try:
        accounts = load_bundle(manifest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in (accounts.flows, accounts.finaldemand, accounts.supply,
                                  accounts.taxdest.dest, accounts.taxdest.statutory,
                                  accounts.marginshares))
    assert peak - held < 0.5 * 8 * n * (n + 6)


def test_check_false_defers_invariants(tmp_path):
    manifest = write_minimal_bundle(
        tmp_path, edits={"supply.csv": "code,supply\nup,999\ndown,50\n"}
    )
    accounts = load_bundle(manifest, check=False)
    report = validate(accounts)
    assert not report.ok
    names = [c.name for c in report.failed()]
    assert names == ["row_balance"]
    assert any("up" in f for f in report.failed()[0].failures)


def test_validate_flags_negative_flow(accounts_factory):
    accounts = accounts_factory(
        flows=[[0.0, -1.0], [0.0, 0.0]],
        finaldemand=np.zeros((2, 6)),
        supply=[-1.0, 0.0],
    )
    report = validate(accounts)
    failed = {c.name: c for c in report.failed()}
    assert "flow_signs" in failed
    assert failed["flow_signs"].residual == 1.0
    assert "s00 -> s01" in failed["flow_signs"].failures[0]


def test_negative_inventory_is_allowed(accounts_factory):
    fd = np.zeros((2, 6))
    fd[0, DemandComponent.INVENTORY.column] = -4.0
    fd[0, DemandComponent.EXPORTS.column] = 10.0
    accounts = accounts_factory(flows=np.zeros((2, 2)), finaldemand=fd)
    report = validate(accounts)
    assert report.ok


def test_negative_household_demand_is_not(accounts_factory):
    fd = np.zeros((2, 6))
    fd[1, DemandComponent.HOUSEHOLDS.column] = -2.0
    fd[1, DemandComponent.EXPORTS.column] = 8.0
    accounts = accounts_factory(flows=np.zeros((2, 2)), finaldemand=fd)
    report = validate(accounts)
    assert [c.name for c in report.failed()] == ["finaldemand_signs"]


def test_margin_share_out_of_range(accounts_factory):
    accounts = accounts_factory(
        flows=np.zeros((2, 2)),
        finaldemand=np.zeros((2, 6)),
        marginshares=[0.0, 1.5],
    )
    report = validate(accounts)
    failed = {c.name: c for c in report.failed()}
    assert failed["margin_share_range"].residual == pytest.approx(0.5)


def test_statutory_mismatch_flagged(accounts_factory):
    dest = np.zeros((2, 8))
    dest[0, 0] = 5.0
    base = accounts_factory(np.zeros((2, 2)), np.zeros((2, 6)))
    accounts = IOAccounts(
        activities=base.activities,
        flows=base.flows,
        finaldemand=base.finaldemand,
        supply=base.supply,
        taxdest=TaxDestinationTable(dest=dest, statutory=np.array([9.0, 0.0])),
        marginshares=base.marginshares,
    )
    report = validate(accounts)
    names = [c.name for c in report.failed()]
    assert "statutory_rows" in names
    assert "statutory_total" in names


def test_shape_mismatch_rejected(accounts_factory):
    with pytest.raises(ValueError, match="final demand"):
        accounts_factory(flows=np.zeros((2, 2)), finaldemand=np.zeros((2, 5)))


def test_arrays_are_read_only(demo_manifest):
    accounts = load_bundle(demo_manifest)
    with pytest.raises(ValueError):
        accounts.flows[0, 0] = 99.0


def test_round_trip_is_bit_exact(tmp_path, brazil_accounts):
    manifest = save_bundle(brazil_accounts, tmp_path / "bundle")
    again = load_bundle(manifest)
    npt.assert_array_equal(again.flows, brazil_accounts.flows)
    npt.assert_array_equal(again.finaldemand, brazil_accounts.finaldemand)
    npt.assert_array_equal(again.supply, brazil_accounts.supply)
    npt.assert_array_equal(again.taxdest.dest, brazil_accounts.taxdest.dest)
    npt.assert_array_equal(again.taxdest.statutory, brazil_accounts.taxdest.statutory)
    npt.assert_array_equal(again.marginshares, brazil_accounts.marginshares)
    assert again.codes == brazil_accounts.codes


def test_round_trip_awkward_values(tmp_path, accounts_factory):
    flows = np.array([[1 / 3, 0.1], [np.pi, 2 / 7]])
    fd = np.full((2, 6), 1e-17)
    accounts = accounts_factory(flows=flows, finaldemand=fd)
    manifest = save_bundle(accounts, tmp_path)
    again = load_bundle(manifest)
    npt.assert_array_equal(again.flows, flows)
    npt.assert_array_equal(again.finaldemand, fd)


def test_saved_tables_are_csv_of_reprs(tmp_path, accounts_factory):
    # a code the csv module quotes, and -0.0 cells beside +0.0 ones: each table is
    # byte for byte what csv.writer writes of the codes and the cells' reprs
    flows = np.array([[-0.0, 0.0], [1 / 3, -0.0]])
    fd = np.array([[1.0, -0.0, 0.0, 2.5, 0.0, 0.0], [0.0, 0.0, 4.0, -0.0, 1e-300, 0.0]])
    accounts = accounts_factory(flows=flows, finaldemand=fd, codes=('a,"b"', "c d"))
    manifest = save_bundle(accounts, tmp_path)
    for name, columns, values in _layout(accounts.codes):
        expected = io.StringIO()
        rows = zip(accounts.codes, values(accounts).tolist())
        csv.writer(expected, lineterminator="\n").writerows(
            [["code", *columns]] + [[code, *map(repr, row)] for code, row in rows]
        )
        assert (tmp_path / f"{name}.csv").read_bytes() == expected.getvalue().encode(), name
    assert (tmp_path / "flows.csv").read_text().splitlines()[1] == '"a,""b""",-0.0,0.0'
    again = load_bundle(manifest, check=False)
    npt.assert_array_equal(again.flows.view(np.int64), flows.view(np.int64))
    npt.assert_array_equal(again.finaldemand.view(np.int64), fd.view(np.int64))


def test_validation_report_json(tmp_path, demo_manifest):
    report = validate(load_bundle(demo_manifest))
    path = write_json(report.to_records(), tmp_path / "report.json")
    records = json.loads(path.read_text())
    assert {r["check"] for r in records} >= {"row_balance", "statutory_rows"}
    assert all(r["passed"] for r in records)


def corrupt_demo_copy(demo_manifest, directory, table, code, column, text):
    """Copy the demo bundle with one cell of ``table`` replaced by ``text``."""
    shutil.copytree(demo_manifest.parent, directory)
    path = directory / f"{table}.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    next(r for r in rows if r[0] == code)[rows[0].index(column)] = text
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return directory / demo_manifest.name


NON_FINITE_CELLS = [
    ("flows", "mill", "trade", "nan"),
    # inf supply passes row_balance, whose allowance scales with |supply|
    ("supply", "trade", "supply", "inf"),
]


@pytest.mark.parametrize("table, code, column, text", NON_FINITE_CELLS)
def test_non_finite_cell_fails_validation(tmp_path, demo_manifest, table, code, column, text):
    manifest = corrupt_demo_copy(demo_manifest, tmp_path / "bad", table, code, column, text)
    report = validate(load_bundle(manifest, check=False))
    assert not report.ok
    # the other checks would compare NaN or inf, so they are not run
    [check] = report.checks
    assert check.name == "finite_cells"
    assert not check.passed
    assert check.failures == (f"{table}: {code} / {column}: {text}",)
    # a non-finite cell has no finite magnitude: the count alone says how many
    assert (check.count, check.residual) == (1, None)
    with pytest.raises(BundleError, match="finite_cells: 1 failure") as excinfo:
        load_bundle(manifest)
    assert check.failures[0] in str(excinfo.value)
