"""``validate`` and ``compute`` accept exactly the same bundles.

Each example mutates one copy of the demo bundle and runs both commands through
``cli.main`` in this process: both exit 0 or both exit 1 (never 2, never an
exception), a failure names what is wrong, and a failed ``compute`` leaves
``--out`` absent.
"""

import contextlib
import io
import json
import shutil
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from taxcascade.cli import main

from test_cli import read_csv, refuse_margins

TABLES = ("flows", "finaldemand", "supply", "taxdest", "marginshares")
CELLS = ("nan", "inf", "-inf", "1_000", "0x10", "", '"1')


def rewrite(path, rows, delimiter=","):
    path.write_text("".join(delimiter.join(row) + "\n" for row in rows), encoding="utf-8")


@st.composite
def mutations(draw):
    """(description, edit, names): ``edit(bundle)`` mutates a demo copy in place, and a
    failure must name one of ``names`` (a file, a manifest key, an activity or a column)."""
    kind = draw(st.sampled_from([
        "cell", "drop", "repeat", "header", "utf16", "delimiter", "bundle delimiter",
        "entry", "margins",
    ]))
    table = draw(st.sampled_from(TABLES))
    file = f"{table}.csv"
    if kind == "margins":
        case = draw(st.sampled_from(["isflsf", "idle"]))
        return f"margins {case}", partial(refuse_margins, case=case), (case,)
    if kind == "entry":
        key = draw(st.sampled_from([*TABLES, "notes"]))
        value = draw(st.sampled_from([".", "missing.csv", 5, None, ["flows.csv"]]))

        def edit(bundle):
            manifest = json.loads((bundle / "manifest.json").read_text())
            manifest["tables"][key] = value
            (bundle / "manifest.json").write_text(json.dumps(manifest))

        return f"tables[{key!r}] = {value!r}", edit, (f"tables[{key!r}]",)
    if kind == "bundle delimiter":

        def edit(bundle):
            manifest = json.loads((bundle / "manifest.json").read_text())
            manifest["delimiter"] = ";"
            (bundle / "manifest.json").write_text(json.dumps(manifest))
            for name in TABLES:
                rewrite(bundle / f"{name}.csv", read_csv(bundle / f"{name}.csv"), ";")

        return kind, edit, ()

    def edit(bundle):
        path = bundle / file
        rows = read_csv(path)
        if kind == "cell":
            rows[row][column] = text
        elif kind == "drop":
            del rows[row]
        elif kind == "repeat":
            rows.insert(row, rows[row])
        elif kind == "header":
            rows[0][column] += "x"
        if kind == "utf16":
            path.write_bytes(path.read_text(encoding="utf-8").encode("utf-16"))
        else:
            rewrite(path, rows, ";" if kind == "delimiter" else ",")

    row = draw(st.integers(1, 3))
    column = draw(st.integers(1, {"flows": 3, "finaldemand": 6, "taxdest": 10}.get(table, 1)))
    text = draw(st.sampled_from(CELLS))
    codes = ("farm", "mill", "trade")
    names = (file, table) + (codes[row - 1],) * (kind in ("cell", "drop", "repeat"))
    return f"{kind} {file} row {row} column {column} {text!r}", edit, names


def run(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(args))
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations")


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(mutation=mutations())
def test_validate_and_compute_agree_on_every_mutation(demo_manifest, workdir, mutation):
    description, edit, names = mutation
    for name in ("bundle", "validate", "compute"):
        shutil.rmtree(workdir / name, ignore_errors=True)
    shutil.copytree(demo_manifest.parent, workdir / "bundle")
    edit(workdir / "bundle")
    manifest = workdir / "bundle" / demo_manifest.name

    outcomes = {
        command: run(command, "--manifest", str(manifest), "--out", str(workdir / command))
        for command in ("validate", "compute")
    }
    (rc, stdout, stderr), (crc, _, cerr) = outcomes["validate"], outcomes["compute"]
    assert rc in (0, 1) and crc in (0, 1), description
    assert rc == crc, (description, stdout, stderr, cerr)
    if rc:
        # validate words a failed check on stdout, indented under its name
        failures = [line for line in stdout.splitlines() if line.startswith("  ")]
        for error in ("\n".join(failures) + stderr, cerr):
            assert any(name in error for name in names), (description, error)
        assert not (workdir / "compute").exists(), description
