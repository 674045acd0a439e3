import csv
import gc
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from taxcascade import (
    COMPONENT_ORDER,
    apply_scenario,
    build_system,
    effective_rates,
    load_bundle,
    propagate_closed_form,
    propagate_truncated,
    redistribute_margins,
    save_bundle,
)
from taxcascade.accounts import BundleError
from taxcascade.reporting import result_record
from taxcascade.tables import DEFAULT_REPORT_COMPONENTS, MAX_LISTED_FAILURES
import taxcascade.cli as cli
from taxcascade.cli import main

from test_accounts import (
    MALFORMED_MANIFESTS,
    NON_FINITE_CELLS,
    corrupt_demo_copy,
    write_malformed_manifest,
    write_minimal_bundle,
)
from test_margins import assert_margin_audit_is_exact


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def two_by_two_bundle(tmp_path, accounts_factory):
    """Bundle whose share system has the hand-solved cumulative masses
    [1050/77, 700/77] (see test_engine.two_by_two)."""
    flows = np.array([[20.0, 30.0], [5.0, 0.0]])
    fd = np.zeros((2, 6))
    fd[0, 2] = 50.0
    fd[1, 2] = 45.0
    dest = np.zeros((2, 8))
    dest[0, :2] = [4.0, 6.0]
    dest[1, :2] = [2.0, 3.0]
    accounts = accounts_factory(flows=flows, finaldemand=fd, dest=dest)
    return save_bundle(accounts, tmp_path / "two")


def loop_bundle(tmp_path, accounts_factory):
    """Two activities selling only to each other: tax never reaches final
    demand, the closed form is singular and the stage loop cannot converge."""
    flows = np.array([[0.0, 100.0], [100.0, 0.0]])
    dest = np.zeros((2, 8))
    dest[0, 1] = 7.0
    accounts = accounts_factory(flows=flows, finaldemand=np.zeros((2, 6)), dest=dest)
    return save_bundle(accounts, tmp_path / "loop")


def diverging_bundle(tmp_path, accounts_factory):
    """Two activities each selling 1.5 times its supply to the other, the excess
    drawn from inventory: a valid bundle whose stage series grows by 1.5 a stage
    until it overflows, while the closed form stays finite."""
    flows = np.array([[0.0, 15.0], [15.0, 0.0]])
    fd = np.zeros((2, 6))
    fd[:, COMPONENT_ORDER.index("inventory")] = -5.0
    dest = np.zeros((2, 8))
    dest[0, 1] = dest[1, 0] = 1.0
    accounts = accounts_factory(flows=flows, finaldemand=fd, dest=dest)
    return save_bundle(accounts, tmp_path / "diverging")


# -- validate ----------------------------------------------------------------


def test_validate_ok(demo_manifest, tmp_path, capsys):
    rc = main(["validate", "--manifest", str(demo_manifest), "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "row_balance: ok" in out
    report = json.loads((tmp_path / "validation_report.json").read_text())
    assert all(r["passed"] for r in report)


def test_validate_missing_manifest(tmp_path):
    rc = main(["validate", "--manifest", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 2


def test_validate_structural_error(tmp_path, capsys):
    manifest = write_minimal_bundle(tmp_path)
    (tmp_path / "supply.csv").unlink()
    rc = main(["validate", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_validate_invalid_manifest_json_writes_nothing(tmp_path, capsys):
    manifest = tmp_path / "bad.json"
    manifest.write_text("{not json", encoding="utf-8")
    rc = main(["validate", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "invalid JSON" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_validate_out_is_a_file(demo_manifest, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("", encoding="utf-8")
    rc = main(["validate", "--manifest", str(demo_manifest), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "taken" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "compute"])
@pytest.mark.parametrize("fields, message", MALFORMED_MANIFESTS)
def test_malformed_manifest_exits_1_naming_it(tmp_path, capsys, command, fields, message):
    manifest = write_malformed_manifest(tmp_path, fields)
    assert main([command, "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"{manifest}: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def demo_copy(demo_manifest, directory, **fields):
    """The demo bundle copied to ``directory``, its manifest without ``metadata``
    and with ``fields`` set."""
    shutil.copytree(demo_manifest.parent, directory)
    manifest = directory / demo_manifest.name
    data = json.loads(manifest.read_text(encoding="utf-8"))
    del data["metadata"]
    manifest.write_text(json.dumps({**data, **fields}), encoding="utf-8")
    return manifest


def run_files(manifest, out):
    """What validate and compute write for ``manifest`` under ``out``, audit.json
    parsed and without its two keys that name the input files."""
    assert main(["validate", "--manifest", str(manifest), "--out", str(out / "v")]) == 0
    assert main(["compute", "--manifest", str(manifest), "--out", str(out / "c")]) == 0
    files = {path.relative_to(out).as_posix(): path.read_bytes() for path in out.rglob("*.*")}
    audit = json.loads(files.pop("c/audit.json"))
    return files, {k: v for k, v in audit.items() if k not in ("bundle", "manifest")}


@pytest.mark.parametrize(
    "tables, fields",
    [
        # metadata that load_bundle once type-checked, inline ...
        ({}, {"metadata": {"year": "2015", "tax_revenue": [["ICMS"]]}}),
        # ... or in a file named under tables, now not even JSON
        ({"metadata": "meta.json"}, {}),
    ],
    ids=["inline", "file"],
)
def test_manifest_metadata_is_not_read(demo_manifest, tmp_path, tables, fields):
    plain = demo_copy(demo_manifest, tmp_path / "plain")
    base = json.loads(plain.read_text(encoding="utf-8"))
    extra = demo_copy(
        demo_manifest, tmp_path / "extra", tables={**base["tables"], **tables}, **fields
    )
    (extra.parent / "meta.json").write_text("{not json", encoding="utf-8")
    assert run_files(extra, tmp_path / "extra-out") == run_files(plain, tmp_path / "plain-out")
    # the run record still pins every file the manifest names
    bundle = json.loads((tmp_path / "extra-out" / "c" / "audit.json").read_text())["bundle"]
    assert ("sha256" in bundle.get("metadata", {})) == bool(tables)


@pytest.mark.parametrize("command", ["validate", "compute"])
@pytest.mark.parametrize("entry", [".", "absent.txt"], ids=["directory", "missing"])
def test_tables_entry_must_name_a_file(demo_manifest, tmp_path, capsys, command, entry):
    # validate and compute accept the same bundles: each entry is hashed by compute
    plain = json.loads(demo_manifest.read_text(encoding="utf-8"))
    manifest = demo_copy(
        demo_manifest, tmp_path / "bundle", tables={**plain["tables"], "notes": entry}
    )
    out = tmp_path / "out"
    assert main([command, "--manifest", str(manifest), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: tables['notes']: ")
    assert str(manifest.parent / entry) in err
    assert "Traceback" not in err
    assert not out.exists()


def test_unhashable_tables_entry_writes_nothing(demo_manifest, tmp_path, capsys):
    plain = json.loads(demo_manifest.read_text(encoding="utf-8"))
    manifest = demo_copy(
        demo_manifest, tmp_path / "bundle", tables={**plain["tables"], "notes": "."}
    )
    out = tmp_path / "out"
    assert main(["compute", "--manifest", str(manifest), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Is a directory" in err and str(manifest.parent) in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "compute"])
def test_table_that_is_not_utf8_exits_1_naming_it(tmp_path, capsys, command):
    manifest = write_minimal_bundle(tmp_path)
    (tmp_path / "flows.csv").write_bytes(b"\xff\xfe" + "code,up,down\n".encode("utf-16-le"))
    assert main([command, "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / 'flows.csv'}: not UTF-8 text" in err
    assert "Traceback" not in err


def test_validate_reports_invariant_failure(tmp_path, capsys):
    manifest = write_minimal_bundle(
        tmp_path, edits={"supply.csv": "code,supply\nup,999\ndown,50\n"}
    )
    # a bundle that loads but fails its checks still gets its report
    rc = main(["validate", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "row_balance: FAIL" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "validation_report.json").read_text())
    by_name = {r["check"]: r for r in report}
    assert not by_name["row_balance"]["passed"]


def refuse_margins(bundle, case):
    """Edit a copy of the demo bundle, in directory ``bundle``, so that the margin step
    refuses it naming ``case``.

    ``"isflsf"`` moves trade's exports of 2 to isflsf, which no non-margin activity
    supplies; ``"idle"`` adds a fourth activity with all-zero rows and margin share 0.5.
    """
    if case == "isflsf":
        path = bundle / "finaldemand.csv"
        path.write_text(path.read_text().replace("trade,2,0,38,0,0,0", "trade,0,0,38,2,0,0"))
        return
    manifest = json.loads((bundle / "manifest.json").read_text())
    manifest["activities"].append({"code": "idle", "label": "Idle"})
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    for name in manifest["tables"].values():
        rows = read_csv(bundle / name)
        if "farm" in rows[0]:  # a table with a column per activity
            rows = [row + [cell] for row, cell in zip(rows, ["idle"] + ["0"] * len(rows))]
        rows.append(["idle"] + ["0.5" if "marginshare" in rows[0] else "0"] * (len(rows[0]) - 1))
        with open(bundle / name, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)


MARGIN_REFUSALS = {
    "isflsf": "margin supply or tax destined to columns with no non-margin supply: isflsf",
    "idle": "margin share set on zero-supply activities: idle",
}


@pytest.mark.parametrize("case", MARGIN_REFUSALS)
def test_validate_fails_bundles_the_margin_step_refuses(demo_manifest, tmp_path, capsys, case):
    shutil.copytree(demo_manifest.parent, tmp_path / "bundle")
    refuse_margins(tmp_path / "bundle", case)
    manifest = tmp_path / "bundle" / demo_manifest.name
    assert main(["validate", "--manifest", str(manifest), "--out", str(tmp_path / "v")]) == 1
    out = capsys.readouterr().out
    assert f"margins: FAIL (1 failure(s))\n  {MARGIN_REFUSALS[case]}\n" in out
    report = {r["check"]: r for r in json.loads((tmp_path / "v" / "validation_report.json").read_text())}
    assert [name for name, r in report.items() if not r["passed"]] == ["margins"]
    assert report["margins"]["failures"] == [MARGIN_REFUSALS[case]]

    assert main(["compute", "--manifest", str(manifest), "--out", str(tmp_path / "c")]) == 1
    assert capsys.readouterr().err == f"error: {MARGIN_REFUSALS[case]}\n"
    assert not (tmp_path / "c").exists()
    # without the margin step nothing refuses the bundle
    skip = ["--skip-margins", "--out", str(tmp_path / "s")]
    assert main(["compute", "--manifest", str(manifest), *skip]) == 0


# -- compute -----------------------------------------------------------------


#: Every file a default ``compute`` run writes, as README lists them.
COMPUTE_OUTPUTS = {
    "margin_adjustment.csv",
    "system_digest.json",
    "first_stage.csv",
    "final_incidence.csv",
    "effective_rates.csv",
    "result.json",
    "audit.json",
}


def test_compute_demo_outputs(demo_manifest, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["compute", "--manifest", str(demo_manifest), "--out", str(out)])
    assert rc == 0
    assert {p.relative_to(out).as_posix() for p in out.rglob("*")} == COMPUTE_OUTPUTS

    audit = json.loads((out / "audit.json").read_text())
    assert set(audit["outputs"]) == COMPUTE_OUTPUTS
    assert audit["converged"] is True
    assert audit["conservation"]["within_tolerance"] is True
    assert audit["margins"]["supply_moved"] == pytest.approx(0.8 * 50.0)
    result = json.loads((out / "result.json").read_text())
    assert result["totals"]["statutory"] == pytest.approx(43.0)

    rows = read_csv(out / "final_incidence.csv")
    assert rows[-1][0] == "Total"
    assert rows[-1][-1] == "43.00"
    assert "final incidence 43.00" in capsys.readouterr().out


#: The matrices of ``result.json``, one row per activity (and a Total row of rates).
MATRICES = (
    "first_stage_intermediate", "first_stage_final", "subsequent_stage", "final_incidence",
    "effective_rates",
)


@pytest.mark.parametrize("truncated", [False, True])
def test_result_json_is_one_compact_line_of_the_record(demo_manifest, tmp_path, truncated):
    flags = ["--method", "truncated", "--tol", "1e-12", "--maxstages", "100000"] * truncated
    out = tmp_path / "run"
    args = ["compute", "--manifest", str(demo_manifest), "--threshold", "0", "--out", str(out)]
    assert main(args + flags) == 0
    text = (out / "result.json").read_text(encoding="utf-8")
    loaded = json.loads(text)
    assert text == json.dumps(loaded, separators=(",", ":"), sort_keys=True) + "\n"

    adjusted, _ = redistribute_margins(load_bundle(demo_manifest))
    system = build_system(adjusted)
    if truncated:
        result = propagate_truncated(system, tol=1e-12, maxstages=100000)
    else:
        result = propagate_closed_form(system)
    report = effective_rates(result, adjusted.finaldemand, threshold=0.0)
    record = result_record(result, report, components=DEFAULT_REPORT_COMPONENTS)
    assert loaded == record
    for key in MATRICES:
        # every cell keeps its bits, -0.0 included
        bits = [np.array(r[key], dtype=float).view(np.int64) for r in (loaded, record)]
        np.testing.assert_array_equal(*bits, err_msg=key)


def test_compute_matches_hand_solved_system(tmp_path, accounts_factory):
    manifest = two_by_two_bundle(tmp_path, accounts_factory)
    out = tmp_path / "run"
    rc = main(["compute", "--manifest", str(manifest), "--out", str(out)])
    assert rc == 0
    result = json.loads((out / "result.json").read_text())
    incidence = np.array(result["final_incidence"])
    assert incidence[0][2] == pytest.approx(525.0 / 77.0, rel=1e-12)
    assert incidence[1][2] == pytest.approx(630.0 / 77.0, rel=1e-12)
    assert result["totals"]["statutory"] == pytest.approx(15.0)
    audit = json.loads((out / "audit.json").read_text())
    assert audit["conservation"]["within_tolerance"] is True


def test_compute_scenario_scaling(demo_manifest, tmp_path):
    scenario = tmp_path / "scenario.csv"
    scenario.write_text("code,scale\nmill,0\n", encoding="utf-8")
    out = tmp_path / "run"
    rc = main([
        "compute",
        "--manifest", str(demo_manifest),
        "--scenario", str(scenario),
        "--out", str(out),
    ])
    assert rc == 0
    result = json.loads((out / "result.json").read_text())
    assert result["totals"]["statutory"] == pytest.approx(13.0)
    audit = json.loads((out / "audit.json").read_text())
    # the bytes read, named as a bundle file is
    sha256 = hashlib.sha256(scenario.read_bytes()).hexdigest()
    assert audit["scenario"] == {"path": str(scenario), "sha256": sha256}
    baseline = tmp_path / "baseline"
    assert main(["compute", "--manifest", str(demo_manifest), "--out", str(baseline)]) == 0
    assert json.loads((baseline / "audit.json").read_text())["scenario"] is None


def test_a_manifest_with_a_bom_computes_as_without(demo_manifest, tmp_path, monkeypatch):
    shutil.copytree(demo_manifest.parent, tmp_path / "bom_bundle")
    manifest = tmp_path / "bom_bundle" / demo_manifest.name
    manifest.write_bytes(b"\xef\xbb\xbf" + demo_manifest.read_bytes())  # as Notepad saves it
    runs = {}
    for name, bundle in (("plain", demo_manifest.parent), ("bom", manifest.parent)):
        monkeypatch.chdir(bundle)  # audit.json records the manifest path as given
        assert main(["compute", "--manifest", manifest.name, "--out", str(tmp_path / name)]) == 0
        runs[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
        runs[name]["audit.json"] = json.loads(runs[name]["audit.json"])
    # the digest of the bytes read, BOM included: the only difference
    sha256 = hashlib.sha256(manifest.read_bytes()).hexdigest()
    assert runs["bom"]["audit.json"]["bundle"]["manifest"]["sha256"] == sha256
    runs["bom"]["audit.json"]["bundle"]["manifest"] = runs["plain"]["audit.json"]["bundle"]["manifest"]
    assert runs["bom"] == runs["plain"]


def test_compute_scenario_unknown_code(demo_manifest, tmp_path, capsys):
    scenario = tmp_path / "scenario.csv"
    scenario.write_text("code,scale\nghost,2\n", encoding="utf-8")
    rc = main([
        "compute",
        "--manifest", str(demo_manifest),
        "--scenario", str(scenario),
        "--out", str(tmp_path / "run"),
    ])
    assert rc == 1
    assert "ghost" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("code,scale\nfarm\n", "scenario.csv:2: expected 2 columns, got 1"),
        # a decimal comma must not run as scale 0
        ("code,scale\nmill,0,5\n", "scenario.csv:2: expected 2 columns, got 3"),
        (
            "code,scale\nfarm,2\n\nmill,lots\n",
            "scenario.csv:4: could not convert 'lots' to a number in column 'scale'",
        ),
        # float() reads both as numbers, numpy's parser (as for bundle cells) does not
        (
            "code,scale\nmill,1_000\n",
            "scenario.csv:2: could not convert '1_000' to a number in column 'scale'",
        ),
        (
            "code,scale\nmill,\u0661\n",
            "scenario.csv:2: could not convert '\u0661' to a number in column 'scale'",
        ),
        ("code,scale\nfarm,nan\n", "non-finite scenario scale for: farm"),
        ("code,scale\nmill,inf\n", "non-finite scenario scale for: mill"),
        ("code,scale\nfarm,2\nfarm,0\n", "scenario.csv:3: duplicate activity code 'farm'"),
        # without a header the first row would be dropped and farm keep its tax
        ("\nfarm,0\nmill,0\n", "scenario.csv: expected the header code,scale, got ['farm', '0']"),
        ('code,scale\n"mill,2\n', "scenario.csv:2: a quoted cell runs past the end of the line"),
        ("code,scale\nghost,2\nmill,1\nspook,0\n", "scenario.csv: unknown activity codes: ghost, spook"),
        # one error, bounded: the first 10 codes, then a count
        (
            "code,scale\n" + "".join(f"ghost{k:02d},2\n" for k in range(25)),
            "scenario.csv: unknown activity codes: "
            + ", ".join(f"ghost{k:02d}" for k in range(10)) + ", ... and 15 more\n",
        ),
        (b"code,scale\nm\xfcll,2\n", "scenario.csv: not UTF-8 text ("),
        # the offset in the file, counting the BOM
        (
            b"\xef\xbb\xbfcode,scale\nm\xfcll,2\n",
            "scenario.csv: not UTF-8 text ('utf-8' codec can't decode byte 0xfc in position 15:",
        ),
    ],
    ids=[
        "short-row", "long-row", "not-a-number", "underscore", "arabic-indic-digit", "nan",
        "inf", "duplicate", "no-header", "open-quote", "unknown-codes", "unknown-codes-capped",
        "latin-1", "latin-1-after-bom",
    ],
)
def test_compute_rejects_bad_scenario_rows(demo_manifest, tmp_path, capsys, text, message):
    scenario = tmp_path / "scenario.csv"
    if isinstance(text, bytes):
        scenario.write_bytes(text)
    else:
        scenario.write_text(text, encoding="utf-8")
    rc = main([
        "compute",
        "--manifest", str(demo_manifest),
        "--scenario", str(scenario),
        "--out", str(tmp_path / "run"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_compute_rejects_missing_scenario_file(demo_manifest, tmp_path, capsys):
    missing = tmp_path / "nowhere.csv"
    assert main([
        "compute", "--manifest", str(demo_manifest), "--scenario", str(missing),
        "--out", str(tmp_path / "run"),
    ]) == 1
    assert str(missing) in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "entry, problem", [("nowhere.csv", "regular file not found"), (".", "Is a directory")],
    ids=["missing", "directory"],
)
def test_scenario_that_is_not_a_file_names_the_option(
    demo_manifest, tmp_path, capsys, entry, problem
):
    scenario = tmp_path / entry
    assert main([
        "compute", "--manifest", str(demo_manifest), "--scenario", str(scenario),
        "--out", str(tmp_path / "run"),
    ]) == 1
    assert capsys.readouterr().err == f"error: --scenario: {problem}: {scenario}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "text, same_as",
    [
        # the header is matched with spaces and case aside
        ("Code , Scale\nmill,2\n", "code,scale\nmill,2\n"),
        # a quoted cell is one cell, as in a bundle table
        ('code,scale\n"mill",2\n', "code,scale\nmill,2\n"),
        # no row: every activity keeps scale 1.0, as with no scenario at all
        ("code,scale\n", None),
    ],
    ids=["spaced-header", "quoted-code", "header-only"],
)
def test_scenario_files_read_as_bundle_tables(demo_manifest, tmp_path, text, same_as):
    runs = []
    for name, scenario in (("this", text), ("that", same_as)):
        extra = []
        if scenario is not None:
            path = tmp_path / f"{name}.csv"
            path.write_text(scenario, encoding="utf-8")
            extra = ["--scenario", str(path)]
        compute_demo(demo_manifest, tmp_path / name, *extra)
        runs.append({
            path.name: path.read_bytes()
            for path in sorted((tmp_path / name).iterdir())
            if path.name != "audit.json"  # it names the scenario file
        })
    assert runs[0] == runs[1]


@pytest.mark.parametrize("fill, failing", [
    (-1.0, {"flow_signs": 40 * 40, "supply_signs": 40}),
    # the finiteness check lists cells across all five tables under one cap
    (np.nan, {"finite_cells": 40 * 40 + 40}),
], ids=["negative", "nan"])
def test_validation_lists_at_most_the_cap_then_counts(
    tmp_path, capsys, accounts_factory, fill, failing
):
    n = 40
    accounts = accounts_factory(flows=np.full((n, n), fill), finaldemand=np.zeros((n, 6)))
    manifest = save_bundle(accounts, tmp_path / "bad")
    assert main(["validate", "--manifest", str(manifest), "--out", str(tmp_path / "v")]) == 1
    shown = capsys.readouterr().out.splitlines()
    with pytest.raises(BundleError) as excinfo:
        load_bundle(manifest)
    raised = str(excinfo.value).splitlines()

    records = json.loads((tmp_path / "v" / "validation_report.json").read_text(encoding="utf-8"))
    assert {r["check"]: r["count"] for r in records if not r["passed"]} == failing
    for record in records:
        listed = record["failures"]
        if record["passed"]:
            assert (record["count"], listed) == (0, [])
            continue
        count = record["count"]
        assert len(listed) == MAX_LISTED_FAILURES + 1
        assert listed[-1] == f"... and {count - MAX_LISTED_FAILURES} more"
        # validate and load_bundle print the one listing, under the exact count
        lines = [f"  {failure}" for failure in listed]
        at = shown.index(f"{record['check']}: FAIL ({count} failure(s))")
        assert shown[at + 1 : at + 2 + MAX_LISTED_FAILURES] == lines
        at = raised.index(f"{record['check']}: {count} failure(s)")
        assert raised[at + 1 : at + 2 + MAX_LISTED_FAILURES] == lines
    # bounded: 1,640 failing cells take a few kilobytes
    assert (tmp_path / "v" / "validation_report.json").stat().st_size < 4096


@pytest.mark.parametrize("table, code, column, text", NON_FINITE_CELLS)
def test_non_finite_cell_stops_validate_and_compute(
    demo_manifest, tmp_path, capsys, table, code, column, text
):
    manifest = corrupt_demo_copy(demo_manifest, tmp_path / "bad", table, code, column, text)
    cell = f"{table}: {code} / {column}: {text}"
    assert main(["validate", "--manifest", str(manifest), "--out", str(tmp_path / "v")]) == 1
    assert cell in capsys.readouterr().out
    # the report holds the finiteness check alone, and strict JSON parsers
    # (no NaN or Infinity tokens) accept it
    report = (tmp_path / "v" / "validation_report.json").read_text(encoding="utf-8")
    records = json.loads(report, parse_constant=reject_constant)
    assert [(r["check"], r["passed"]) for r in records] == [("finite_cells", False)]
    assert (records[0]["count"], records[0]["residual"]) == (1, None)
    assert main(["compute", "--manifest", str(manifest), "--out", str(tmp_path / "c")]) == 1
    assert cell in capsys.readouterr().err


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


#: The top-level keys of each JSON record a ``compute`` writes, as README lists them.
RECORD_KEYS = {
    "result.json": {
        "totals", "activities", "labels", "components", "report_components",
        "first_stage_intermediate", "first_stage_final", "subsequent_stage", "final_incidence",
        "effective_rates",
    },
    "audit.json": {
        "method", "stages", "converged", "series_residual", "conservation", "tolerances",
        "margins", "solve", "truncation", "component_shares", "diagnostics", "bundle",
        "manifest", "scenario", "outputs",
    },
    "system_digest.json": {"zero_share_rows", "share_row_sums", "sha256"},
}


@pytest.mark.parametrize(
    "options",
    [[], ["--skip-margins", "--method", "truncated", "--tol", "1e-12", "--maxstages", "10000"]],
    ids=["closed-form", "truncated-skip-margins"],
)
def test_each_fact_is_in_one_record(demo_manifest, tmp_path, options):
    out = tmp_path / "run"
    assert main(["compute", "--manifest", str(demo_manifest), "--out", str(out), *options]) == 0
    for name, keys in RECORD_KEYS.items():
        assert set(json.loads((out / name).read_text())) == keys, name
    result, audit, digest = RECORD_KEYS.values()
    assert not (result & audit or result & digest or audit & digest)


def test_audit_records_the_solve(demo_manifest, tmp_path):
    closed, truncated = tmp_path / "closed", tmp_path / "truncated"
    assert main(["compute", "--manifest", str(demo_manifest), "--out", str(closed)]) == 0
    assert main(["compute", "--manifest", str(demo_manifest), "--out", str(truncated),
                 "--method", "truncated", "--tol", "1e-12", "--maxstages", "10000"]) == 0
    solve = json.loads((closed / "audit.json").read_text())["solve"]
    assert 1.0 <= solve["condition"] <= 1e12
    assert 0.0 <= solve["residual"] <= 1e-12
    assert "solve" not in json.loads((closed / "result.json").read_text())
    assert json.loads((closed / "audit.json").read_text())["truncation"] is None
    audit = json.loads((truncated / "audit.json").read_text())
    assert audit["solve"] == {"condition": None, "residual": None}
    # the demo converges long before the first block checkpoint
    assert audit["truncation"] == {"block": 1, "from_stage": 0}


def test_compute_methods_agree(demo_manifest, tmp_path):
    out_c = tmp_path / "closed"
    out_t = tmp_path / "trunc"
    assert main(["compute", "--manifest", str(demo_manifest), "--out", str(out_c)]) == 0
    assert main([
        "compute",
        "--manifest", str(demo_manifest),
        "--method", "truncated",
        "--tol", "1e-12",
        "--maxstages", "10000",
        "--out", str(out_t),
    ]) == 0
    closed = np.array(json.loads((out_c / "result.json").read_text())["final_incidence"])
    truncated = np.array(json.loads((out_t / "result.json").read_text())["final_incidence"])
    assert np.all(np.abs(closed - truncated) <= 1e-9 * (1.0 + np.abs(closed)))


def test_compute_is_byte_deterministic(demo_manifest, tmp_path):
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    for out in (out1, out2):
        assert main(["compute", "--manifest", str(demo_manifest), "--out", str(out)]) == 0
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core: the BLAS runs one thread anyway")
def test_outputs_do_not_depend_on_the_core_count(tmp_path, accounts_factory):
    # a solve splits its sums by BLAS thread count: the command line pins one
    # thread unless the environment sets a count
    rng = np.random.default_rng(7)
    flows = rng.random((200, 200)) * (rng.random((200, 200)) < 0.2)
    fd = rng.random((200, 6)) * 10
    accounts = accounts_factory(flows, fd, dest=np.hstack([flows, fd]) * 0.1)
    manifest = save_bundle(accounts, tmp_path / "bundle")
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    unset = {k: v for k, v in os.environ.items() if k not in threads}
    records = []
    for env in (unset, {**unset, **dict.fromkeys(threads, "1")}):
        out = tmp_path / f"out{len(records)}"
        subprocess.run(
            [sys.executable, "-m", "taxcascade", "compute",
             "--manifest", str(manifest), "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        records.append((out / "result.json").read_bytes())
    assert records[0] == records[1]


def test_compute_skip_margins(demo_manifest, tmp_path):
    out = tmp_path / "run"
    rc = main([
        "compute", "--manifest", str(demo_manifest), "--skip-margins", "--out", str(out)
    ])
    assert rc == 0
    assert not (out / "margin_adjustment.csv").exists()
    audit = json.loads((out / "audit.json").read_text())
    assert audit["margins"] is None


@pytest.mark.parametrize("scenario", [None, "code,scale\nfarm,0\nmill,1.003\ntrade,2.5\n"])
def test_margin_adjustment_is_exact_record(demo_manifest, tmp_path, scenario):
    # the scaled input plus the cells of margin_adjustment.csv are the
    # accounts the run propagated
    out = tmp_path / "run"
    args = ["compute", "--manifest", str(demo_manifest), "--out", str(out)]
    accounts = load_bundle(demo_manifest)
    if scenario is not None:
        path = tmp_path / "scenario.csv"
        path.write_text(scenario, encoding="utf-8")
        args += ["--scenario", str(path)]
        accounts = apply_scenario(accounts, [0.0, 1.003, 2.5])
    assert main(args) == 0
    assert_margin_audit_is_exact(out / "margin_adjustment.csv", accounts)


@pytest.mark.parametrize("scenario", [False, True])
def test_compute_drops_the_input_accounts_after_the_margin_step(
    demo_manifest, tmp_path, monkeypatch, scenario
):
    # the loaded accounts, and the scaled ones of a scenario run, are dead by
    # the time the coefficient system is built from the adjusted accounts; the
    # accounts it is built from (the input under --skip-margins) are dead by
    # the time it is solved
    made = []

    def keeping_a_weakref(name):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            value = fn(*args, **kwargs)
            accounts = value[0] if name == "redistribute_margins" else value
            made.append((name, weakref.ref(accounts)))
            return value

        return wrapper

    alive = {}

    def noting_the_living(name):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            alive[name] = [made_by for made_by, ref in made if ref() is not None]
            return fn(*args, **kwargs)

        return wrapper

    for name in ("load_bundle", "apply_scenario", "redistribute_margins"):
        monkeypatch.setattr(cli, name, keeping_a_weakref(name))
    for name in ("build_system", "propagate_closed_form", "propagate_truncated"):
        monkeypatch.setattr(cli, name, noting_the_living(name))
    args = ["compute", "--manifest", str(demo_manifest)]
    if scenario:
        path = tmp_path / "scenario.csv"
        path.write_text("code,scale\nmill,1.003\n", encoding="utf-8")
        args += ["--scenario", str(path)]
    truncated = ["--method", "truncated", "--tol", "1e-12", "--maxstages", "100000"]
    for k, flags in enumerate([[], ["--skip-margins"], truncated]):
        made.clear()
        alive.clear()
        assert main(args + flags + ["--out", str(tmp_path / f"run{k}")]) == 0
        inputs = ["load_bundle"] + ["apply_scenario"] * scenario
        if "--skip-margins" not in flags:
            inputs.append("redistribute_margins")
        assert [name for name, _ in made] == inputs
        propagate = "propagate_truncated" if flags == truncated else "propagate_closed_form"
        assert alive == {"build_system": inputs[-1:], propagate: []}


def test_truncated_requires_tol_and_maxstages(demo_manifest, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([
            "compute",
            "--manifest", str(demo_manifest),
            "--method", "truncated",
            "--out", str(tmp_path),
        ])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "flags", [["--tol", "0.5"], ["--maxstages", "3"], ["--allow-residual"]], ids=lambda f: f[0]
)
@pytest.mark.parametrize("method", [[], ["--method", "closed-form"]], ids=["default", "closed"])
def test_truncation_settings_require_truncated(demo_manifest, tmp_path, capsys, flags, method):
    # a closed-form run would record settings it never used
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--manifest", str(demo_manifest), *method, *flags, "--out", str(out)])
    assert exc.value.code == 2
    assert "--tol, --maxstages and --allow-residual require --method truncated" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_truncated_rejects_infinite_tol(demo_manifest, tmp_path, capsys):
    # an infinite tolerance would stop after one stage and call it converged
    rc = main([
        "compute",
        "--manifest", str(demo_manifest),
        "--threshold", "0",
        "--method", "truncated",
        "--tol", "inf",
        "--maxstages", "1000",
        "--out", str(tmp_path / "run"),
    ])
    assert rc == 1
    assert "tol must be finite and nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "run" / "result.json").exists()
    assert not list((tmp_path / "run").rglob("*"))


@pytest.mark.parametrize("threshold", ["nan", "inf"])
def test_non_finite_threshold_fails_before_writing(demo_manifest, tmp_path, capsys, threshold):
    out = tmp_path / "run"
    rc = main(["compute", "--manifest", str(demo_manifest), "--threshold", threshold, "--out", str(out)])
    assert rc == 1
    assert f"threshold must be finite, got {threshold}" in capsys.readouterr().err
    assert not list(out.rglob("*"))


def test_unknown_component_is_usage_error(demo_manifest, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "compute",
            "--manifest", str(demo_manifest),
            "--components", "households,profits",
            "--out", str(tmp_path),
        ])
    assert exc.value.code == 2
    assert (
        "unknown component 'profits'; choose from "
        "exports, government, households, isflsf, gfcf, inventory"
    ) in capsys.readouterr().err


def test_components_are_names_trimmed_lowercased_and_shown_in_canonical_order(
    demo_manifest, tmp_path
):
    record = compute_demo(demo_manifest, tmp_path / "run", "--components", " GFCF,households")
    assert record["report_components"] == ["households", "gfcf"]
    for stem in ("final_incidence", "effective_rates"):
        header = (tmp_path / "run" / f"{stem}.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "code,label,households,gfcf,total", stem


def test_components_subset_changes_tables(demo_manifest, tmp_path):
    out = tmp_path / "run"
    rc = main([
        "compute",
        "--manifest", str(demo_manifest),
        "--components", "households",
        "--out", str(out),
    ])
    assert rc == 0
    rows = read_csv(out / "effective_rates.csv")
    assert rows[0] == ["code", "label", "households", "total"]


def test_compute_missing_manifest_is_usage_error(tmp_path):
    rc = main(["compute", "--manifest", str(tmp_path / "no.json"), "--out", str(tmp_path)])
    assert rc == 2


def test_compute_invalid_bundle_fails(tmp_path, capsys):
    manifest = write_minimal_bundle(
        tmp_path, edits={"supply.csv": "code,supply\nup,999\ndown,50\n"}
    )
    rc = main(["compute", "--manifest", str(manifest), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "row_balance" in capsys.readouterr().err


def test_nonconvergent_series_fails_without_flag(tmp_path, accounts_factory, capsys):
    manifest = loop_bundle(tmp_path, accounts_factory)
    args = [
        "compute",
        "--manifest", str(manifest),
        "--method", "truncated",
        "--tol", "1e-9",
        "--maxstages", "50",
    ]
    rc = main(args + ["--out", str(tmp_path / "strict")])
    assert rc == 1
    assert "did not converge" in capsys.readouterr().err

    rc = main(args + ["--allow-residual", "--out", str(tmp_path / "loose")])
    assert rc == 0
    audit = json.loads((tmp_path / "loose" / "audit.json").read_text())
    assert audit["converged"] is False
    assert audit["series_residual"] == pytest.approx(7.0)


def test_closed_form_on_singular_bundle_fails(tmp_path, accounts_factory, capsys):
    manifest = loop_bundle(tmp_path, accounts_factory)
    rc = main(["compute", "--manifest", str(manifest), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert "truncated" in capsys.readouterr().err
    assert not list((tmp_path / "run").rglob("*"))


def test_diverging_series_fails_and_writes_nothing(tmp_path, accounts_factory, capsys):
    manifest = diverging_bundle(tmp_path, accounts_factory)
    out = tmp_path / "run"
    truncated = ["compute", "--manifest", str(manifest), "--method", "truncated", "--tol", "1e-12",
                 "--allow-residual", "--threshold", "0", "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([*truncated, "--maxstages", "5000"])
    assert rc == 1
    err = capsys.readouterr().err
    # the mass overflows by stage ~1,750 and the next checkpoint stops the loop
    stages = re.search(r"the stage series diverges: the tax mass overflowed in (\d+) stages", err)
    assert stages and int(stages[1]) <= 2048, err
    # numpy warns of no overflow on the way
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()
    # stopped while its mass is still finite, the same series writes its outputs
    assert main([*truncated, "--maxstages", "1000"]) == 0
    assert json.loads((out / "audit.json").read_text())["converged"] is False
    shutil.rmtree(out)
    # the closed form on the same bundle is finite, and strict JSON parsers accept it
    assert main(["compute", "--manifest", str(manifest), "--threshold", "0", "--out", str(out)]) == 0
    for name in ("result.json", "audit.json", "system_digest.json"):
        json.loads((out / name).read_text(encoding="utf-8"), parse_constant=reject_constant)


def test_nonconvergent_run_still_writes_every_output(tmp_path, accounts_factory):
    manifest = loop_bundle(tmp_path, accounts_factory)
    out = tmp_path / "run"
    rc = main([
        "compute", "--manifest", str(manifest), "--method", "truncated",
        "--tol", "1e-9", "--maxstages", "50", "--out", str(out),
    ])
    assert rc == 1
    audit = json.loads((out / "audit.json").read_text())
    assert audit["converged"] is False
    assert all((out / name).exists() for name in audit["outputs"])


def test_out_dir_env_default(demo_manifest, tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("TAXCASCADE_OUT", str(target))
    rc = main(["compute", "--manifest", str(demo_manifest)])
    assert rc == 0
    assert (target / "result.json").is_file()


def test_format_option_is_gone(demo_manifest, tmp_path):
    # every number a JSON table held is in result.json at full precision
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--manifest", str(demo_manifest), "--format", "json", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


# -- diff --------------------------------------------------------------------


def compute_demo(demo_manifest, out, *extra):
    assert main(["compute", "--manifest", str(demo_manifest), "--out", str(out), *extra]) == 0
    return json.loads((out / "result.json").read_text())


def diff_runs(base, scen, out):
    assert main(["diff", "--baseline", str(base), "--scenario", str(scen), "--out", str(out)]) == 0
    return {
        stem: {row[0]: dict(zip(rows[0], row)) for row in rows[1:]}
        for stem in ("final_incidence", "effective_rates")
        for rows in [read_csv(out / f"{stem}_diff.csv")]
    }


def test_diff_identical_runs(demo_manifest, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert main(["compute", "--manifest", str(demo_manifest), "--out", str(out)]) == 0
    diff_out = tmp_path / "diff"
    rc = main([
        "diff", "--baseline", str(out1), "--scenario", str(out2), "--out", str(diff_out)
    ])
    assert rc == 0
    rows = read_csv(diff_out / "final_incidence_diff.csv")
    assert rows[0][2:] == [
        "exports_delta", "exports_pct",
        "government_delta", "government_pct",
        "households_delta", "households_pct",
        "gfcf_delta", "gfcf_pct",
        "total_delta", "total_pct",
    ]
    deltas = [row[2] for row in rows[1:]]
    assert all(float(d) == 0.0 for d in deltas)
    # demo expenditures sit below the default threshold, so every rate is ND
    # and the rate diff must carry ND through instead of inventing numbers
    rate_rows = read_csv(diff_out / "effective_rates_diff.csv")
    assert rate_rows[1][2] == "ND"


def test_diff_detects_doubling(demo_manifest, tmp_path):
    record = compute_demo(demo_manifest, tmp_path / "base")
    scenario = tmp_path / "double.csv"
    scenario.write_text("code,scale\nfarm,2\nmill,2\ntrade,2\n", encoding="utf-8")
    compute_demo(demo_manifest, tmp_path / "scen", "--scenario", str(scenario))
    diff = diff_runs(tmp_path / "base", tmp_path / "scen", tmp_path / "diff")["final_incidence"]
    # diff reads any layout: an indented copy of the scenario's record diffs the same
    shutil.copytree(tmp_path / "scen", tmp_path / "indented")
    path = tmp_path / "indented" / "result.json"
    path.write_text(json.dumps(json.loads(path.read_text()), indent=2), encoding="utf-8")
    diff_runs(tmp_path / "base", tmp_path / "indented", tmp_path / "diff_indented")
    for name in ("final_incidence_diff.csv", "effective_rates_diff.csv"):
        same = [(tmp_path / d / name).read_bytes() for d in ("diff", "diff_indented")]
        assert same[0] == same[1], name

    # doubling all taxes doubles every incidence cell exactly, so each delta
    # is the baseline cell and each nonzero cell moves by exactly 100 percent
    final = np.array(record["final_incidence"])
    shown = {"exports": 0, "government": 1, "households": 2, "gfcf": 4}
    columns = {name: final[:, j] for name, j in shown.items()} | {"total": final.sum(axis=1)}
    for name, column in columns.items():
        for code, base in zip(record["activities"] + ["Total"], [*column, column.sum()]):
            row = diff[code]
            assert float(row[f"{name}_delta"]) == pytest.approx(base, abs=1e-6), (code, name)
            assert row[f"{name}_pct"] == ("ND" if base == 0 else "100.000000"), (code, name)


def test_diff_is_full_precision(demo_manifest, tmp_path):
    """Scaling mill by 1.003 moves trade's exports rate by 0.0075 pp; the
    tables round rates to 0.1, so a diff of them reported 0.1."""
    scenario = tmp_path / "mill.csv"
    scenario.write_text("code,scale\nmill,1.003\n", encoding="utf-8")
    compute_demo(demo_manifest, tmp_path / "base", "--threshold", "0")
    compute_demo(demo_manifest, tmp_path / "scen", "--threshold", "0", "--scenario", str(scenario))
    diff = diff_runs(tmp_path / "base", tmp_path / "scen", tmp_path / "diff")["effective_rates"]

    accounts = load_bundle(demo_manifest)
    rates = []
    for scale in ([1.0, 1.0, 1.0], [1.0, 1.003, 1.0]):
        adjusted, _ = redistribute_margins(apply_scenario(accounts, scale))
        result = propagate_closed_form(build_system(adjusted))
        rates.append(effective_rates(result, adjusted.finaldemand, threshold=0.0).rates)
    trade, exports = 2, COMPONENT_ORDER.index("exports")
    want = rates[1][trade, exports] - rates[0][trade, exports]
    assert 0.005 < want < 0.01
    assert float(diff["trade"]["exports_delta"]) == pytest.approx(want, abs=1e-6)


def test_diff_of_runs_without_result_writes_nothing(tmp_path, capsys):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
    rc = main([
        "diff", "--baseline", str(tmp_path / "a"), "--scenario", str(tmp_path / "b"),
        "--out", str(tmp_path / "d"),
    ])
    assert rc == 1
    assert "result.json" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_diff_missing_directory(tmp_path):
    rc = main([
        "diff", "--baseline", str(tmp_path / "a"), "--scenario", str(tmp_path / "b"),
        "--out", str(tmp_path / "d"),
    ])
    assert rc == 2


def test_diff_row_mismatch(demo_manifest, tmp_path, capsys):
    compute_demo(demo_manifest, tmp_path / "a")
    record = compute_demo(demo_manifest, tmp_path / "b")
    for key in ("activities", "labels", "final_incidence", "effective_rates"):
        del record[key][1]
    (tmp_path / "b" / "result.json").write_text(json.dumps(record), encoding="utf-8")
    rc = main([
        "diff", "--baseline", str(tmp_path / "a"), "--scenario", str(tmp_path / "b"),
        "--out", str(tmp_path / "d"),
    ])
    assert rc == 1
    assert "row mismatch" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_diff_of_runs_showing_different_components_writes_nothing(
    demo_manifest, tmp_path, capsys
):
    compute_demo(demo_manifest, tmp_path / "a")
    compute_demo(demo_manifest, tmp_path / "b", "--components", "households,gfcf")
    rc = main([
        "diff", "--baseline", str(tmp_path / "a"), "--scenario", str(tmp_path / "b"),
        "--out", str(tmp_path / "d"),
    ])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: column mismatch: "
        "['code', 'label', 'exports', 'government', 'households', 'gfcf', 'total'] vs "
        "['code', 'label', 'households', 'gfcf', 'total']\n"
    )
    assert not (tmp_path / "d").exists()


def test_diff_rejects_record_without_diff_keys(demo_manifest, tmp_path, capsys):
    compute_demo(demo_manifest, tmp_path / "a")
    record = compute_demo(demo_manifest, tmp_path / "b")
    # the record of a run computed before the diff keys were added
    for key in ("labels", "report_components", "effective_rates"):
        del record[key]
    path = tmp_path / "b" / "result.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    rc = main([
        "diff", "--baseline", str(tmp_path / "a"), "--scenario", str(tmp_path / "b"),
        "--out", str(tmp_path / "d"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(path) in err
    assert "effective_rates" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key, edit",
    [
        ("final_incidence", lambda rows: rows[:-1]),
        ("final_incidence", lambda rows: [rows[0][:-1], *rows[1:]]),
        ("effective_rates", lambda rows: [row + [0.0] for row in rows]),
        ("labels", lambda labels: labels[:-1]),
    ],
    ids=["row-missing", "ragged", "column-extra", "label-missing"],
)
def test_diff_rejects_misshapen_record(demo_manifest, tmp_path, capsys, key, edit):
    # a row too few would otherwise drop out of the diff without a word
    compute_demo(demo_manifest, tmp_path / "a")
    record = compute_demo(demo_manifest, tmp_path / "b")
    record[key] = edit(record[key])
    path = tmp_path / "b" / "result.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    rc = main([
        "diff", "--baseline", str(tmp_path / "a"), "--scenario", str(tmp_path / "b"),
        "--out", str(tmp_path / "d"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{path}: {key} not shaped for its 3 activities" in err
    assert "Traceback" not in err
    assert not (tmp_path / "d").exists()


def set_cell(key, i, j, value):
    def edit(record):
        record[key][i][j] = value
    return edit


@pytest.mark.parametrize(
    "edit, where, got",
    [
        (set_cell("final_incidence", 1, 2, [1]), "final_incidence[1][2]", "[1]"),
        (set_cell("final_incidence", 0, 5, "x"), "final_incidence[0][5]", "'x'"),
        # Python reads JSON's true as the int 1: a plausible delta, without the check
        (set_cell("final_incidence", 2, 0, True), "final_incidence[2][0]", "True"),
        (set_cell("effective_rates", 3, 6, {}), "effective_rates[3][6]", "{}"),
        # json.dumps writes inf and nan as Infinity and NaN, which are not JSON
        (set_cell("final_incidence", 0, 0, float("inf")), "final_incidence[0][0]", "'Infinity'"),
        (set_cell("effective_rates", 1, 1, float("-inf")), "effective_rates[1][1]", "'-Infinity'"),
        (set_cell("final_incidence", 2, 3, float("nan")), "final_incidence[2][3]", "'NaN'"),
        (
            lambda record: record.update(report_components=["exports", "nope"]),
            "report_components[1]",
            "'nope'",
        ),
        (
            lambda record: record.update(report_components="exports"),
            "report_components",
            "'exports'",
        ),
        # the code and label columns of every diff row: each entry must be a string
        (lambda record: record.update(activities=None), "activities", "None"),
        (lambda record: record.update(activities=5), "activities", "5"),
        (lambda record: record.update(activities=["farm", 2, "trade"]), "activities[1]", "2"),
        (lambda record: record.update(labels={}), "labels", "{}"),
        (lambda record: record.update(labels=["a", "b", None]), "labels[2]", "None"),
    ],
    ids=[
        "list-cell", "string-cell", "true-cell", "object-rate", "infinity-cell",
        "minus-infinity-rate", "nan-cell", "unknown-component", "no-array",
        "null-activities", "number-activities", "number-code", "object-labels", "null-label",
    ],
)
def test_diff_reads_only_numbers(demo_manifest, tmp_path, capsys, edit, where, got):
    compute_demo(demo_manifest, tmp_path / "a")
    record = compute_demo(demo_manifest, tmp_path / "b")
    edit(record)
    path = tmp_path / "b" / "result.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    rc = main([
        "diff", "--baseline", str(tmp_path / "a"), "--scenario", str(tmp_path / "b"),
        "--out", str(tmp_path / "d"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {where} must be ")
    assert err.endswith(f", got {got}\n")
    assert not (tmp_path / "d").exists()


def test_diff_reads_no_display_table(demo_manifest, tmp_path):
    for name in ("a", "b"):
        compute_demo(demo_manifest, tmp_path / name)
        for stem in ("first_stage", "final_incidence", "effective_rates"):
            (tmp_path / name / f"{stem}.csv").unlink()
    diff = diff_runs(tmp_path / "a", tmp_path / "b", tmp_path / "d")
    assert diff["final_incidence"]["Total"]["total_delta"] == "0.000000"


# -- entry point -------------------------------------------------------------


def test_module_entry_point(demo_manifest, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "taxcascade", "validate",
         "--manifest", str(demo_manifest), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "row_balance: ok" in proc.stdout


def script_command():
    """The ``taxcascade`` script as an installer writes it: a process that
    calls the function ``[project.scripts]`` names and exits with its value."""
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    module, function = re.search(
        r'^\[project\.scripts\]\ntaxcascade = "([\w.]+):(\w+)"$',
        pyproject.read_text(encoding="utf-8"),
        re.MULTILINE,
    ).groups()
    return [sys.executable, "-c", f"import sys; from {module} import {function}; sys.exit({function}())"]


ENTRIES = {"module": [sys.executable, "-m", "taxcascade"], "script": script_command()}


def run_buffered(command):
    # stdout buffered, as a pipe is by default: only the exit flushes it
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    return subprocess.run(command, capture_output=True, text=True, env=env)


def run_entry(entry, *argv):
    return run_buffered([*ENTRIES[entry], *argv])


@pytest.mark.parametrize("entry", ENTRIES)
def test_entry_exit_codes(demo_manifest, tmp_path, entry):
    out = tmp_path / "run"
    proc = run_entry(entry, "compute", "--manifest", str(demo_manifest), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"wrote 7 files to {out}"

    proc = run_entry(entry, "compute", "--manifest", str(demo_manifest), "--method", "truncated")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "--method truncated requires --tol and --maxstages" in proc.stderr

    proc = run_entry(entry, "compute", "--manifest", str(tmp_path / "no.json"), "--out", str(out))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"usage error: manifest not found: {tmp_path / 'no.json'}\n"

    table, code, column, text = NON_FINITE_CELLS[0]
    manifest = corrupt_demo_copy(demo_manifest, tmp_path / "bad", table, code, column, text)
    proc = run_entry(entry, "compute", "--manifest", str(manifest), "--out", str(tmp_path / "c"))
    assert proc.returncode == 1
    assert f"{table}: {code} / {column}: {text}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "c").exists()


def written(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("entry", ENTRIES)
def test_entry_writes_what_main_writes(demo_manifest, tmp_path, entry):
    reform = tmp_path / "reform.csv"
    reform.write_text("code,scale\nmill,1.003\n")
    runs = {}
    for side in ("process", "main"):
        out = tmp_path / side
        commands = {
            "base": ["compute", "--manifest", str(demo_manifest)],
            "reform": ["compute", "--manifest", str(demo_manifest), "--scenario", str(reform)],
            "diff": ["diff", "--baseline", str(out / "base"), "--scenario", str(out / "reform")],
        }
        for name, argv in commands.items():
            argv = [*argv, "--out", str(out / name)]
            if side == "process":
                proc = run_entry(entry, *argv)
                assert proc.returncode == 0, proc.stderr
            else:
                assert main(argv) == 0
            runs[side, name] = written(out / name)
    for name in ("base", "reform", "diff"):
        assert runs["process", name] == runs["main", name]
    assert len(runs["main", "base"]) == 7 and len(runs["main", "diff"]) == 2


def test_entry_runs_without_the_collector_and_still_exits_cleanly(demo_manifest, tmp_path):
    # an atexit handler still runs, after main, with the collector off and
    # every object frozen, and what it prints is flushed
    proc = run_buffered([
        sys.executable, "-c",
        "import atexit, gc, sys; "
        "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0)); "
        "from taxcascade.__main__ import entry; entry()",
        "validate", "--manifest", str(demo_manifest), "--out", str(tmp_path),
    ])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == [f"wrote {tmp_path / 'validation_report.json'}", "False True"]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_leaves_the_collector_as_it_found_it(demo_manifest, tmp_path, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        for command in ("validate", "compute"):
            assert main([command, "--manifest", str(demo_manifest), "--out", str(tmp_path / command)]) == 0
        assert main([
            "diff", "--baseline", str(tmp_path / "compute"), "--scenario", str(tmp_path / "compute"),
            "--out", str(tmp_path / "diff"),
        ]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("truncated", [False, True], ids=["closed-form", "truncated"])
def test_compute_loads_no_scipy(demo_manifest, tmp_path, truncated):
    # the closed form solves on numpy.linalg, and the stage loop on dense matvecs
    method = ["--method", "truncated", "--tol", "1e-12", "--maxstages", "10000"] if truncated else []
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; from taxcascade.cli import main; rc = main(sys.argv[1:]); "
         "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))); "
         "sys.exit(rc)",
         "compute", "--manifest", str(demo_manifest), "--out", str(tmp_path / "run"), *method],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_diff_loads_no_numpy(demo_manifest, tmp_path):
    # diff subtracts two result.json records; numpy and scipy stay unloaded
    reform = tmp_path / "reform.csv"
    reform.write_text("code,scale\nmill,1.003\n")
    compute_demo(demo_manifest, tmp_path / "base")
    compute_demo(demo_manifest, tmp_path / "reform", "--scenario", str(reform))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; from taxcascade.cli import main; rc = main(sys.argv[1:]); "
         "loaded = [m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')]; "
         "print(json.dumps(sorted(loaded))); "
         "sys.exit(rc)",
         "diff", "--baseline", str(tmp_path / "base"), "--scenario", str(tmp_path / "reform"),
         "--out", str(tmp_path / "diff")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    assert (tmp_path / "diff" / "effective_rates_diff.csv").is_file()


#: Runs ``cli.main`` on argv[1:] with a counting ``load_bundle`` set on cli first,
#: then prints the taxcascade modules loaded and the count.
VALIDATE_CHILD = """
import json, sys
import taxcascade.accounts as accounts
import taxcascade.cli as cli

calls = []
cli.load_bundle = lambda *args, **kwargs: calls.append(1) or accounts.load_bundle(*args, **kwargs)
rc = cli.main(sys.argv[1:])
print(json.dumps([sorted(m for m in sys.modules if m.startswith("taxcascade.")), len(calls)]))
sys.exit(rc)
"""


def test_validate_loads_accounts_and_margins_alone(demo_manifest, tmp_path):
    # validate binds the accounts names alone, keeping one set from outside,
    # and margins arrives through its margins check
    proc = subprocess.run(
        [sys.executable, "-c", VALIDATE_CHILD,
         "validate", "--manifest", str(demo_manifest), "--out", str(tmp_path / "v")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    modules, calls = json.loads(proc.stdout.splitlines()[-1])
    assert modules == ["taxcascade.accounts", "taxcascade.cli", "taxcascade.margins",
                       "taxcascade.tables"]
    assert calls == 1
    assert "margins: ok" in proc.stdout


def test_package_names_load_on_first_use():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, taxcascade; "
         "from taxcascade import DISPLAY_THRESHOLD, COMPONENT_ORDER; "
         "print('numpy' in sys.modules); "
         "from taxcascade import *; "
         "import taxcascade.accounts as accounts; "
         "print(all(name in globals() for name in taxcascade.__all__), "
         "taxcascade.IOAccounts is accounts.IOAccounts, "
         "set(taxcascade.__all__) <= set(dir(taxcascade)))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True", "True"]


TRACING_CHILD = """
import collections, json, sys
sys.path.insert(0, sys.argv[1])
from run import CLI_FUNCTIONS
import taxcascade.cli as cli
import taxcascade.reporting as reporting

calls = collections.Counter()

def counting(name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper

# set before cli binds its pipeline: binding it must keep this wrapper
cli.write_result_json = counting("write_result_json", reporting.write_result_json)
missing = [name for name in CLI_FUNCTIONS if not callable(getattr(cli, name, None))]
# as the benchmark wraps: read the name off cli, set the wrapper back
cli.load_bundle = counting("load_bundle", cli.load_bundle)
rc = cli.main(sys.argv[2:])
print(json.dumps({"rc": rc, "missing": missing, "calls": calls}))
"""


def test_tracing_sees_every_cli_call(demo_manifest, tmp_path):
    # bench/run.py --trace 1 resolves each name it wraps on a fresh taxcascade.cli
    # and sets a wrapper there; compute calls through cli's globals, so it sees each call
    bench = Path(__file__).resolve().parent.parent / "bench"
    proc = subprocess.run(
        [sys.executable, "-c", TRACING_CHILD, str(bench),
         "compute", "--manifest", str(demo_manifest), "--out", str(tmp_path / "run")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {
        "rc": 0, "missing": [], "calls": {"load_bundle": 1, "write_result_json": 1}
    }
