import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from taxcascade import save_bundle
from taxcascade.cli import main

from test_accounts import NON_FINITE_CELLS, corrupt_demo_copy, write_minimal_bundle


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


def test_validate_reports_invariant_failure(tmp_path, capsys):
    manifest = write_minimal_bundle(
        tmp_path, edits={"supply.csv": "code,supply\nup,999\ndown,50\n"}
    )
    rc = main(["validate", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "row_balance: FAIL" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "validation_report.json").read_text())
    by_name = {r["check"]: r for r in report}
    assert not by_name["row_balance"]["passed"]


# -- compute -----------------------------------------------------------------


def test_compute_demo_outputs(demo_manifest, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["compute", "--manifest", str(demo_manifest), "--out", str(out)])
    assert rc == 0
    for name in (
        "post_margin_bundle/manifest.json",
        "margin_adjustment.csv",
        "system_digest.json",
        "first_stage.csv",
        "final_incidence.csv",
        "effective_rates.csv",
        "result.json",
        "audit.json",
    ):
        assert (out / name).is_file(), name

    audit = json.loads((out / "audit.json").read_text())
    assert audit["converged"] is True
    assert audit["conservation"]["within_tolerance"] is True
    assert audit["totals"]["statutory"] == pytest.approx(43.0)
    assert audit["margins"]["supply_moved"] == pytest.approx(0.8 * 50.0)

    rows = read_csv(out / "final_incidence.csv")
    assert rows[-1][0] == "Total"
    assert rows[-1][-1] == "43.00"
    assert "final incidence 43.00" in capsys.readouterr().out


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
    assert result["conservation"]["within_tolerance"] is True


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
    audit = json.loads((out / "audit.json").read_text())
    assert audit["totals"]["statutory"] == pytest.approx(13.0)
    assert audit["scenario"] == str(scenario)


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
        ("code,scale\nfarm\n", "scenario.csv:2: expected code,scale"),
        ("code,scale\nfarm,2\n\nmill,lots\n", "scenario.csv:4: scale 'lots' is not a number"),
        ("code,scale\nfarm,nan\n", "non-finite scenario scale for: farm"),
        ("code,scale\nmill,inf\n", "non-finite scenario scale for: mill"),
        ("code,scale\nfarm,2\nfarm,0\n", "scenario.csv:3: duplicate activity code 'farm'"),
        # without a header the first row would be dropped and farm keep its tax
        ("\nfarm,0\nmill,0\n", "scenario.csv:2: expected header code,scale"),
    ],
    ids=["short-row", "not-a-number", "nan", "inf", "duplicate", "no-header"],
)
def test_compute_rejects_bad_scenario_rows(demo_manifest, tmp_path, capsys, text, message):
    scenario = tmp_path / "scenario.csv"
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
    assert main(["compute", "--manifest", str(manifest), "--out", str(tmp_path / "c")]) == 1
    assert cell in capsys.readouterr().err


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_audit_repeats_result_summary(demo_manifest, tmp_path):
    out = tmp_path / "run"
    assert main(["compute", "--manifest", str(demo_manifest), "--out", str(out)]) == 0
    audit = json.loads((out / "audit.json").read_text())
    result = json.loads((out / "result.json").read_text())
    for key in (
        "method", "stages", "converged", "series_residual", "conservation", "tolerances", "totals"
    ):
        assert audit[key] == result[key], key


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


def test_compute_skip_margins(demo_manifest, tmp_path):
    out = tmp_path / "run"
    rc = main([
        "compute", "--manifest", str(demo_manifest), "--skip-margins", "--out", str(out)
    ])
    assert rc == 0
    assert not (out / "margin_adjustment.csv").exists()
    audit = json.loads((out / "audit.json").read_text())
    assert audit["margins"] is None
    assert audit["skip_margins"] is True
    # the pass-through bundle still carries the margin flag
    bundle = json.loads((out / "post_margin_bundle" / "manifest.json").read_text())
    assert bundle["activities"][2]["code"] == "trade"
    rows = read_csv(out / "post_margin_bundle" / "marginshares.csv")
    assert rows[3] == ["trade", "0.8"]


def test_truncated_requires_tol_and_maxstages(demo_manifest, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([
            "compute",
            "--manifest", str(demo_manifest),
            "--method", "truncated",
            "--out", str(tmp_path),
        ])
    assert exc.value.code == 2


def test_unknown_component_is_usage_error(demo_manifest, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([
            "compute",
            "--manifest", str(demo_manifest),
            "--components", "households,profits",
            "--out", str(tmp_path),
        ])
    assert exc.value.code == 2


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


def test_out_dir_env_default(demo_manifest, tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("TAXCASCADE_OUT", str(target))
    rc = main(["compute", "--manifest", str(demo_manifest)])
    assert rc == 0
    assert (target / "result.json").is_file()


def test_json_table_format(demo_manifest, tmp_path):
    out = tmp_path / "run"
    rc = main([
        "compute", "--manifest", str(demo_manifest), "--format", "json", "--out", str(out)
    ])
    assert rc == 0
    payload = json.loads((out / "final_incidence.json").read_text())
    assert payload["rows"][-1]["code"] == "Total"
    assert not (out / "final_incidence.csv").exists()


# -- diff --------------------------------------------------------------------


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
    base_out = tmp_path / "base"
    assert main(["compute", "--manifest", str(demo_manifest), "--out", str(base_out)]) == 0

    scenario = tmp_path / "double.csv"
    scenario.write_text("code,scale\nfarm,2\nmill,2\ntrade,2\n", encoding="utf-8")
    scen_out = tmp_path / "scen"
    assert main([
        "compute",
        "--manifest", str(demo_manifest),
        "--scenario", str(scenario),
        "--out", str(scen_out),
    ]) == 0

    diff_out = tmp_path / "diff"
    assert main([
        "diff", "--baseline", str(base_out), "--scenario", str(scen_out), "--out", str(diff_out)
    ]) == 0
    base_rows = read_csv(base_out / "final_incidence.csv")
    diff_rows = read_csv(diff_out / "final_incidence_diff.csv")
    # doubling all taxes doubles all incidence: delta equals baseline value
    # and cells move by 100 percent (up to the 2-decimal table rounding)
    for base_row, diff_row in zip(base_rows[1:], diff_rows[1:]):
        base_total = float(base_row[-1])
        assert float(diff_row[-2]) == pytest.approx(base_total, abs=0.02)
        if base_total > 5.0:
            assert float(diff_row[-1]) == pytest.approx(100.0, abs=0.5)


def test_diff_missing_directory(tmp_path):
    rc = main([
        "diff", "--baseline", str(tmp_path / "a"), "--scenario", str(tmp_path / "b"),
        "--out", str(tmp_path / "d"),
    ])
    assert rc == 2


def test_diff_row_mismatch(demo_manifest, tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert main(["compute", "--manifest", str(demo_manifest), "--out", str(out)]) == 0
    rows = read_csv(out2 / "final_incidence.csv")
    del rows[2]
    with open(out2 / "final_incidence.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    rc = main([
        "diff", "--baseline", str(out1), "--scenario", str(out2), "--out", str(tmp_path / "d")
    ])
    assert rc == 1
    assert "row mismatch" in capsys.readouterr().err


def test_diff_reads_json_tables(demo_manifest, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert main([
            "compute", "--manifest", str(demo_manifest), "--format", "json", "--out", str(out)
        ]) == 0
    rc = main([
        "diff", "--baseline", str(out1), "--scenario", str(out2), "--out", str(tmp_path / "d")
    ])
    assert rc == 0
    assert (tmp_path / "d" / "final_incidence_diff.csv").is_file()


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
