"""The truncated loop's jump-ahead blocks in the cache: a warm run, and a scenario
on the same shares, make no dense product, every run gives the same bits and
bytes, a damaged entry is a miss that is built and written again, a system
that takes no block stores none, and neither does one whose blocks would not all
fit in the cache beside the tables; without a cache the shares are not hashed."""

import json
import shutil
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import taxcascade.accounts as accounts
import taxcascade.cli as cli
from taxcascade import propagate_closed_form, propagate_truncated, save_bundle
from taxcascade.cli import main
from taxcascade.engine import shares_entry

from test_cache import tree
from test_condition_cache import damage
from test_engine import near_closed_system, row_sum_above_one_system

TRUNCATED = ("--method", "truncated", "--tol", "1e-12", "--maxstages", "100000")


@pytest.fixture()
def products(monkeypatch) -> mock.Mock:
    """Every call of ``np.matmul``, the truncated loop's dense products; its
    matvecs (``@``) are not counted."""
    spy = mock.Mock(wraps=np.matmul)
    monkeypatch.setattr(np, "matmul", spy)
    return spy


def block_entries(cache: Path) -> set[Path]:
    return set(cache.glob("*.blocks"))


def stored_blocks(cache: Path, digest: str) -> dict[int, Path]:
    """The block entries of the shares of this sha256 in ``cache``, by block size."""
    named = {2**k: shares_entry(cache, "blocks", digest, f"block={2**k}") for k in range(1, 9)}
    return {block: entry for block, entry in named.items() if entry.is_file()}


def products_to_build(block: int) -> int:
    """Dense products that build P and Q of ``block`` stages from S: one for S^2,
    then two for each doubling."""
    return 2 * (block.bit_length() - 1) - 1


def assert_same_run(got, want) -> None:
    """Cells bit for bit, and how the loop ran."""
    for name in ("subsequent_stage", "final_incidence"):
        np.testing.assert_array_equal(
            getattr(got, name).view(np.uint64), getattr(want, name).view(np.uint64), err_msg=name
        )
    assert (got.stages, got.series_residual, got.converged, got.truncation) == (
        want.stages, want.series_residual, want.converged, want.truncation,
    )


def test_the_library_builds_each_block_once_given_a_cache(tmp_path, cache, products):
    system = near_closed_system(0.999)
    uncached = propagate_truncated(system, tol=1e-12, maxstages=100_000)
    assert uncached.truncation.block > 1
    built = products.call_count
    assert built == products_to_build(uncached.truncation.block)
    assert not cache.parent.exists()  # nothing written without cache=
    runs, counts = [], []
    for _ in ("cold", "warm"):
        products.reset_mock()
        runs.append(propagate_truncated(system, tol=1e-12, maxstages=100_000, cache=tmp_path))
        counts.append(products.call_count)
    assert counts == [built, 0]
    for run in runs:
        assert_same_run(run, uncached)
    assert len(block_entries(tmp_path)) > 1
    assert not cache.parent.exists()


@pytest.mark.parametrize(
    "propagate",
    [propagate_closed_form, partial(propagate_truncated, tol=1e-12, maxstages=100_000)],
    ids=["closed-form", "truncated"],
)
def test_without_a_cache_the_shares_are_not_hashed(tmp_path, propagate):
    system = near_closed_system(0.999)
    propagate(system)
    assert "shares_digest" not in vars(system)
    propagate(system, cache=tmp_path)  # names its entries by the digest
    assert "shares_digest" in vars(system)


def test_a_system_that_takes_no_block_stores_none(tmp_path, products):
    system = row_sum_above_one_system()
    result = propagate_truncated(system, tol=1e-12, maxstages=100_000, cache=tmp_path)
    assert result.truncation.block == 1
    assert products.call_count == 0
    assert not block_entries(tmp_path)


def deep_chain_bundle(tmp_path, accounts_factory) -> Path:
    """``near_closed_system(0.999)`` saved as a bundle: each activity supplies 100,
    and its intermediate tax is on its first destination column."""
    system = near_closed_system(0.999)
    dest = np.zeros((system.n, system.n + 6))
    dest[:, 0] = system.intermediate_tax
    accounts = accounts_factory(
        flows=100.0 * system.intermediate_shares, finaldemand=100.0 * system.final_shares, dest=dest
    )
    return save_bundle(accounts, tmp_path / "deep")


def run(manifest: Path, out: Path, capsys, *extra: str):
    """Exit code, printed output and written files of one truncated compute into a
    fresh ``out``."""
    shutil.rmtree(out, ignore_errors=True)
    rc = main(["compute", "--manifest", str(manifest), "--out", str(out), *TRUNCATED, *extra])
    return rc, capsys.readouterr(), tree(out)


def test_warm_runs_and_a_scenario_make_no_product_and_write_the_same_bytes(
    tmp_path, accounts_factory, cache, capsys, products, monkeypatch
):
    manifest, out = deep_chain_bundle(tmp_path, accounts_factory), tmp_path / "out"
    scenario = tmp_path / "reform.csv"
    scenario.write_text("code,scale\ns02,1.5\n", encoding="utf-8")
    runs, counts = {}, {}
    for label, extra in (
        ("cold", ()), ("warm", ()), ("scenario", ("--scenario", str(scenario))),
    ):
        products.reset_mock()
        runs[label] = run(manifest, out, capsys, *extra)
        counts[label] = products.call_count
    audit = json.loads(runs["cold"][2]["audit.json"])
    assert runs["cold"][0] == 0 and audit["truncation"]["block"] > 1
    built = products_to_build(audit["truncation"]["block"])
    assert counts == {"cold": built, "warm": 0, "scenario": 0}
    assert runs["warm"] == runs["cold"]
    assert runs["scenario"][0] == 0
    assert runs["scenario"][2]["result.json"] != runs["cold"][2]["result.json"]
    # each block the schedule built is named by S's digest and its size
    digest = json.loads(runs["cold"][2]["system_digest.json"])["sha256"]["intermediate_shares"]
    blocks = stored_blocks(cache, digest)
    assert set(blocks.values()) == block_entries(cache)
    assert max(blocks) == audit["truncation"]["block"]
    # and without a cache, or on another empty one, the bytes are the same
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "other"))
    for label, extra in (("scenario", ("--scenario", str(scenario))), ("cold", ())):
        assert run(manifest, out, capsys, *extra) == runs[label]
    monkeypatch.setattr(cli, "cache_directory", lambda: None)
    products.reset_mock()
    assert run(manifest, out, capsys) == runs["cold"]
    assert products.call_count == built


@pytest.mark.parametrize(
    "how", ["empty", "short", "trailing byte", "directory", "flipped bit", "another block"]
)
def test_a_damaged_block_entry_is_a_miss_and_is_written_again(
    tmp_path, accounts_factory, cache, capsys, products, how
):
    manifest = deep_chain_bundle(tmp_path, accounts_factory)
    out = tmp_path / "out"
    cold = run(manifest, out, capsys)
    digest = json.loads(cold[2]["system_digest.json"])["sha256"]["intermediate_shares"]
    stored = stored_blocks(cache, digest)
    assert len(stored) > 1
    (first, entry), (_, second) = sorted(stored.items())[:2]
    kept = {path: path.read_bytes() for path in stored.values()}
    if how == "another block":  # whole, checksum and all, but of another size
        shutil.copyfile(second, entry)
    else:
        damage(entry, how)
    products.reset_mock()
    assert run(manifest, out, capsys) == cold
    assert products.call_count == products_to_build(first)  # the first block built again
    products.reset_mock()
    assert run(manifest, out, capsys) == cold
    assert products.call_count == 0  # a hit on the entry the miss wrote again
    assert {path: path.read_bytes() for path in stored.values()} == kept
    assert block_entries(cache) == set(kept)


def test_blocks_that_do_not_all_fit_beside_the_tables_are_not_stored(
    tmp_path, accounts_factory, cache, capsys, products, monkeypatch
):
    manifest, out = deep_chain_bundle(tmp_path, accounts_factory), tmp_path / "out"
    cold = run(manifest, out, capsys)
    [tables] = cache.glob("*.npy")
    stored = tables.read_bytes()
    block_bytes = max(entry.stat().st_size for entry in block_entries(cache))
    block = json.loads(cold[2]["audit.json"])["truncation"]["block"]
    assert block > 8  # the schedule builds more than three blocks
    # room for the tables and three blocks: storing each block as it is built
    # evicted the one before, and then the tables, run after run
    monkeypatch.setattr(accounts, "CACHE_BYTES", len(stored) + 3 * block_bytes)
    shutil.rmtree(cache)
    for _ in range(4):
        products.reset_mock()
        assert run(manifest, out, capsys) == cold
        assert products.call_count == products_to_build(block)
        assert not block_entries(cache)
        assert [entry.name for entry in cache.iterdir()] == [tables.name]
        assert tables.read_bytes() == stored
