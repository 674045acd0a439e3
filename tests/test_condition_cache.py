"""The closed form's condition number in the cache: a warm compute solves for v
alone, a changed input of the key gives a new key (of the truncated loop's block
entries too, which share the key rule), a damaged entry is a miss, and a stored
refusal refuses in the words of the miss that stored it."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import taxcascade.engine as engine
from taxcascade import (
    CONDITION_LIMIT, CoefficientSystem, build_system, load_bundle, propagate_closed_form,
    redistribute_margins, save_bundle,
)
from taxcascade.cli import main
from taxcascade.accounts import read_entry, write_entry
from taxcascade.engine import _array_digest, shares_entry

from test_cache import flip_payload_bit, tree
from test_cli import loop_bundle


@pytest.fixture()
def solves(monkeypatch) -> mock.Mock:
    """Every call of ``np.linalg.solve``, which still solves."""
    spy = mock.Mock(wraps=np.linalg.solve)
    monkeypatch.setattr(np.linalg, "solve", spy)
    return spy


def condition_entries(cache: Path) -> set[Path]:
    return set(cache.glob("*.condition"))


def stored(entry: Path) -> float:
    [condition] = read_entry(entry, [(1,)])
    return float(condition[0])


def store(entry: Path, value: float) -> None:
    write_entry(entry, [np.array([value])])


def run(manifest: Path, out: Path, capsys, *extra: str):
    """Exit code, printed output and written files of one closed-form compute into
    a fresh ``out``."""
    shutil.rmtree(out, ignore_errors=True)
    rc = main(["compute", "--manifest", str(manifest), "--out", str(out), *extra])
    return rc, capsys.readouterr(), tree(out) if out.exists() else None


def test_a_warm_compute_solves_once_and_a_cold_one_twice(
    demo_manifest, tmp_path, cache, capsys, solves
):
    runs, counts = [], []
    for _ in ("cold", "warm"):
        solves.reset_mock()
        runs.append(run(demo_manifest, tmp_path / "out", capsys, "--threshold", "0"))
        counts.append(solves.call_count)
    assert counts == [2, 1]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
    [entry] = condition_entries(cache)
    audit = json.loads(runs[0][2]["audit.json"])
    assert stored(entry) == audit["solve"]["condition"]
    digest = json.loads(runs[0][2]["system_digest.json"])["sha256"]["intermediate_shares"]
    assert entry == shares_entry(cache, "condition", digest)


@pytest.fixture()
def demo_system(demo_manifest) -> CoefficientSystem:
    return build_system(redistribute_margins(load_bundle(demo_manifest))[0])


def test_the_library_solves_twice_unless_given_a_cache(demo_system, tmp_path, solves):
    uncached = [propagate_closed_form(demo_system) for _ in range(2)]
    assert solves.call_count == 4
    solves.reset_mock()
    cold = propagate_closed_form(demo_system, cache=tmp_path)
    assert solves.call_count == 2
    warm = propagate_closed_form(demo_system, cache=tmp_path)
    assert solves.call_count == 3
    for result in (*uncached[1:], cold, warm):
        assert result.condition == uncached[0].condition
        assert result.solve_residual == uncached[0].solve_residual
        np.testing.assert_array_equal(result.subsequent_stage, uncached[0].subsequent_stage)
    assert len(condition_entries(tmp_path)) == 1


#: The parts each kind of engine entry adds to the key of its share system.
ENTRY_PARTS = {"condition": (), "blocks": ("block=8",)}


def test_the_key_covers_the_shares_numpy_and_the_engine_source(demo_system, tmp_path, monkeypatch):
    shares = demo_system.intermediate_shares
    assert demo_system.shares_digest == _array_digest(shares)
    flipped = shares.copy()
    flipped.view(np.uint64)[1, 0] ^= 1  # the last bit of one share
    other = CoefficientSystem(
        demo_system.activities, flipped, demo_system.final_shares,
        demo_system.intermediate_tax, demo_system.final_tax,
    )
    edited = tmp_path / "engine.py"
    edited.write_bytes(Path(engine.__file__).read_bytes() + b"\n")
    digests = (demo_system.shares_digest, other.shares_digest)
    for name, parts in ENTRY_PARTS.items():
        keys = {shares_entry(tmp_path, name, digest, *parts) for digest in digests}
        for changed in ((engine, "__file__", str(edited)), (np, "__version__", "0.0.0")):
            with monkeypatch.context() as patch:
                patch.setattr(*changed)
                keys.add(shares_entry(tmp_path, name, digests[0], *parts))
        assert len(keys) == 4, name
        assert all(entry.suffix == f".{name}" for entry in keys)


def test_the_key_covers_the_block_size_and_the_cpu_features(demo_system, tmp_path, monkeypatch):
    digest = demo_system.shares_digest
    keys = {shares_entry(tmp_path, "blocks", digest, f"block={k}") for k in (8, 16)}
    assert len(keys) == 2
    for name, parts in ENTRY_PARTS.items():
        keys.add(shares_entry(tmp_path, name, digest, *parts))
        # the same machine but for one CPU feature numpy found, as another host detects
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_CPU_FEATURES", engine._CPU_FEATURES.replace("cpu=", "cpu=X,"))
            keys.add(shares_entry(tmp_path, name, digest, *parts))
    assert len(keys) == 5


#: Prints each kind of engine entry of one share digest, as a process started with
#: the environment it is given names it.
KEY_IN_A_PROCESS = f"""
from taxcascade.engine import shares_entry
for name, parts in {ENTRY_PARTS!r}.items():
    print(shares_entry(".", name, "0" * 64, *parts))
"""


def test_the_key_covers_the_blas_threads_numpy_loaded_with():
    keys = []
    for threads in ("1", "2", "1"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", KEY_IN_A_PROCESS], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        keys.append(proc.stdout.split())
    assert len(keys[0]) == len(ENTRY_PARTS)
    for once, other, again in zip(*keys):
        assert once == again != other


def damage(entry: Path, how: str) -> None:
    data = entry.read_bytes()
    if how == "directory":
        entry.unlink()
        entry.mkdir()
    elif how == "flipped bit":
        flip_payload_bit(entry)
    elif how in ("nan", "negative"):  # a whole condition entry, checksum and all
        store(entry, math.nan if how == "nan" else -stored(entry))
    else:
        entry.write_bytes({"empty": b"", "short": data[:-1], "trailing byte": data + b"\0"}[how])


@pytest.mark.parametrize(
    "how", ["empty", "short", "trailing byte", "directory", "nan", "negative", "flipped bit"]
)
def test_a_damaged_condition_entry_is_a_miss_and_is_written_again(
    demo_manifest, tmp_path, cache, capsys, solves, how
):
    out = tmp_path / "out"
    cold = run(demo_manifest, out, capsys)
    assert cold[0] == 0
    [entry] = condition_entries(cache)
    kept = entry.read_bytes()
    damage(entry, how)
    solves.reset_mock()
    assert run(demo_manifest, out, capsys) == cold
    assert solves.call_count == 2  # a miss: the condition solved again
    solves.reset_mock()
    assert run(demo_manifest, out, capsys) == cold
    assert solves.call_count == 1  # a hit on the entry the miss wrote again
    assert entry.is_file() and entry.read_bytes() == kept
    assert condition_entries(cache) == {entry}


def near_singular_bundle(tmp_path, accounts_factory) -> Path:
    """Two activities selling all but 1e-14 of their supply to each other: the
    closed form's condition number is about 2e14, finite but beyond the limit."""
    flows = np.array([[0.0, 100.0 - 1e-12], [100.0 - 1e-12, 0.0]])
    fd = np.zeros((2, 6))
    fd[0, 0] = fd[1, 1] = 1e-12
    dest = np.zeros((2, 8))
    dest[0, 1] = 7.0
    accounts = accounts_factory(flows=flows, finaldemand=fd, dest=dest)
    return save_bundle(accounts, tmp_path / "near")


@pytest.mark.parametrize("bundle", ["near-singular", "singular"])
def test_a_stored_refusal_refuses_in_the_words_of_the_miss(
    tmp_path, accounts_factory, cache, capsys, solves, bundle
):
    if bundle == "singular":
        manifest, estimate = loop_bundle(tmp_path, accounts_factory), r"inf"
    else:
        manifest, estimate = near_singular_bundle(tmp_path, accounts_factory), r"\d\.\d{3}e\+14"
    out = tmp_path / "out"
    cold = run(manifest, out, capsys)
    [entry] = condition_entries(cache)
    solves.reset_mock()
    warm = run(manifest, out, capsys)
    assert solves.call_count == 0  # the stored figure refuses alone
    assert warm == cold
    rc, printed, written = warm
    assert rc == 1 and written is None
    assert re.search(f"condition estimate {estimate} exceeds 1.0e\\+12", printed.err)
    assert not stored(entry) <= CONDITION_LIMIT


@pytest.mark.parametrize("value", [1e13, math.inf], ids=["over-limit", "inf"])
def test_a_stored_figure_beyond_the_limit_refuses_a_solvable_system(
    demo_manifest, tmp_path, cache, capsys, value
):
    out = tmp_path / "out"
    assert run(demo_manifest, out, capsys)[0] == 0
    [entry] = condition_entries(cache)
    store(entry, value)
    rc, printed, written = run(demo_manifest, out, capsys)
    assert rc == 1 and written is None
    estimate = "inf" if value == math.inf else "1.000e+13"
    assert printed.err == (
        f"error: (I - intermediate_shares) is singular or near-singular (condition estimate "
        f"{estimate} exceeds 1.0e+12); the truncated method can propagate such systems stage "
        "by stage\n"
    )
