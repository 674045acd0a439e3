"""The cache of parsed tables: a warm load is the cold parse bit for bit, a
damaged entry is a miss, a changed byte is a new key, and no command's output
depends on the cache."""

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taxcascade.accounts as accounts
from taxcascade import Activity, IOAccounts, TaxDestinationTable, load_bundle, save_bundle
from taxcascade.accounts import CACHE_BYTES, _layout, cache_entry, read_entry, write_entry
from taxcascade.cli import main
from taxcascade.engine import shares_entry

from test_accounts import corrupt_demo_copy, write_minimal_bundle
from test_bundle_properties import bits, bundles


def arrays(loaded: IOAccounts) -> dict[str, np.ndarray]:
    return {
        "flows": loaded.flows,
        "finaldemand": loaded.finaldemand,
        "supply": loaded.supply,
        "marginshares": loaded.marginshares,
        "dest": loaded.taxdest.dest,
        "statutory": loaded.taxdest.statutory,
    }


def assert_same_load(got: IOAccounts, want: IOAccounts) -> None:
    """Codes, labels and every array bit for bit, in the same memory layout."""
    assert got.activities == want.activities
    for (name, a), b in zip(arrays(got).items(), arrays(want).values()):
        assert a.shape == b.shape, name
        np.testing.assert_array_equal(bits(a), bits(b), err_msg=name)
        assert a.strides == b.strides, name
        assert a.flags.writeable == b.flags.writeable, name


def entries(directory: Path) -> set[Path]:
    return set(directory.glob("*.npy"))


def table_entry(cache: Path, manifest: str, digests: list[str]) -> Path:
    """The entry of the tables parsed from the manifest and tables of these sha256."""
    return cache_entry(cache, "npy", accounts._PARSER_SOURCES, manifest, *digests)


def flip_payload_bit(entry: Path) -> None:
    """Flip the last bit of the first byte of ``entry``'s first array, past its
    10-byte preamble and the header whose length the preamble ends with."""
    data = bytearray(entry.read_bytes())
    data[10 + int.from_bytes(data[8:10], "little")] ^= 1
    entry.write_bytes(bytes(data))


@pytest.fixture()
def counted_parses(monkeypatch) -> list[Path]:
    """The path of every table load_bundle parses."""
    parsed = []

    def counting(path, *args, **kwargs):
        parsed.append(path)
        return read_table(path, *args, **kwargs)

    read_table = accounts.read_table
    monkeypatch.setattr(accounts, "read_table", counting)
    return parsed


def write_shuffled(bundle: IOAccounts, directory: Path, rows, columns) -> Path:
    """``bundle`` on ``;``, each table's rows and columns in the drawn orders."""
    manifest = save_bundle(bundle, directory)
    codes = bundle.codes
    for name, header, values in _layout(codes):
        order = columns(len(header))
        with open(directory / f"{name}.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, delimiter=";", lineterminator="\n")
            writer.writerow(["code", *(header[j] for j in order)])
            table = values(bundle).tolist()
            for i in rows:
                writer.writerow([codes[i], *(repr(table[i][j]) for j in order)])
    data = json.loads(manifest.read_text(encoding="utf-8"))
    manifest.write_text(json.dumps({**data, "delimiter": ";"}), encoding="utf-8")
    return manifest


@settings(max_examples=40, deadline=None)
@given(bundle=bundles(), data=st.data())
def test_cold_and_warm_loads_are_the_parse(bundle, data):
    rows = data.draw(st.permutations(range(bundle.n)))
    columns = lambda k: data.draw(st.permutations(range(k)))  # noqa: E731
    with tempfile.TemporaryDirectory() as directory:
        directory = Path(directory)
        manifest = write_shuffled(bundle, directory / "bundle", rows, columns)
        cache = directory / "cache"
        parsed = load_bundle(manifest, check=False)
        cold = load_bundle(manifest, check=False, cache=cache)
        assert len(entries(cache)) == 1
        with mock.patch.object(accounts, "read_table", side_effect=AssertionError("parsed")):
            warm = load_bundle(manifest, check=False, cache=cache)
    for loaded in (cold, warm):
        assert_same_load(loaded, parsed)


class Unpickled(Exception):
    pass


def refuse():
    raise Unpickled("the cache unpickled an entry")


class Trap:
    def __reduce__(self):
        return refuse, ()


def damage(entry: Path, how: str, tmp_path: Path) -> None:
    if how == "empty":
        entry.write_bytes(b"")
    elif how == "truncated":
        entry.write_bytes(entry.read_bytes()[:-100])
    elif how == "foreign":  # another bundle's entry, renamed to this key
        other = tmp_path / "other_cache"
        load_bundle(write_minimal_bundle(tmp_path), cache=other)
        [foreign] = entries(other)
        os.replace(foreign, entry)
    elif how == "directory":
        entry.unlink()
        entry.mkdir()
        (entry / "file").write_bytes(b"")
    elif how == "flipped bit":
        flip_payload_bit(entry)
    else:
        with open(entry, "wb") as fh:
            np.save(fh, np.array([Trap()], dtype=object), allow_pickle=True)


@pytest.mark.parametrize(
    "how", ["empty", "truncated", "foreign", "pickled", "directory", "flipped bit"]
)
def test_a_damaged_entry_is_a_miss_and_is_rewritten(demo_manifest, tmp_path, counted_parses, how):
    cache = tmp_path / "cache"
    parsed = load_bundle(demo_manifest)
    load_bundle(demo_manifest, cache=cache)
    [entry] = entries(cache)
    stored = entry.read_bytes()
    damage(entry, how, tmp_path)
    counted_parses.clear()
    assert_same_load(load_bundle(demo_manifest, cache=cache), parsed)
    assert len(counted_parses) == 5  # a miss: every table parsed again
    assert entries(cache) == {entry}
    assert entry.read_bytes() == stored
    counted_parses.clear()
    assert_same_load(load_bundle(demo_manifest, cache=cache), parsed)
    assert counted_parses == []


def test_a_table_that_fails_to_parse_is_never_cached(demo_manifest, tmp_path):
    manifest = corrupt_demo_copy(demo_manifest, tmp_path / "bad", "supply", "mill", "supply", "1_0")
    cache = tmp_path / "cache"
    for _ in range(2):
        with pytest.raises(accounts.BundleError, match=r"supply\.csv:3: "):
            load_bundle(manifest, cache=cache)
    assert not entries(cache)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_a_table_rewritten_after_the_lookup_is_named_by_the_bytes_parsed(
    demo_manifest, tmp_path, monkeypatch
):
    shutil.copytree(demo_manifest.parent, tmp_path / "bundle")
    manifest = tmp_path / "bundle" / demo_manifest.name
    shares = manifest.parent / "marginshares.csv"
    hashed = shares.read_bytes()
    file_digest = accounts.file_digest

    def rewriting(path):
        digest = file_digest(path)
        if path == shares and shares.read_bytes() == hashed:  # hashed for the lookup, then changed
            shares.write_text("code,marginshare\nfarm,0\nmill,0\ntrade,0.5\n", encoding="utf-8")
        return digest

    monkeypatch.setattr(accounts, "file_digest", rewriting)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert main(["compute", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 0
    assert shares.read_bytes() != hashed
    audit = json.loads((tmp_path / "out" / "audit.json").read_text(encoding="utf-8"))
    assert audit["bundle"]["marginshares"]["sha256"] == sha256(shares)
    # the one entry stored is named by the bytes parsed, not those hashed for the lookup
    cache = tmp_path / "xdg" / "taxcascade"
    tables = [manifest.parent / f"{name}.csv" for name, _, _ in _layout(())]
    digests = [sha256(path) for path in tables]
    assert entries(cache) == {table_entry(cache, sha256(manifest), digests)}
    parsed = load_bundle(manifest)
    assert parsed.marginshares.tolist() == [0.0, 0.0, 0.5]
    with mock.patch.object(accounts, "read_table", side_effect=AssertionError("parsed")):
        assert_same_load(load_bundle(manifest, cache=cache), parsed)


def test_changing_one_byte_of_any_file_gives_a_new_key(demo_manifest, tmp_path):
    shutil.copytree(demo_manifest.parent, tmp_path / "bundle")
    manifest = tmp_path / "bundle" / demo_manifest.name
    cache = tmp_path / "cache"
    load_bundle(manifest, check=False, cache=cache)
    names = [manifest.name] + [f"{name}.csv" for name, _, _ in _layout(())]
    for k, name in enumerate(names, 2):
        path = manifest.parent / name
        text = path.read_bytes()
        at = max(text.rfind(digit) for digit in b"0123456789")
        # the last digit of the file, one more: the manifest's is in the unread metadata
        path.write_bytes(text[:at] + str((text[at] - 47) % 10).encode() + text[at + 1 :])
        parsed = load_bundle(manifest, check=False)
        assert_same_load(load_bundle(manifest, check=False, cache=cache), parsed)
        assert len(entries(cache)) == k, name


def test_the_key_covers_the_parser_source_and_numpy(tmp_path, monkeypatch):
    manifest, digests = "f" * 64, [str(k) * 64 for k in range(5)]
    keys = {table_entry(tmp_path, manifest, digests)}
    sources = accounts._PARSER_SOURCES
    assert {path.name for path in sources} == {"accounts.py", "tables.py"}
    for k, source in enumerate(sources):
        edited = tmp_path / source.name
        edited.write_bytes(source.read_bytes() + b"\n")
        with monkeypatch.context() as patch:
            patch.setattr(accounts, "_PARSER_SOURCES", (*sources[:k], edited, *sources[k + 1 :]))
            keys.add(table_entry(tmp_path, manifest, digests))
    monkeypatch.setattr(np, "__version__", "0.0.0")
    keys.add(table_entry(tmp_path, manifest, digests))
    assert len(keys) == 4


def test_there_is_no_entry_without_a_cache_or_with_an_unreadable_source(tmp_path):
    sources = accounts._PARSER_SOURCES
    assert table_entry(None, "f" * 64, []) is None
    assert cache_entry(tmp_path, "npy", [*sources, tmp_path / "missing.py"], "f" * 64) is None
    assert table_entry(tmp_path, "f" * 64, []).parent == tmp_path


def test_every_single_bit_flip_of_an_entry_is_a_miss_or_reads_the_same_arrays(tmp_path):
    """A flip in the payload or the checksum is a miss; one in a header is a miss
    too, unless it leaves the header's meaning alone (``<f8`` read as ``=f8``)."""
    arrays = [np.asfortranarray(np.arange(6.0).reshape(3, 2)), np.array([[0.5], [-1.0], [2.0]])]
    entry = tmp_path / "entry.npy"
    write_entry(entry, arrays)
    data = entry.read_bytes()
    misses = 0
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << bit % 8
        entry.write_bytes(bytes(flipped))
        read = read_entry(entry, [(3, 2), (3, 1)])
        if read is None:
            misses += 1
        else:
            assert bit // 8 < len(data) - 8 and all(map(np.array_equal, read, arrays)), bit
    payloads = 8 * (6 + 3 + 1)
    assert payloads < misses < 8 * len(data)


def test_a_symbolic_link_in_an_entry_s_place_is_replaced_and_never_followed(tmp_path):
    target = tmp_path / "target"
    target.mkdir()
    (target / "kept").write_bytes(b"kept")
    entry = tmp_path / "cache" / "entry.npy"
    entry.parent.mkdir()
    entry.symlink_to(target)
    table = np.asfortranarray([[1.0, 2.0], [3.0, 4.0]])
    write_entry(entry, [table])
    assert entry.is_file() and not entry.is_symlink()
    assert [path.name for path in target.iterdir()] == ["kept"]
    [stored] = read_entry(entry, [(2, 2)])
    np.testing.assert_array_equal(stored, table)


def relabelled(demo_manifest: Path, directory: Path, k: int) -> Path:
    """A copy of the demo bundle with a distinct manifest and the same tables."""
    shutil.copytree(demo_manifest.parent, directory)
    manifest = directory / demo_manifest.name
    data = json.loads(manifest.read_text(encoding="utf-8"))
    data["activities"][0]["label"] = f"farm {k}"
    manifest.write_text(json.dumps(data), encoding="utf-8")
    return manifest


def store(manifest: Path, cache: Path, k: int) -> Path:
    """Load ``manifest`` on a miss, and date its new entry ``k`` seconds after 1970:
    older than any use of the cache to come."""
    before = entries(cache)
    load_bundle(manifest, cache=cache)
    [entry] = entries(cache) - before
    os.utime(entry, ns=(k * 10**9, k * 10**9))
    return entry


def test_the_default_bound_keeps_ten_demo_entries(demo_manifest, tmp_path):
    cache = tmp_path / "cache"
    keys = {store(relabelled(demo_manifest, tmp_path / f"bundle{k}", k), cache, k) for k in range(10)}
    assert entries(cache) == keys


def test_the_cache_keeps_the_most_recently_used_entries(demo_manifest, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    keys = [store(relabelled(demo_manifest, tmp_path / "bundle0", 0), cache, 0)]
    size = keys[0].stat().st_size  # every demo entry has this size
    monkeypatch.setattr(accounts, "CACHE_BYTES", 8 * size + size // 2)  # room for eight
    for k in range(1, 10):
        keys.append(store(relabelled(demo_manifest, tmp_path / f"bundle{k}", k), cache, k))
        if k == 5:  # a hit on the first makes it the most recently used
            load_bundle(tmp_path / "bundle0" / demo_manifest.name, cache=cache)
    assert entries(cache) == {keys[0], *keys[3:]}


def test_a_killed_writers_partial_entry_counts_and_is_evicted_first(demo_manifest, tmp_path):
    cache = tmp_path / "cache"
    kept = store(relabelled(demo_manifest, tmp_path / "bundle0", 0), cache, 1)
    size = kept.stat().st_size
    # left by a writer killed while storing: older than every entry, and sparse
    partial_entry = cache / f"{'0' * 64}.12345.tmp"
    with open(partial_entry, "wb") as fh:
        fh.truncate(CACHE_BYTES - 2 * size + 1)  # one byte too many beside two entries
    os.utime(partial_entry, ns=(0, 0))
    new = store(relabelled(demo_manifest, tmp_path / "bundle1", 1), cache, 2)
    assert set(cache.iterdir()) == {kept, new}


def test_the_cache_evicts_the_oldest_entries_past_its_byte_bound(
    demo_manifest, tmp_path, monkeypatch
):
    cache = tmp_path / "cache"
    keys = [store(relabelled(demo_manifest, tmp_path / "bundle0", 0), cache, 0)]
    size = keys[0].stat().st_size  # every demo entry has this size
    monkeypatch.setattr(accounts, "CACHE_BYTES", 2 * size + size // 2)
    for k in range(1, 4):
        keys.append(store(relabelled(demo_manifest, tmp_path / f"bundle{k}", k), cache, k))
        assert entries(cache) == set(keys[-2:])


@pytest.mark.parametrize("over", ["arrays", "headers"])
def test_an_entry_past_the_byte_bound_is_not_stored(demo_manifest, tmp_path, monkeypatch, over):
    cache = tmp_path / "cache"
    stored = store(relabelled(demo_manifest, tmp_path / "bundle0", 0), cache, 0)
    manifest = relabelled(demo_manifest, tmp_path / "bundle1", 1)
    parsed = load_bundle(manifest)
    size = stored.stat().st_size  # the new entry's size too: the arrays, then their headers
    arrays = sum(8 * parsed.n * len(columns) for _, columns, _ in _layout(parsed.codes))
    assert arrays < size
    monkeypatch.setattr(accounts, "CACHE_BYTES", (arrays if over == "arrays" else size) - 1)
    before = {path: (path.read_bytes(), path.stat().st_mtime_ns) for path in cache.iterdir()}
    # arrays alone past the bound are not even written
    unwritten = AssertionError("written") if over == "arrays" else None
    with mock.patch.object(np, "save", wraps=np.save, side_effect=unwritten):
        assert_same_load(load_bundle(manifest, cache=cache), parsed)
    assert {path: (path.read_bytes(), path.stat().st_mtime_ns) for path in cache.iterdir()} == before


def test_an_unusable_cache_directory_changes_no_output(
    demo_manifest, tmp_path, monkeypatch, capsys
):
    (tmp_path / "file").write_text("not a directory\n", encoding="utf-8")
    outputs = {}
    for home in ("file/below", "cache"):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / home))
        out = tmp_path / "out"
        shutil.rmtree(out, ignore_errors=True)
        rc = main(["compute", "--manifest", str(demo_manifest), "--out", str(out)])
        outputs[home] = rc, capsys.readouterr(), tree(out)
    assert outputs["file/below"] == outputs["cache"]
    assert outputs["cache"][0] == 0
    assert len(entries(tmp_path / "cache" / "taxcascade")) == 1


def tree(directory: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*")) if path.is_file()
    }


def test_cold_and_warm_commands_write_the_same_bytes(
    demo_manifest, brazil_manifest, brazil_accounts, tmp_path, monkeypatch, capsys
):
    cache = tmp_path / "xdg"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    scenario = tmp_path / "reform.csv"
    scenario.write_text("code,scale\nmill,1.003\n", encoding="utf-8")
    codes = brazil_accounts.codes
    nan_flows = corrupt_demo_copy(
        brazil_manifest, tmp_path / "nan", "flows", codes[9], codes[11], "nan"
    )
    inf_supply = corrupt_demo_copy(
        brazil_manifest, tmp_path / "inf", "supply", codes[19], "supply", "inf"
    )
    demo = ["--manifest", str(demo_manifest)]
    closed_forms = [
        ["compute", *demo, "--threshold", "0"],
        ["compute", *demo, "--skip-margins"],  # shares of its own
        ["compute", *demo, "--scenario", str(scenario), "--threshold", "0"],
        ["compute", *demo, "--components", "households,gfcf"],
    ]
    commands = [
        *closed_forms,
        ["compute", *demo, "--method", "truncated", "--tol", "1e-12", "--maxstages", "10000"],
        ["validate", *demo],
        ["validate", "--manifest", str(nan_flows)],
        ["validate", "--manifest", str(inf_supply)],
    ]
    out = tmp_path / "out"
    runs, solves = {}, {}
    for warmth in ("cold", "warm"):
        if warmth == "warm":  # every table comes from the cache
            monkeypatch.setattr(accounts, "read_table", mock.Mock(side_effect=AssertionError))
        runs[warmth] = []
        with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve:
            for k, command in enumerate(commands):
                shutil.rmtree(out, ignore_errors=True)
                rc = main([*command, "--out", str(out / str(k))])
                runs[warmth].append((rc, capsys.readouterr(), tree(out)))
        solves[warmth] = solve.call_count
        if warmth == "cold":
            assert len(entries(cache / "taxcascade")) == 3
    assert runs["warm"] == runs["cold"]
    assert [rc for rc, _, _ in runs["cold"]] == [0, 0, 0, 0, 0, 0, 1, 1]
    named = (f"flows: {codes[9]} / {codes[11]}: nan", f"supply: {codes[19]} / supply: inf")
    for (_, printed, _), cell in zip(runs["cold"][6:], named):
        assert cell in printed.out
    # one condition entry per distinct share system, each stored once and then read
    shares = {
        json.loads(files[f"{k}/system_digest.json"])["sha256"]["intermediate_shares"]
        for k, (_, _, files) in enumerate(runs["cold"][: len(closed_forms)])
    }
    assert len(shares) == 2
    assert set((cache / "taxcascade").glob("*.condition")) == {
        shares_entry(cache / "taxcascade", "condition", digest) for digest in shares
    }
    assert solves == {"cold": len(closed_forms) + len(shares), "warm": len(closed_forms)}


#: Runs ``cli.main`` on argv[2:] and prints, as its last line, how often each
#: file of the bundle directory argv[1] was opened.
COUNTING_OPENS = """
import collections, json, os, sys
bundle = os.path.realpath(sys.argv[1])
opened = collections.Counter()

def count(event, args):
    if event == "open" and isinstance(args[0], (str, bytes, os.PathLike)):
        path = os.path.realpath(os.fsdecode(args[0]))
        if os.path.dirname(path) == bundle:
            opened[os.path.basename(path)] += 1

sys.addaudithook(count)
from taxcascade.cli import main
rc = main(sys.argv[2:])
print(json.dumps(opened))
sys.exit(rc)
"""


def opens(bundle: Path, *argv: str) -> dict[str, int]:
    proc = subprocess.run(
        [sys.executable, "-c", COUNTING_OPENS, str(bundle), *argv],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def digests_by_rehashing(manifest: Path) -> dict:
    """``audit.json``'s ``bundle`` as it was built after the run: the manifest
    parsed again, and each file it names hashed again."""
    tables = json.loads(manifest.read_text(encoding="utf-8"))["tables"]
    files = {"manifest": {"path": manifest.name, "sha256": sha256(manifest)}}
    for name, rel in sorted(tables.items()):
        files[name] = {"path": rel, "sha256": sha256(manifest.parent / rel)}
    return files


def test_each_bundle_file_is_read_once_warm_and_each_table_twice_cold(
    demo_manifest, tmp_path, monkeypatch
):
    bundle = tmp_path / "bundle"
    shutil.copytree(demo_manifest.parent, bundle)
    manifest = bundle / demo_manifest.name
    (bundle / "notes.txt").write_text("sources of the demonstration tables\n", encoding="utf-8")
    data = json.loads(manifest.read_text(encoding="utf-8"))
    data["tables"]["notes"] = "notes.txt"  # hashed into audit.json, never parsed
    manifest.write_text(json.dumps(data), encoding="utf-8")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    tables = {f"{name}.csv" for name, _, _ in _layout(())}
    once = {path.name: 1 for path in bundle.iterdir()}
    assert len(once) == 7
    compute = ["compute", "--manifest", str(manifest), "--out"]

    cold = opens(bundle, *compute, str(tmp_path / "cold"))
    assert cold == {name: 2 if name in tables else 1 for name in once}
    assert opens(bundle, *compute, str(tmp_path / "warm")) == once
    assert opens(bundle, "validate", "--manifest", str(manifest), "--out", str(tmp_path / "v")) == once
    for run in ("cold", "warm"):
        audit = json.loads((tmp_path / run / "audit.json").read_text(encoding="utf-8"))
        assert audit["bundle"] == digests_by_rehashing(manifest)
