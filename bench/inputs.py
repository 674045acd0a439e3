"""Seeded input bundles and scenario files for the benchmark workloads.

The generator works on plain arrays (:class:`Economy`) so that the reference
in ``reference.py`` can be computed from exactly what was generated, without
reading anything the program wrote.  Bundles are written with the program's
own ``save_bundle``; the program under test only ever sees those files.
"""

from __future__ import annotations

import csv
import importlib.util
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_COMPONENTS = 6
INVENTORY = 5
#: Share of its output each activity of the near-closed block sells inside it.
BLOCK_INSIDE = 0.999


@dataclass(frozen=True)
class Economy:
    """One balanced bundle as plain arrays, supplier rows throughout."""

    codes: tuple[str, ...]
    labels: tuple[str, ...]
    flows: np.ndarray  # (n, n)
    finaldemand: np.ndarray  # (n, 6), canonical component order
    supply: np.ndarray  # (n,)
    dest: np.ndarray  # (n, n + 6) first-stage tax destinations
    marginshares: np.ndarray  # (n,)

    @property
    def n(self) -> int:
        return len(self.codes)


@dataclass(frozen=True)
class Scenario:
    name: str
    scale: np.ndarray  # (n,) tax scale per activity
    uniform: float | None = None  # set when every activity has this scale


def load_module(path: Path, name: str):
    """Import one file by path (the repo's tests/ is not a package)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# Economies
# ---------------------------------------------------------------------------


def brazil67(root: Path) -> Economy:
    """The 67-activity accounts built by ``tests/brazil2015.build_accounts``."""
    accounts = load_module(root / "tests" / "brazil2015.py", "bench_brazil2015").build_accounts()
    return Economy(
        codes=accounts.codes,
        labels=tuple(a.label for a in accounts.activities),
        flows=np.array(accounts.flows),
        finaldemand=np.array(accounts.finaldemand),
        supply=np.array(accounts.supply),
        dest=np.array(accounts.taxdest.dest),
        marginshares=np.array(accounts.marginshares),
    )


def structured(
    rng: np.random.Generator,
    n: int,
    *,
    density: float,
    margins: int,
    block: int = 0,
) -> Economy:
    """A balanced economy with realistic structure at any size.

    - Output sizes are lognormal; each activity sells 30-60% of its output to
      intermediate use and the rest to final demand (Dirichlet split over the
      six components, a small drawdown of inventories on every 17th row).
    - Goods flows are sparse: each supplier serves a buyer with probability
      ``density`` (plus one guaranteed buyer, so every column has a goods
      supplier), with amounts weighted by the buyer's size.
    - ``margins`` margin activities (trade and transport) sell to every
      column outside the block, with margin shares in [0.3, 0.9].
    - Statutory tax is 1-6% of supply (a subsidy of 1% on every 50th row)
      and lands where the activity's output goes, with per-cell noise.
    - The first ``block`` activities form a near-closed intermediate-goods
      block: each sells ``BLOCK_INSIDE`` of its output to the block and the
      rest to exports and fixed capital, and buys only from the block.
    """
    size = rng.lognormal(np.log(2.0e4), 1.0, n)
    alpha = rng.uniform(0.3, 0.6, n)
    inblock = np.arange(n) < block
    margin = np.zeros(n, dtype=bool)
    margin[block : block + margins] = True

    link = rng.random((n, n)) < density
    link[np.arange(n), (np.arange(n) + 1) % n] = True
    link[margin] = True
    link[:, inblock] = False
    link[np.ix_(inblock, ~inblock)] = False
    link[np.ix_(inblock, inblock)] = True
    raw = np.where(link, rng.uniform(0.2, 1.0, (n, n)) * size[None, :], 0.0)
    raw_sum = raw.sum(axis=1, keepdims=True)
    alpha = np.where(inblock, BLOCK_INSIDE, alpha)
    flows = (alpha * size)[:, None] * raw / np.where(raw_sum > 0, raw_sum, 1.0)

    split = rng.dirichlet(np.full(N_COMPONENTS, 0.8), size=n)
    split[inblock] = [0.7, 0.0, 0.0, 0.0, 0.3, 0.0]
    drawdown = (np.arange(n) % 17 == 5) & ~margin & ~inblock
    split[drawdown, INVENTORY] = -0.02
    finaldemand = ((1.0 - alpha) * size)[:, None] * split
    supply = flows.sum(axis=1) + finaldemand.sum(axis=1)

    rate = rng.uniform(0.01, 0.06, n)
    rate[np.arange(n) % 50 == 7] = -0.01
    base = np.maximum(np.hstack([flows, finaldemand]), 0.0)
    base = np.where(base > 0, base * rng.uniform(0.5, 1.5, base.shape), 0.0)
    dest = (rate * supply)[:, None] * base / base.sum(axis=1, keepdims=True)

    marginshares = np.where(margin, rng.uniform(0.3, 0.9, n), 0.0)
    codes = tuple(f"a{i:04d}" for i in range(n))
    labels = tuple(
        "intermediate goods" if b else ("trade and transport" if m else "goods and services")
        for b, m in zip(inblock, margin)
    )
    return Economy(codes, labels, flows, finaldemand, supply, dest, marginshares)


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def scenarios(rng: np.random.Generator, n: int, count: int) -> list[Scenario]:
    """``count`` seeded scenarios; the first scales every tax by a power of two.

    A power of two commutes exactly with every floating-point operation of
    the pipeline, so that scenario's incidence must equal the scaled baseline
    bit for bit.  The others are, in turn: a random tenth of activities
    scaled by U(0, 2); a handful exempted (scale 0); one activity nudged by
    1 + U(0.001, 0.005).
    """
    out = [
        Scenario("uniform", np.full(n, c), uniform=c)
        for c in [float(rng.choice([0.25, 0.5, 2.0]))]
    ]
    kinds = ["subset", "exempt", "nudge"]
    for k in range(count - 1):
        kind = kinds[k % len(kinds)]
        scale = np.ones(n)
        if kind == "subset":
            pick = rng.choice(n, size=max(1, n // 10), replace=False)
            scale[pick] = rng.uniform(0.0, 2.0, pick.size)
        elif kind == "exempt":
            scale[rng.choice(n, size=max(1, n // 20), replace=False)] = 0.0
        else:
            scale[rng.integers(n)] = 1.0 + rng.uniform(0.001, 0.005)
        out.append(Scenario(f"{kind}{k + 1}", scale))
    return out


def write_scenario(scenario: Scenario, codes: tuple[str, ...], path: Path) -> Path:
    """``code,scale`` rows for every activity whose scale is not 1."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["code", "scale"])
        for code, value in zip(codes, scenario.scale):
            if value != 1.0:
                writer.writerow([code, repr(float(value))])
    return path


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------


def write_bundle(economy: Economy, directory: Path) -> Path:
    """Write ``economy`` with the program's ``save_bundle``; returns the manifest."""
    from taxcascade import Activity, IOAccounts, TaxDestinationTable, save_bundle

    accounts = IOAccounts(
        activities=tuple(
            Activity(i, c, l) for i, (c, l) in enumerate(zip(economy.codes, economy.labels))
        ),
        flows=economy.flows,
        finaldemand=economy.finaldemand,
        supply=economy.supply,
        taxdest=TaxDestinationTable(dest=economy.dest, statutory=economy.dest.sum(axis=1)),
        marginshares=economy.marginshares,
    )
    return save_bundle(accounts, directory)


def corrupt_copy(manifest: Path, directory: Path, table: str, code: str, column: int, text: str) -> Path:
    """Copy a bundle and overwrite one cell of one table with ``text``.

    ``column`` counts value columns after the code column.
    """
    shutil.copytree(manifest.parent, directory)
    path = directory / f"{table}.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    row = next(r for r in rows[1:] if r[0] == code)
    row[1 + column] = text
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return directory / manifest.name
