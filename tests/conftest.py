from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from taxcascade import Activity, IOAccounts, TaxDestinationTable, save_bundle

import brazil2015
from oracles import make_activities

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session", autouse=True)
def parsed_table_cache(tmp_path_factory) -> Path:
    """The suite's cache of parsed tables, for every command it runs in
    process or in a subprocess: never the user's ``~/.cache``."""
    directory = tmp_path_factory.mktemp("xdg_cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(directory))
        yield directory


@pytest.fixture()
def demo_manifest() -> Path:
    return DATA / "demo_bundle" / "manifest.json"


@pytest.fixture(scope="session")
def brazil_accounts() -> IOAccounts:
    return brazil2015.build_accounts()


@pytest.fixture(scope="session")
def brazil_manifest(tmp_path_factory, brazil_accounts) -> Path:
    directory = tmp_path_factory.mktemp("brazil2015_bundle")
    return save_bundle(brazil_accounts, directory)


@pytest.fixture()
def accounts_factory():
    """Build a balanced IOAccounts from flows, final demand and a tax table.

    Supply defaults to exact row sums so the bundle always balances; the tax
    destination table defaults to zero.
    """

    def make(
        flows,
        finaldemand,
        dest=None,
        marginshares=None,
        supply=None,
        codes=None,
    ) -> IOAccounts:
        flows = np.asarray(flows, dtype=float)
        finaldemand = np.asarray(finaldemand, dtype=float)
        n = flows.shape[0]
        if supply is None:
            supply = flows.sum(axis=1) + finaldemand.sum(axis=1)
        if dest is None:
            dest = np.zeros((n, n + 6))
        dest = np.asarray(dest, dtype=float)
        if marginshares is None:
            marginshares = np.zeros(n)
        if codes is None:
            activities = make_activities(n)
        else:
            activities = tuple(Activity(i, c) for i, c in enumerate(codes))
        return IOAccounts(
            activities=activities,
            flows=flows,
            finaldemand=finaldemand,
            supply=np.asarray(supply, dtype=float),
            taxdest=TaxDestinationTable(dest=dest, statutory=dest.sum(axis=1)),
            marginshares=np.asarray(marginshares, dtype=float),
        )

    return make
