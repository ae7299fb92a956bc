"""Fixtures for the live-update suite.

Every fixture here builds a *fresh* database per test: mutation tests
must never touch the session-scoped ``small_dblp_db``/``figure1_db``
fixtures, which other test modules assume immutable.
"""

from __future__ import annotations

import copy
from collections import Counter

import pytest

from repro.decomposition import minimal_decomposition
from repro.schema import dblp_catalog
from repro.storage import load_database
from repro.storage.persistence import EDGE_TABLE, MEMBER_TABLE, TO_TABLE
from repro.updates import UpdateManager
from repro.workloads import DBLPConfig, generate_dblp


def build_dblp(papers: int = 40, authors: int = 20):
    """A fresh, mutable DBLP load: ``(catalog, decompositions, loaded)``."""
    catalog = dblp_catalog()
    graph = generate_dblp(
        DBLPConfig(papers=papers, authors=authors, avg_citations=2.0, seed=3)
    )
    decompositions = [minimal_decomposition(catalog.tss)]
    return catalog, decompositions, load_database(graph, catalog, decompositions)


def assert_equivalent(catalog, decompositions, loaded) -> None:
    """Every storage artifact matches a full reload of the mutated graph.

    This is the oracle the whole subsystem is judged against: after any
    mutation sequence, the incrementally maintained database must be
    byte-identical (up to parallel-path choice inside edge instances,
    where only the key set is canonical) to ``load_database`` run from
    scratch on the same in-memory graph.
    """
    fresh = load_database(loaded.graph, catalog, decompositions, validate=True)
    for table, columns in (
        ("master_index", "*"),
        ("target_object_blobs", "*"),
        (TO_TABLE, "*"),
        (MEMBER_TABLE, "*"),
        (EDGE_TABLE, "edge_id, source_to, target_to"),
    ):
        ours = set(loaded.database.query(f"SELECT {columns} FROM {table}"))
        theirs = set(fresh.database.query(f"SELECT {columns} FROM {table}"))
        assert ours == theirs, (table, sorted(ours ^ theirs)[:5])
    for name, store in loaded.stores.items():
        fresh_store = fresh.stores[name]
        for fragment in store.decomposition.fragments:
            ours = set(loaded.database.query(
                f"SELECT * FROM {store.base_table(fragment)}"
            ))
            theirs = set(fresh.database.query(
                f"SELECT * FROM {fresh_store.base_table(fragment)}"
            ))
            assert ours == theirs, (fragment.relation_name, sorted(ours ^ theirs)[:5])
    for name in ("tss_counts", "edge_counts", "avg_fanout", "avg_fanin"):
        assert getattr(loaded.statistics, name) == getattr(fresh.statistics, name), name


def frozen_state(manager: UpdateManager) -> dict:
    """Everything a rejected or failed mutation must leave as it was.

    The graph, every SQL table (master index, relations, BLOBs, the TO
    graph's tables), the statistics, the epoch, the document count and
    the published snapshot.
    """
    loaded = manager.loaded
    database = loaded.database
    tables = database.query("SELECT name FROM sqlite_master WHERE type = 'table'")
    return {
        "nodes": set(loaded.graph.nodes()),
        "edges": set(loaded.graph.edges()),
        "tables": {
            name: Counter(database.query(f"SELECT * FROM {name}")) for (name,) in tables
        },
        "statistics": copy.deepcopy(loaded.statistics),
        "epoch": loaded.epoch,
        "documents": set(manager._documents),
        "snapshot": manager.snapshot(),
    }


def target_objects(loaded, tss: str) -> list[str]:
    """The ids of one TSS's target objects, read from the TO table."""
    return [
        to_id
        for (to_id,) in loaded.database.query(
            f"SELECT to_id FROM {TO_TABLE} WHERE tss = ? ORDER BY to_id", (tss,)
        )
    ]


@pytest.fixture()
def dblp_setup():
    return build_dblp()


@pytest.fixture()
def manager(dblp_setup):
    _, _, loaded = dblp_setup
    return UpdateManager(loaded)
