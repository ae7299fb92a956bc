"""Fixtures for the live-update suite.

Every fixture here builds a *fresh* database per test: mutation tests
must never touch the session-scoped ``small_dblp_db``/``figure1_db``
fixtures, which other test modules assume immutable.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.decomposition import minimal_decomposition
from repro.schema import dblp_catalog
from repro.storage import Database, load_database
from repro.storage.persistence import EDGE_TABLE, MEMBER_TABLE, TO_TABLE, load_index_epoch
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
    fresh = load_database(
        loaded.graph, catalog, decompositions, database=Database(), validate=True
    )
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
    assert loaded.to_graph.tss_of_to == fresh.to_graph.tss_of_to
    assert loaded.to_graph.to_of_node == fresh.to_graph.to_of_node
    ours = set(loaded.to_graph._paths)
    theirs = set(fresh.to_graph._paths)
    assert ours == theirs, ("instances", sorted(ours ^ theirs)[:5])
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
    assert loaded.statistics.tss_counts == fresh.statistics.tss_counts
    assert loaded.statistics.edge_counts == fresh.statistics.edge_counts


def frozen_state(manager: UpdateManager) -> dict:
    """Everything a rejected mutation must leave exactly as it was.

    The graph, the TO graph, every SQL table (master index, relations,
    BLOBs, persisted metadata), the epoch in memory and on disk, the
    version vector, and the published snapshot.
    """
    loaded = manager.loaded
    database = loaded.database
    tables = database.query("SELECT name FROM sqlite_master WHERE type = 'table'")
    return {
        "nodes": set(loaded.graph.nodes()),
        "edges": set(loaded.graph.edges()),
        "to_graph": (
            dict(loaded.to_graph.tss_of_to),
            dict(loaded.to_graph.to_of_node),
            set(loaded.to_graph._paths),
        ),
        "tables": {
            name: Counter(database.query(f"SELECT * FROM {name}")) for (name,) in tables
        },
        "epoch": (loaded.epoch, load_index_epoch(database)),
        "versions": manager.versions.epoch,
        "snapshot": manager.snapshot(),
    }


@pytest.fixture()
def dblp_setup():
    return build_dblp()


@pytest.fixture()
def manager(dblp_setup):
    _, _, loaded = dblp_setup
    return UpdateManager(loaded)
