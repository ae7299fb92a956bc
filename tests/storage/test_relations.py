"""Tests for connection relations: loading, lookup, physical variants."""

import pytest

from repro.decomposition import (
    Decomposition,
    Fragment,
    IndexPolicy,
    NetEdge,
    minimal_decomposition,
    single_edge_fragment,
)
from repro.storage import Database, RelationStore, build_target_object_graph, store_metadata

from .oracle import fragment_instances


@pytest.fixture(scope="module")
def to_graph(figure1_graph, tpch):
    return build_target_object_graph(figure1_graph, tpch.tss)


def olpa(tpch):
    return Fragment(
        ["Order", "Lineitem", "Part"],
        [NetEdge(0, 1, "Order=>Lineitem"), NetEdge(1, 2, "Lineitem=>Part")],
    )


class TestFragmentInstances:
    def test_single_edge_instances(self, tpch, figure1_db):
        fragment = single_edge_fragment(tpch.tss, "Part=>Part")
        rows = set(fragment_instances(fragment, figure1_db.to_graph))
        assert rows == {("pa3", "pa1"), ("pa3", "pa2")}

    def test_path_instances(self, tpch, figure1_db):
        rows = set(fragment_instances(olpa(tpch), figure1_db.to_graph))
        assert rows == {("o1", "l1", "pa3"), ("o1", "l2", "pa3")}

    def test_injective_roles(self, tpch, figure1_db):
        papa = Fragment(
            ["Part", "Part", "Part"],
            [NetEdge(0, 1, "Part=>Part"), NetEdge(0, 2, "Part=>Part")],
        )
        rows = set(fragment_instances(papa, figure1_db.to_graph))
        assert rows == {("pa3", "pa1", "pa2"), ("pa3", "pa2", "pa1")}
        for row in rows:
            assert len(set(row)) == len(row)


@pytest.fixture(scope="module")
def clustered_store(tpch, to_graph):
    db = Database()
    store_metadata(db, to_graph)
    store = RelationStore(db, minimal_decomposition(tpch.tss))
    store.create()
    store.load()
    return store


class TestClusteredStore:
    def test_rotation_tables_created(self, clustered_store, tpch):
        fragment = single_edge_fragment(tpch.tss, "Person=>Order")
        tables = clustered_store.physical_tables(fragment)
        assert len(tables) == 2
        assert all(t.clustered for t in tables)

    def test_lookup_by_each_column(self, clustered_store, tpch):
        fragment = single_edge_fragment(tpch.tss, "Part=>Part")
        rows = clustered_store.lookup(fragment, {"part_id": "pa3"})
        assert set(rows) == {("pa3", "pa1"), ("pa3", "pa2")}
        rows = clustered_store.lookup(fragment, {"part_1_id": "pa1"})
        assert rows == [("pa3", "pa1")]

    def test_scan(self, clustered_store, tpch):
        fragment = single_edge_fragment(tpch.tss, "Order=>Lineitem")
        assert set(clustered_store.scan(fragment)) == {
            ("o1", "l1"), ("o1", "l2"), ("o2", "l3"),
        }

    def test_row_count(self, clustered_store, tpch):
        fragment = single_edge_fragment(tpch.tss, "Part=>Part")
        assert clustered_store.row_count(fragment) == 2

    def test_lookup_empty_for_unknown_id(self, clustered_store, tpch):
        fragment = single_edge_fragment(tpch.tss, "Part=>Part")
        assert clustered_store.lookup(fragment, {"part_id": "nope"}) == []

    def test_reload_is_idempotent(self, clustered_store, to_graph):
        counts_again = clustered_store.load()
        fragment_counts = set(counts_again.values())
        assert all(count > 0 for count in fragment_counts)

    def test_storage_bytes_positive(self, clustered_store):
        assert clustered_store.storage_bytes() > 0


class TestRowsContaining:
    def test_every_column_probe_is_an_index_search(self, tpch, to_graph):
        fragments = (*minimal_decomposition(tpch.tss).fragments, olpa(tpch))
        db = Database()
        store_metadata(db, to_graph)
        store = RelationStore(
            db, Decomposition("Probe", fragments, IndexPolicy.ALL_ROTATIONS)
        )
        store.create()
        store.load()
        statements: list[str] = []
        db.connection.set_trace_callback(statements.append)
        try:
            rows = {
                fragment.relation_name: store.rows_containing(fragment, ["pa3", "o1"])
                for fragment in fragments
            }
        finally:
            db.connection.set_trace_callback(None)
        assert rows[olpa(tpch).relation_name] == {("o1", "l1", "pa3"), ("o1", "l2", "pa3")}
        assert len(statements) == sum(len(f.columns) for f in fragments)
        for statement in statements:
            plan = [row[3] for row in db.query(f"EXPLAIN QUERY PLAN {statement}")]
            assert plan and all(step.startswith("SEARCH") for step in plan), (
                statement, plan,
            )


class TestHeapPolicies:
    @pytest.mark.parametrize(
        "policy", [IndexPolicy.SINGLE_COLUMN_INDEXES, IndexPolicy.NONE]
    )
    def test_single_table_per_fragment(self, tpch, to_graph, policy):
        db = Database()
        store_metadata(db, to_graph)
        store = RelationStore(db, minimal_decomposition(tpch.tss, policy))
        store.create()
        store.load()
        fragment = single_edge_fragment(tpch.tss, "Part=>Part")
        assert len(store.physical_tables(fragment)) == 1
        assert set(store.lookup(fragment, {"part_id": "pa3"})) == {
            ("pa3", "pa1"), ("pa3", "pa2"),
        }

    def test_policies_use_distinct_tables(self, tpch, to_graph):
        db = Database()
        clustered = RelationStore(db, minimal_decomposition(tpch.tss))
        heap = RelationStore(db, minimal_decomposition(tpch.tss, IndexPolicy.NONE))
        clustered.create()
        heap.create()
        fragment = single_edge_fragment(tpch.tss, "Part=>Part")
        assert clustered.base_table(fragment) != heap.base_table(fragment)

    def test_indexes_created(self, tpch, to_graph):
        db = Database()
        store = RelationStore(
            db, minimal_decomposition(tpch.tss, IndexPolicy.SINGLE_COLUMN_INDEXES)
        )
        store.create()
        indexes = db.query("SELECT name FROM sqlite_master WHERE type = 'index'")
        assert len(indexes) >= 2 * len(store.decomposition.fragments)


class TestMultiFragmentDecomposition:
    def test_wide_fragment_loads(self, tpch, to_graph):
        db = Database()
        store_metadata(db, to_graph)
        decomposition = Decomposition(
            "Test", (olpa(tpch),), IndexPolicy.ALL_ROTATIONS
        )
        store = RelationStore(db, decomposition)
        store.create()
        counts = store.load()
        assert counts[olpa(tpch).relation_name] == 2
        rows = store.lookup(olpa(tpch), {"part_id": "pa3"})
        assert set(rows) == {("o1", "l1", "pa3"), ("o1", "l2", "pa3")}
