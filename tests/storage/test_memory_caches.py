"""Tests for the store-level scan/hash caches."""

import pytest

from repro.decomposition import minimal_decomposition, single_edge_fragment
from repro.storage import Database, RelationStore, build_target_object_graph


@pytest.fixture()
def store(figure1_graph, tpch):
    db = Database()
    to_graph = build_target_object_graph(figure1_graph, tpch.tss)
    relation_store = RelationStore(db, minimal_decomposition(tpch.tss))
    relation_store.create()
    relation_store.load(to_graph)
    return relation_store


class TestScanCache:
    def test_cached_scan_matches_scan(self, store, tpch):
        fragment = single_edge_fragment(tpch.tss, "Part=>Part")
        assert sorted(store.scan_cached(fragment)) == sorted(store.scan(fragment))

    def test_second_scan_is_same_object(self, store, tpch):
        fragment = single_edge_fragment(tpch.tss, "Part=>Part")
        first = store.scan_cached(fragment)
        assert store.scan_cached(fragment) is first

    def test_hash_index_lookup(self, store, tpch):
        fragment = single_edge_fragment(tpch.tss, "Part=>Part")
        index = store.hash_index(fragment, ("part_id",))
        assert sorted(index[("pa3",)]) == [("pa3", "pa1"), ("pa3", "pa2")]
        assert ("pa1",) not in index

    def test_hash_index_composite_key(self, store, tpch):
        fragment = single_edge_fragment(tpch.tss, "Part=>Part")
        index = store.hash_index(fragment, ("part_id", "part_1_id"))
        assert index[("pa3", "pa1")] == [("pa3", "pa1")]

    def test_drop_memory_caches(self, store, tpch):
        fragment = single_edge_fragment(tpch.tss, "Part=>Part")
        first = store.scan_cached(fragment)
        store.drop_memory_caches()
        assert store.scan_cached(fragment) is not first

    def test_load_invalidates_caches(self, store, tpch, figure1_graph):
        fragment = single_edge_fragment(tpch.tss, "Part=>Part")
        first = store.scan_cached(fragment)
        to_graph = build_target_object_graph(figure1_graph, tpch.tss)
        store.load(to_graph)
        assert store.scan_cached(fragment) is not first

