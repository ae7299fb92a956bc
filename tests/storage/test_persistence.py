"""Tests for persisting and reopening loaded databases."""

import pytest

from repro.core import KeywordQuery, XKeyword
from repro.decomposition import minimal_decomposition
from repro.storage import Database, has_metadata, load_database, reopen_database


@pytest.fixture()
def persisted(tmp_path, figure1_graph, tpch):
    path = str(tmp_path / "figure1.db")
    loaded = load_database(
        figure1_graph, tpch, [minimal_decomposition(tpch.tss)],
        database=Database(path),
    )
    return path, loaded


class TestPersistReopen:
    def test_metadata_flag(self, persisted, tpch):
        path, _ = persisted
        assert has_metadata(Database(path))
        assert not has_metadata(Database())

    def test_target_object_graph_roundtrip(self, persisted, tpch, figure1_graph):
        path, loaded = persisted
        reopened_graph = reopen_database(
            Database(path), tpch, [minimal_decomposition(tpch.tss)]
        ).to_graph
        for node in figure1_graph.nodes():
            assert reopened_graph.to_of(node.node_id) == loaded.to_graph.to_of(node.node_id)
            assert reopened_graph.tss_of(node.node_id) == loaded.to_graph.tss_of(node.node_id)
        assert reopened_graph.tss_counts() == loaded.to_graph.tss_counts()
        assert reopened_graph.edge_counts() == loaded.to_graph.edge_counts()
        for source, target in (("pa3", "pa1"), ("pa3", "pa2")):
            assert reopened_graph.path_of("Part=>Part", source, target) is not None
        assert reopened_graph.edge_counts()["Part=>Part"] == 2

    def test_node_paths_survive(self, persisted, tpch):
        path, loaded = persisted
        reopened_graph = reopen_database(
            Database(path), tpch, [minimal_decomposition(tpch.tss)]
        ).to_graph
        assert reopened_graph.path_of(
            "Lineitem=>Person", "l1", "p1"
        ) == loaded.to_graph.path_of("Lineitem=>Person", "l1", "p1") == ("l1", "su_l1", "p1")

    def test_reopened_database_searches(self, persisted, tpch):
        path, loaded = persisted
        reopened = reopen_database(
            Database(path), tpch, [minimal_decomposition(tpch.tss)]
        )
        assert reopened.graph is None
        query = KeywordQuery.of("john", "vcr", max_size=8)
        original = XKeyword(loaded).search(query, k=None)
        again = XKeyword(reopened).search(query, k=None)
        assert {(m.ctssn.canonical_key, m.assignment) for m in original.mttons} == {
            (m.ctssn.canonical_key, m.assignment) for m in again.mttons
        }

    def test_reopened_blobs_work(self, persisted, tpch):
        path, _ = persisted
        reopened = reopen_database(
            Database(path), tpch, [minimal_decomposition(tpch.tss)]
        )
        tss, xml = reopened.blobs.fetch("pa3")
        assert tss == "Part" and "TV" in xml

    def test_statistics_rebuilt(self, persisted, tpch):
        path, loaded = persisted
        reopened = reopen_database(
            Database(path), tpch, [minimal_decomposition(tpch.tss)]
        )
        assert reopened.statistics.tss_counts == loaded.statistics.tss_counts

    def test_missing_metadata_raises(self, tpch):
        with pytest.raises(LookupError, match="no persisted metadata"):
            reopen_database(Database(), tpch, [minimal_decomposition(tpch.tss)])

    def test_missing_relations_raise(self, persisted, tpch):
        from repro.decomposition import xkeyword_decomposition

        path, _ = persisted
        other = xkeyword_decomposition(tpch.tss, 3, 1)
        with pytest.raises(LookupError, match="not loaded"):
            reopen_database(Database(path), tpch, [other])
