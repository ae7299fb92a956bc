"""Tests for the load stage orchestrator, BLOBs and statistics."""

import pytest

from repro.decomposition import IndexPolicy, minimal_decomposition, single_edge_fragment
from repro.schema import SchemaError
from repro.storage import Statistics, load_database
from repro.xmlgraph import XMLGraph


class TestLoadStage:
    def test_report_counts(self, figure1_db):
        report = figure1_db.report
        assert report.target_objects == 12
        assert report.index_entries > 0
        assert report.blobs == 12
        assert report.total_relation_rows("MinClust") > 0

    def test_store_lookup_by_name(self, figure1_db):
        assert figure1_db.store("MinClust") is not None
        with pytest.raises(KeyError, match="not loaded"):
            figure1_db.store("Nope")

    def test_add_decomposition_later(self, figure1_graph, tpch):
        loaded = load_database(
            figure1_graph, tpch, [minimal_decomposition(tpch.tss)]
        )
        heap = minimal_decomposition(tpch.tss, IndexPolicy.NONE)
        loaded.add_decomposition(heap)
        assert "MinNClustNIndx" in loaded.stores
        fragment = single_edge_fragment(tpch.tss, "Part=>Part")
        assert loaded.store("MinNClustNIndx").row_count(fragment) == 2

    def test_both_load_paths_report_seconds_and_rows(self, figure1_graph, tpch):
        clustered = minimal_decomposition(tpch.tss)
        heap = minimal_decomposition(tpch.tss, IndexPolicy.NONE)
        upfront = load_database(figure1_graph, tpch, [clustered, heap])
        later = load_database(figure1_graph, tpch, [clustered])
        later.add_decomposition(heap)
        for loaded in (upfront, later):
            for name in ("MinClust", "MinNClustNIndx"):
                assert loaded.report.seconds[f"relations:{name}"] >= 0.0
                assert loaded.report.relation_rows[name] == (
                    upfront.report.relation_rows[name]
                )
                assert loaded.report.total_relation_rows(name) > 0

    def test_validation_rejects_bad_graph(self, tpch):
        g = XMLGraph()
        g.add_node("x", "mystery")
        with pytest.raises(SchemaError):
            load_database(g, tpch, [minimal_decomposition(tpch.tss)])

    def test_validation_can_be_skipped(self, tpch):
        g = XMLGraph()
        g.add_node("x", "mystery")
        loaded = load_database(
            g, tpch, [minimal_decomposition(tpch.tss)], validate=False
        )
        assert loaded.report.target_objects == 0


class TestBlobs:
    def test_fetch_person(self, figure1_db):
        tss, xml = figure1_db.blobs.fetch("p1")
        assert tss == "Person"
        assert "John" in xml
        assert "US" in xml

    def test_blob_excludes_children_outside_to(self, figure1_db):
        tss, xml = figure1_db.blobs.fetch("pa3")
        assert tss == "Part"
        assert "TV" in xml and "1005" in xml
        assert "VCR" not in xml  # subparts are separate target objects
        assert "sub" not in xml

    def test_unknown_to_raises(self, figure1_db):
        with pytest.raises(KeyError):
            figure1_db.blobs.fetch("ghost")


class TestStatistics:
    def test_tss_counts(self, figure1_db):
        stats = figure1_db.statistics
        assert stats.count("Person") == 2
        assert stats.count("Part") == 3
        assert stats.count("Year") == 0

    def test_fanout(self, figure1_db):
        stats = figure1_db.statistics
        # 2 subpart edges / 3 parts
        assert stats.fanout("Part=>Part") == pytest.approx(2 / 3)
        # 3 lineitems / 2 orders
        assert stats.fanout("Order=>Lineitem") == pytest.approx(1.5)

    def test_fanin(self, figure1_db):
        stats = figure1_db.statistics
        # 3 supplier references / 2 persons
        assert stats.fanin("Lineitem=>Person") == pytest.approx(1.5)

    def test_from_target_object_graph(self, figure1_db):
        rebuilt = Statistics.from_target_object_graph(figure1_db.to_graph)
        assert rebuilt.tss_counts == figure1_db.statistics.tss_counts

    def test_unknown_edge_zero(self, figure1_db):
        assert figure1_db.statistics.fanout("Nope=>Nope") == 0.0
