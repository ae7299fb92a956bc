"""Tests for target-object assignment on the paper's Figure 1/2 graph."""

import pytest

from repro.storage import build_target_object_graph
from repro.xmlgraph import XMLGraph, XMLGraphError


@pytest.fixture(scope="module")
def to_graph(figure1_graph, tpch):
    return build_target_object_graph(figure1_graph, tpch.tss)


def pairs(to_graph, edge_id):
    """``(source_to, target_to)`` of every instance of one TSS edge."""
    return {(source, target) for edge, source, target in to_graph.paths if edge == edge_id}


class TestAssignment:
    def test_target_object_count(self, to_graph):
        # 2 persons, 2 orders, 3 lineitems, 3 parts, 1 product, 1 service call
        assert to_graph.target_object_count == 12

    def test_members_include_attributes(self, to_graph):
        assert set(to_graph.members_of_to["p1"]) == {"p1", "p1n", "p1c"}
        assert set(to_graph.members_of_to["pa3"]) == {"pa3", "pa3k", "pa3n"}

    def test_dummy_nodes_unassigned(self, to_graph):
        assert "su_l1" not in to_graph.to_of_node
        assert "li_l1" not in to_graph.to_of_node
        assert "s1" not in to_graph.to_of_node

    def test_to_of_member_node(self, to_graph):
        assert to_graph.to_of_node["pa1n"] == "pa1"
        assert to_graph.to_of_node["o1d"] == "o1"

    def test_tss_of_to(self, to_graph):
        assert to_graph.tss_of_to["p1"] == "Person"
        assert to_graph.tss_of_to["pr1"] == "Product"

    def test_orphan_member_raises(self, tpch):
        g = XMLGraph()
        g.add_node("stray", "pname", "Bob")  # pname with no person parent
        with pytest.raises(XMLGraphError, match="intra-TSS"):
            build_target_object_graph(g, tpch.tss)


class TestEdgeInstances:
    def test_subpart_edges_match_figure2(self, to_graph):
        assert pairs(to_graph, "Part=>Part") == {("pa3", "pa1"), ("pa3", "pa2")}

    def test_supplier_reference_edges(self, to_graph):
        """John supplies all three lineitems (Figures 1 and 2)."""
        assert pairs(to_graph, "Lineitem=>Person") == {("l1", "p1"), ("l2", "p1"), ("l3", "p1")}

    def test_line_choice_edges(self, to_graph):
        """Both Figure 2 lineitems share the TV part via references."""
        assert pairs(to_graph, "Lineitem=>Part") == {("l1", "pa3"), ("l2", "pa3")}
        assert pairs(to_graph, "Lineitem=>Product") == {("l3", "pr1")}

    def test_service_call_reference(self, to_graph):
        assert pairs(to_graph, "Service_call=>Product") == {("sc1", "pr1")}

    def test_node_paths_recorded(self, to_graph):
        path = to_graph.paths[("Lineitem=>Person", "l1", "p1")]
        assert path == ("l1", "su_l1", "p1")
        path = to_graph.paths[("Part=>Part", "pa3", "pa1")]
        assert path == ("pa3", "s1", "pa1")

    def test_adjacency_queries(self, to_graph):
        part_of = pairs(to_graph, "Part=>Part")
        assert {target for source, target in part_of if source == "pa3"} == {"pa1", "pa2"}
        assert [source for source, target in part_of if target == "pa1"] == ["pa3"]
        assert [target for source, target in part_of if source == "pa1"] == []

    def test_instance_count(self, to_graph, tpch):
        assert to_graph.instance_count == sum(
            len(pairs(to_graph, edge.edge_id)) for edge in tpch.tss.edges()
        )

    def test_target_objects_by_tss(self, to_graph):
        parts = [to for to, tss in to_graph.tss_of_to.items() if tss == "Part"]
        assert sorted(parts) == ["pa1", "pa2", "pa3"]
        assert len(to_graph.tss_of_to) == 12


class TestTables:
    """A load keeps the graph only in its tables; the view answers as the
    builder's result does."""

    def test_lookups_match_the_builder(self, figure1_db, figure1_graph, to_graph):
        tables = figure1_db.to_graph
        for node in figure1_graph.nodes():
            assert tables.to_of(node.node_id) == to_graph.to_of_node.get(node.node_id)
            assert tables.tss_of(node.node_id) == to_graph.tss_of_to.get(node.node_id)
        for to_id, tss in to_graph.tss_of_to.items():
            assert tables.tss_of(to_id) == tss
            assert sorted(tables.members(to_id)) == sorted(to_graph.members(to_id))
        for key, path in to_graph.paths.items():
            assert tables.path_of(*key) == path
        assert tables.path_of("Lineitem=>Person", "l1", "p1") == ("l1", "su_l1", "p1")
        assert tables.path_of("Part=>Part", "pa1", "pa3") is None
        assert tables.tss_of("su_l1") is None

    def test_counts(self, figure1_db, to_graph):
        tables = figure1_db.to_graph
        assert tables.target_object_count == to_graph.target_object_count == 12
        assert tables.instance_count == to_graph.instance_count
        assert tables.tss_counts()["Part"] == 3
        assert tables.edge_counts()["Lineitem=>Person"] == 3
        assert tables.edge_counts()["Part=>Part"] == 2
