"""Tests for MTTON/MTNN materialization and scoring."""

import pytest

from repro.core import KeywordQuery, XKeyword, node_network


@pytest.fixture(scope="module")
def searched(figure1_db):
    engine = XKeyword(figure1_db)
    query = KeywordQuery.of("john", "vcr", max_size=8)
    containing = engine.containing_lists(query)
    result = engine.search(query, k=None)
    return figure1_db, result, containing


def graph_parents(graph):
    return {
        node.node_id: graph.containment_parent(node.node_id).node_id
        for node in graph.nodes()
        if graph.containment_parent(node.node_id) is not None
    }


class TestMTTON:
    def test_edges_carry_semantic_labels(self, searched):
        _, result, _ = searched
        best = result.mttons[0]
        labels = {e.forward_label for e in best.edges}
        assert labels & {"line", "supplied by", "sub"}

    def test_node_paths_include_dummies(self, searched):
        db, result, _ = searched
        best = result.mttons[0]
        supplier_edges = [e for e in best.edges if e.edge_id == "Lineitem=>Person"]
        assert supplier_edges
        edge = supplier_edges[0]
        path = db.to_graph.path_of(edge.edge_id, edge.source_to, edge.target_to)
        assert any("su_" in node for node in path)

    def test_role_of_and_contains(self, searched):
        _, result, _ = searched
        best = result.mttons[0]
        for role, to in best.assignment:
            assert best.role_of(to) == role
            assert best.contains(role, to)
        with pytest.raises(KeyError):
            best.role_of("ghost")

    def test_describe_lists_target_objects(self, searched):
        _, result, _ = searched
        text = result.mttons[0].describe()
        assert "MTTON(score=6)" in text
        assert "p1" in text


class TestMTNNScore:
    def test_mtnn_score_equals_cn_size(self, searched):
        """The central scoring invariant: the materialized node network
        has exactly as many edges as the candidate network that produced
        it (Section 3.1 scores are CN sizes)."""
        db, result, containing = searched
        parents = graph_parents(db.graph)
        for mtton in result.mttons:
            mtnn = node_network(mtton, db.to_graph, containing, parents)
            assert mtnn.score == mtton.score, mtton.describe()

    def test_mtnn_contains_keyword_witnesses(self, searched):
        db, result, containing = searched
        parents = graph_parents(db.graph)
        best = result.mttons[0]
        mtnn = node_network(best, db.to_graph, containing, parents)
        assert "p1n" in mtnn.nodes  # John's name node
        assert "pr1d" in mtnn.nodes  # the VCR description node

    def test_mtnn_is_connected_tree(self, searched):
        db, result, containing = searched
        parents = graph_parents(db.graph)
        for mtton in result.mttons[:5]:
            mtnn = node_network(mtton, db.to_graph, containing, parents)
            # A tree has exactly nodes - 1 edges.
            assert len(mtnn.edges) == len(mtnn.nodes) - 1
