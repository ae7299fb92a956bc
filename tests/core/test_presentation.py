"""Tests for presentation graphs (Section 3.2 formal properties)."""

import pytest

from repro.core import KeywordQuery, PresentationGraph, XKeyword


@pytest.fixture(scope="module")
def setup(small_dblp_db, dblp):
    engine = XKeyword(small_dblp_db)
    query = KeywordQuery.of("smith", "balmin", max_size=6)
    containing = engine.containing_lists(query)
    ctssns = engine.candidate_tss_networks(query, containing)
    ctssn = next(c for c in ctssns if c.size == 2)
    result = engine.search(query, k=None)
    rows = [m.row for m in result.mttons if m.ctssn.canonical_key == ctssn.canonical_key]
    assert len(rows) >= 2, "fixture needs a CN with multiple results"
    return ctssn, rows


def fresh_graph(setup):
    ctssn, rows = setup
    graph = PresentationGraph(ctssn)
    graph.add_rows(rows)
    graph.initialize(rows[0])
    return graph, rows


class TestInitialize:
    def test_initial_is_single_mtton(self, setup):
        graph, rows = fresh_graph(setup)
        assert graph.displayed == set(rows[0].items())

    def test_initialize_without_rows_raises(self, setup):
        ctssn, _ = setup
        empty = PresentationGraph(ctssn)
        with pytest.raises(ValueError):
            empty.initialize()

    def test_add_rows_dedupes(self, setup):
        graph, rows = fresh_graph(setup)
        before = len(graph.rows)
        graph.add_rows(rows)
        assert len(graph.rows) == before


class TestExpansion:
    def role(self, setup, label):
        ctssn, _ = setup
        return next(
            r for r, l in enumerate(ctssn.network.labels) if l == label
        )

    def test_property_b_all_nodes_of_type_displayed(self, setup):
        """(b): every type-N node of every MTTON appears after expansion."""
        graph, rows = fresh_graph(setup)
        role = self.role(setup, "Paper")
        graph.expand(role)
        expected = {row[role] for row in rows}
        displayed = {to for (r, to) in graph.displayed if r == role}
        assert displayed == expected

    def test_property_a_superset(self, setup):
        """(a): PG_i is a subgraph of PG_{i+1}."""
        graph, _ = fresh_graph(setup)
        before = set(graph.displayed)
        graph.expand(self.role(setup, "Paper"))
        assert before <= graph.displayed

    def test_property_c_every_node_supported(self, setup):
        """(c): every displayed node lies on a fully displayed MTTON."""
        graph, _ = fresh_graph(setup)
        graph.expand(self.role(setup, "Paper"))
        for node in graph.displayed:
            assert any(
                node in graph.row_nodes(row)
                and graph.row_nodes(row) <= graph.displayed
                for row in graph.rows
            )

    def test_expansion_marks_role(self, setup):
        graph, _ = fresh_graph(setup)
        role = self.role(setup, "Paper")
        graph.expand(role)
        assert role in graph.expanded_roles

    def test_page_size_caps_expansion(self, setup):
        ctssn, rows = setup
        graph = PresentationGraph(ctssn, page_size=1)
        graph.add_rows(rows)
        graph.initialize(rows[0])
        role = self.role(setup, "Paper")
        graph.expand(role)
        displayed = {to for (r, to) in graph.displayed if r == role}
        assert len(displayed) == 1


class TestContraction:
    def role(self, setup, label):
        ctssn, _ = setup
        return next(r for r, l in enumerate(ctssn.network.labels) if l == label)

    def test_contract_keeps_single_node_of_type(self, setup):
        graph, rows = fresh_graph(setup)
        role = self.role(setup, "Paper")
        graph.expand(role)
        keep = rows[0][role]
        graph.contract(role, keep)
        displayed = {to for (r, to) in graph.displayed if r == role}
        assert displayed == {keep}

    def test_contract_preserves_property_c(self, setup):
        graph, rows = fresh_graph(setup)
        role = self.role(setup, "Paper")
        graph.expand(role)
        graph.contract(role, rows[0][role])
        for node in graph.displayed:
            assert any(
                node in graph.row_nodes(row)
                and graph.row_nodes(row) <= graph.displayed
                for row in graph.rows
            )

    def test_expand_contract_roundtrip(self, setup):
        """Expanding then contracting back to the original node restores
        at least the initial MTTON (property (d) maximality)."""
        graph, rows = fresh_graph(setup)
        initial = set(graph.displayed)
        role = self.role(setup, "Paper")
        graph.expand(role)
        graph.contract(role, rows[0][role])
        assert initial <= graph.displayed

    def test_contract_unmarks_role(self, setup):
        graph, rows = fresh_graph(setup)
        role = self.role(setup, "Paper")
        graph.expand(role)
        graph.contract(role, rows[0][role])
        assert role not in graph.expanded_roles

    def test_supported_fixpoint_is_union_of_contained_rows(self, setup):
        graph, rows = fresh_graph(setup)
        all_nodes = set()
        for row in rows:
            all_nodes |= set(row.items())
        supported = graph.supported(all_nodes)
        union = set()
        for row in graph.contained_rows(supported):
            union |= graph.row_nodes(row)
        assert supported == union


class TestDescribe:
    def test_describe_mentions_labels(self, setup):
        graph, _ = fresh_graph(setup)
        text = graph.describe()
        assert "Paper" in text and "Author" in text
