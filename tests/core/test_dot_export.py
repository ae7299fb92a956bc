"""Tests for DOT rendering and displayed-edge derivation."""

import pytest

from repro.core import KeywordQuery, PresentationGraph, XKeyword


@pytest.fixture(scope="module")
def graph_and_rows(small_dblp_db):
    engine = XKeyword(small_dblp_db)
    query = KeywordQuery.of("smith", "balmin", max_size=6)
    containing = engine.containing_lists(query)
    ctssn = next(
        c for c in engine.candidate_tss_networks(query, containing) if c.size == 2
    )
    result = engine.search(query, k=None)
    rows = [
        m.row for m in result.mttons if m.ctssn.canonical_key == ctssn.canonical_key
    ]
    pg = PresentationGraph(ctssn)
    pg.add_rows(rows)
    pg.initialize(rows[0])
    return small_dblp_db, pg, rows


class TestDisplayedEdges:
    def test_initial_edges_match_ctssn(self, graph_and_rows):
        _, pg, rows = graph_and_rows
        assert len(pg.displayed_edges()) == pg.ctssn.network.size

    def test_edges_grow_with_expansion(self, graph_and_rows):
        _, pg, rows = graph_and_rows
        before = len(pg.displayed_edges())
        paper_role = next(
            r for r, l in enumerate(pg.ctssn.network.labels) if l == "Paper"
        )
        pg.expand(paper_role)
        assert len(pg.displayed_edges()) >= before
        pg.contract(paper_role, rows[0][paper_role])

    def test_edges_only_between_displayed(self, graph_and_rows):
        _, pg, _ = graph_and_rows
        for source, target, _edge in pg.displayed_edges():
            assert source in pg.displayed and target in pg.displayed


class TestDot:
    def test_presentation_dot_structure(self, graph_and_rows):
        db, pg, _ = graph_and_rows
        dot = pg.to_dot(db.catalog.tss)
        assert dot.startswith("digraph presentation {")
        assert dot.endswith("}")
        assert "by author" in dot  # the semantic annotation
        assert dot.count("->") == len(pg.displayed_edges())

    def test_presentation_dot_without_tss(self, graph_and_rows):
        _, pg, _ = graph_and_rows
        dot = pg.to_dot()
        assert "Paper=>Author" in dot

    def test_expanded_nodes_marked(self, graph_and_rows):
        _, pg, rows = graph_and_rows
        paper_role = next(
            r for r, l in enumerate(pg.ctssn.network.labels) if l == "Paper"
        )
        pg.expand(paper_role)
        assert "doubleoctagon" in pg.to_dot()
        pg.contract(paper_role, rows[0][paper_role])

    def test_mtton_dot(self, small_dblp_db):
        engine = XKeyword(small_dblp_db)
        result = engine.search(
            KeywordQuery.of("smith", "balmin", max_size=6), k=1
        )
        dot = result.mttons[0].to_dot()
        assert dot.startswith("digraph mtton {")
        assert "by author" in dot
        assert "[smith]" in dot or "[balmin]" in dot
