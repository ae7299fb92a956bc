"""Tests for on-demand expansion (Section 6 / Figure 13)."""

import pytest

from repro.core import (
    KeywordQuery,
    OnDemandNavigator,
    XKeyword,
)


@pytest.fixture(scope="module")
def engine(small_dblp_db):
    return XKeyword(small_dblp_db)


@pytest.fixture(scope="module")
def parts(engine):
    query = KeywordQuery.of("smith", "balmin", max_size=6)
    containing = engine.containing_lists(query)
    ctssns = engine.candidate_tss_networks(query, containing)
    ctssn = next(c for c in ctssns if c.size == 2)
    return engine, containing, ctssn


def navigator(parts, **kwargs):
    engine, containing, ctssn = parts
    return OnDemandNavigator(
        ctssn, engine.optimizer, engine.stores, containing, **kwargs
    )


class TestInitialize:
    def test_initial_graph_is_one_mtton(self, parts):
        nav = navigator(parts)
        graph = nav.initialize()
        _, _, ctssn = parts
        assert len(graph.displayed) == ctssn.network.role_count

    def test_initial_uses_few_queries(self, parts):
        nav = navigator(parts)
        nav.initialize()
        assert 0 < nav.metrics.queries_sent < 50

    def test_no_results_raises(self, engine):
        query = KeywordQuery.of("smith", "ullman", max_size=4)
        containing = engine.containing_lists(query)
        ctssns = engine.candidate_tss_networks(query, containing)
        empty = None
        for ctssn in ctssns:
            nav = OnDemandNavigator(ctssn, engine.optimizer, engine.stores, containing)
            try:
                nav.initialize()
            except LookupError:
                empty = ctssn
                break
        # At least one CN typically has no instances on the small graph;
        # if all have results this data set cannot exercise the branch.
        if empty is None:
            pytest.skip("all candidate networks non-empty on this data set")


class TestExpand:
    def paper_role(self, parts):
        _, _, ctssn = parts
        return next(r for r, l in enumerate(ctssn.network.labels) if l == "Paper")

    def test_expand_adds_nodes(self, parts):
        nav = navigator(parts)
        nav.initialize()
        added = nav.expand(self.paper_role(parts))
        assert added
        assert all(isinstance(role, int) and to for role, to in added)

    def test_expand_matches_precomputed_rows(self, parts):
        """On-demand expansion must discover the same papers as the
        full precomputed result set."""
        engine, containing, ctssn = parts
        nav = navigator(parts, page_size=None)
        nav.initialize()
        role = self.paper_role(parts)
        nav.expand(role)
        on_demand = {to for (r, to) in nav.graph.displayed if r == role}

        result = engine.search(
            KeywordQuery.of("smith", "balmin", max_size=6), k=None
        )
        expected = {
            m.row[role]
            for m in result.mttons
            if m.ctssn.canonical_key == ctssn.canonical_key
        }
        assert on_demand == expected

    def test_expansion_prefers_displayed_support(self, parts):
        """Support nodes reuse the displayed graph where possible: the
        expansion of Paper keeps the two keyword authors displayed."""
        nav = navigator(parts)
        graph = nav.initialize()
        before_authors = {
            (r, to)
            for (r, to) in graph.displayed
            if nav.ctssn.network.labels[r] == "Author"
        }
        nav.expand(self.paper_role(parts))
        assert before_authors <= graph.displayed

    def test_contract_needs_no_queries(self, parts):
        nav = navigator(parts)
        nav.initialize()
        role = self.paper_role(parts)
        nav.expand(role)
        queries_before = nav.metrics.queries_sent
        keep = sorted(to for (r, to) in nav.graph.displayed if r == role)[0]
        nav.contract(role, keep)
        assert nav.metrics.queries_sent == queries_before

    def test_page_size_limits_work(self, parts):
        nav = navigator(parts, page_size=1)
        nav.initialize()
        role = self.paper_role(parts)
        nav.expand(role)
        displayed = {to for (r, to) in nav.graph.displayed if r == role}
        assert len(displayed) <= 1 + 1  # initial node + at most page_size


class TestDecompositionChoice:
    def test_combined_store_uses_fewer_rows_than_inlined(
        self, small_dblp_graph, dblp
    ):
        """The Figure 16(b) effect: with only wide inlined fragments the
        adjacency probes fetch wider relations than with minimal ones."""
        from repro.decomposition import (
            minimal_decomposition,
            xkeyword_decomposition,
        )
        from repro.storage import load_database

        query = KeywordQuery.of("smith", "balmin", max_size=6)
        xk = xkeyword_decomposition(dblp.tss, 4, 1)
        loaded = load_database(
            small_dblp_graph, dblp, [xk, minimal_decomposition(dblp.tss)]
        )
        engine_combined = XKeyword(loaded)
        containing = engine_combined.containing_lists(query)
        ctssn = next(
            c
            for c in engine_combined.candidate_tss_networks(query, containing)
            if c.size == 2
        )
        nav = OnDemandNavigator(
            ctssn, engine_combined.optimizer, engine_combined.stores, containing
        )
        nav.initialize()
        role = next(r for r, l in enumerate(ctssn.network.labels) if l == "Paper")
        nav.expand(role)
        # The probe relation for an adjacent check must be the minimal
        # single-edge fragment when it is available.
        fragment, _, _, _ = nav._probe_relation("Paper=>Author", True)
        assert fragment.size == 1
