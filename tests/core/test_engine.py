"""End-to-end tests of the XKeyword engine (Figure 7 pipeline)."""

import pytest

from repro.core import BACKENDS, ExecutorConfig, KeywordQuery, XKeyword
from repro.decomposition import IndexPolicy, minimal_decomposition, xkeyword_decomposition
from repro.storage import load_database


@pytest.fixture(scope="module")
def tpch_engine(figure1_db):
    return XKeyword(figure1_db)


@pytest.fixture(scope="module")
def dblp_engine(small_dblp_db):
    return XKeyword(small_dblp_db)


class TestPaperJohnVCR:
    """Section 1's running example: the query {john, vcr}."""

    def test_best_result_is_the_product_route(self, tpch_engine):
        result = tpch_engine.search(
            KeywordQuery.of("john", "vcr", max_size=8), k=10
        )
        assert result.mttons
        best = result.mttons[0]
        # "[John] person <- supplier <- lineitem -> line -> product
        #  descr[set of VCR and DVD]" has size 6 and wins.
        assert best.score == 6
        assert set(best.target_objects()) == {"p1", "l3", "pr1"}

    def test_second_route_via_subpart_scores_8(self, tpch_engine):
        result = tpch_engine.search(
            KeywordQuery.of("john", "vcr", max_size=8), k=20
        )
        scores = result.scores()
        assert 8 in scores
        eights = [m for m in result.mttons if m.score == 8]
        assert any(
            {"pa1", "pa2"} & set(m.target_objects()) for m in eights
        )

    def test_ranking_is_by_score(self, tpch_engine):
        result = tpch_engine.search(
            KeywordQuery.of("john", "vcr", max_size=8), k=20
        )
        assert result.scores() == sorted(result.scores())


class TestSearchModes:
    def test_missing_keyword_gives_empty(self, tpch_engine):
        result = tpch_engine.search(KeywordQuery.of("zebra", "vcr"), k=5)
        assert result.mttons == []

    def test_string_query_coerced(self, tpch_engine):
        result = tpch_engine.search("john vcr", k=3)
        assert result.mttons

    def test_k_respected(self, tpch_engine):
        result = tpch_engine.search(
            KeywordQuery.of("us", "vcr", max_size=8), k=2
        )
        assert len(result.mttons) == 2

    def test_search_all_superset_of_topk(self, tpch_engine):
        query = KeywordQuery.of("us", "vcr", max_size=8)
        top = tpch_engine.search(query, k=3)
        everything = tpch_engine.search(query, k=None)
        assert len(everything.mttons) >= len(top.mttons)
        top_keys = {m.assignment for m in top.mttons}
        all_keys = {m.assignment for m in everything.mttons}
        assert top_keys <= all_keys

    def test_results_unique(self, dblp_engine):
        result = dblp_engine.search(
            KeywordQuery.of("smith", "balmin", max_size=6), k=None
        )
        keys = [(m.ctssn.canonical_key, m.assignment) for m in result.mttons]
        assert len(keys) == len(set(keys))

    def test_metrics_populated(self, dblp_engine):
        result = dblp_engine.search(
            KeywordQuery.of("smith", "balmin", max_size=5), k=None
        )
        assert result.metrics.queries_sent > 0


class TestDecompositionAgreement:
    """Different decompositions must return identical result sets."""

    def test_minclust_vs_xkeyword(self, small_dblp_graph, dblp):
        query = KeywordQuery.of("smith", "balmin", max_size=6)
        loaded_min = load_database(
            small_dblp_graph, dblp, [minimal_decomposition(dblp.tss)]
        )
        xk = xkeyword_decomposition(dblp.tss, 4, 1)
        loaded_xk = load_database(small_dblp_graph, dblp, [xk])
        results_min = XKeyword(loaded_min).search(query, k=None)
        results_xk = XKeyword(loaded_xk).search(query, k=None)
        assert {(m.ctssn.canonical_key, m.assignment) for m in results_min.mttons} == {
            (m.ctssn.canonical_key, m.assignment) for m in results_xk.mttons
        }

    def test_heap_policy_agrees(self, small_dblp_graph, dblp):
        query = KeywordQuery.of("smith", "balmin", max_size=5)
        loaded = load_database(
            small_dblp_graph,
            dblp,
            [minimal_decomposition(dblp.tss, IndexPolicy.NONE)],
        )
        reference = XKeyword(
            load_database(small_dblp_graph, dblp, [minimal_decomposition(dblp.tss)])
        )
        expected = {
            (m.ctssn.canonical_key, m.assignment)
            for m in reference.search(query, k=None).mttons
        }
        for backend in BACKENDS:
            engine = XKeyword(loaded, executor_config=ExecutorConfig(backend=backend))
            found = engine.search(query, k=None)
            assert {
                (m.ctssn.canonical_key, m.assignment) for m in found.mttons
            } == expected, backend
