"""Tests for the BANKS-style data-graph baseline."""

import pytest

from repro.baselines import BanksSearcher
from repro.core import KeywordQuery, XKeyword


@pytest.fixture(scope="module")
def searcher(figure1_graph):
    return BanksSearcher(figure1_graph)


class TestKeywordNodes:
    def test_value_tokens_indexed(self, searcher):
        assert searcher.keyword_nodes("vcr") == {"pa1n", "pa2n", "pr1d"}

    def test_case_insensitive(self, searcher):
        assert searcher.keyword_nodes("VCR") == searcher.keyword_nodes("vcr")

    def test_missing_keyword(self, searcher):
        assert searcher.keyword_nodes("zebra") == set()


class TestSearch:
    def test_finds_john_vcr_connection(self, searcher):
        trees = searcher.search(["john", "vcr"], k=5, max_size=8)
        assert trees
        assert trees[0].score <= 8

    def test_missing_keyword_no_results(self, searcher):
        assert searcher.search(["john", "zebra"], k=3) == []

    def test_scores_sorted(self, searcher):
        trees = searcher.search(["us", "vcr"], k=10, max_size=8)
        scores = [t.score for t in trees]
        assert scores == sorted(scores)

    def test_tree_connects_all_keywords(self, searcher, figure1_graph):
        for tree in searcher.search(["john", "vcr"], k=5, max_size=8):
            keywords = {kw for kw, _ in tree.keyword_leaves}
            assert keywords == {"john", "vcr"}
            for _, leaf in tree.keyword_leaves:
                assert leaf in tree.nodes

    def test_max_size_respected(self, searcher):
        for tree in searcher.search(["john", "vcr"], k=10, max_size=6):
            assert tree.score <= 6

    def test_distinct_trees(self, searcher):
        trees = searcher.search(["us", "vcr"], k=10, max_size=8)
        node_sets = [t.nodes for t in trees]
        assert len(node_sets) == len(set(node_sets))


class TestAgreementWithXKeyword:
    def test_minimum_connection_size_agrees(self, figure1_db, figure1_graph):
        """Both systems should find the size-6 John-VCR connection.

        BANKS counts edges on the raw data graph exactly like MTNN
        scores, so the best scores must coincide.
        """
        engine = XKeyword(figure1_db)
        xkeyword_best = engine.search(
            KeywordQuery.of("john", "vcr", max_size=8), k=1
        ).mttons[0].score
        banks_best = BanksSearcher(figure1_graph).search(
            ["john", "vcr"], k=1, max_size=8
        )[0].score
        assert banks_best == xkeyword_best == 6
