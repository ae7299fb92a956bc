"""Tests for the streaming result interface."""

import itertools

import pytest

from repro.core import KeywordQuery, XKeyword


@pytest.fixture(scope="module")
def engine(small_dblp_db):
    return XKeyword(small_dblp_db)


class TestStream:
    def test_stream_matches_search_all(self, engine):
        query = KeywordQuery.of("smith", "balmin", max_size=6)
        streamed = {
            (m.ctssn.canonical_key, m.assignment) for m in engine.stream(query)
        }
        collected = {
            (m.ctssn.canonical_key, m.assignment)
            for m in engine.search(query, k=None).mttons
        }
        assert streamed == collected

    def test_stream_is_lazy(self, engine):
        query = KeywordQuery.of("smith", "balmin", max_size=6)
        first_three = list(itertools.islice(engine.stream(query), 3))
        assert len(first_three) == 3

    def test_stream_block_ranking(self, engine):
        """Scores are non-decreasing block-wise: a later CN never has a
        smaller score than an earlier one."""
        query = KeywordQuery.of("smith", "balmin", max_size=6)
        scores = [m.score for m in engine.stream(query)]
        assert scores == sorted(scores)

    def test_stream_missing_keyword_empty(self, engine):
        assert list(engine.stream(KeywordQuery.of("zzzabsent", "smith"))) == []

    def test_stream_string_query(self, engine):
        assert list(itertools.islice(engine.stream("smith"), 1))
