"""Tests for SearchResult presentation helpers (pagination, grouping)."""

import pytest

from repro.core import KeywordQuery, XKeyword


@pytest.fixture(scope="module")
def result(small_dblp_db):
    engine = XKeyword(small_dblp_db)
    return engine.search(
        KeywordQuery.of("smith", "balmin", max_size=6), k=None
    )


class TestPagination:
    def test_pages_partition_results(self, result):
        collected = []
        number = 1
        while True:
            page = result.page(number, per_page=3)
            if not page:
                break
            collected.extend(page)
            number += 1
        assert collected == result.mttons

    def test_page_numbering_from_one(self, result):
        with pytest.raises(ValueError):
            result.page(0)

    def test_page_count(self, result):
        assert result.page_count() == -(-len(result.mttons) // 10)

    def test_page_count_honors_per_page(self, result):
        """page_count must agree with page() for any page size (a
        previous revision hardcoded 10 regardless of per_page)."""
        for per_page in (1, 3, 7, 10, 25):
            count = result.page_count(per_page)
            assert count == -(-len(result.mttons) // per_page)
            if result.mttons:
                assert result.page(count, per_page=per_page)
            assert result.page(count + 1, per_page=per_page) == []

    def test_page_count_rejects_bad_size(self, result):
        with pytest.raises(ValueError):
            result.page_count(0)

    def test_first_page_has_best_scores(self, result):
        first = result.page(1, per_page=5)
        rest = result.mttons[5:]
        if first and rest:
            assert first[0].score <= rest[-1].score


class TestGrouping:
    def test_groups_cover_all_results(self, result):
        groups = result.grouped_by_candidate_network()
        assert sum(len(g) for g in groups.values()) == len(result.mttons)

    def test_group_members_share_ctssn(self, result):
        for key, group in result.grouped_by_candidate_network().items():
            assert {m.ctssn.canonical_key for m in group} == {key}
