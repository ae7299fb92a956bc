"""Tests for the cross-query result cache (LRU + TTL + invalidation)."""

import threading

import pytest

from repro.core import ExecutionMetrics, KeywordQuery, SearchResult
from repro.service import QueryCache, query_cache_key


def make_result(*keywords: str) -> SearchResult:
    return SearchResult(KeywordQuery(tuple(keywords)), [], ExecutionMetrics())


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestKeying:
    def test_keyword_order_is_irrelevant(self):
        first = query_cache_key(KeywordQuery.of("smith", "chen"), 10)
        second = query_cache_key(KeywordQuery.of("chen", "smith"), 10)
        assert first == second

    def test_distinct_dimensions_distinct_keys(self):
        query = KeywordQuery.of("smith", "chen")
        base = query_cache_key(query, 10)
        assert query_cache_key(query, 20) != base
        assert query_cache_key(query, None) != base
        bigger = KeywordQuery.of("smith", "chen", max_size=4)
        assert query_cache_key(bigger, 10) != base


class TestHitMiss:
    def test_round_trip(self):
        cache = QueryCache()
        key = query_cache_key(KeywordQuery.of("a"), 10)
        assert cache.get(key) is None
        result = make_result("a")
        cache.put(key, result)
        assert cache.get(key) is result
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_lru_eviction(self):
        cache = QueryCache(capacity=2, ttl=None)
        keys = [query_cache_key(KeywordQuery.of(k), 10) for k in "abc"]
        for key, keyword in zip(keys, "abc"):
            cache.put(key, make_result(keyword))
        assert cache.get(keys[0]) is None  # oldest evicted
        assert cache.get(keys[2]) is not None
        assert cache.stats().evictions == 1

    def test_get_refreshes_recency(self):
        cache = QueryCache(capacity=2, ttl=None)
        keys = [query_cache_key(KeywordQuery.of(k), 10) for k in "abc"]
        cache.put(keys[0], make_result("a"))
        cache.put(keys[1], make_result("b"))
        cache.get(keys[0])  # touch: 'b' becomes LRU
        cache.put(keys[2], make_result("c"))
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[1]) is None


class TestTTL:
    def test_entries_expire(self):
        clock = FakeClock()
        cache = QueryCache(ttl=10.0, clock=clock)
        key = query_cache_key(KeywordQuery.of("a"), 10)
        cache.put(key, make_result("a"))
        clock.advance(9.9)
        assert cache.get(key) is not None
        clock.advance(0.2)
        assert cache.get(key) is None
        assert cache.stats().expirations == 1
        assert len(cache) == 0

    def test_ttl_none_never_expires(self):
        clock = FakeClock()
        cache = QueryCache(ttl=None, clock=clock)
        key = query_cache_key(KeywordQuery.of("a"), 10)
        cache.put(key, make_result("a"))
        clock.advance(1e9)
        assert cache.get(key) is not None

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            QueryCache(capacity=0)
        with pytest.raises(ValueError):
            QueryCache(ttl=0)


class TestInvalidation:
    def test_invalidate_everything(self):
        cache = QueryCache()
        for keyword in "abc":
            cache.put(
                query_cache_key(KeywordQuery.of(keyword), 10),
                make_result(keyword),
            )
        assert cache.clear() == 3
        assert len(cache) == 0
        assert cache.stats().invalidations == 3


@pytest.mark.stress
class TestThreadSafety:
    def test_concurrent_mixed_operations(self):
        cache = QueryCache(capacity=32, ttl=None)
        errors: list[BaseException] = []

        def hammer(worker: int) -> None:
            try:
                for i in range(300):
                    key = query_cache_key(
                        KeywordQuery.of(f"k{worker}", f"i{i % 40}"), 10
                    )
                    cache.put(key, make_result(f"k{worker}", f"i{i % 40}"))
                    cache.get(key)
                    if i % 50 == 0:
                        cache.clear()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 32
