"""The service meters each search once, and replies only after the cache.

The flight runner meters the :class:`~repro.core.SearchResult` it holds
and completes the flight's stream last, after ``cache.put``: a reply
never reaches its client before a repeat of it can hit, and ``/metrics``
states the same counts as the replies' ``engine_metrics``.  The tests
run under the ambient ``$REPRO_BACKEND``, so both tier-1 cells (``sql``
and the ``python`` oracle, whose partial-result cache hits) check it.
"""

from __future__ import annotations

import time

import pytest

from repro.service import QueryService, ServiceConfig


@pytest.fixture
def service(small_dblp_db):
    service = QueryService(small_dblp_db, ServiceConfig(workers=2, queue_size=8))
    try:
        yield service
    finally:
        service.close()


@pytest.fixture
def slow_put(service, monkeypatch):
    """Hold every ``cache.put`` for 50 ms, the window a reply that wakes
    before the cache holds its answer would fall into."""
    put = service.cache.put

    def delayed(*args, **kwargs):
        time.sleep(0.05)
        put(*args, **kwargs)

    monkeypatch.setattr(service.cache, "put", delayed)
    return service


def scrape(service: QueryService) -> dict[str, float]:
    """``{"name{labels}": value}`` for every sample of one ``/metrics``."""
    samples = {}
    for line in service.metrics_text().splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            samples[series] = float(value)
    return samples


class TestReplyAfterCache:
    def test_buffered_repeat_hits(self, slow_put):
        service = slow_put
        first = service.search(["smith", "balmin"], k=5, max_size=6)
        assert first["cached"] is False
        assert scrape(service)["repro_engine_searches_total"] == 1
        repeat = service.search(["smith", "balmin"], k=5, max_size=6)
        assert repeat["cached"] is True
        assert repeat["results"] == first["results"]

    def test_streamed_then_buffered_repeat_hits(self, slow_put):
        service = slow_put
        events = list(service.search_stream(["smith", "balmin"], k=5, max_size=6).events())
        assert events[-1][0] == "done"
        assert events[-1][1]["cached"] is False
        repeat = service.search(["smith", "balmin"], k=5, max_size=6)
        assert repeat["cached"] is True
        assert repeat["count"] == len(events) - 1


class TestMetricsStateTheReplies:
    def test_engine_and_cache_counters_equal_the_replies(self, service):
        requests = [
            (["smith", "balmin"], 5),
            (["hristidis", "smith"], 3),
            (["balmin", "papakonstantinou"], 10),
            (["smith", "balmin"], 5),  # a hit
            (["papakonstantinou", "balmin"], 10),  # a hit: keyword order
        ]
        replies = [service.search(keywords, k=k, max_size=6) for keywords, k in requests]
        computed = [reply for reply in replies if not reply["cached"]]
        assert len(computed) == 3
        samples = scrape(service)

        def lookups(cached: str) -> float:
            return samples[f'repro_engine_lookups_total{{cached="{cached}"}}']

        assert lookups("false") == sum(
            reply["engine_metrics"]["queries_sent"] for reply in computed
        )
        assert lookups("true") == sum(
            reply["engine_metrics"]["cache_hits"] for reply in computed
        )
        assert samples["repro_engine_results_total"] == sum(
            reply["count"] for reply in computed
        )
        assert samples["repro_engine_searches_total"] == len(computed)
        assert samples["repro_engine_search_seconds_count"] == len(computed)
        stats = service.cache.stats()
        assert samples["repro_query_cache_hits_total"] == stats.hits == 2
        assert samples["repro_query_cache_misses_total"] == stats.misses == 3
        assert samples["repro_query_cache_expirations_total"] == stats.expirations
        assert samples["repro_query_cache_evictions_total"] == stats.evictions

    def test_expiration_and_eviction_counters_equal_the_cache(
        self, small_dblp_db, monkeypatch
    ):
        service = QueryService(
            small_dblp_db,
            ServiceConfig(workers=1, queue_size=4, cache_capacity=1, cache_ttl=10.0),
        )
        now = [0.0]
        monkeypatch.setattr(service.cache, "_clock", lambda: now[0])
        try:
            service.search(["smith", "balmin"], k=5, max_size=6)
            service.search(["hristidis", "smith"], k=3, max_size=6)  # evicts the first
            now[0] = 20.0
            replay = service.search(["hristidis", "smith"], k=3, max_size=6)
            assert replay["cached"] is False  # expired
            samples = scrape(service)
            stats = service.cache.stats()
            assert samples["repro_query_cache_expirations_total"] == stats.expirations == 1
            assert samples["repro_query_cache_evictions_total"] == stats.evictions == 1
        finally:
            service.close()
