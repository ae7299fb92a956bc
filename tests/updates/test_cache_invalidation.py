"""Cache validity is one number: the mutation epoch.

The contract under test: a cached answer is served only under the epoch
it was computed at, so any write makes every entry unservable, and an
answer computed before a write is never served after it.  What else a
search remembers across queries — the optimizer's relation row counts —
follows the same epoch.
"""

from __future__ import annotations

from repro.service import QueryService, ServiceConfig
from repro.service.cache import QueryCache

from .conftest import build_dblp


def paper_xml(doc: str, authors: list[str], title: str) -> str:
    return (
        f'<paper id="{doc}" ref="{" ".join(authors)}">'
        f'<title id="{doc}t">{title}</title>'
        f'<pages id="{doc}g">1-2</pages></paper>'
    )


class TestEpochValidity:
    def make(self) -> QueryCache:
        return QueryCache(capacity=8, ttl=None)

    def test_hit_at_the_same_epoch(self):
        cache = self.make()
        cache.put("key", "result", epoch=3)
        assert cache.get("key", 3) == "result"
        assert cache.stats().hits == 1

    def test_miss_after_any_write(self):
        cache = self.make()
        cache.put("key", "result", epoch=3)
        assert cache.get("key", 4) is None
        stats = cache.stats()
        assert (stats.misses, stats.invalidations, stats.entries) == (1, 1, 0)

    def test_an_older_put_is_never_served(self):
        """A search computed before a write whose ``put`` lands after it."""
        cache = self.make()
        cache.put("key", "computed before the write", epoch=3)
        assert cache.get("key", 4) is None
        cache.put("key", "after the write", epoch=4)
        cache.put("key", "before the write", epoch=3)  # a slow flight lands last
        assert cache.get("key", 4) is None


class TestQueryCacheVersioning:
    def test_touched_entry_is_dropped_lazily(self):
        cache = QueryCache(capacity=8, ttl=None)
        cache.put("key", "result", epoch=0)
        assert len(cache) == 1
        assert cache.get("key", 1) is None
        assert len(cache) == 0
        assert cache.stats().invalidations == 1

    def test_flush_is_counted_without_a_reason(self):
        cache = QueryCache(capacity=8, ttl=None)
        cache.put("x", "r")
        assert cache.clear() == 1
        assert cache.stats().invalidations == 1


class TestServiceRetention:
    def test_touched_query_is_refreshed(self):
        _, _, loaded = build_dblp()
        service = QueryService(loaded, ServiceConfig(workers=2))
        before = service.search(["probe"], k=5)
        assert before["count"] == 0

        service.insert_document(
            '<author id="ca1"><aname id="ca1n">probe subject</aname></author>'
        )
        after = service.search(["probe"], k=5)
        assert after["cached"] is False
        assert after["count"] == 1


class TestServiceEpoch:
    def test_any_write_drops_every_entry(self):
        """A lone author naming no cached keyword still moves the epoch:
        the reply counts every entry dropped, ``/metrics`` renders the
        same count, and each query is computed again."""
        _, _, loaded = build_dblp()
        service = QueryService(loaded, ServiceConfig(workers=2))
        try:
            queries = [["smith"], ["balmin", "smith"]]
            for keywords in queries:
                service.search(keywords, k=5)
            assert service.search(queries[0], k=5)["cached"] is True
            report = service.insert_document(
                '<author id="ca0"><aname id="ca0n">unrelated name</aname></author>'
            )
            assert report["cache_entries_dropped"] == 2
            assert "cache_invalidation_reasons" not in report
            for keywords in queries:
                replay = service.search(keywords, k=5)
                assert (replay["cached"], replay["stale"]) == (False, False)
            assert "repro_cache_invalidations_total 2\n" in service.metrics_text()
        finally:
            service.close()

    def test_memoised_row_counts_follow_writes(self):
        """The optimizer memoizes relation row counts; after paper inserts
        through the service, every count it holds is the store's."""
        _, _, loaded = build_dblp()
        service = QueryService(loaded, ServiceConfig(workers=2))
        try:
            service.search(["smith", "balmin"], k=10, max_size=6)
            for n in range(5):
                service.insert_document(
                    paper_xml(f"rc{n}", ["a0", "a1"], "graphs"), parent_id="c0y1"
                )
            service.search(["smith", "balmin"], k=10, max_size=6)
            optimizer = service.engine.optimizer
            fragments = {
                fragment.relation_name: (store, fragment)
                for store in optimizer.stores.values()
                for fragment in store.decomposition.fragments
            }
            assert optimizer._row_counts
            stored = {
                name: fragments[name][0].row_count(fragments[name][1])
                for name in optimizer._row_counts
            }
            assert optimizer._row_counts == stored
        finally:
            service.close()
