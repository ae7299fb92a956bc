"""Fine-grained cache invalidation: version vectors and retention.

The contract under test: a mutation invalidates exactly the cached
queries whose keyword bag or scanned relations the delta touched —
everything else keeps serving hits.
"""

from __future__ import annotations

from repro.service import QueryService, ServiceConfig
from repro.service.cache import QueryCache
from repro.storage import VersionVector

from .conftest import build_dblp


class TestVersionVector:
    def test_fresh_snapshot_is_not_stale(self):
        versions = VersionVector()
        snapshot = versions.snapshot(["smith"], ["rel_a"])
        assert versions.stale_reason(snapshot) is None

    def test_keyword_bump_staleness(self):
        versions = VersionVector()
        snapshot = versions.snapshot(["smith", "chen"], [])
        versions.bump(keywords=["chen"])
        assert versions.stale_reason(snapshot) == "keyword"

    def test_relation_bump_staleness(self):
        versions = VersionVector()
        snapshot = versions.snapshot(["smith"], ["rel_a", "rel_b"])
        versions.bump(relations=["rel_b"])
        assert versions.stale_reason(snapshot) == "relation"

    def test_unrelated_bump_keeps_snapshot_fresh(self):
        versions = VersionVector()
        snapshot = versions.snapshot(["smith"], ["rel_a"])
        versions.bump(keywords=["zhang"], relations=["rel_z"])
        assert versions.stale_reason(snapshot) is None

    def test_keywords_are_case_insensitive(self):
        versions = VersionVector()
        snapshot = versions.snapshot(["Smith"], [])
        versions.bump(keywords=["SMITH"])
        assert versions.stale_reason(snapshot) == "keyword"

    def test_epoch_counts_bumps(self):
        versions = VersionVector()
        assert versions.epoch == 0
        versions.bump(keywords=["a"])
        versions.bump(relations=["r"])
        assert versions.epoch == 2


class TestQueryCacheVersioning:
    def make(self):
        versions = VersionVector()
        cache = QueryCache(capacity=8, ttl=None, versions=versions)
        return versions, cache

    def test_untouched_entry_survives(self):
        versions, cache = self.make()
        cache.put("key", "result", keywords=["smith"], relations=["rel_a"])
        versions.bump(keywords=["zhang"], relations=["rel_z"])
        assert cache.get("key") == "result"

    def test_touched_entry_is_dropped_lazily(self):
        versions, cache = self.make()
        cache.put("key", "result", keywords=["smith"], relations=["rel_a"])
        versions.bump(keywords=["smith"])
        assert cache.get("key") is None
        assert cache.stats().invalidation_reasons == {"keyword": 1}

    def test_invalidate_stale_sweeps_eagerly(self):
        versions, cache = self.make()
        cache.put("kw", "r1", keywords=["smith"], relations=[])
        cache.put("rel", "r2", keywords=["other"], relations=["rel_a"])
        cache.put("safe", "r3", keywords=["other"], relations=["rel_b"])
        versions.bump(keywords=["smith"], relations=["rel_a"])
        dropped = cache.invalidate_stale()
        assert dropped == {"keyword": 1, "relation": 1}
        assert len(cache) == 1
        assert cache.get("safe") == "r3"

    def test_flush_is_counted_without_a_reason(self):
        versions, cache = self.make()
        cache.put("x", "r", keywords=[], relations=[])
        assert cache.invalidate() == 1
        stats = cache.stats()
        assert stats.invalidations == 1
        assert stats.invalidation_reasons == {}


class TestServiceRetention:
    def test_unrelated_queries_keep_their_cache_entries(self):
        """The acceptance bar: cache entries untouched by the delta
        survive the mutation and keep answering as hits."""
        _, _, loaded = build_dblp()
        service = QueryService(loaded, ServiceConfig(workers=2))
        # Two disjoint queries: the insert touches neither's keywords,
        # but one of them scans the paper relations the delta rewrites.
        untouched = service.search(["smith"], k=5)
        assert untouched["cached"] is False

        report = service.insert_document(
            '<author id="ca0"><aname id="ca0n">retention probe</aname></author>'
        )
        assert report["op"] == "insert"

        replay = service.search(["smith"], k=5)
        assert replay["cached"] is True, (
            "an author insert must not evict a query whose keywords and "
            "relations the delta never touched"
        )

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

    def test_hit_rate_retention_across_update_mix(self):
        """Steady query mix + unrelated mutations: the hit rate stays
        high because only delta-touched entries fall out."""
        _, _, loaded = build_dblp()
        service = QueryService(loaded, ServiceConfig(workers=2))
        queries = [["smith"], ["jones", "smith"], ["relational"], ["miller"]]
        for keywords in queries:
            service.search(keywords, k=5)
        for round_number in range(3):
            service.insert_document(
                f'<author id="hr{round_number}">'
                f'<aname id="hr{round_number}n">unrelated name</aname></author>'
            )
            for keywords in queries:
                assert service.search(keywords, k=5)["cached"] is True
        stats = service.cache.stats()
        assert stats.hits >= 12
        assert stats.invalidations == 0
