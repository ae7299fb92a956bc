"""Thread-safety stress tests for the engine and storage layers."""

import threading

import pytest

from repro.core import KeywordQuery, ResultCache, XKeyword

pytestmark = pytest.mark.stress


def ranked(result):
    return [(m.ctssn.canonical_key, m.assignment, m.score) for m in result.mttons]


class TestConcurrentSearches:
    def test_parallel_topk_consistent(self, small_dblp_db):
        """The thread-pool top-k must produce valid, deduplicated
        results under repeated runs."""
        engine = XKeyword(small_dblp_db, threads=4)
        query = KeywordQuery.of("smith", "balmin", max_size=6)
        baseline = {
            (m.ctssn.canonical_key, m.assignment)
            for m in engine.search_all(query, parallel=False).mttons
        }
        for _ in range(5):
            parallel = engine.search_all(query, parallel=True)
            got = {
                (m.ctssn.canonical_key, m.assignment) for m in parallel.mttons
            }
            assert got == baseline

    def test_concurrent_engines_share_database(self, small_dblp_db):
        """Many threads querying one LoadedDatabase simultaneously."""
        engine = XKeyword(small_dblp_db)
        query = KeywordQuery.of("smith", "balmin", max_size=5)
        expected = {
            m.assignment for m in engine.search_all(query, parallel=False).mttons
        }
        failures: list[str] = []

        def worker() -> None:
            local = XKeyword(small_dblp_db)
            got = {
                m.assignment
                for m in local.search_all(query, parallel=False).mttons
            }
            if got != expected:
                failures.append(f"{len(got)} != {len(expected)}")

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures

    def test_topk_cutoff_under_parallelism(self, small_dblp_db):
        engine = XKeyword(small_dblp_db, threads=4)
        query = KeywordQuery.of("smith", "balmin", max_size=6)
        for k in (1, 3, 7):
            result = engine.search(query, k=k, parallel=True)
            assert len(result.mttons) <= k
            # Results are always presented in ranking order, whatever
            # order the threads produced them in.
            assert result.scores() == sorted(result.scores())
            # ... and are the rank-order loop's, member for member, also
            # when the cut falls inside a band of tied scores (k=1).
            loop = engine.search(query, k=k, parallel=False)
            assert ranked(result) == ranked(loop)


class TestResultCacheThreadSafety:
    def test_concurrent_get_put_eviction(self):
        """The partial-result cache is shared by the per-CN thread pool
        (and by concurrent service requests): hammering it from many
        threads must neither raise nor overflow the capacity bound."""
        cache = ResultCache(capacity=64)
        errors: list[BaseException] = []

        def hammer(worker: int) -> None:
            try:
                for i in range(2000):
                    key = ("cn", worker % 3, i % 100)
                    hit = cache.get(key)
                    if hit is not None:
                        assert isinstance(hit, list)
                    cache.put(key, [{worker: f"to{i}"}])
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        assert len(cache) <= 64

    def test_shared_lookup_cache_across_parallel_searches(self, small_dblp_db):
        """Concurrent engine searches sharing one database (the service
        pattern) agree with the serial baseline while the thread pools
        share and mutate their caches."""
        engine = XKeyword(small_dblp_db, threads=4)
        query = KeywordQuery.of("hristidis", "smith", max_size=6)
        expected = {
            m.assignment for m in engine.search_all(query, parallel=False).mttons
        }
        mismatches: list[str] = []

        def worker() -> None:
            got = {m.assignment for m in engine.search_all(query, parallel=True).mttons}
            if got != expected:
                mismatches.append(f"{len(got)} != {len(expected)}")

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not mismatches, mismatches
