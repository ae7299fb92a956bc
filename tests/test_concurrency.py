"""Thread-safety stress tests for the engine and storage layers."""

import threading

import pytest

from repro.core import KeywordQuery, XKeyword

pytestmark = pytest.mark.stress


class TestConcurrentSearches:
    def test_concurrent_engines_share_database(self, small_dblp_db):
        """Many threads querying one LoadedDatabase simultaneously."""
        engine = XKeyword(small_dblp_db)
        query = KeywordQuery.of("smith", "balmin", max_size=5)
        expected = {
            m.assignment for m in engine.search(query, k=None).mttons
        }
        failures: list[str] = []

        def worker() -> None:
            local = XKeyword(small_dblp_db)
            got = {
                m.assignment
                for m in local.search(query, k=None).mttons
            }
            if got != expected:
                failures.append(f"{len(got)} != {len(expected)}")

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures

    def test_one_engine_shared_by_six_threads(self, small_dblp_db):
        """Six threads searching through one ``XKeyword`` (the service
        pattern: ``QueryService`` hands one engine to all its workers)
        agree with the serial baseline; each search builds its own
        per-query caches, so the threads share none of them."""
        engine = XKeyword(small_dblp_db)
        query = KeywordQuery.of("hristidis", "smith", max_size=6)
        expected = {
            m.assignment for m in engine.search(query, k=None).mttons
        }
        mismatches: list[str] = []

        def worker() -> None:
            got = {m.assignment for m in engine.search(query, k=None).mttons}
            if got != expected:
                mismatches.append(f"{len(got)} != {len(expected)}")

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
            assert not thread.is_alive()
        assert not mismatches, mismatches
