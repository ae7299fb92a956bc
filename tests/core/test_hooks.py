"""Tests for the engine's instrumentation hooks (service-layer probe)."""

from repro.core import ExecutionObserver, KeywordQuery, SearchHooks, XKeyword


class RecordingObserver(ExecutionObserver):
    def __init__(self) -> None:
        self.lookups: list[tuple[str, int, bool]] = []

    def on_query(self, relation_name: str, rows: int, cached: bool) -> None:
        self.lookups.append((relation_name, rows, cached))


class TestSearchHooks:
    def test_callbacks_fire_with_result_and_timing(self, small_dblp_db):
        events = []
        hooks = SearchHooks(
            on_search_complete=lambda query, result, seconds: events.append(
                ("complete", query, result, seconds)
            ),
        )
        engine = XKeyword(small_dblp_db, hooks=hooks)
        query = KeywordQuery.of("smith", "balmin", max_size=6)
        result = engine.search(query, k=5)
        assert [kind for kind, *_ in events] == ["complete"]
        assert events[0][1] == query
        assert events[0][2] is result
        assert events[0][3] >= 0

    def test_complete_fires_for_empty_keyword(self, small_dblp_db):
        events = []
        hooks = SearchHooks(
            on_search_complete=lambda query, result, seconds: events.append(result)
        )
        engine = XKeyword(small_dblp_db, hooks=hooks)
        result = engine.search(KeywordQuery.of("nosuchkeywordatall"), k=5)
        assert events == [result]
        assert result.mttons == []

    def test_observer_sees_lookups(self, small_dblp_db):
        observer = RecordingObserver()
        engine = XKeyword(small_dblp_db, hooks=SearchHooks(observer=observer))
        result = engine.search(
            KeywordQuery.of("smith", "balmin", max_size=6), k=5, parallel=False
        )
        assert result.mttons
        assert observer.lookups
        sent = sum(1 for _, _, cached in observer.lookups if not cached)
        assert sent == result.metrics.queries_sent

    def test_hooks_are_optional_noops(self, small_dblp_db):
        plain = XKeyword(small_dblp_db)
        hooked = XKeyword(small_dblp_db, hooks=SearchHooks())
        query = KeywordQuery.of("smith", "balmin", max_size=6)
        assert (
            plain.search_all(query, parallel=False).scores()
            == hooked.search_all(query, parallel=False).scores()
        )
