"""Service-level tracing: trace ids, /debug endpoints, slow-query log,
and the per-stage latency histograms."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core import ExecutionMetrics, SearchResult
from repro.service import QueryService, ServiceConfig, XKeywordHTTPServer
from repro.service.metrics import STAGE_BUCKETS


def start_server(service: QueryService) -> tuple[XKeywordHTTPServer, str]:
    server = XKeywordHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    return server, f"http://{host}:{port}"


def post_search(base: str, body: dict, timeout: float = 10.0):
    request = urllib.request.Request(
        f"{base}/search",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read()), dict(response.headers)


def get_json(base: str, path: str, timeout: float = 10.0):
    with urllib.request.urlopen(f"{base}{path}", timeout=timeout) as response:
        return json.loads(response.read())


@pytest.fixture(scope="module")
def served(small_dblp_db):
    service = QueryService(
        small_dblp_db, ServiceConfig(workers=2, queue_size=8, slow_query_seconds=None)
    )
    server, base = start_server(service)
    yield service, base
    server.shutdown()
    server.server_close()


class TestTraceEndpoints:
    def test_search_returns_trace_id_and_header(self, served):
        _, base = served
        status, body, headers = post_search(
            base, {"keywords": ["smith", "balmin"], "k": 5, "max_size": 6}
        )
        assert status == 200
        assert body["trace_id"]
        assert headers["X-Trace-Id"] == body["trace_id"]

    def test_debug_trace_round_trip(self, served):
        _, base = served
        _, body, _ = post_search(
            base, {"keywords": ["balmin", "hristidis"], "k": 5, "max_size": 6}
        )
        trace = get_json(base, f"/debug/trace/{body['trace_id']}")
        assert trace["trace_id"] == body["trace_id"]
        assert trace["query"] == "balmin hristidis"
        assert trace["root"]["name"] == "search"
        stages = [child["name"] for child in trace["root"]["children"]]
        assert "matching" in stages

    def test_debug_traces_lists_recent(self, served):
        _, base = served
        _, body, _ = post_search(
            base, {"keywords": ["smith", "papakonstantinou"], "k": 3, "max_size": 6}
        )
        listing = get_json(base, "/debug/traces?limit=50")
        ids = [row["trace_id"] for row in listing["traces"]]
        assert body["trace_id"] in ids
        assert all({"trace_id", "query", "duration_ms"} <= set(row) for row in listing["traces"])

    def test_unknown_trace_id_is_404(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(base, "/debug/trace/deadbeef")
        assert excinfo.value.code == 404

    def test_cached_replay_reuses_the_computing_trace_id(self, served):
        _, base = served
        body = {"keywords": ["papakonstantinou", "smith"], "k": 4, "max_size": 6}
        _, first, _ = post_search(base, body)
        _, second, headers = post_search(base, body)
        assert second["cached"] is True
        assert second["trace_id"] == first["trace_id"]
        assert headers["X-Trace-Id"] == first["trace_id"]


class TestTracingDisabled:
    def test_no_trace_id_and_debug_404(self, small_dblp_db):
        service = QueryService(
            small_dblp_db, ServiceConfig(workers=1, queue_size=4, tracing=False)
        )
        server, base = start_server(service)
        try:
            _, body, headers = post_search(
                base, {"keywords": ["smith", "balmin"], "k": 3, "max_size": 6}
            )
            assert body["trace_id"] is None
            assert "X-Trace-Id" not in headers
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get_json(base, "/debug/traces")
            assert excinfo.value.code == 404
        finally:
            server.shutdown()
            server.server_close()
        service.close()


class TestSlowQueryLog:
    def test_threshold_zero_logs_every_search(self, small_dblp_db, capsys):
        service = QueryService(
            small_dblp_db,
            ServiceConfig(workers=1, queue_size=4, slow_query_seconds=0.0),
        )
        try:
            payload = service.search(["smith", "balmin"], k=3, max_size=6)
            captured = capsys.readouterr()
            assert "[slow-query]" in captured.err
            assert payload["trace_id"] in captured.err
            counter = service.registry.get("repro_slow_queries_total")
            assert counter.value == 1
        finally:
            service.close()

    def test_fast_search_is_not_logged(self, small_dblp_db, capsys):
        service = QueryService(
            small_dblp_db,
            ServiceConfig(workers=1, queue_size=4, slow_query_seconds=60.0),
        )
        try:
            service.search(["smith", "balmin"], k=3, max_size=6)
            assert "[slow-query]" not in capsys.readouterr().err
            assert service.registry.get("repro_slow_queries_total").value == 0
        finally:
            service.close()


class StageEngine:
    """Fake engine whose results carry hand-picked stage timings."""

    def __init__(self, stage_seconds: dict[str, float]) -> None:
        self._stage_seconds = stage_seconds

    def search(self, query, k=10, stream=None):
        metrics = ExecutionMetrics()
        for stage, seconds in self._stage_seconds.items():
            metrics.record_stage(stage, seconds)
        return SearchResult(query, [], metrics)


class TestStageHistograms:
    def test_exact_bucket_counts_single_threaded(self, small_dblp_db):
        # Observations equal to a bucket's upper bound land in exactly
        # that bucket (bisect_left semantics), so the counts below are
        # deterministic.
        stage_seconds = {
            "matching": STAGE_BUCKETS[0],       # 0.0001 -> first bucket
            "execution": STAGE_BUCKETS[10],     # 0.25   -> eleventh bucket
        }
        service = QueryService(
            small_dblp_db,
            ServiceConfig(workers=1, queue_size=4, slow_query_seconds=None),
            engine=StageEngine(stage_seconds),
        )
        try:
            # Distinct queries so the cross-query cache never short-circuits.
            for keywords in (["a"], ["b"], ["c"]):
                service.search(keywords, k=3, max_size=6)
            matching = service.registry.get("repro_stage_seconds", stage="matching")
            execution = service.registry.get("repro_stage_seconds", stage="execution")
            assert matching.count == 3
            assert execution.count == 3
            assert matching.sum == pytest.approx(3 * STAGE_BUCKETS[0])
            first_bucket = (
                f'repro_stage_seconds_bucket{{le="0.0001",stage="matching"}} 3'
            )
            assert first_bucket in matching.render()
            rendered = execution.render()
            assert 'repro_stage_seconds_bucket{le="0.1",stage="execution"} 0' in rendered
            assert 'repro_stage_seconds_bucket{le="0.25",stage="execution"} 3' in rendered
        finally:
            service.close()

    def test_real_engine_populates_stage_histograms(self, served):
        service, base = served
        post_search(base, {"keywords": ["balmin", "smith"], "k": 2, "max_size": 6})
        text = service.metrics_text()
        assert "repro_stage_seconds_bucket" in text
        assert 'stage="matching"' in text
        assert 'stage="cn_generation"' in text
