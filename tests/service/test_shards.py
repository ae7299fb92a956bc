"""Service surface of scatter: shard config, health section, per-shard metrics."""

from __future__ import annotations

import pytest

from repro.service import QueryService, ServiceConfig


@pytest.fixture(scope="module")
def sharded_service(small_dblp_db):
    service = QueryService(small_dblp_db, ServiceConfig(workers=2, shards=2))
    yield service
    service.close()


def test_healthz_reports_shard_layout(sharded_service):
    body = sharded_service.healthz()
    assert body["status"] == "ok"
    shards = body["shards"]
    assert shards["count"] == 2
    assert shards["scattered"] is True


def test_search_emits_per_shard_metrics(sharded_service):
    payload = sharded_service.search(["smith", "balmin"], k=5, max_size=6)
    assert payload["count"] >= 1
    text = sharded_service.metrics_text()
    assert 'repro_shard_results_total{shard="0"}' in text or (
        'repro_shard_results_total{shard="1"}' in text
    )
    assert "repro_shard_seconds" in text


def test_unsharded_service_reports_single_shard(small_dblp_db):
    # shards pinned so the assertion holds under a REPRO_SHARDS override
    service = QueryService(small_dblp_db, ServiceConfig(workers=1, shards=1))
    try:
        shards = service.healthz()["shards"]
        assert shards["count"] == 1
        assert shards["scattered"] is False
        assert "partition" not in shards
    finally:
        service.close()
