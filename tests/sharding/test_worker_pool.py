"""Process-mode scatter-gather: worker pool and sharded engine."""

from __future__ import annotations

import pytest

from repro.core import ExecutorConfig, KeywordQuery, XKeyword
from repro.sharding import ShardWorkerPool, ShardedXKeyword, open_sharded
from repro.trace import Tracer

from .conftest import ranked


@pytest.fixture(scope="module")
def pool(dblp_setup, shard_dir):
    catalog, decompositions, _ = dblp_setup
    with ShardWorkerPool(shard_dir, catalog, decompositions) as pool:
        yield pool


def test_workers_answer_ping(pool):
    assert pool.num_shards == 3
    assert pool.ping() == {index: True for index in range(3)}
    assert pool.alive() == {index: True for index in range(3)}


@pytest.mark.parametrize("k", [1, 5, 10])
def test_process_scatter_matches_oracle(dblp_setup, shard_dir, pool, k):
    catalog, decompositions, loaded = dblp_setup
    query = KeywordQuery.of("smith", "balmin", max_size=6)
    oracle = ranked(XKeyword(loaded, shards=1).search(query, k=k, parallel=False))
    engine = ShardedXKeyword(
        open_sharded(shard_dir, catalog, decompositions), pool
    )
    assert ranked(engine.search(query, k=k)) == oracle


def test_process_scatter_matches_oracle_unbounded(dblp_setup, shard_dir, pool):
    catalog, decompositions, loaded = dblp_setup
    query = KeywordQuery.of("smith", "chen", max_size=6)
    oracle = ranked(XKeyword(loaded, shards=1).search_all(query))
    engine = ShardedXKeyword(
        open_sharded(shard_dir, catalog, decompositions), pool
    )
    assert ranked(engine.search_all(query)) == oracle


def test_sql_backend_pool_matches_oracle(dblp_setup, shard_dir):
    catalog, decompositions, loaded = dblp_setup
    config = ExecutorConfig(backend="sql")
    query = KeywordQuery.of("smith", "balmin", max_size=6)
    oracle = ranked(
        XKeyword(loaded, executor_config=config, shards=1).search(
            query, k=10, parallel=False
        )
    )
    with ShardWorkerPool(shard_dir, catalog, decompositions, config=config) as pool:
        engine = ShardedXKeyword(
            open_sharded(shard_dir, catalog, decompositions), pool
        )
        assert ranked(engine.search(query, k=10)) == oracle


def _named_spans(span, name):
    found = [span] if span.name == name else []
    for child in span.children:
        found.extend(_named_spans(child, name))
    return found


def test_scatter_metrics_and_spans(dblp_setup, shard_dir, pool):
    catalog, decompositions, _ = dblp_setup
    tracer = Tracer()
    engine = ShardedXKeyword(
        open_sharded(shard_dir, catalog, decompositions), pool, tracer=tracer
    )
    query = KeywordQuery.of("smith", "balmin", max_size=6)
    result = engine.search(query, k=10)
    assert set(result.metrics.shard_results) == {0, 1, 2}
    spans = _named_spans(tracer.last.root, "shard")
    assert {span.attributes["shard"] for span in spans} == {0, 1, 2}
    assert all(span.attributes["worker"] == "process" for span in spans)
    cn_spans = _named_spans(tracer.last.root, "cn")
    assert cn_spans
    assert all(
        span.attributes.get("worker") == "process"
        and span.attributes.get("scattered_across") == 3
        for span in cn_spans
    )


def test_scattered_cn_spans_close_with_gathered_actuals(dblp_setup, shard_dir, pool):
    catalog, decompositions, _ = dblp_setup
    tracer = Tracer()
    engine = ShardedXKeyword(
        open_sharded(shard_dir, catalog, decompositions), pool, tracer=tracer
    )
    result = engine.search_all(KeywordQuery.of("smith", "balmin", max_size=6))
    cn_spans = _named_spans(tracer.last.root, "cn")
    assert all(span.end is not None for span in cn_spans)
    by_network = result.grouped_by_candidate_network()
    assert {
        span.attributes["network"]: span.attributes["actual_results"]
        for span in cn_spans
    } == {
        span.attributes["network"]: len(by_network.get(span.attributes["network"], ()))
        for span in cn_spans
    }
    shard_spans = _named_spans(tracer.last.root, "shard")
    assert sum(s.attributes["results"] for s in shard_spans) == len(result.mttons)


def test_close_terminates_workers(dblp_setup, shard_dir):
    catalog, decompositions, _ = dblp_setup
    pool = ShardWorkerPool(shard_dir, catalog, decompositions)
    assert all(pool.alive().values())
    pool.close()
    assert not any(pool.alive().values())
