"""Thread scatter: ``XKeyword(shards=N)`` is byte-identical to the oracle.

For every query, shard count and backend, the ranked
``(canonical_key, assignment, score)`` stream of a scattered search must
equal the unsharded run exactly; plus the partition value object and
``$REPRO_SHARDS`` resolution the scatter is configured through.
"""

from __future__ import annotations

import pytest

from repro.core import (
    SHARDS_ENV_VAR,
    ExecutorConfig,
    KeywordQuery,
    ShardPartition,
    XKeyword,
    resolve_shards,
    shard_of,
)

from tests.updates.conftest import build_dblp

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

QUERIES = (
    ("smith", "balmin"),
    ("smith", "chen"),
    ("balmin", "chen"),
    ("smith",),
)
"""Keyword queries with non-empty containing lists on the seed-3 corpus."""


@pytest.fixture(scope="module")
def loaded():
    """One seed-3 DBLP load (40 papers) per module (read-only use)."""
    return build_dblp()[2]


def ranked(result):
    """The byte-identity projection the equivalence suite compares."""
    return [
        (m.ctssn.canonical_key, m.assignment, m.score) for m in result.mttons
    ]


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    keywords=st.sampled_from(QUERIES),
    shards=st.sampled_from([1, 2, 4]),
    k=st.sampled_from([1, 3, 10]),
    backend=st.sampled_from(["python", "sql"]),
)
def test_logical_scatter_matches_oracle(loaded, keywords, shards, k, backend):
    query = KeywordQuery(keywords, max_size=6)
    config = ExecutorConfig(backend=backend)
    oracle = ranked(
        XKeyword(loaded, executor_config=config, shards=1).search(
            query, k=k, parallel=False
        )
    )
    scattered = ranked(
        XKeyword(loaded, executor_config=config, shards=shards).search(query, k=k)
    )
    assert scattered == oracle


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(keywords=st.sampled_from(QUERIES), shards=st.sampled_from([2, 4]))
def test_logical_scatter_matches_oracle_unbounded(loaded, keywords, shards):
    query = KeywordQuery(keywords, max_size=6)
    oracle = ranked(XKeyword(loaded, shards=1).search_all(query))
    scattered = ranked(XKeyword(loaded, shards=shards).search_all(query))
    assert scattered == oracle


def test_partition_identity_and_cache_key():
    solo = ShardPartition(index=0, count=1)
    assert solo.owns("anything")
    split = ShardPartition(index=1, count=2)
    assert split.cache_key != solo.cache_key
    assert split.owns("x") == (shard_of("x", 2) == 1)


def test_resolve_shards_reads_environment(monkeypatch):
    monkeypatch.delenv(SHARDS_ENV_VAR, raising=False)
    assert resolve_shards(None) == 1
    monkeypatch.setenv(SHARDS_ENV_VAR, "4")
    assert resolve_shards(None) == 4
    assert resolve_shards(2) == 2
    for unsharded in ("", "0", "1"):
        monkeypatch.setenv(SHARDS_ENV_VAR, unsharded)
        assert resolve_shards(None) == 1
    # A mistyped CI cell must not run the "sharded" suite unsharded.
    for typo in ("not-a-number", "-2", "4.0"):
        monkeypatch.setenv(SHARDS_ENV_VAR, typo)
        with pytest.raises(ValueError, match=SHARDS_ENV_VAR):
            resolve_shards(None)
        assert resolve_shards(2) == 2  # an explicit count never reads it
