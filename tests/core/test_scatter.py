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
    SQLCTSSNExecutor,
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


def test_partition_identity_and_ownership():
    solo = ShardPartition(index=0, count=1)
    assert solo.owns("anything")
    split = ShardPartition(index=1, count=2)
    assert split != solo
    assert split.owns("x") == (shard_of("x", 2) == 1)


def test_equal_length_shard_subsets_return_their_own_rows(loaded):
    """Three of this query's four shards admit exactly one anchor target
    object each — compiled statements of identical text whose parameter
    *values* differ.  Executors share nothing, so each shard's rows are
    seeded by its own anchor and the union is the unpartitioned run."""
    engine = XKeyword(loaded, shards=1)
    query = KeywordQuery(("smith", "hristidis"), max_size=6)
    containing = engine.containing_lists(query)
    plan = next(
        plan
        for ctssn in engine.candidate_tss_networks(query, containing)
        for plan in [engine.plan(ctssn, containing)]
        if plan.steps and plan.ctssn.annotations[plan.anchor_role]
    )
    anchor = plan.anchor_role
    whole = list(SQLCTSSNExecutor(plan, engine.stores, containing).run())
    lanes = [
        SQLCTSSNExecutor(
            plan, engine.stores, containing, partition=ShardPartition(index, 4)
        )
        for index in range(4)
    ]
    assert [len(lane.role_filters[anchor]) for lane in lanes] == [1, 1, 1, 0]
    rows = [list(lane.run()) for lane in lanes]
    assert all(rows[:3]) and not rows[3]
    for lane, own in zip(lanes, rows):
        assert {row[anchor] for row in own} == lane.role_filters[anchor]
    key = lambda row: sorted(row.items())
    assert sorted((row for own in rows for row in own), key=key) == sorted(
        whole, key=key
    )


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
