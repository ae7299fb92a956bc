"""Property-based equivalence of the scheduling strategies and backends.

The scheduler's contract is exact: for any query and any K, the
``shared-prefix`` and ``shared-prefix+pruning`` strategies return the
*same ranked list* as the ``serial`` baseline (every CN evaluated
independently).  Prefix borrowing preserves per-CN row enumeration
order, and pruning only skips CNs whose score is strictly above the
k-th best collected score (ties always run), so the property holds with
equality on the full (canonical_key, assignment, score) triples — not
just on scores.

The execution backends extend the same contract: the Python nested-loop
executor is the oracle, and ``sql`` (one compiled statement per plan,
executed inside SQLite) must reproduce its ranked top-k bit for bit.  Both sides enumerate rows lexicographically in the
plan's binding order — the Python executor via its canonical candidate
sort, the SQL backend via ``ORDER BY`` under SQLite's BINARY collation —
so even the k-subset a >k-result CN contributes is identical.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BACKENDS, ExecutorConfig, KeywordQuery, XKeyword

EQUIVALENCE_SETTINGS = settings(
    deadline=None,  # whole-pipeline searches vary too much for a deadline
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)


_VOCABULARIES: dict[int, tuple[str, ...]] = {}


def keyword_vocabulary(graph) -> tuple[str, ...]:
    """Distinct single words appearing in the graph's leaf values
    (memoized per graph object — XMLGraph itself is not hashable)."""
    cached = _VOCABULARIES.get(id(graph))
    if cached is None:
        words = set()
        for node in graph.nodes():
            if node.value:
                words.update(word.lower() for word in node.value.split())
        cached = _VOCABULARIES[id(graph)] = tuple(sorted(words))
    return cached


def ranked(result):
    return [
        (m.ctssn.canonical_key, m.assignment, m.score) for m in result.mttons
    ]


def assert_strategies_agree(db, keywords, k, max_size, backend="python") -> None:
    query = KeywordQuery(tuple(keywords), max_size=max_size)
    engine = XKeyword(db)
    baseline = ranked(
        engine.search(
            query,
            k=k,
            config=ExecutorConfig(backend="python", strategy="serial"),
            parallel=False,
        )
    )
    optimized = ranked(
        engine.search(
            query,
            k=k,
            config=ExecutorConfig(
                backend=backend, strategy="shared-prefix+pruning"
            ),
            parallel=False,
        )
    )
    assert optimized == baseline


@pytest.mark.parametrize("backend", BACKENDS)
class TestDBLPEquivalence:
    @EQUIVALENCE_SETTINGS
    @given(data=st.data(), k=st.integers(min_value=1, max_value=25))
    def test_random_queries(
        self, small_dblp_graph, small_dblp_db, backend, data, k
    ):
        vocabulary = keyword_vocabulary(small_dblp_graph)
        keywords = data.draw(
            st.lists(
                st.sampled_from(vocabulary), min_size=2, max_size=2, unique=True
            )
        )
        max_size = data.draw(st.integers(min_value=2, max_value=6))
        assert_strategies_agree(
            small_dblp_db, keywords, k, max_size, backend=backend
        )


@pytest.mark.parametrize("backend", BACKENDS)
class TestTPCHEquivalence:
    @EQUIVALENCE_SETTINGS
    @given(data=st.data(), k=st.integers(min_value=1, max_value=25))
    def test_random_queries(
        self, small_tpch_graph, small_tpch_db, backend, data, k
    ):
        vocabulary = keyword_vocabulary(small_tpch_graph)
        keywords = data.draw(
            st.lists(
                st.sampled_from(vocabulary), min_size=2, max_size=2, unique=True
            )
        )
        max_size = data.draw(st.integers(min_value=2, max_value=6))
        assert_strategies_agree(
            small_tpch_db, keywords, k, max_size, backend=backend
        )
