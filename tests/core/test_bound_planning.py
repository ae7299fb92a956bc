"""Bound-driven planning: candidate networks are costed and planned one
size class at a time, and a class the top-k bound excludes never is.

Every result of a CN scores the CN's size, so once the bound holds k
results whose k-th best score is b, no class above b can place.  The
default ``shared-prefix+pruning`` strategy must therefore return the
ranked list ``serial`` (which plans every CN) returns, stream it
identically, and open exactly one ``plan`` span per CN it did not prune.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BACKENDS, ExecutorConfig, KeywordQuery, ResultStream, XKeyword
from repro.trace import Tracer, TraceStore

from .test_equivalence import keyword_vocabulary, ranked

BOUND_SETTINGS = settings(
    deadline=None,  # whole-pipeline searches at Z = 8 vary too much
    max_examples=15,
    suppress_health_check=[HealthCheck.too_slow],
)


def indexed_vocabulary(graph, engine: XKeyword) -> tuple[str, ...]:
    """The graph's words the master index matches (page ranges and the
    like are not indexed, and would only draw empty queries)."""
    return tuple(
        word
        for word in keyword_vocabulary(graph)
        if engine.containing_lists(KeywordQuery((word,))).keyword_tos[word]
    )


def plan_spans(result) -> int:
    return sum(
        child.name == "plan"
        for span in result.trace.root.children
        if span.name == "cn"
        for child in span.children
    )


@pytest.mark.parametrize("backend", BACKENDS)
class TestBoundDrivenPlanning:
    @BOUND_SETTINGS
    @given(
        data=st.data(),
        k=st.sampled_from([1, 5, 10, 20]),
        max_size=st.integers(min_value=2, max_value=8),
    )
    def test_plans_only_what_can_place(
        self, small_dblp_graph, small_dblp_db, backend, data, k, max_size
    ):
        engine = XKeyword(small_dblp_db, tracer=Tracer(TraceStore()))
        keywords = data.draw(
            st.lists(
                st.sampled_from(indexed_vocabulary(small_dblp_graph, engine)),
                min_size=2,
                max_size=2,
                unique=True,
            )
        )
        query = KeywordQuery(tuple(keywords), max_size=max_size)
        serial = engine.search(
            query, k=k, config=ExecutorConfig(backend, strategy="serial")
        )
        config = ExecutorConfig(backend, strategy="shared-prefix+pruning")
        bounded = engine.search(query, k=k, config=config)
        assert ranked(bounded) == ranked(serial)

        assert plan_spans(serial) == len(serial.ctssns)
        assert plan_spans(bounded) == len(bounded.ctssns) - bounded.metrics.cns_pruned

        stream = ResultStream()
        streamed = engine.search(query, k=k, config=config, stream=stream)
        stream.complete(streamed)
        assert list(stream) == list(bounded.mttons)
