"""Streaming delivery: first-result latency vs full-query latency.

Incremental delivery's whole point is that the *first* ranked result
reaches the client long before the full top-k finishes: the engine
publishes each score band the moment every candidate network that could
still beat it has completed, so band 1 ships while bands 2..n are still
executing.  This bench quantifies that gap on the Figure 15(a) workload
(DBLP, two keywords, Z = 8, XKeyword decomposition, K = 10) on the
default backend — what the service streams from, not the ``python``
executor the paper-figure rows in :mod:`common` name:

* ``first-result`` — wall clock from ``search_streaming()`` to the
  first published MTTON (includes CN generation and planning, i.e. the
  user-perceived time-to-first-byte);
* ``full-query`` — wall clock to stream completion (identical work to
  the buffered ``search()``).

The ratio is the headline number the regression gate tracks
(``streaming/first_vs_full_speedup``): it must stay comfortably above
1x, i.e. streaming must keep beating buffered delivery to the first
result.

Run:  pytest benchmarks/bench_streaming.py --benchmark-only
"""

from __future__ import annotations

import statistics
import time

import common

K = 10
DECOMPOSITION = "XKeyword"


def streamed_search(query, k: int = K):
    """One full streamed search; returns ``(first_s, full_s, result)``."""
    engine = common.engine_for(DECOMPOSITION, backend=None)
    started = time.perf_counter()
    stream = engine.search_streaming(query, k=k)
    result = stream.result(timeout=120.0)
    full = time.perf_counter() - started
    return stream.first_result_seconds, full, result


def streaming_latencies(repeats: int = 3) -> tuple[float, float]:
    """Median ``(first_result_s, full_query_s)`` over the bench queries."""
    firsts, fulls = [], []
    for _ in range(repeats):
        for query in common.bench_queries(max_size=8):
            first, full, result = streamed_search(query)
            assert result.mttons, "bench queries must produce results"
            assert first is not None
            firsts.append(first)
            fulls.append(full)
    return statistics.median(firsts), statistics.median(fulls)


def test_streaming_first_result(benchmark):
    """Time-to-first-result of the streamed Fig 15(a) workload."""
    benchmark.group = "streaming"
    benchmark.name = "first-result"
    queries = common.bench_queries(max_size=8)

    def run() -> float:
        return sum(streamed_search(q)[0] for q in queries)

    total_first = benchmark(run)
    assert total_first > 0


def test_streaming_full_query(benchmark):
    """Time-to-completion of the same streamed workload (the baseline)."""
    benchmark.group = "streaming"
    benchmark.name = "full-query"
    queries = common.bench_queries(max_size=8)

    def run() -> float:
        return sum(streamed_search(q)[1] for q in queries)

    total_full = benchmark(run)
    assert total_full > 0


def test_first_result_beats_full_query():
    """The streamed first result must land strictly before completion.

    This is the acceptance gate in test form: on the Fig 15(a) workload
    the median time-to-first-result is strictly below the median
    full-query latency (the stream ships band 1 while later bands still
    execute).  Medians over several repeats keep scheduler noise out.
    """
    first, full = streaming_latencies(repeats=3)
    assert first < full, (
        f"first result ({first * 1000:.1f} ms) should arrive before the "
        f"full query completes ({full * 1000:.1f} ms)"
    )


def test_streamed_order_matches_buffered():
    """Stream concatenation is byte-identical to the buffered top-k."""
    engine = common.engine_for(DECOMPOSITION, backend=None)
    for query in common.bench_queries(max_size=8):
        buffered = engine.search(query, k=K)
        stream = engine.search_streaming(query, k=K)
        streamed = list(stream)
        assert streamed == list(buffered.mttons)
        assert streamed == list(stream.result().mttons)
