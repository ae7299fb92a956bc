"""Figure 16(a): speedup of the caching executor over the naive one.

The optimized execution algorithm caches partial results so inner loops
never re-run for a junction target object already seen (Section 6); the
paper measures its speedup over the naive DISCOVER/DBXplorer-style
nested loops as the maximum candidate TSS network size M grows:

* speedup < 1 at M = 2 (no caching opportunities, pure overhead);
* speedup grows with M, "because the number of trivial results
  increases with M" (the paper reports up to ~5x / 80% savings).

Both variants run over the MinClust decomposition, full-result mode.

Run:  pytest benchmarks/bench_fig16a_caching_speedup.py --benchmark-only
"""

from __future__ import annotations

import pytest

import common

SIZES = (2, 3, 4)


def run_mode(size: int, memoize: bool) -> int:
    total = 0
    for prepared in common.prepared_searches("MinClust", max_size=size + 2):
        total += common.execute_prepared(prepared, None, memoize=memoize)
    return total


@pytest.mark.parametrize("size", SIZES)
def test_fig16a_optimized(benchmark, size):
    benchmark.group = f"fig16a-size{size}"
    benchmark.name = "optimized (cached)"
    produced = benchmark(run_mode, size, True)
    assert produced > 0


@pytest.mark.parametrize("size", SIZES)
def test_fig16a_naive(benchmark, size):
    benchmark.group = f"fig16a-size{size}"
    benchmark.name = "naive (no cache)"
    produced = benchmark(run_mode, size, False)
    assert produced > 0


LATENCY = 0.0003
"""Simulated per-query round trip (the paper's JDBC hop to Oracle)."""


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("memoize", (True, False), ids=("optimized", "naive"))
def test_fig16a_with_round_trips(benchmark, size, memoize):
    """With per-query round trips the cached executor's saved queries
    translate into the paper's wall-clock speedup curve."""
    benchmark.group = f"fig16a-latency-size{size}"
    benchmark.name = "optimized (cached)" if memoize else "naive (no cache)"
    with common.round_trip_latency(common.bench_database().database, LATENCY):
        produced = benchmark.pedantic(
            run_mode, args=(size, memoize), rounds=3, iterations=1
        )
    assert produced > 0


def test_fig16a_queries_saved():
    """Shape check (not a timing): the cached executor sends strictly
    fewer queries at the largest size, and the saving grows with M."""
    from repro.core import CTSSNExecutor, ExecutorConfig

    savings = []
    for size in SIZES:
        sent = {}
        for memoize in (True, False):
            total = 0
            for prepared in common.prepared_searches("MinClust", max_size=size + 2):
                for ctssn, plan in prepared.plans:
                    executor = CTSSNExecutor(
                        plan,
                        prepared.engine.stores,
                        prepared.containing,
                        config=ExecutorConfig(memoize=memoize),
                    )
                    for _ in executor.run():
                        pass
                    total += executor.metrics.queries_sent
            sent[memoize] = total
        savings.append(sent[False] / max(1, sent[True]))
    assert savings[-1] > 1.0, f"caching saved no queries: {savings}"
    assert savings[-1] >= savings[0], f"saving should grow with M: {savings}"
