"""Shard scaling: thread-scatter top-k/all-results vs the single shard.

The scatter partitions each plan's *anchor seeds* by target-object hash,
so it scales exactly the workloads whose cost is proportional to the
anchor containing list — the bandwidth-bound all-results mode of the
Figure 15 corpus (every CN enumerates its full seed slice).  Top-k on
the same corpus is bound-limited: the global k-th-best bound stops every
shard after a handful of probes, so scattering it buys little and the
duplicated per-shard fixed work (prefix materialization, CN setup) can
even lose — EXPERIMENTS.md's "Shard scaling" section shows both rows on
purpose.

As with Figure 16(a), wall-clock scaling appears once every DBMS query
pays a round trip (``common.round_trip_latency``): sleeps overlap
across shard threads while the GIL-bound Python work does not, which is
the honest single-machine analogue of N independent DBMS connections.

Run:  pytest benchmarks/bench_sharding.py --benchmark-only
"""

from __future__ import annotations

import time

import pytest

import common
from repro.core import ExecutorConfig, KeywordQuery, XKeyword

LATENCY = 0.002
"""Per-query round trip: a remote-DBMS hop (cf. fig16a's 0.3 ms LAN hop)."""

MAX_SIZE = 4
SHARD_COUNTS = (1, 2, 4, 8)
BACKENDS = ("python", "sql")

ALL_RESULTS_PAIRS = (("john", "storage"), ("optimization", "storage"))
"""Mid-frequency keyword pairs: large, hash-balanced anchor lists with
real join work — the shape anchor partitioning splits evenly."""


def scaling_queries() -> list[KeywordQuery]:
    return [KeywordQuery(pair, max_size=MAX_SIZE) for pair in ALL_RESULTS_PAIRS]


def run_thread_scatter(shards: int, backend: str) -> int:
    """All-results workload under logical (thread) scatter with latency."""
    loaded = common.bench_database()
    engine = XKeyword(
        loaded, executor_config=ExecutorConfig(backend=backend), shards=shards
    )
    produced = 0
    with common.round_trip_latency(loaded.database, LATENCY):
        for query in scaling_queries():
            produced += len(engine.search_all(query).mttons)
    return produced


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_thread_scatter_all_results(benchmark, shards, backend):
    benchmark.group = f"sharding-threads-{backend}"
    benchmark.name = f"{shards} shard(s)"
    produced = benchmark.pedantic(
        run_thread_scatter, args=(shards, backend), rounds=1, iterations=1
    )
    assert produced > 0


def run_thread_topk(shards: int) -> int:
    """The Fig 15(a) co-author top-10 workload under logical scatter.

    Measured for honesty, not gated: the global bound fills from the
    cheapest CNs after a handful of probes and the optimizer anchors on
    the rarest keyword (1-3 seeds on these queries), so there is almost
    no bandwidth for the scatter to split — see EXPERIMENTS.md.
    """
    loaded = common.bench_database()
    engine = XKeyword(loaded, shards=shards)
    produced = 0
    with common.round_trip_latency(loaded.database, LATENCY):
        for query in common.bench_queries(max_size=8):
            produced += len(engine.search(query, k=10).mttons)
    return produced


@pytest.mark.parametrize("shards", (1, 4))
def test_thread_scatter_fig15a_topk(benchmark, shards):
    benchmark.group = "sharding-threads-fig15a-top10"
    benchmark.name = f"{shards} shard(s)"
    produced = benchmark.pedantic(
        run_thread_topk, args=(shards,), rounds=1, iterations=1
    )
    assert produced > 0


def test_four_shard_speedup_thread():
    """Shape check (not a timing): logical scatter over 4 shards beats
    the single shard by >= 1.8x on the bandwidth-bound workload."""
    serial = _timed_thread(1)
    scattered = _timed_thread(4)
    assert serial / scattered >= 1.8, (serial, scattered)


def _timed_thread(shards: int) -> float:
    started = time.perf_counter()
    run_thread_scatter(shards, "python")
    return time.perf_counter() - started
