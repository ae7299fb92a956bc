"""Figure 16(b): on-demand presentation-graph expansion, by decomposition.

The paper expands a Paper node of the candidate network
``Author - Paper^k - Author`` (queries over two author names) and
measures the average expansion time under three decompositions:

* **inlined** — the Figure 12 output alone: adjacency probes must use
  wide relations (slowest overall);
* **minimal** — single-edge relations: cheap adjacency probes, best at
  CTSSN size 2;
* **combination** — inlined + minimal: wins for sizes > 2 because the
  probe uses minimal relations while MTTON completion uses the wide
  ones.

Run:  pytest benchmarks/bench_fig16b_expansion.py --benchmark-only
"""

from __future__ import annotations

import pytest

import common
from repro.core import OnDemandNavigator

SIZES = (2, 3, 4)
VARIANTS = {
    "inlined": ["Inlined"],
    "minimal": ["MinClust"],
    "combination": ["Inlined", "MinClust"],
}


def build_navigator(variant: str, size: int) -> OnDemandNavigator:
    from repro.core import XKeyword

    loaded = common.bench_database()
    engine = XKeyword(loaded, store_priority=VARIANTS[variant])
    for query in common.bench_queries(max_size=size + 2):
        try:
            ctssn, containing = common.chain_ctssn(engine, query, size)
        except LookupError:
            continue
        navigator = OnDemandNavigator(
            ctssn, engine.optimizer, engine.stores, containing, page_size=10
        )
        try:
            navigator.initialize()
        except LookupError:
            continue
        return navigator
    raise LookupError(f"no populated chain CTSSN of size {size}")


def expand_paper(navigator: OnDemandNavigator) -> int:
    labels = navigator.ctssn.network.labels
    role = next(r for r, label in enumerate(labels) if label == "Paper")
    return len(navigator.expand(role))


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_fig16b_expand_paper(benchmark, variant, size):
    """In-process wall clock (no round-trip cost): probes of wide
    relations dominate, so the minimal decomposition looks best."""
    benchmark.group = f"fig16b-size{size}"
    benchmark.name = variant

    def setup():
        return (build_navigator(variant, size),), {}

    benchmark.pedantic(expand_paper, setup=setup, rounds=5)


LATENCY = 0.0003
"""Simulated per-query round trip (the paper's JDBC hop to Oracle)."""


@pytest.mark.parametrize("size", SIZES[1:])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_fig16b_expand_paper_with_round_trips(benchmark, variant, size):
    """With a per-query round trip the paper's ordering appears: the
    combination wins for sizes > 2 because the minimal decomposition
    needs far more focused queries to complete each MTTON."""
    benchmark.group = f"fig16b-latency-size{size}"
    benchmark.name = variant

    def setup():
        return (build_navigator(variant, size),), {}

    with common.round_trip_latency(common.bench_database().database, LATENCY):
        benchmark.pedantic(expand_paper, setup=setup, rounds=3)


def test_fig16b_query_counts_shape():
    """Non-timing shape check: completing an expansion over the minimal
    decomposition sends more focused queries than over the combination
    once the chain is longer than 2 — the source of Figure 16(b)."""
    counts = {}
    for variant in ("minimal", "combination"):
        navigator = build_navigator(variant, 4)
        expand_paper(navigator)
        counts[variant] = navigator.metrics.queries_sent
    assert counts["combination"] < counts["minimal"], counts
