"""Ablation E7: XKeyword vs the data-graph baselines (Section 2).

The paper argues schema-aware search over target-object connection
relations beats working "on the graph of the data, which is huge".
This ablation times both systems on the same queries and checks result-
quality parity (identical best connection sizes).

Run:  pytest benchmarks/bench_ablation_vs_banks.py --benchmark-only
"""

from __future__ import annotations

import pytest

import common
from repro.baselines import BanksSearcher, ProximitySearcher


@pytest.fixture(scope="module")
def banks():
    return BanksSearcher(common.bench_graph())


@pytest.fixture(scope="module")
def proximity():
    searcher = ProximitySearcher(common.bench_graph(), max_radius=8)
    return searcher


def run_xkeyword(k: int = 10) -> list[int]:
    scores = []
    for prepared in common.prepared_searches("XKeyword", max_size=8):
        produced = common.execute_prepared(prepared, k)
        scores.append(produced)
    return scores


def run_banks(banks: BanksSearcher, k: int = 10) -> list[int]:
    best = []
    for query in common.bench_queries(max_size=8):
        trees = banks.search(list(query.keywords), k=k, max_size=8)
        best.append(trees[0].score if trees else -1)
    return best


def test_xkeyword_topk(benchmark):
    benchmark.group = "vs-baselines-top10"
    benchmark.name = "XKeyword"
    assert sum(benchmark(run_xkeyword)) > 0


def test_banks_topk(benchmark, banks):
    benchmark.group = "vs-baselines-top10"
    benchmark.name = "BANKS (data graph)"
    benchmark(run_banks, banks)


def test_proximity_ranking(benchmark, proximity):
    benchmark.group = "vs-baselines-top10"
    benchmark.name = "Goldman proximity"

    def run():
        total = 0
        for query in common.bench_queries(max_size=8):
            total += len(proximity.rank(query.keywords[0], query.keywords[1], 10))
        return total

    benchmark(run)


def test_result_quality_parity(banks):
    """Both tree-based systems must agree on the best connection size."""
    from repro.core import XKeyword

    engine = common.engine_for("MinClust")
    for query in common.bench_queries(max_size=8):
        xk = engine.search(query, k=1)
        bk = banks.search(list(query.keywords), k=1, max_size=8)
        assert xk.mttons and bk
        assert xk.mttons[0].score == bk[0].score, str(query)
