"""Ablation E8: cross-schema generality — the TPC-H catalog.

The paper's timing experiments run on DBLP; its semantics examples run
on the TPC-H schema (choice nodes, dummy chains, reference edges, part
self-loops).  This ablation runs the full pipeline on synthetic TPC-H
data to show the engine is not DBLP-shaped: top-k search over part/name
keyword pairs, across the minimal and Figure 12 decompositions.

Run:  pytest benchmarks/bench_ablation_tpch.py --benchmark-only
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.core import KeywordQuery, XKeyword
from repro.decomposition import minimal_decomposition, xkeyword_decomposition
from repro.schema import tpch_catalog
from repro.storage import load_database
from repro.workloads import TPCHConfig, generate_tpch


@lru_cache(maxsize=1)
def tpch_database():
    catalog = tpch_catalog()
    graph = generate_tpch(
        TPCHConfig(persons=120, orders_per_person=3, lineitems_per_order=4,
                   parts=60, products=30, seed=23)
    )
    decompositions = [
        minimal_decomposition(catalog.tss),
        xkeyword_decomposition(catalog.tss, 5, 2),
    ]
    return load_database(graph, catalog, decompositions)


@lru_cache(maxsize=1)
def tpch_queries() -> tuple[KeywordQuery, ...]:
    loaded = tpch_database()
    pairs = []
    rows = loaded.database.query(
        "SELECT DISTINCT keyword FROM master_index "
        "WHERE schema_node = 'pa_name' ORDER BY keyword LIMIT 6"
    )
    names = [row[0] for row in rows]
    for i in range(0, len(names) - 1, 2):
        pairs.append(KeywordQuery((names[i], names[i + 1]), max_size=8))
    return tuple(pairs)


@pytest.mark.parametrize("decomposition", ("MinClust", "XKeyword"))
def test_tpch_topk(benchmark, decomposition):
    benchmark.group = "tpch-top10"
    benchmark.name = decomposition
    loaded = tpch_database()
    engine = XKeyword(loaded, store_priority=[decomposition])

    def run() -> int:
        total = 0
        for query in tpch_queries():
            total += len(engine.search(query, k=10).mttons)
        return total

    produced = benchmark(run)
    assert produced > 0


def test_tpch_choice_exclusivity():
    """Shape check: no result ever pairs a part and a product through
    one lineitem (the line choice node forbids it)."""
    loaded = tpch_database()
    engine = XKeyword(loaded)
    for query in tpch_queries():
        for mtton in engine.search(query, k=None).mttons:
            lineitem_targets: dict[str, set[str]] = {}
            for edge in mtton.edges:
                if edge.edge_id in ("Lineitem=>Part", "Lineitem=>Product"):
                    lineitem_targets.setdefault(edge.source_to, set()).add(
                        edge.edge_id
                    )
            for used in lineitem_targets.values():
                assert len(used) == 1
