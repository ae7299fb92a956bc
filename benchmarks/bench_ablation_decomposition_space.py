"""Ablation E5: space and load cost per decomposition strategy.

The Section 5.1 trade-off in numbers: fragment counts, materialized
rows, and load time for every decomposition the paper compares.  The
MVD fragments of the Complete decomposition blow its row count up by an
order of magnitude over the minimal one — the paper's reason to prefer
the (inlined, non-MVD) Figure 12 output.

Run:  pytest benchmarks/bench_ablation_decomposition_space.py --benchmark-only
"""

from __future__ import annotations

import pytest

import common
from repro.decomposition import FragmentClass, classify_fragment
from repro.schema import dblp_catalog
from repro.storage import Database, RelationStore, build_target_object_graph, store_metadata


@pytest.fixture(scope="module")
def to_graph():
    loaded = common.bench_database()
    return build_target_object_graph(loaded.graph, loaded.catalog.tss)


@pytest.mark.parametrize(
    "decomposition", common.build_decompositions(), ids=lambda d: d.name
)
def test_ablation_load_time(benchmark, decomposition, to_graph):
    """Benchmark the relation-materialization stage per decomposition."""
    benchmark.group = "ablation-load"
    benchmark.name = decomposition.name

    def load_once():
        database = Database()
        store_metadata(database, to_graph)
        store = RelationStore(database, decomposition)
        store.create()
        counts = store.load()
        database.close()
        return sum(counts.values())

    rows = benchmark.pedantic(load_once, rounds=2, iterations=1)
    assert rows > 0


def test_ablation_space_report(to_graph):
    """Print the paper-style space table and check the MVD blow-up."""
    catalog = dblp_catalog()
    totals = {}
    print("\ndecomposition      fragments  mvd  rows")
    for decomposition in common.build_decompositions():
        database = Database()
        store_metadata(database, to_graph)
        store = RelationStore(database, decomposition)
        store.create()
        counts = store.load()
        rows = sum(counts.values())
        mvd = sum(
            1
            for fragment in decomposition.fragments
            if classify_fragment(fragment, catalog.tss).fragment_class
            is FragmentClass.MVD
        )
        totals[decomposition.name] = rows
        print(
            f"{decomposition.name:<18} {len(decomposition.fragments):>9} "
            f"{mvd:>4} {rows:>9}"
        )
        database.close()
    # The MVD blow-up: every decomposition carrying MVD fragments costs
    # an order of magnitude more space than the minimal one.  (On DBLP's
    # citation-heavy schema even the Figure 12 algorithm must admit MVD
    # fragments to honor B; see EXPERIMENTS.md.)
    assert totals["Complete"] > 5 * totals["MinClust"], totals
    assert totals["XKeyword"] > 5 * totals["MinClust"], totals
