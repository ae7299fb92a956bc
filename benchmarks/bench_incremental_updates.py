"""Incremental index maintenance vs. full reload (live-update subsystem).

The update manager (:mod:`repro.updates`) patches the master index,
connection relations, BLOBs, and statistics in place of rebuilding
them.  These benchmarks measure:

* the steady-state latency of one in-place document update;
* an insert+delete round trip (state-neutral, so one database serves
  every round);
* the full ``load_database`` rebuild the incremental path replaces.

The ratio of the last to the first is the headline number — the ISSUE's
acceptance bar is >= 10x at DBLP scale.  A *private* database is built
here (same :data:`common.SCALE`) because mutations would corrupt the
memoized shared one other benchmark modules reuse.

Run:  pytest benchmarks/bench_incremental_updates.py --benchmark-only
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import common
from repro.decomposition import minimal_decomposition
from repro.schema import dblp_catalog
from repro.storage import load_database
from repro.updates import UpdateManager
from repro.workloads import DBLPConfig, generate_dblp

_counter = itertools.count()


@lru_cache(maxsize=1)
def mutable_database():
    """A private mutable load at benchmark scale: ``(catalog, decomps, loaded, manager)``."""
    catalog = dblp_catalog()
    graph = generate_dblp(
        DBLPConfig(
            papers=common.SCALE.papers,
            authors=common.SCALE.authors,
            avg_citations=common.SCALE.avg_citations,
            seed=common.SCALE.seed,
        )
    )
    decomps = [minimal_decomposition(catalog.tss)]
    loaded = load_database(graph, catalog, decomps)
    return catalog, decomps, loaded, UpdateManager(loaded)


def paper_update_xml(node_id: str) -> str:
    serial = next(_counter)
    return (
        f'<paper id="{node_id}" ref="a4 p3">'
        f'<title id="{node_id}t">incremental probe {serial}</title>'
        f'<pages id="{node_id}g">1-{serial % 40 + 1}</pages></paper>'
    )


def test_update_in_place(benchmark):
    """Steady-state: replace one paper's subtree, epoch to epoch."""
    _, _, _, manager = mutable_database()
    benchmark(lambda: manager.update_document("p9", paper_update_xml("p9")))


def test_insert_delete_cycle(benchmark):
    """One insert plus the delete that undoes it (state-neutral)."""
    _, _, _, manager = mutable_database()

    def cycle() -> None:
        node_id = f"bm{next(_counter)}"
        manager.insert_document(paper_update_xml(node_id), parent_id="c0y1")
        manager.delete_document(node_id)

    benchmark(cycle)


def test_full_reload(benchmark):
    """The rebuild the incremental path replaces, same mutated graph."""
    catalog, decomps, loaded, _ = mutable_database()
    benchmark(
        lambda: load_database(loaded.graph, catalog, decomps)
    )
