"""Overhead of the runtime lockset sanitizer (``REPRO_SANITIZE=1``).

Two claims are quantified on a mixed query+update workload (the Figure
15(a) top-k configuration plus a state-neutral insert/delete cycle):

* ``mixed/off`` — with the sanitizer disabled the primitives are the
  *pristine* originals: ``threading.Lock`` is the interpreter's own
  factory and ``ReadWriteLock``'s methods are untouched, both asserted
  by identity.  The off path therefore costs structurally nothing
  (<1% is the acceptance bar; identical code is 0%).
* ``mixed/sanitize`` — the same workload with every project lock
  wrapped and every ReadWriteLock transition recorded into the ring
  buffer.  The delta against ``mixed/off`` is what a CI stress run
  pays; the run must also end with zero RS4xx findings.

A private database is built per mode — lock wrapping happens at
allocation time, so each variant must construct its locks under the
instrumentation state it measures.

Run:  pytest benchmarks/bench_sanitizer_overhead.py --benchmark-only
"""

from __future__ import annotations

import itertools
import random
import threading

import pytest

import common
from repro.analysis import sanitizer
from repro.core import KeywordQuery, XKeyword
from repro.decomposition import minimal_decomposition
from repro.schema import dblp_catalog
from repro.storage import load_database
from repro.updates import UpdateManager
from repro.updates.rwlock import ReadWriteLock
from repro.workloads import DBLPConfig, generate_dblp

# Captured at import, while nothing is instrumented: the identity
# baseline the "off" variant is checked against.
PRISTINE_LOCK = threading.Lock
PRISTINE_RWLOCK_METHODS = (
    ReadWriteLock.acquire_read,
    ReadWriteLock.release_read,
    ReadWriteLock.acquire_write,
    ReadWriteLock.release_write,
)

K = 5
QUERIES = 2
_counter = itertools.count()


def build_setup():
    """A private modest-scale DBLP load: ``(loaded, manager, engine, queries)``."""
    catalog = dblp_catalog()
    graph = generate_dblp(
        DBLPConfig(papers=160, authors=80, avg_citations=4.0, seed=common.SCALE.seed)
    )
    loaded = load_database(graph, catalog, [minimal_decomposition(catalog.tss)])
    manager = UpdateManager(loaded)
    engine = XKeyword(loaded)
    return loaded, manager, engine, _coauthor_queries(graph)


def _coauthor_queries(graph) -> list[KeywordQuery]:
    """Two-author queries with guaranteed results (as in common.bench_queries)."""
    rng = random.Random(common.SCALE.seed)
    name_of = {}
    for node in graph.nodes():
        if node.label == "aname" and node.value:
            author = graph.containment_parent(node.node_id).node_id
            name_of[author] = node.value.split()[-1]
    pairs = set()
    for node in graph.nodes():
        if node.label != "paper":
            continue
        authors = [
            edge.target
            for edge in graph.out_edges(node.node_id)
            if edge.is_reference and graph.node(edge.target).label == "author"
        ]
        if len(authors) >= 2 and name_of[authors[0]] != name_of[authors[1]]:
            pairs.add(tuple(sorted((name_of[authors[0]], name_of[authors[1]]))))
    ordered = sorted(pairs)
    rng.shuffle(ordered)
    return [KeywordQuery(pair, max_size=8) for pair in ordered[:QUERIES]]


def run_mixed(manager, engine, queries) -> int:
    """The measured unit: top-k queries under the read lock, then one
    state-neutral insert/delete cycle through the write path."""
    produced = 0
    for query in queries:
        with manager.read():
            produced += len(engine.search(query, k=K).mttons)
    node_id = f"sb{next(_counter)}"
    manager.insert_document(
        f'<paper id="{node_id}" ref="a1 a2">'
        f'<title id="{node_id}t">sanitizer probe</title></paper>',
        parent_id="c0y1",
    )
    manager.delete_document(node_id)
    return produced


@pytest.mark.parametrize("mode", ("off", "sanitize"))
def test_mixed_workload(benchmark, mode):
    benchmark.group = "sanitizer-overhead"
    benchmark.name = f"mixed/{mode}"
    if mode == "off":
        # The disabled path *is* the pristine path — by identity, not
        # by measurement, so it cannot regress past the <1% bar.
        assert threading.Lock is PRISTINE_LOCK
        assert threading.Lock is sanitizer._original_lock
        assert (
            ReadWriteLock.acquire_read,
            ReadWriteLock.release_read,
            ReadWriteLock.acquire_write,
            ReadWriteLock.release_write,
        ) == PRISTINE_RWLOCK_METHODS
        _, manager, engine, queries = build_setup()
        produced = benchmark(run_mixed, manager, engine, queries)
        assert produced > 0
        return

    sanitizer.enable()
    try:
        _, manager, engine, queries = build_setup()
        assert isinstance(manager._snapshot_lock, sanitizer.TrackedLock)
        produced = benchmark(run_mixed, manager, engine, queries)
        assert produced > 0
        assert sanitizer.report() == []
    finally:
        sanitizer.reset()
        sanitizer.disable()
    assert threading.Lock is PRISTINE_LOCK
