"""Shared fixtures: catalogs, the paper's running example, loaded DBs."""

from __future__ import annotations

import os

import pytest

from repro.decomposition import minimal_decomposition
from repro.schema import dblp_catalog, tpch_catalog
from repro.storage import load_database
from repro.workloads import DBLPConfig, TPCHConfig, generate_dblp, generate_tpch
from repro.xmlgraph import EdgeKind, XMLGraph

# REPRO_SANITIZE=1 runs the whole session under the runtime lock
# sanitizer (see repro.analysis.sanitizer): project lock allocations are
# wrapped, ReadWriteLock is instrumented, and any RS4xx finding fails
# the run at session end.
_SANITIZE = os.environ.get("REPRO_SANITIZE") == "1"
if _SANITIZE:
    from repro.analysis import sanitizer as _sanitizer

    _sanitizer.enable()


# Acquisition-order edges the sanitizer observes but the static lock
# graph (``repro.analysis.lockgraph``) cannot derive, each with the
# reason.  Every other observed edge must be a static one, so RA105's
# cycle check sees it.
DYNAMIC_ONLY_EDGES = {
    ("UpdateManager._rwlock", "TraceStore._lock"): (
        "a traced search takes the read side through QueryService._read() "
        "-> UpdateManager.read(), wrappers the walker deliberately does "
        "not resolve (DESIGN.md section 12)"
    ),
}


def unexplained_edges(sanitizer) -> list:
    """Observed edges that are neither static nor in DYNAMIC_ONLY_EDGES."""
    static = set(sanitizer._static_graph().edge_set())
    return [
        edge
        for edge in sanitizer.observed_edges()
        if (edge.held, edge.acquired) not in static
        and (edge.held, edge.acquired) not in DYNAMIC_ONLY_EDGES
    ]


def pytest_sessionfinish(session, exitstatus):
    if not _SANITIZE:
        return
    from repro.analysis import sanitizer as _sanitizer

    if not _sanitizer.enabled():  # a test disabled it and did not restore
        return
    findings = _sanitizer.report()
    if findings:
        print("\nrepro sanitizer: findings at session end:")
        for finding in findings:
            print(f"  {finding.render()}")
        session.exitstatus = 1
    unexplained = unexplained_edges(_sanitizer)
    if unexplained:
        print("\nrepro sanitizer: observed edges missing from the static graph:")
        for edge in unexplained:
            print(f"  {edge.held} -> {edge.acquired} at {edge.path}:{edge.line}")
        session.exitstatus = 1


@pytest.fixture(scope="session")
def tpch():
    return tpch_catalog()


@pytest.fixture(scope="session")
def dblp():
    return dblp_catalog()


def build_figure1_graph() -> XMLGraph:
    """A hand-built graph mirroring the paper's Figures 1 and 2.

    * Figure 2 core: John (US) supplies lineitems l1 and l2 of order o1
      (placed by Mike); both lines reference the TV part pa3 (key 1005),
      which contains the VCR subparts pa1 (1008) and pa2 (1009).  The
      keyword query {us, vcr} then has the four results N1..N4 with the
      multivalued redundancy the paper discusses.
    * Figure 1 extras: order o2 (by Mike) has lineitem l3, supplied by
      John, whose line references the product pr1 "set of VCR and DVD"
      (prodkey 2005); Mike issued a service call about pr1 ("DVD error").
      John-VCR thus has the paper's size-6 product result and size-8
      subpart result.
    """
    g = XMLGraph()

    def leaf(parent: str, node_id: str, label: str, value: str) -> None:
        g.add_node(node_id, label, value)
        g.add_edge(parent, node_id)

    g.add_node("p1", "person")
    leaf("p1", "p1n", "pname", "John")
    leaf("p1", "p1c", "nation", "US")
    g.add_node("p2", "person")
    leaf("p2", "p2n", "pname", "Mike")
    leaf("p2", "p2c", "nation", "US")

    # Catalog roots: the TV part tree and the product.
    g.add_node("pa3", "part")
    leaf("pa3", "pa3k", "pa_key", "1005")
    leaf("pa3", "pa3n", "pa_name", "TV")
    g.add_node("s1", "sub")
    g.add_edge("pa3", "s1")
    g.add_node("pa1", "part")
    g.add_edge("s1", "pa1")
    leaf("pa1", "pa1k", "pa_key", "1008")
    leaf("pa1", "pa1n", "pa_name", "VCR")
    g.add_node("s2", "sub")
    g.add_edge("pa3", "s2")
    g.add_node("pa2", "part")
    g.add_edge("s2", "pa2")
    leaf("pa2", "pa2k", "pa_key", "1009")
    leaf("pa2", "pa2n", "pa_name", "VCR")

    g.add_node("pr1", "product")
    leaf("pr1", "pr1k", "prodkey", "2005")
    leaf("pr1", "pr1d", "pr_descr", "set of VCR and DVD")

    def lineitem(node_id: str, order: str, qty: str, ship: str,
                 supplier: str, target: str) -> None:
        g.add_node(node_id, "lineitem")
        g.add_edge(order, node_id)
        leaf(node_id, f"{node_id}q", "quantity", qty)
        leaf(node_id, f"{node_id}s", "ship", ship)
        g.add_node(f"su_{node_id}", "supplier")
        g.add_edge(node_id, f"su_{node_id}")
        g.add_edge(f"su_{node_id}", supplier, EdgeKind.REFERENCE)
        g.add_node(f"li_{node_id}", "line")
        g.add_edge(node_id, f"li_{node_id}")
        g.add_edge(f"li_{node_id}", target, EdgeKind.REFERENCE)

    # Figure 2: Mike's order, both lineitems supplied by John, both
    # lines referencing the TV part.
    g.add_node("o1", "order")
    g.add_edge("p2", "o1")
    leaf("o1", "o1d", "o_date", "2002-10-01")
    lineitem("l1", "o1", "10", "2002-10-15", "p1", "pa3")
    lineitem("l2", "o1", "10", "2002-10-22", "p1", "pa3")

    # Figure 1: Mike's second order; l3 supplied by John references pr1.
    g.add_node("o2", "order")
    g.add_edge("p2", "o2")
    leaf("o2", "o2d", "o_date", "2002-11-02")
    lineitem("l3", "o2", "6", "2002-10-03", "p1", "pr1")

    # Service call by Mike concerning the product.
    g.add_node("sc1", "service_call")
    g.add_edge("p2", "sc1")
    leaf("sc1", "sc1d", "sc_date", "2002-11-20")
    leaf("sc1", "sc1e", "sc_descr", "DVD error")
    g.add_edge("sc1", "pr1", EdgeKind.REFERENCE)
    return g


@pytest.fixture(scope="session")
def figure1_graph():
    return build_figure1_graph()


@pytest.fixture(scope="session")
def figure1_db(figure1_graph, tpch):
    return load_database(
        figure1_graph, tpch, [minimal_decomposition(tpch.tss)]
    )


@pytest.fixture(scope="session")
def small_dblp_graph():
    return generate_dblp(DBLPConfig(papers=60, authors=30, avg_citations=3.0, seed=3))


@pytest.fixture(scope="session")
def small_dblp_db(small_dblp_graph, dblp):
    return load_database(
        small_dblp_graph, dblp, [minimal_decomposition(dblp.tss)]
    )


@pytest.fixture(scope="session")
def small_tpch_graph():
    return generate_tpch(TPCHConfig(persons=10, seed=5))


@pytest.fixture(scope="session")
def small_tpch_db(small_tpch_graph, tpch):
    return load_database(
        small_tpch_graph, tpch, [minimal_decomposition(tpch.tss)]
    )
