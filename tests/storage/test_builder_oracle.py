"""The SQL relation builder against the Python enumeration oracle.

SQLite builds every connection relation from the target-object graph's
tables; :func:`~tests.storage.oracle.fragment_instances` enumerates the
same embeddings from the in-memory graph.  They must agree row for row
after a load under every decomposition and index policy, for anchored
recomputation, and after random mutation sequences.  A full reload is
no oracle for the last case, since it runs the same builder.
"""

from __future__ import annotations

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.decomposition import (
    IndexPolicy,
    combined_decomposition,
    minimal_decomposition,
    xkeyword_decomposition,
)
from repro.schema import (
    Catalog,
    SchemaGraph,
    dblp_catalog,
    derive_tss_graph,
    tpch_catalog,
    xmark_catalog,
)
from repro.storage import build_target_object_graph, load_database
from repro.storage.persistence import EDGE_TABLE, MEMBER_TABLE, TO_TABLE
from repro.updates import UpdateManager
from repro.workloads import (
    DBLPConfig,
    TPCHConfig,
    XMarkConfig,
    generate_dblp,
    generate_tpch,
    generate_xmark,
)
from repro.xmlgraph import EdgeKind, XMLGraph
from repro.xmlgraph.serializer import serialize_subtree

from .oracle import fragment_instances

CORPORA = {
    "dblp": (
        dblp_catalog,
        lambda: generate_dblp(DBLPConfig(papers=30, authors=15, avg_citations=3.0, seed=11)),
    ),
    "tpch": (tpch_catalog, lambda: generate_tpch(TPCHConfig(persons=8, seed=5))),
    "xmark": (
        xmark_catalog,
        lambda: generate_xmark(XMarkConfig(persons=10, items=8, auctions=10, seed=5)),
    ),
}


def every_decomposition(tss):
    """Minimal under each policy, XKeyword, and Combined (which shares
    its tables with XKeyword and MinClust)."""
    return [
        *(minimal_decomposition(tss, policy) for policy in IndexPolicy),
        xkeyword_decomposition(tss, 4, 1),
        combined_decomposition(tss, 4, 1),
    ]


def load_corpus(name: str, decompositions=every_decomposition):
    catalog_factory, graph_factory = CORPORA[name]
    catalog = catalog_factory()
    return load_database(graph_factory(), catalog, decompositions(catalog.tss))


def target_objects(loaded, tss: str | None = None) -> list[str]:
    """Sorted target-object ids, of one TSS or of all, from the TO table."""
    rows = loaded.database.query(f"SELECT to_id, tss FROM {TO_TABLE} ORDER BY to_id")
    return [to_id for to_id, label in rows if tss in (None, label)]


def assert_relations_match_oracle(loaded, heap_order: bool) -> None:
    """Every physical table holds exactly the oracle's rows.

    With ``heap_order`` a heap table must also hold them in rowid order
    ``sorted(set(rows))``, the order a load inserts them in.
    """
    for store in loaded.stores.values():
        for fragment in store.decomposition.fragments:
            expected = sorted(set(fragment_instances(fragment, loaded.to_graph)))
            for table in store.physical_tables(fragment):
                projection = [fragment.columns.index(c) for c in table.columns]
                want = [tuple(row[p] for p in projection) for row in expected]
                if table.clustered:
                    got = loaded.database.query(f"SELECT * FROM {table.name}")
                    assert sorted(got) == sorted(want), table.name
                else:
                    got = loaded.database.query(
                        f"SELECT * FROM {table.name} ORDER BY rowid"
                    )
                    if heap_order:
                        assert got == want, table.name
                    else:
                        assert sorted(got) == want, table.name


@pytest.fixture(scope="module", params=sorted(CORPORA))
def loaded(request):
    return load_corpus(request.param)


class TestLoad:
    def test_every_table_equals_oracle(self, loaded):
        assert_relations_match_oracle(loaded, heap_order=True)

    def test_every_policy_is_loaded(self, loaded):
        policies = {store.policy for store in loaded.stores.values()}
        assert policies == set(IndexPolicy)
        assert any(
            fragment.size > 1
            for store in loaded.stores.values()
            for fragment in store.decomposition.fragments
        )


class TestAnchored:
    def test_anchored_select_equals_anchored_oracle(self, loaded):
        rng = random.Random(7)
        checked = 0
        for store in loaded.stores.values():
            for fragment in store.decomposition.fragments:
                for role, label in enumerate(fragment.labels):
                    candidates = target_objects(loaded, label)
                    sample = rng.sample(candidates, min(3, len(candidates)))
                    union = set()
                    for to_id in sample:
                        expected = set(
                            fragment_instances(
                                fragment, loaded.to_graph, anchor=(role, to_id)
                            )
                        )
                        assert store.embeddings(fragment, role, [to_id]) == expected
                        union |= expected
                        checked += 1
                    assert store.embeddings(fragment, role, sample) == union
        assert checked > 0

    def test_no_anchor_ids_no_rows(self, loaded):
        store = next(iter(loaded.stores.values()))
        fragment = store.decomposition.fragments[0]
        assert store.embeddings(fragment, 0, []) == set()


def mutation_decompositions(tss):
    return [
        combined_decomposition(tss, 4, 1),
        minimal_decomposition(tss, IndexPolicy.SINGLE_COLUMN_INDEXES),
    ]


mutations = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "replace"]),
        st.integers(min_value=0, max_value=999),
    ),
    min_size=1,
    max_size=6,
)


@pytest.mark.parametrize("corpus", sorted(CORPORA))
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sequence=mutations)
def test_relations_equal_oracle_after_mutations(corpus, sequence):
    """Delete target-object subtrees, replace them with themselves, and
    re-insert deleted ones; rejected mutations are part of the mix."""
    loaded = load_corpus(corpus, mutation_decompositions)
    manager = UpdateManager(loaded)
    graph = loaded.graph
    deleted: list[tuple[str, str | None]] = []
    for op, pick in sequence:
        live = target_objects(loaded)
        if op == "insert" and deleted:
            xml, parent_id = deleted.pop(pick % len(deleted))
            try:
                manager.insert_document(xml, parent_id=parent_id)
            except (ValueError, LookupError):
                pass  # a ref or the parent went with another delete
        elif op in ("delete", "replace") and live:
            to_id = live[pick % len(live)]
            xml = serialize_subtree(graph, to_id)
            if op == "replace":
                manager.update_document(to_id, xml)
            else:
                parent = graph.containment_parent(to_id)
                deleted.append((xml, parent.node_id if parent is not None else None))
                manager.delete_document(to_id)

    assert_relations_match_oracle(loaded, heap_order=False)
    database = loaded.database
    rebuilt = build_target_object_graph(graph, loaded.catalog.tss)
    assert dict(database.query(f"SELECT to_id, tss FROM {TO_TABLE}")) == rebuilt.tss_of_to
    assert dict(database.query(f"SELECT node_id, to_id FROM {MEMBER_TABLE}")) == (
        rebuilt.to_of_node
    )
    assert set(
        database.query(f"SELECT edge_id, source_to, target_to FROM {EDGE_TABLE}")
    ) == set(rebuilt.paths)


def test_edge_with_a_parallel_path_survives_a_delete():
    """A section of ``d1`` and its sibling both reference ``t1``: deleting
    the section on the kept path re-finds the edge through the sibling,
    and the builder's tables must see it again."""
    schema = SchemaGraph()
    for name in ("doc", "sec", "tgt"):
        schema.add_node(name)
    schema.add_edge("doc", "sec")
    schema.add_edge("sec", "tgt", EdgeKind.REFERENCE)
    tss = derive_tss_graph(schema, {"doc": "Doc", "sec": "Doc", "tgt": "Tgt"})
    catalog = Catalog("parallel", schema, tss, frozenset({"tgt"}))
    graph = XMLGraph()
    graph.add_node("d1", "doc")
    graph.add_node("t1", "tgt", "target")
    for sec in ("s1", "s2"):
        graph.add_node(sec, "sec")
        graph.add_edge("d1", sec)
        graph.add_edge(sec, "t1", EdgeKind.REFERENCE)
    loaded = load_database(graph, catalog, [minimal_decomposition(tss)])
    (edge,) = tss.edges()
    kept = loaded.to_graph.path_of(edge.edge_id, "d1", "t1")
    section = next(node for node in kept if node in ("s1", "s2"))

    UpdateManager(loaded).delete_document(section)

    assert loaded.to_graph.path_of(edge.edge_id, "d1", "t1") is not None
    assert loaded.database.query(
        f"SELECT source_to, target_to FROM {EDGE_TABLE}"
    ) == [("d1", "t1")]
    assert_relations_match_oracle(loaded, heap_order=False)
    store = loaded.store("MinClust")
    assert store.scan(store.decomposition.fragments[0]) == [("d1", "t1")]
