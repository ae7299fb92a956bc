"""Unit and equivalence tests for :class:`repro.updates.UpdateManager`.

The oracle throughout is ``assert_equivalent``: after every mutation
the incrementally maintained artifacts must match a from-scratch
``load_database`` of the mutated graph.
"""

from __future__ import annotations

import time

import pytest

from repro.core import KeywordQuery, XKeyword
from repro.decomposition import minimal_decomposition
from repro.schema import Catalog, NodeType, SchemaGraph, derive_tss_graph, tpch_catalog
from repro.storage import load_database
from repro.updates import ReadWriteLock, UpdateManager
from repro.xmlgraph import XMLGraph

from ..conftest import build_figure1_graph
from .conftest import assert_equivalent, build_dblp, frozen_state

NEW_PAPER = (
    '<paper id="np0" ref="a1 a2 p5">'
    '<title id="np0t">incremental proximity maintenance</title>'
    '<pages id="np0g">1-9</pages></paper>'
)
NEW_AUTHOR = '<author id="na0"><aname id="na0n">zelda incremental</aname></author>'


def ranked(loaded, keywords: tuple[str, ...], k: int = 10):
    result = XKeyword(loaded).search(KeywordQuery(keywords), k=k)
    return [(m.score, tuple(sorted(m.assignment))) for m in result.mttons]


class TestInsert:
    def test_insert_matches_full_reload(self, dblp_setup, manager):
        catalog, decomps, loaded = dblp_setup
        report = manager.insert_document(NEW_PAPER, parent_id="c0y1")
        assert report.op == "insert"
        assert report.document_id == "np0"
        assert report.epoch == 1
        assert report.nodes_added == 3
        assert report.index_entries_added > 0
        assert report.target_objects_added == 1
        assert report.relations_touched
        assert "incremental" in report.keywords_touched
        assert_equivalent(catalog, decomps, loaded)

    def test_top_level_insert(self, dblp_setup, manager):
        catalog, decomps, loaded = dblp_setup
        before = manager.snapshot().document_count
        manager.insert_document(NEW_AUTHOR)
        snap = manager.snapshot()
        assert snap.document_count == before + 1
        assert snap.last_mutation_at is not None
        assert_equivalent(catalog, decomps, loaded)

    def test_insert_is_queryable(self, dblp_setup, manager):
        catalog, decomps, loaded = dblp_setup
        assert ranked(loaded, ("incremental",)) == []
        manager.insert_document(NEW_PAPER, parent_id="c0y1")
        hits = ranked(loaded, ("incremental",))
        assert hits and any("np0" in str(a) for _, a in hits)


class TestDelete:
    def test_delete_matches_full_reload(self, dblp_setup, manager):
        catalog, decomps, loaded = dblp_setup
        report = manager.delete_document("p5")
        assert report.op == "delete"
        assert report.nodes_removed > 0
        assert report.index_entries_removed > 0
        assert_equivalent(catalog, decomps, loaded)

    def test_delete_roundtrip_restores_equivalence(self, dblp_setup, manager):
        catalog, decomps, loaded = dblp_setup
        manager.insert_document(NEW_PAPER, parent_id="c0y1")
        manager.delete_document("np0")
        assert_equivalent(catalog, decomps, loaded)
        assert ranked(loaded, ("incremental",)) == []

    def test_top_level_delete_drops_document_count(self, dblp_setup, manager):
        _, _, loaded = dblp_setup
        manager.insert_document(NEW_AUTHOR)
        before = manager.snapshot().document_count
        manager.delete_document("na0")
        assert manager.snapshot().document_count == before - 1


class TestUpdate:
    def test_update_matches_full_reload(self, dblp_setup, manager, monkeypatch):
        catalog, decomps, loaded = dblp_setup
        revised = (
            '<paper id="p7" ref="a3"><title id="p7t">revised sweep</title>'
            '<pages id="p7g">4-44</pages></paper>'
        )
        commits = []
        commit = loaded.database.commit
        monkeypatch.setattr(
            loaded.database, "commit", lambda: commits.append(1) or commit()
        )
        report = manager.update_document("p7", revised)
        assert report.op == "update"
        assert report.document_id == "p7"
        # delete + insert planned together and committed once: one epoch
        assert report.epoch == 1 and loaded.epoch == 1
        assert len(commits) == 1
        assert_equivalent(catalog, decomps, loaded)
        hits = ranked(loaded, ("revised", "sweep"))
        assert hits and any("p7" in str(a) for _, a in hits)

    def test_update_preserves_incoming_references(self, dblp_setup, manager):
        catalog, decomps, loaded = dblp_setup
        # p7 keeps its citers: any paper whose ref list named p7 must
        # still reach the replacement subtree.
        citers = [
            edge.source
            for edge in loaded.graph.in_edges("p7")
            if edge.kind.name == "REFERENCE"
        ]
        manager.update_document(
            "p7",
            '<paper id="p7"><title id="p7t">rewired</title>'
            '<pages id="p7g">1-1</pages></paper>',
        )
        for citer in citers:
            assert any(e.target == "p7" for e in loaded.graph.out_edges(citer))
        assert_equivalent(catalog, decomps, loaded)


class TestStatistics:
    def test_all_four_maps_follow_a_mutation_sequence(self, dblp_setup, manager):
        """Fan-out and fan-in too, not only the counts they derive from,
        and in place: the optimizer keeps the object it was built with."""
        catalog, decomps, loaded = dblp_setup
        statistics = loaded.statistics
        before = (dict(statistics.avg_fanout), dict(statistics.avg_fanin))
        manager.insert_document(NEW_PAPER, parent_id="c0y1")
        manager.delete_document("p5")
        manager.update_document(
            "p7", '<paper id="p7" ref="a1 a2 a3"><title id="p7t">fan out</title></paper>'
        )
        manager.insert_document(NEW_AUTHOR)
        assert loaded.statistics is statistics
        assert (statistics.avg_fanout, statistics.avg_fanin) != before
        fresh = load_database(loaded.graph, catalog, decomps)
        for name in ("tss_counts", "edge_counts", "avg_fanout", "avg_fanin"):
            assert getattr(statistics, name) == getattr(fresh.statistics, name), name


class TestTopKEquivalenceAndSpeed:
    def test_topk_identical_and_10x_faster_than_reload(self):
        """The ISSUE's acceptance bar: a single-document update followed
        by a query returns the same top-k as a full reload of the
        equivalent corpus, and the update is >= 10x faster."""
        catalog, decomps, loaded = build_dblp(papers=800, authors=400)
        manager = UpdateManager(loaded)

        # Best of three: the first update pays one-off warmup costs
        # (cold sqlite page cache, lazily built scan caches) that say
        # nothing about steady-state mutation latency.
        update_seconds = float("inf")
        for attempt in range(3):
            started = time.perf_counter()
            manager.update_document(
                "p9",
                f'<paper id="p9" ref="a4 p3">'
                f'<title id="p9t">adaptive proximity {attempt}</title>'
                '<pages id="p9g">7-12</pages></paper>',
            )
            update_seconds = min(update_seconds, time.perf_counter() - started)

        started = time.perf_counter()
        fresh = load_database(loaded.graph, catalog, decomps)
        reload_seconds = time.perf_counter() - started

        for keywords in (("adaptive", "proximity"), ("smith",), ("p3", "p9")):
            incremental = ranked(loaded, keywords)
            reloaded = ranked(fresh, keywords)
            assert incremental == reloaded, keywords

        assert update_seconds * 10 <= reload_seconds, (
            f"update took {update_seconds * 1000:.1f} ms vs reload "
            f"{reload_seconds * 1000:.1f} ms: less than 10x faster"
        )


class TestValidation:
    def test_malformed_xml_rejected(self, manager):
        with pytest.raises(ValueError):
            manager.insert_document("<paper id='x'", parent_id="c0y1")

    def test_duplicate_node_id_rejected(self, dblp_setup, manager):
        catalog, decomps, loaded = dblp_setup
        clash = NEW_PAPER.replace('id="np0t"', 'id="p5"')
        with pytest.raises(ValueError):
            manager.insert_document(clash, parent_id="c0y1")
        assert_equivalent(catalog, decomps, loaded)  # nothing applied

    def test_unknown_parent_rejected(self, manager):
        with pytest.raises(LookupError):
            manager.insert_document(NEW_PAPER, parent_id="missing")

    def test_unknown_tag_rejected(self, manager):
        with pytest.raises(ValueError):
            manager.insert_document(
                '<thesis id="t0"><title id="t0t">x</title></thesis>',
                parent_id="c0y1",
            )

    def test_dangling_reference_rejected(self, manager):
        dangling = NEW_PAPER.replace('ref="a1 a2 p5"', 'ref="ghost9"')
        with pytest.raises(ValueError):
            manager.insert_document(dangling, parent_id="c0y1")

    def test_unknown_delete_target_rejected(self, manager):
        with pytest.raises(LookupError):
            manager.delete_document("missing")


def choice_database():
    """A catalog whose choice node has *containment* alternatives.

    ``doc`` holds one ``body`` choice realizing either an ``a`` or a
    ``b``; the one document's body already realizes its ``a``.
    """
    schema = SchemaGraph()
    for name in ("doc", "dname", "a", "b"):
        schema.add_node(name)
    schema.add_node("body", NodeType.CHOICE)
    schema.add_edge("doc", "dname", maxoccurs=1)
    schema.add_edge("doc", "body", maxoccurs=1)
    schema.add_edge("body", "a")
    schema.add_edge("body", "b")
    tss = derive_tss_graph(schema, {"doc": "Doc", "dname": "Doc", "a": "A", "b": "B"})
    catalog = Catalog("choice", schema, tss, frozenset({"dname", "a", "b"}))
    graph = XMLGraph()
    for node_id, label, value, parent in (
        ("d1", "doc", None, None),
        ("d1n", "dname", "first", "d1"),
        ("d1b", "body", None, "d1"),
        ("d1a", "a", "alpha", "d1b"),
    ):
        graph.add_node(node_id, label, value)
        if parent is not None:
            graph.add_edge(parent, node_id)
    return load_database(graph, catalog, [minimal_decomposition(catalog.tss)])


def tpch_database():
    catalog = tpch_catalog()
    return load_database(
        build_figure1_graph(), catalog, [minimal_decomposition(catalog.tss)]
    )


# Insert rejections the schema decides: (database, parent, fragment).
SCHEMA_REJECTIONS = {
    "edge-not-in-schema": (
        lambda: build_dblp()[2],
        "c0y1",
        '<paper id="x0"><aname id="x0a">stray</aname></paper>',
    ),
    "fragment-maxoccurs": (
        lambda: build_dblp()[2],
        "c0y1",
        '<paper id="x0"><title id="x0t">one</title><title id="x0u">two</title></paper>',
    ),
    "sibling-maxoccurs": (
        lambda: build_dblp()[2],
        "p5",
        '<title id="x0t">a second title</title>',
    ),
    "root-not-allowed-under-parent": (lambda: build_dblp()[2], "c0y1", NEW_AUTHOR),
    "choice-realizes-two-alternatives": (
        tpch_database,
        "o1",
        '<lineitem id="l9"><quantity id="l9q">3</quantity>'
        '<line id="li9" ref="pa1 pr1"/></lineitem>',
    ),
    "choice-parent-already-realized": (choice_database, "d1b", '<b id="x0">beta</b>'),
}


class TestSchemaRejections:
    @pytest.mark.parametrize("case", sorted(SCHEMA_REJECTIONS))
    def test_insert_rejected_and_nothing_changed(self, case):
        build, parent_id, xml = SCHEMA_REJECTIONS[case]
        manager = UpdateManager(build())
        before = frozen_state(manager)
        with pytest.raises(ValueError):
            manager.insert_document(xml, parent_id=parent_id)
        assert frozen_state(manager) == before


# Replacements rejected after planning both halves: (document, new XML,
# keywords whose answer names the document).
REJECTED_REPLACEMENTS = {
    "malformed-xml": ("p0", "<paper id='x'><title>unclosed", ("proximity", "distributed")),
    "unknown-tag": (
        "p0",
        '<thesis id="p0"><title id="p0t">x</title></thesis>',
        ("proximity", "distributed"),
    ),
    # p30 lives inside c0y1: once the old subtree is gone, the ref dangles.
    "ref-into-removed-subtree": (
        "c0y1",
        '<confyear id="c0y1"><paper id="rz" ref="p30">'
        '<title id="rzt">replacement</title></paper></confyear>',
        ("1999",),
    ),
    # Papers cite author a5; a conference under the same id is no
    # reference target for them, so the citations cannot be restored.
    "restored-ref-outside-schema": (
        "a5",
        '<conference id="a5">renamed</conference>',
        ("hristidis",),
    ),
}


class TestRejectedReplace:
    @pytest.mark.parametrize("case", sorted(REJECTED_REPLACEMENTS))
    def test_old_document_survives(self, dblp_setup, manager, case):
        _, _, loaded = dblp_setup
        document_id, xml, keywords = REJECTED_REPLACEMENTS[case]
        old_ids = {node.node_id for node in loaded.graph.containment_subtree(document_id)}
        assert case != "ref-into-removed-subtree" or "p30" in old_ids
        answer = ranked(loaded, keywords)
        assert any(document_id in str(assignment) for _, assignment in answer)
        before = frozen_state(manager)

        with pytest.raises(ValueError):
            manager.update_document(document_id, xml)

        assert {
            node.node_id for node in loaded.graph.containment_subtree(document_id)
        } == old_ids
        assert loaded.epoch == 0
        assert ranked(loaded, keywords) == answer
        assert frozen_state(manager) == before


class TestReadWriteLock:
    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        events: list[str] = []
        with lock.write():
            events.append("write")
        with lock.read():
            events.append("read")
            with lock.read():  # readers are shared
                events.append("read2")
        assert events == ["write", "read", "read2"]

    def test_epoch_is_monotonic(self, manager):
        epochs = [manager.snapshot().epoch]
        manager.insert_document(NEW_AUTHOR)
        epochs.append(manager.snapshot().epoch)
        manager.delete_document("na0")
        epochs.append(manager.snapshot().epoch)
        assert epochs == sorted(epochs) and len(set(epochs)) == 3
