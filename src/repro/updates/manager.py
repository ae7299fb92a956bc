"""Incremental index maintenance: live inserts, deletes, and updates.

The load stage (:mod:`repro.storage.decomposer`) builds five artifacts
from an XML graph: the master index, the target-object graph, the
statistics, the BLOBs, and the connection relations.  This module keeps
all five consistent under *document-granularity mutations* without
reloading: a mutation recomputes exactly the parts of each artifact the
touched containment subtree can reach, which on realistic corpora is
orders of magnitude less work than a full reload.

Soundness rests on two locality arguments:

* **Insert** — every new TSS-edge instance must traverse at least one
  added edge (fragment-internal, the attach edge, or a boundary
  reference), and every added edge touches a fragment node.  So matching
  schema paths from the fragment nodes plus the nodes within
  ``max schema-path length − 1`` backward hops of the boundary finds all
  new instances.
* **Delete** — every lost instance has a realizing node path meeting the
  deleted subtree, so :meth:`TargetObjectGraph.instances_touching` over
  the subtree's node ids finds all of them.  A removed instance whose
  endpoints both survive may still be realized by a *parallel* surviving
  node path; those are re-matched after the removal.

Connection relations change only in rows binding a *touched* target
object (new, removed, or an endpoint of an added/removed edge instance),
so the delta deletes and re-enumerates exactly those rows, using
anchored :func:`~repro.storage.relations.fragment_instances` enumeration.

Concurrency follows single-writer/multi-reader discipline: queries run
under :meth:`UpdateManager.read`, mutations hold the write side of a
writer-preferring :class:`~repro.updates.rwlock.ReadWriteLock`, and each
mutation publishes an immutable :class:`IndexSnapshot` so observers never
see a torn index.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass

from ..schema.graph import UNBOUNDED
from ..storage.decomposer import LoadedDatabase
from ..storage.fingerprint import VersionVector
from ..storage.persistence import (
    apply_metadata_delta,
    load_index_epoch,
    store_index_epoch,
)
from ..storage.relations import fragment_instances
from ..storage.target_objects import EdgeInstance, find_to_root, match_schema_path
from ..trace import NULL_TRACER
from ..xmlgraph.model import Edge, EdgeKind, XMLGraph, XMLGraphError
from ..xmlgraph.parser import ParseOptions, parse_fragment
from .rwlock import ReadWriteLock


@dataclass(frozen=True)
class IndexSnapshot:
    """Immutable view of the index's mutation state, swapped atomically."""

    epoch: int
    document_count: int
    last_mutation_at: float | None


@dataclass
class MutationReport:
    """What one mutation changed, artifact by artifact."""

    op: str
    document_id: str
    epoch: int = 0
    seconds: float = 0.0
    nodes_added: int = 0
    nodes_removed: int = 0
    index_entries_added: int = 0
    index_entries_removed: int = 0
    target_objects_added: int = 0
    target_objects_removed: int = 0
    relation_rows_added: int = 0
    relation_rows_removed: int = 0
    keywords_touched: tuple[str, ...] = ()
    relations_touched: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["keywords_touched"] = list(self.keywords_touched)
        payload["relations_touched"] = list(self.relations_touched)
        return payload


class _MergedView:
    """Read-only union of the live graph, a fragment, and boundary edges.

    Duck-types the :class:`~repro.xmlgraph.model.XMLGraph` surface that
    target-object assignment and schema-path matching need, so the
    insert path can discover the post-merge index state *before* any
    shared structure is mutated.
    """

    def __init__(self, graph: XMLGraph, fragment: XMLGraph, boundary) -> None:
        self._graph = graph
        self._fragment = fragment
        self._extra_out: dict[str, list[Edge]] = {}
        self._extra_in: dict[str, list[Edge]] = {}
        for edge in boundary:
            self._extra_out.setdefault(edge.source, []).append(edge)
            self._extra_in.setdefault(edge.target, []).append(edge)

    def has_node(self, node_id: str) -> bool:
        return self._fragment.has_node(node_id) or self._graph.has_node(node_id)

    def node(self, node_id: str):
        if self._fragment.has_node(node_id):
            return self._fragment.node(node_id)
        return self._graph.node(node_id)

    def out_edges(self, node_id: str) -> list[Edge]:
        if self._fragment.has_node(node_id):
            base = self._fragment.out_edges(node_id)
        else:
            base = self._graph.out_edges(node_id)
        return base + self._extra_out.get(node_id, [])

    def in_edges(self, node_id: str) -> list[Edge]:
        if self._fragment.has_node(node_id):
            base = self._fragment.in_edges(node_id)
        else:
            base = self._graph.in_edges(node_id)
        return base + self._extra_in.get(node_id, [])

    def containment_parent(self, node_id: str):
        for edge in self._extra_in.get(node_id, ()):
            if edge.is_containment:
                return self.node(edge.source)
        if self._fragment.has_node(node_id):
            return self._fragment.containment_parent(node_id)
        return self._graph.containment_parent(node_id)


class UpdateManager:
    """Single-writer live mutations over one :class:`LoadedDatabase`.

    Raises:
        ValueError: When the database was reopened from persisted
            metadata (``loaded.graph is None``) — such databases lack
            the node-level graph mutations need and stay read-only.
    """

    def __init__(
        self,
        loaded: LoadedDatabase,
        versions: VersionVector | None = None,
        tracer=NULL_TRACER,
        clock=time.time,
    ) -> None:
        if loaded.graph is None:
            raise ValueError(
                "database was reopened without its XML graph; "
                "mutations need the full graph, reload from source to enable them"
            )
        self.loaded = loaded
        self.versions = versions if versions is not None else VersionVector()
        self.tracer = tracer
        self._clock = clock
        self._rwlock = ReadWriteLock()
        self._snapshot_lock = threading.Lock()
        # A fresh load starts at epoch 0; a database that saw mutations
        # in an earlier process resumes from its persisted epoch so the
        # counter stays monotonic across restarts.
        loaded.epoch = max(loaded.epoch, load_index_epoch(loaded.database))
        self._documents = {  # guarded by: self._rwlock [rw]
            node.node_id for node in loaded.graph.roots()
        }
        self._last_mutation_at: float | None = None
        self._max_path_len = max(
            (len(edge.path) for edge in loaded.catalog.tss.edges()), default=1
        )
        self._snapshot = IndexSnapshot(  # guarded by: self._snapshot_lock
            loaded.epoch, len(self._documents), None
        )

    # ------------------------------------------------------------------
    # Reader surface
    # ------------------------------------------------------------------
    def read(self):
        """Context manager queries hold so mutations cannot tear them."""
        return self._rwlock.read()

    def snapshot(self) -> IndexSnapshot:
        with self._snapshot_lock:
            return self._snapshot

    # ------------------------------------------------------------------
    # Mutation surface
    # ------------------------------------------------------------------
    def insert_document(
        self,
        xml_text: str,
        parent_id: str | None = None,
        options: ParseOptions | None = None,
    ) -> MutationReport:
        """Insert one document (or subtree under ``parent_id``).

        Raises:
            ValueError: Malformed XML, id collisions, schema violations,
                or dangling references.
            LookupError: Unknown ``parent_id``.
        """
        trace = self.tracer.begin("mutation:insert", kind="mutation", op="insert")
        try:
            with self._rwlock.write():
                # analysis: blocking-ok[mutations persist durably (sqlite
                # delta + commit) before the write lock is released, so
                # readers never see an index ahead of its database]
                report = self._insert_locked(
                    xml_text, parent_id=parent_id, options=options, trace=trace
                )
            trace.root.annotate(**report.to_dict())
            return report
        finally:
            self.tracer.finish(trace)

    def delete_document(self, document_id: str) -> MutationReport:
        """Delete the containment subtree rooted at ``document_id``.

        Raises:
            LookupError: Unknown document id.
        """
        trace = self.tracer.begin("mutation:delete", kind="mutation", op="delete")
        try:
            with self._rwlock.write():
                # analysis: blocking-ok[delete persists its delta and
                # commits before the write lock is released]
                report = self._delete_locked(document_id, trace=trace)
            trace.root.annotate(**report.to_dict())
            return report
        finally:
            self.tracer.finish(trace)

    def update_document(
        self,
        document_id: str,
        xml_text: str,
        options: ParseOptions | None = None,
    ) -> MutationReport:
        """Replace one document in place: delete + insert under one lock.

        The replacement keeps the original attachment point, takes over
        the original root id when the new XML names no id of its own,
        and restores references that pointed *into* the old subtree
        whenever the replacement re-creates their target ids.
        """
        trace = self.tracer.begin("mutation:update", kind="mutation", op="update")
        try:
            with self._rwlock.write():
                graph = self.loaded.graph
                if not graph.has_node(document_id):
                    raise LookupError(f"unknown document {document_id!r}")
                parent = graph.containment_parent(document_id)
                subtree_ids = {
                    node.node_id for node in graph.containment_subtree(document_id)
                }
                incoming_refs = sorted(
                    {
                        (edge.source, edge.target)
                        for node_id in subtree_ids
                        for edge in graph.in_edges(node_id)
                        if edge.is_reference and edge.source not in subtree_ids
                    }
                )
                # analysis: blocking-ok[replace is delete+insert under one
                # write lock; both halves commit before it is released]
                removal = self._delete_locked(document_id, trace=trace)
                # analysis: blocking-ok[second half of the atomic replace;
                # same durability argument as the delete above]
                insertion = self._insert_locked(
                    xml_text,
                    parent_id=parent.node_id if parent is not None else None,
                    options=options,
                    root_id_override=document_id,
                    restore_refs=incoming_refs,
                    trace=trace,
                )
            report = MutationReport(
                op="update",
                document_id=insertion.document_id,
                epoch=insertion.epoch,
                seconds=removal.seconds + insertion.seconds,
                nodes_added=insertion.nodes_added,
                nodes_removed=removal.nodes_removed,
                index_entries_added=insertion.index_entries_added,
                index_entries_removed=removal.index_entries_removed,
                target_objects_added=insertion.target_objects_added,
                target_objects_removed=removal.target_objects_removed,
                relation_rows_added=removal.relation_rows_added
                + insertion.relation_rows_added,
                relation_rows_removed=removal.relation_rows_removed
                + insertion.relation_rows_removed,
                keywords_touched=tuple(
                    sorted(set(removal.keywords_touched) | set(insertion.keywords_touched))
                ),
                relations_touched=tuple(
                    sorted(
                        set(removal.relations_touched) | set(insertion.relations_touched)
                    )
                ),
            )
            trace.root.annotate(**report.to_dict())
            return report
        finally:
            self.tracer.finish(trace)

    # ------------------------------------------------------------------
    # Insert internals
    # ------------------------------------------------------------------
    def _insert_locked(
        self,
        xml_text: str,
        parent_id: str | None,
        options: ParseOptions | None,
        trace,
        root_id_override: str | None = None,
        restore_refs=(),
    ) -> MutationReport:
        started = time.perf_counter()
        loaded = self.loaded
        graph = loaded.graph
        schema = loaded.catalog.schema
        tss_graph = loaded.catalog.tss

        span = trace.span("validate", op="insert")
        parse_options = options or ParseOptions(id_prefix=f"u{loaded.epoch}n")
        try:
            fragment, external_refs, root_id = parse_fragment(xml_text, parse_options)
        except XMLGraphError as exc:
            span.finish()
            raise ValueError(str(exc)) from exc
        if root_id_override is not None and root_id_override != root_id:
            fragment, external_refs, root_id = _rename_root(
                fragment, external_refs, root_id, root_id_override
            )
        restore_refs = [
            (source, target)
            for source, target in restore_refs
            if fragment.has_node(target)
            and graph.has_node(source)
            and schema.find_edge(
                graph.node(source).label,
                fragment.node(target).label,
                EdgeKind.REFERENCE,
            )
            is not None
        ]
        self._validate_insert(fragment, external_refs, parent_id, root_id)
        span.finish()

        span = trace.span("discover", op="insert")
        boundary: list[Edge] = []
        if parent_id is not None:
            boundary.append(Edge(parent_id, root_id, EdgeKind.CONTAINMENT))
        boundary.extend(
            Edge(source, target, EdgeKind.REFERENCE) for source, target in external_refs
        )
        boundary.extend(
            Edge(source, target, EdgeKind.REFERENCE) for source, target in restore_refs
        )
        view = _MergedView(graph, fragment, boundary)

        # Target-object assignment over the merged view.  The TO root of
        # a fragment node may lie in the live graph (an intra-TSS insert
        # growing an existing target object).
        frag_member_of: dict[str, str] = {}
        new_tos: dict[str, str] = {}
        for node in fragment.nodes():
            tss_name = tss_graph.tss_of(node.label)
            if tss_name is None:
                continue
            try:
                to_root = find_to_root(view, node.node_id, tss_graph)
            except XMLGraphError as exc:
                raise ValueError(str(exc)) from exc
            frag_member_of[node.node_id] = to_root
            if fragment.has_node(to_root):
                new_tos[to_root] = tss_name
        member_changed = {
            to_root for to_root in frag_member_of.values() if to_root not in new_tos
        }

        def to_of(node_id: str) -> str | None:
            return frag_member_of.get(node_id) or loaded.to_graph.to_of_node.get(node_id)

        # Every new edge instance traverses an added edge, and every
        # added edge touches a fragment node, so origins within
        # max-path-length − 1 backward hops of the added-edge sources
        # cover all schema paths that could realize a new instance.
        frag_ids = set(fragment.node_ids())
        origins = frag_ids | {edge.source for edge in boundary}
        frontier = list(origins)
        for _ in range(self._max_path_len - 1):
            next_frontier = []
            for node_id in frontier:
                for edge in view.in_edges(node_id):
                    if edge.source not in origins:
                        origins.add(edge.source)
                        next_frontier.append(edge.source)
            frontier = next_frontier
            if not frontier:
                break
        new_instances: list[EdgeInstance] = []
        seen_keys: set[tuple[str, str, str]] = set()
        for tss_edge in tss_graph.edges():
            origin_label = tss_edge.path[0].source
            for origin in origins:
                if view.node(origin).label != origin_label:
                    continue
                for node_path in match_schema_path(view, origin, tss_edge.path):
                    if not frag_ids.intersection(node_path):
                        continue
                    source_to = to_of(node_path[0])
                    target_to = to_of(node_path[-1])
                    if source_to is None or target_to is None:
                        continue
                    key = (tss_edge.edge_id, source_to, target_to)
                    if key in seen_keys or loaded.to_graph.has_instance(*key):
                        continue
                    seen_keys.add(key)
                    new_instances.append(
                        EdgeInstance(tss_edge.edge_id, source_to, target_to, node_path)
                    )
        span.finish()

        span = trace.span("apply", op="insert")
        for node in fragment.nodes():
            graph.add_node(node.node_id, node.label, node.value)
        for edge in fragment.edges():
            graph.add_edge(edge.source, edge.target, edge.kind)
        for edge in boundary:
            if not graph.has_edge(edge.source, edge.target, edge.kind):
                graph.add_edge(edge.source, edge.target, edge.kind)
        for to_id, tss_name in new_tos.items():
            loaded.to_graph.add_target_object(to_id, tss_name)
        for node_id, to_id in frag_member_of.items():
            loaded.to_graph.add_member(to_id, node_id)
        for instance in new_instances:
            loaded.to_graph.add_instance(instance)

        entries_added, keywords = loaded.master_index.add_entries(
            fragment.nodes(),
            frag_member_of,
            loaded.catalog.text_nodes,
            index_tags=loaded.index_tags,
        )

        touched = set(new_tos)
        for instance in new_instances:
            touched.add(instance.source_to)
            touched.add(instance.target_to)
        surviving_by_tss: dict[str, set[str]] = {}
        for to_id in touched:
            tss_name = new_tos.get(to_id) or loaded.to_graph.tss_of_to[to_id]
            surviving_by_tss.setdefault(tss_name, set()).add(to_id)
        relations_touched, rows_added, rows_removed = self._relation_delta(
            surviving_by_tss, delete_ids=touched, touched_tss=set(surviving_by_tss)
        )

        # Restored references change the *source* main-graph node's
        # serialized ref attribute, so its TO needs a fresh BLOB too.
        restore_source_tos = {
            loaded.to_graph.to_of_node[source]
            for source, _ in restore_refs
            if source in loaded.to_graph.to_of_node
        }
        loaded.blobs.store_for(
            graph,
            loaded.to_graph,
            set(new_tos) | member_changed | restore_source_tos,
        )
        apply_metadata_delta(
            loaded.database,
            new_target_objects=sorted(new_tos.items()),
            new_members=sorted(frag_member_of.items()),
            new_instances=new_instances,
        )
        loaded.statistics.refresh_from(loaded.to_graph)
        # The epoch advances inside the mutation's transaction so a
        # restarted process resumes from a monotonic counter.
        loaded.epoch += 1
        store_index_epoch(loaded.database, loaded.epoch)
        loaded.database.commit()
        span.finish()

        self.versions.bump(keywords, relations_touched)
        if parent_id is None:
            self._documents.add(root_id)
        self._publish()
        return MutationReport(
            op="insert",
            document_id=root_id,
            epoch=loaded.epoch,
            seconds=time.perf_counter() - started,
            nodes_added=fragment.node_count,
            index_entries_added=entries_added,
            target_objects_added=len(new_tos),
            relation_rows_added=rows_added,
            relation_rows_removed=rows_removed,
            keywords_touched=tuple(sorted(keywords)),
            relations_touched=tuple(sorted(relations_touched)),
        )

    def _validate_insert(
        self,
        fragment: XMLGraph,
        external_refs,
        parent_id: str | None,
        root_id: str,
    ) -> None:
        """All-or-nothing phase 1: reject before any shared-state write."""
        loaded = self.loaded
        graph = loaded.graph
        schema = loaded.catalog.schema
        for node_id in fragment.node_ids():
            if graph.has_node(node_id):
                raise ValueError(f"node id {node_id!r} already exists in the database")
        for node in fragment.nodes():
            if not schema.has_node(node.label):
                raise ValueError(f"unknown element tag {node.label!r}")
        child_counts: dict[str, Counter] = {}
        for edge in fragment.edges():
            source_label = fragment.node(edge.source).label
            target_label = fragment.node(edge.target).label
            if schema.find_edge(source_label, target_label, edge.kind) is None:
                raise ValueError(
                    f"edge {source_label!r} -> {target_label!r} "
                    f"({edge.kind.value}) not in schema"
                )
            child_counts.setdefault(edge.source, Counter())[
                (target_label, edge.kind)
            ] += 1
        for source, target in external_refs:
            if not graph.has_node(target):
                raise ValueError(
                    f"dangling reference from {source!r} to unknown id {target!r}"
                )
            source_label = fragment.node(source).label
            target_label = graph.node(target).label
            if schema.find_edge(source_label, target_label, EdgeKind.REFERENCE) is None:
                raise ValueError(
                    f"reference {source_label!r} ~> {target_label!r} not in schema"
                )
            child_counts.setdefault(source, Counter())[
                (target_label, EdgeKind.REFERENCE)
            ] += 1
        for node in fragment.nodes():
            counter = child_counts.get(node.node_id)
            if counter is None:
                continue
            for (target_label, kind), count in counter.items():
                schema_edge = schema.find_edge(node.label, target_label, kind)
                if schema_edge.maxoccurs != UNBOUNDED and count > schema_edge.maxoccurs:
                    raise ValueError(
                        f"node {node.node_id!r} exceeds maxoccurs="
                        f"{schema_edge.maxoccurs} for {target_label!r}"
                    )
            if schema.node(node.label).is_choice and sum(counter.values()) > 1:
                raise ValueError(
                    f"choice node {node.node_id!r} ({node.label}) realizes "
                    f"{sum(counter.values())} alternatives"
                )
        if parent_id is not None:
            if not graph.has_node(parent_id):
                raise LookupError(f"unknown parent node {parent_id!r}")
            parent_label = graph.node(parent_id).label
            root_label = fragment.node(root_id).label
            attach = schema.find_edge(parent_label, root_label, EdgeKind.CONTAINMENT)
            if attach is None:
                raise ValueError(
                    f"schema forbids {root_label!r} under {parent_label!r}"
                )
            if attach.maxoccurs != UNBOUNDED:
                siblings = sum(
                    1
                    for child in graph.containment_children(parent_id)
                    if child.label == root_label
                )
                if siblings + 1 > attach.maxoccurs:
                    raise ValueError(
                        f"parent {parent_id!r} already has {siblings} "
                        f"{root_label!r} children (maxoccurs={attach.maxoccurs})"
                    )
            if schema.node(parent_label).is_choice and graph.out_edges(parent_id):
                raise ValueError(
                    f"choice parent {parent_id!r} already realizes an alternative"
                )

    # ------------------------------------------------------------------
    # Delete internals
    # ------------------------------------------------------------------
    def _delete_locked(self, document_id: str, trace) -> MutationReport:
        started = time.perf_counter()
        loaded = self.loaded
        graph = loaded.graph
        to_graph = loaded.to_graph
        tss_graph = loaded.catalog.tss
        if not graph.has_node(document_id):
            raise LookupError(f"unknown document {document_id!r}")

        span = trace.span("discover", op="delete")
        removed_ids = {
            node.node_id for node in graph.containment_subtree(document_id)
        }
        removed_instances = to_graph.instances_touching(removed_ids)
        removed_tos = {to for to in removed_ids if to in to_graph.tss_of_to}
        removed_tss = {to: to_graph.tss_of_to[to] for to in removed_tos}
        member_changed = {
            to_graph.to_of_node[node_id]
            for node_id in removed_ids
            if node_id in to_graph.to_of_node
        } - removed_tos
        # TOs owning a node adjacent to the subtree lose edges (e.g. a
        # ref attribute naming a removed id) and need fresh BLOBs even
        # when their membership and instances are untouched.
        boundary_tos = {
            to_graph.to_of_node[other]
            for node_id in removed_ids
            for edge in graph.incident_edges(node_id)
            for other in (edge.source, edge.target)
            if other not in removed_ids and other in to_graph.to_of_node
        } - removed_tos
        span.finish()

        span = trace.span("apply", op="delete")
        entries_removed, keywords = loaded.master_index.remove_entries(removed_ids)
        for node_id in removed_ids:
            graph.remove_node(node_id)
        for instance in removed_instances:
            to_graph.remove_instance(
                instance.edge_id, instance.source_to, instance.target_to
            )
        for node_id in removed_ids:
            to_graph.remove_member(node_id)
        for to_id in removed_tos:
            to_graph.remove_target_object(to_id)

        # A removed instance whose endpoints both survive may have a
        # parallel surviving node path the loader collapsed away;
        # re-match it so the edge is not lost.
        readded: list[EdgeInstance] = []
        for instance in removed_instances:
            if instance.source_to in removed_tos or instance.target_to in removed_tos:
                continue
            if to_graph.has_instance(
                instance.edge_id, instance.source_to, instance.target_to
            ):
                continue
            tss_edge = tss_graph.edge(instance.edge_id)
            origin_label = tss_edge.path[0].source
            found = None
            for member in to_graph.members_of_to.get(instance.source_to, ()):
                if graph.node(member).label != origin_label:
                    continue
                for node_path in match_schema_path(graph, member, tss_edge.path):
                    if to_graph.to_of_node.get(node_path[-1]) == instance.target_to:
                        found = node_path
                        break
                if found is not None:
                    break
            if found is not None:
                survivor = EdgeInstance(
                    instance.edge_id, instance.source_to, instance.target_to, found
                )
                to_graph.add_instance(survivor)
                readded.append(survivor)

        surviving_touched = member_changed | {
            endpoint
            for instance in removed_instances
            for endpoint in (instance.source_to, instance.target_to)
            if endpoint not in removed_tos
        }
        surviving_by_tss: dict[str, set[str]] = {}
        for to_id in surviving_touched:
            surviving_by_tss.setdefault(to_graph.tss_of_to[to_id], set()).add(to_id)
        touched_tss = set(surviving_by_tss) | set(removed_tss.values())
        relations_touched, rows_added, rows_removed = self._relation_delta(
            surviving_by_tss,
            delete_ids=surviving_touched | removed_tos,
            touched_tss=touched_tss,
        )

        loaded.blobs.remove(removed_tos)
        loaded.blobs.store_for(graph, to_graph, member_changed | boundary_tos)
        apply_metadata_delta(
            loaded.database,
            removed_node_ids=removed_ids,
            removed_to_ids=removed_tos,
            removed_edge_keys=[
                (instance.edge_id, instance.source_to, instance.target_to)
                for instance in removed_instances
            ],
            new_instances=readded,
        )
        loaded.statistics.refresh_from(to_graph)
        loaded.epoch += 1
        store_index_epoch(loaded.database, loaded.epoch)
        loaded.database.commit()
        span.finish()

        self.versions.bump(keywords, relations_touched)
        self._documents.discard(document_id)
        self._publish()
        return MutationReport(
            op="delete",
            document_id=document_id,
            epoch=loaded.epoch,
            seconds=time.perf_counter() - started,
            nodes_removed=len(removed_ids),
            index_entries_removed=entries_removed,
            target_objects_removed=len(removed_tos),
            relation_rows_added=rows_added,
            relation_rows_removed=rows_removed,
            keywords_touched=tuple(sorted(keywords)),
            relations_touched=tuple(sorted(relations_touched)),
        )

    # ------------------------------------------------------------------
    # Shared internals
    # ------------------------------------------------------------------
    def _relation_delta(
        self,
        surviving_by_tss: dict[str, set[str]],
        delete_ids: set[str],
        touched_tss: set[str],
    ) -> tuple[set[str], int, int]:
        """Recompute exactly the relation rows binding a touched TO.

        Physical tables shared across decompositions are rewritten once
        (keyed by base-table name); relations whose recomputed rows equal
        the stored rows are left untouched, so the cache's per-relation
        versions only advance for real changes.
        """
        loaded = self.loaded
        relations_touched: set[str] = set()
        rows_added = rows_removed = 0
        handled: set[str] = set()
        for store in loaded.stores.values():
            for fragment in store.decomposition.fragments:
                base = store.base_table(fragment)
                if base in handled:
                    continue
                handled.add(base)
                if not touched_tss.intersection(fragment.labels):
                    continue
                old_rows = store.rows_containing(fragment, delete_ids)
                new_rows: set[tuple[str, ...]] = set()
                for role, label in enumerate(fragment.labels):
                    for to_id in surviving_by_tss.get(label, ()):
                        new_rows.update(
                            fragment_instances(
                                fragment, loaded.to_graph, anchor=(role, to_id)
                            )
                        )
                if old_rows == new_rows:
                    continue
                store.apply_row_delta(
                    fragment,
                    sorted(old_rows - new_rows),
                    sorted(new_rows - old_rows),
                )
                relations_touched.add(fragment.relation_name)
                rows_added += len(new_rows - old_rows)
                rows_removed += len(old_rows - new_rows)
        return relations_touched, rows_added, rows_removed

    def _publish(self) -> None:
        self._last_mutation_at = self._clock()
        with self._snapshot_lock:
            self._snapshot = IndexSnapshot(
                epoch=self.loaded.epoch,
                document_count=len(self._documents),
                last_mutation_at=self._last_mutation_at,
            )


def _rename_root(
    fragment: XMLGraph,
    external_refs,
    old_id: str,
    new_id: str,
) -> tuple[XMLGraph, list[tuple[str, str]], str]:
    """Rebuild a fragment graph with its root under a different id."""
    if fragment.has_node(new_id):
        raise ValueError(
            f"cannot take over id {new_id!r}: the replacement already uses it"
        )
    renamed = XMLGraph()
    swap = {old_id: new_id}
    for node in fragment.nodes():
        node_id = swap.get(node.node_id, node.node_id)
        renamed.add_node(node_id, node.label, node.value)
    for edge in fragment.edges():
        renamed.add_edge(
            swap.get(edge.source, edge.source),
            swap.get(edge.target, edge.target),
            edge.kind,
        )
    refs = [(swap.get(source, source), target) for source, target in external_refs]
    return renamed, refs, new_id
