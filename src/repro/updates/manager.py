"""Incremental index maintenance: live inserts, deletes, and updates.

The load stage (:mod:`repro.storage.decomposer`) builds five artifacts
from an XML graph: the master index, the target-object graph, the
statistics, the BLOBs, and the connection relations.  This module keeps
all five consistent under *document-granularity mutations* without
reloading: a mutation recomputes exactly the parts of each artifact the
touched containment subtree can reach, which on realistic corpora is
orders of magnitude less work than a full reload.

Every verb runs one pipeline, plan → apply → commit (DESIGN.md §11):
planning writes nothing and decides every rejection on the
post-mutation :class:`_MergedView`, with :func:`repro.schema.validate`
as the conformance check; apply writes the SQL deltas; commit runs
once.  Nothing in memory changes before the commit returns, and any
failure after planning rolls the transaction back, so a failed mutation
leaves no trace.

The target-object graph lives only in its tables
(:class:`~repro.storage.persistence.TargetObjectTables`); a mutation
reads it inside its own transaction.  Soundness rests on one locality
argument, :meth:`UpdateManager._instances_meeting`: every TSS-edge
instance an insert adds or a delete loses has a realizing node path
that meets the fragment or the removed subtree, and such a path starts
within ``max schema-path length`` backward hops of it.  An insert keeps
the instances found on the post-mutation view; a delete keeps those
found on the live graph whose *stored* path meets the subtree.  A
removed instance whose endpoints both survive may still be realized by
a *parallel* surviving node path; those are re-matched on a view
without the subtree.

Connection relations change only in rows binding a *touched* target
object (new, removed, or an endpoint of an added/removed edge instance),
so the delta deletes and recomputes exactly those rows with the load's
own SQL builder, one role pinned
(:meth:`~repro.storage.relations.RelationStore.embeddings`).  The
builder reads the target-object graph's tables, so each apply step
writes its part of the target-object graph there first.

Concurrency follows single-writer/multi-reader discipline: queries run
under :meth:`UpdateManager.read`, mutations hold the write side of a
writer-preferring :class:`~repro.updates.rwlock.ReadWriteLock`, and each
mutation publishes an immutable :class:`IndexSnapshot` so observers never
see a torn index.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import asdict, dataclass, field, fields

from ..schema.graph import SchemaError
from ..schema.validate import check_conformance
from ..storage.decomposer import LoadedDatabase
from ..storage.persistence import apply_metadata_delta
from ..storage.target_objects import (
    EdgeInstance,
    edge_instances,
    find_to_root,
    match_schema_path,
)
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

    def __add__(self, other: MutationReport) -> MutationReport:
        """Field-wise sum: counts add, touched names union, ids stay ours."""
        merged = {}
        for spec in fields(self):
            mine, theirs = getattr(self, spec.name), getattr(other, spec.name)
            if isinstance(mine, str):
                merged[spec.name] = mine
            elif isinstance(mine, tuple):
                merged[spec.name] = tuple(sorted(set(mine) | set(theirs)))
            else:
                merged[spec.name] = mine + theirs
        return MutationReport(**merged)

    def to_dict(self) -> dict:
        """The JSON form returned to clients and annotated on the trace."""
        payload = asdict(self)
        payload["keywords_touched"] = list(self.keywords_touched)
        payload["relations_touched"] = list(self.relations_touched)
        return payload


class _MergedView:
    """Read-only post-mutation graph: live graph − hidden + fragment.

    Duck-types the :class:`~repro.xmlgraph.model.XMLGraph` surface that
    schema validation, target-object assignment, schema-path matching
    and BLOB serialization need, so a mutation is checked, its index
    delta discovered and its BLOBs written *before* the live graph
    changes.  Edge order matches the graph the commit patches in.  ``hidden`` is the subtree
    a replace removes: its nodes and every edge into them are invisible,
    and the fragment may re-create their ids.
    """

    def __init__(
        self, graph: XMLGraph, fragment: XMLGraph, boundary, hidden=frozenset()
    ) -> None:
        self._graph = graph
        self._fragment = fragment
        self._hidden = hidden
        self._extra_out: dict[str, list[Edge]] = {}
        self._extra_in: dict[str, list[Edge]] = {}
        for edge in boundary:
            self._extra_out.setdefault(edge.source, []).append(edge)
            self._extra_in.setdefault(edge.target, []).append(edge)

    def has_node(self, node_id: str) -> bool:
        return self._fragment.has_node(node_id) or (
            node_id not in self._hidden and self._graph.has_node(node_id)
        )

    def node(self, node_id: str):
        if self._fragment.has_node(node_id):
            return self._fragment.node(node_id)
        if node_id in self._hidden:
            raise XMLGraphError(f"unknown node id {node_id!r}")
        return self._graph.node(node_id)

    def out_edges(self, node_id: str) -> list[Edge]:
        if self._fragment.has_node(node_id):
            base = self._fragment.out_edges(node_id)
        else:
            base = [e for e in self._graph.out_edges(node_id) if e.target not in self._hidden]
        return base + self._extra_out.get(node_id, [])

    def in_edges(self, node_id: str) -> list[Edge]:
        if self._fragment.has_node(node_id):
            base = self._fragment.in_edges(node_id)
        else:
            base = [e for e in self._graph.in_edges(node_id) if e.source not in self._hidden]
        return base + self._extra_in.get(node_id, [])

    def containment_parent(self, node_id: str):
        for edge in self._extra_in.get(node_id, ()):
            if edge.is_containment:
                return self.node(edge.source)
        if self._fragment.has_node(node_id):
            return self._fragment.containment_parent(node_id)
        return self._graph.containment_parent(node_id)

    def containment_children(self, node_id: str):
        return [self.node(e.target) for e in self.out_edges(node_id) if e.is_containment]


@dataclass
class _DeletePlan:
    """A subtree to remove and the index state it takes along."""

    document_id: str
    view: _MergedView
    """The live graph without the subtree."""
    removed_ids: set[str]
    removed_instances: list[EdgeInstance]
    readded: list[EdgeInstance]
    """Removed instances a parallel surviving path still realizes."""
    removed_tos: dict[str, str]
    """Removed target object -> its TSS name."""
    member_changed: set[str]
    boundary_tos: set[str]
    incoming_refs: list[tuple[str, str]]
    """References from outside the subtree into it, for a replace to restore."""


@dataclass
class _InsertPlan:
    """A checked fragment and the index state it adds."""

    document_id: str
    view: _MergedView
    """The post-mutation graph."""
    parent_id: str | None
    fragment: XMLGraph
    boundary: list[Edge]
    restore_refs: list[tuple[str, str]]
    member_of: dict[str, str]
    new_tos: dict[str, str]
    instances: list[EdgeInstance]
    """Candidate instances; apply keeps those the TO graph lacks."""


@dataclass
class _Delta:
    """What the apply steps hand to the mutation's one commit."""

    refresh_tos: set[str] = field(default_factory=set)
    """Target objects whose BLOBs are rewritten."""
    removed_tos: list[str] = field(default_factory=list)
    """Target objects whose BLOBs are dropped first."""


class UpdateManager:
    """Single-writer live mutations over one :class:`LoadedDatabase`."""

    def __init__(
        self,
        loaded: LoadedDatabase,
        tracer=NULL_TRACER,
        clock=time.time,
    ) -> None:
        self.loaded = loaded
        self.tracer = tracer
        self._clock = clock
        self._rwlock = ReadWriteLock()
        self._snapshot_lock = threading.Lock()
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
        """The state the last committed mutation published."""
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
        return self._mutate(
            "insert", lambda: [self._plan_insert(xml_text, parent_id, options)]
        )

    def delete_document(self, document_id: str) -> MutationReport:
        """Delete the containment subtree rooted at ``document_id``.

        Raises:
            LookupError: Unknown document id.
        """
        return self._mutate("delete", lambda: [self._plan_delete(document_id)])

    def update_document(
        self,
        document_id: str,
        xml_text: str,
        options: ParseOptions | None = None,
    ) -> MutationReport:
        """Replace one document in place: one delete + insert, one commit.

        The replacement keeps the original attachment point, takes over
        the original root id, and restores references that pointed
        *into* the old subtree whenever the replacement re-creates their
        target ids.  Both halves are planned before either is applied,
        so a rejected replacement leaves the old document in place.

        Raises:
            ValueError: As :meth:`insert_document`, judged on the graph
                without the old subtree.
            LookupError: Unknown document id.
        """

        def plan():
            removal = self._plan_delete(document_id)
            parent = self.loaded.graph.containment_parent(document_id)
            parent_id = parent.node_id if parent is not None else None
            return [removal, self._plan_insert(xml_text, parent_id, options, removal)]

        return self._mutate("update", plan)

    def _mutate(self, op: str, plan) -> MutationReport:
        """Plan (every rejection happens here), apply, commit once, publish.

        ``plan`` returns the steps to apply in order: one insert or one
        delete, or a replace's delete followed by its insert.  Apply and
        commit write only SQL; a failure there rolls the transaction
        back, and the in-memory state changes only once it committed.
        """
        trace = self.tracer.begin(f"mutation:{op}", kind="mutation", op=op)
        try:
            with self._rwlock.write():
                started = time.perf_counter()
                span = trace.span("plan", op=op)
                steps = plan()
                span.finish()
                report = MutationReport(op, steps[-1].document_id)
                try:
                    span = trace.span("apply", op=op)
                    delta = _Delta()
                    for step in steps:
                        if isinstance(step, _DeletePlan):
                            # analysis: blocking-ok[apply writes the step's
                            # TO-graph rows, which the relation builder reads
                            # back; all of it commits once, below]
                            report += self._apply_delete(step, delta)
                        else:
                            # analysis: blocking-ok[as the delete step above]
                            report += self._apply_insert(step, delta)
                    span.finish()
                    span = trace.span("commit", op=op)
                    # analysis: blocking-ok[mutations commit (sqlite delta +
                    # commit) before the write lock is released, so readers
                    # never see an index ahead of its database]
                    self._commit(steps[-1].view, delta)
                    span.finish()
                except BaseException:
                    self.loaded.database.rollback()
                    raise
                self._publish(steps)
                report.epoch = self.loaded.epoch
                report.seconds = time.perf_counter() - started
            trace.root.annotate(**report.to_dict())
            return report
        finally:
            self.tracer.finish(trace)

    # ------------------------------------------------------------------
    # Plan: pure, decides every rejection
    # ------------------------------------------------------------------
    def _plan_insert(
        self,
        xml_text: str,
        parent_id: str | None,
        options: ParseOptions | None,
        replacing: _DeletePlan | None = None,
    ) -> _InsertPlan:
        loaded = self.loaded
        graph = loaded.graph
        tss_graph = loaded.catalog.tss
        parse_options = options or ParseOptions(id_prefix=f"u{loaded.epoch}n")
        try:
            fragment, external_refs, root_id = parse_fragment(xml_text, parse_options)
        except XMLGraphError as exc:
            raise ValueError(str(exc)) from exc
        hidden: frozenset[str] = frozenset()
        restore_refs: list[tuple[str, str]] = []
        if replacing is not None:
            hidden = frozenset(replacing.removed_ids)
            if root_id != replacing.document_id:
                fragment, external_refs, root_id = _rename_root(
                    fragment, external_refs, root_id, replacing.document_id
                )
            restore_refs = [ref for ref in replacing.incoming_refs if fragment.has_node(ref[1])]
        if parent_id is not None and not graph.has_node(parent_id):
            raise LookupError(f"unknown parent node {parent_id!r}")
        for node_id in fragment.node_ids():
            if graph.has_node(node_id) and node_id not in hidden:
                raise ValueError(f"node id {node_id!r} already exists in the database")

        boundary = [Edge(parent_id, root_id)] if parent_id is not None else []
        boundary += dict.fromkeys(
            Edge(source, target, EdgeKind.REFERENCE)
            for source, target in (*external_refs, *restore_refs)
        )
        view = _MergedView(graph, fragment, boundary, hidden)
        for source, target in external_refs:
            if not view.has_node(target):
                raise ValueError(f"dangling reference from {source!r} to unknown id {target!r}")
        # Out-edges change only at the fragment nodes and the boundary
        # sources (the parent, restored-reference sources); the rest of
        # the graph conformed before and loses at most edges.
        frag_ids = set(fragment.node_ids())
        changed = [*fragment.node_ids(), *sorted({e.source for e in boundary} - frag_ids)]
        try:
            check_conformance(view, loaded.catalog.schema, changed)
        except SchemaError as exc:
            raise ValueError(str(exc)) from exc

        # Target-object assignment over the merged view.  The TO root of
        # a fragment node may lie in the live graph (an intra-TSS insert
        # growing an existing target object).
        member_of: dict[str, str] = {}
        new_tos: dict[str, str] = {}
        for node in fragment.nodes():
            tss_name = tss_graph.tss_of(node.label)
            if tss_name is None:
                continue
            try:
                to_root = find_to_root(view, node.node_id, tss_graph)
            except XMLGraphError as exc:
                raise ValueError(str(exc)) from exc
            member_of[node.node_id] = to_root
            if fragment.has_node(to_root):
                new_tos[to_root] = tss_name

        live_to_of = functools.cache(loaded.to_graph.to_of)

        def to_of(node_id: str) -> str | None:
            if node_id in frag_ids:
                return member_of.get(node_id)
            return live_to_of(node_id)

        instances = self._instances_meeting(view, frag_ids, to_of)
        return _InsertPlan(
            root_id, view, parent_id, fragment, boundary, restore_refs,
            member_of, new_tos, list(instances.values()),
        )

    def _plan_delete(self, document_id: str) -> _DeletePlan:
        loaded = self.loaded
        graph = loaded.graph
        to_graph = loaded.to_graph
        if not graph.has_node(document_id):
            raise LookupError(f"unknown document {document_id!r}")
        removed_ids = {node.node_id for node in graph.containment_subtree(document_id)}
        to_of = functools.cache(to_graph.to_of)
        removed_tos = {
            to_id: tss for to_id in removed_ids if (tss := to_graph.tss_of(to_id)) is not None
        }
        member_changed = {to_of(node_id) for node_id in removed_ids} - {None} - set(removed_tos)
        # TOs owning a node adjacent to the subtree lose edges (e.g. a
        # ref attribute naming a removed id) and need fresh BLOBs even
        # when their membership and instances are untouched.
        incident = [edge for node_id in removed_ids for edge in graph.incident_edges(node_id)]
        boundary_tos = {
            to_of(other)
            for edge in incident
            for other in (edge.source, edge.target)
            if other not in removed_ids
        } - {None} - set(removed_tos)
        incoming_refs = sorted(
            {
                (edge.source, edge.target)
                for edge in incident
                if edge.is_reference and edge.source not in removed_ids
            }
        )
        # The instances lost are those whose *stored* path meets the
        # subtree; every such path is found on the live graph.
        removed_instances = []
        for key in sorted(self._instances_meeting(graph, removed_ids, to_of)):
            stored = to_graph.path_of(*key)
            if stored is not None and removed_ids.intersection(stored):
                removed_instances.append(EdgeInstance(*key, stored))

        # A removed instance whose endpoints both survive may have a
        # parallel surviving node path the loader collapsed away;
        # re-match it so the edge is not lost.
        view = _MergedView(graph, XMLGraph(), (), frozenset(removed_ids))
        readded: list[EdgeInstance] = []
        for instance in removed_instances:
            if instance.source_to in removed_tos or instance.target_to in removed_tos:
                continue
            tss_edge = loaded.catalog.tss.edge(instance.edge_id)
            found = next(
                (
                    node_path
                    for member in to_graph.members(instance.source_to)
                    if member not in removed_ids
                    and view.node(member).label == tss_edge.path[0].source
                    for node_path in match_schema_path(view, member, tss_edge.path)
                    if to_of(node_path[-1]) == instance.target_to
                ),
                None,
            )
            if found is not None:
                readded.append(EdgeInstance(*instance.key, found))
        return _DeletePlan(
            document_id, view, removed_ids, removed_instances, readded,
            removed_tos, member_changed, boundary_tos, incoming_refs,
        )

    def _instances_meeting(self, view, nodes: set[str], to_of) -> dict:
        """TSS-edge instances on ``view`` with a node path meeting ``nodes``.

        Such a path either starts in ``nodes`` or enters them over an
        edge whose source lies at most ``max schema-path length − 1``
        hops after the path's origin, so origins within ``max
        schema-path length`` backward hops of ``nodes`` find every one.
        Returns the first path found per TO-level key.
        """
        origins = set(nodes)
        frontier = set(origins)
        for _ in range(self._max_path_len):
            frontier = {
                edge.source
                for node_id in frontier
                for edge in view.in_edges(node_id)
                if edge.source not in origins
            }
            origins |= frontier
        found: dict[tuple[str, str, str], EdgeInstance] = {}
        tss_graph = self.loaded.catalog.tss
        for instance in edge_instances(view, tss_graph, map(view.node, origins), to_of):
            if nodes.intersection(instance.node_path):
                found.setdefault(instance.key, instance)
        return found

    # ------------------------------------------------------------------
    # Apply: SQL deltas only, no commit
    # ------------------------------------------------------------------
    def _apply_insert(self, plan: _InsertPlan, delta: _Delta) -> MutationReport:
        loaded = self.loaded
        to_graph = loaded.to_graph
        # A replace's delete step may have kept an instance this insert
        # also realizes.
        added = [
            instance for instance in plan.instances if to_graph.path_of(*instance.key) is None
        ]
        apply_metadata_delta(
            loaded.database,
            new_target_objects=plan.new_tos.items(),
            new_members=plan.member_of.items(),
            new_instances=added,
        )

        entries_added, keywords = loaded.master_index.add_entries(
            plan.fragment.nodes(),
            plan.member_of,
            loaded.catalog.text_nodes,
            index_tags=loaded.index_tags,
        )

        touched = set(plan.new_tos)
        for instance in added:
            touched.add(instance.source_to)
            touched.add(instance.target_to)
        relations_touched, rows_added, rows_removed = self._relation_delta(touched)

        # Restored references change the *source* main-graph node's
        # serialized ref attribute, so its TO needs a fresh BLOB too.
        delta.refresh_tos |= set(plan.member_of.values()) | {
            to_graph.to_of(source) for source, _ in plan.restore_refs
        } - {None}
        return MutationReport(
            op="insert",
            document_id=plan.document_id,
            nodes_added=plan.fragment.node_count,
            index_entries_added=entries_added,
            target_objects_added=len(plan.new_tos),
            relation_rows_added=rows_added,
            relation_rows_removed=rows_removed,
            keywords_touched=tuple(keywords),
            relations_touched=tuple(relations_touched),
        )

    def _apply_delete(self, plan: _DeletePlan, delta: _Delta) -> MutationReport:
        loaded = self.loaded
        entries_removed, keywords = loaded.master_index.remove_entries(plan.removed_ids)
        apply_metadata_delta(
            loaded.database,
            removed_node_ids=plan.removed_ids,
            removed_to_ids=plan.removed_tos,
            removed_edge_keys=[instance.key for instance in plan.removed_instances],
            new_instances=plan.readded,
        )

        surviving_touched = plan.member_changed | {
            endpoint
            for instance in plan.removed_instances
            for endpoint in (instance.source_to, instance.target_to)
            if endpoint not in plan.removed_tos
        }
        relations_touched, rows_added, rows_removed = self._relation_delta(
            surviving_touched, plan.removed_tos
        )

        delta.refresh_tos |= plan.member_changed | plan.boundary_tos
        delta.removed_tos += plan.removed_tos
        return MutationReport(
            op="delete",
            document_id=plan.document_id,
            nodes_removed=len(plan.removed_ids),
            index_entries_removed=entries_removed,
            target_objects_removed=len(plan.removed_tos),
            relation_rows_added=rows_added,
            relation_rows_removed=rows_removed,
            keywords_touched=tuple(keywords),
            relations_touched=tuple(relations_touched),
        )

    def _relation_delta(
        self, surviving: set[str], removed_tos: dict[str, str] | None = None
    ) -> tuple[set[str], int, int]:
        """Recompute exactly the relation rows binding a touched TO.

        ``surviving`` are the touched target objects still in the TO
        graph, ``removed_tos`` (TO -> TSS name) the deleted ones; the TO
        graph's tables must already reflect the step.  Physical tables
        shared across decompositions are rewritten once
        (keyed by base-table name); relations whose recomputed rows equal
        the stored rows are left untouched, so ``relations_touched``
        names only real changes.
        """
        loaded = self.loaded
        removed_tos = removed_tos or {}
        surviving_by_tss: dict[str, set[str]] = {}
        for to_id in surviving:
            surviving_by_tss.setdefault(loaded.to_graph.tss_of(to_id), set()).add(to_id)
        delete_ids = surviving | set(removed_tos)
        touched_tss = set(surviving_by_tss) | set(removed_tos.values())
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
                    new_rows |= store.embeddings(
                        fragment, role, surviving_by_tss.get(label, ())
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

    # ------------------------------------------------------------------
    # Commit once, then publish
    # ------------------------------------------------------------------
    def _commit(self, view: _MergedView, delta: _Delta) -> None:
        """BLOBs from the post-mutation ``view``, then ``commit``."""
        loaded = self.loaded
        loaded.blobs.remove(delta.removed_tos)
        loaded.blobs.store_for(view, loaded.to_graph, delta.refresh_tos)
        loaded.database.commit()

    def _publish(self, steps) -> None:
        """Bring the in-memory state up to the committed database."""
        loaded = self.loaded
        graph = loaded.graph
        for step in steps:
            if isinstance(step, _DeletePlan):
                for node_id in step.removed_ids:
                    graph.remove_node(node_id)
                self._documents.discard(step.document_id)
                continue
            for node in step.fragment.nodes():
                graph.add_node(node.node_id, node.label, node.value)
            for edge in (*step.fragment.edges(), *step.boundary):
                graph.add_edge(edge.source, edge.target, edge.kind)
            if step.parent_id is None:
                self._documents.add(step.document_id)
        loaded.epoch += 1
        loaded.statistics.refresh_from(loaded.to_graph)
        self._last_mutation_at = self._clock()
        with self._snapshot_lock:
            self._snapshot = IndexSnapshot(
                epoch=loaded.epoch,
                document_count=len(self._documents),
                last_mutation_at=self._last_mutation_at,
            )


def _rename_root(
    fragment: XMLGraph, external_refs, old_id: str, new_id: str
) -> tuple[XMLGraph, list[tuple[str, str]], str]:
    """Rebuild a fragment graph with its root under a different id."""
    if fragment.has_node(new_id):
        raise ValueError(
            f"cannot take over id {new_id!r}: the replacement already uses it"
        )

    def rename(node_id: str) -> str:
        return new_id if node_id == old_id else node_id

    renamed = XMLGraph()
    for node in fragment.nodes():
        renamed.add_node(rename(node.node_id), node.label, node.value)
    for edge in fragment.edges():
        renamed.add_edge(rename(edge.source), rename(edge.target), edge.kind)
    return renamed, [(rename(source), target) for source, target in external_refs], new_id
