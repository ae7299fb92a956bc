"""Target-object assignment and the target-object graph (paper Section 4).

The *target object graph* is the representation of the XML graph in terms
of target objects: each node is a target object (an instance of a TSS),
and each edge is an instance of a TSS edge, i.e. a schema path through
dummy nodes realized by actual XML nodes.  Connection relations store
target-object ids; the interior node path of every edge instance is kept
so MTTONs can display the actual connection (the paper's connection
relations "store the actual path between a set of target objects").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..schema.tss import TSSGraph
from ..xmlgraph.model import XMLGraph, XMLGraphError


@dataclass(frozen=True)
class EdgeInstance:
    """One instance of a TSS edge between two target objects."""

    edge_id: str
    source_to: str
    target_to: str
    node_path: tuple[str, ...]
    """XML node ids realizing the schema path, endpoints included."""

    @property
    def key(self) -> tuple[str, str, str]:
        """``(edge_id, source_to, target_to)``: the TO-level edge it realizes."""
        return (self.edge_id, self.source_to, self.target_to)


@dataclass
class TargetObjectGraph:
    """Target objects of an XML graph plus their TSS-edge instances."""

    tss_graph: TSSGraph
    to_of_node: dict[str, str] = field(default_factory=dict)
    tss_of_to: dict[str, str] = field(default_factory=dict)
    members_of_to: dict[str, list[str]] = field(default_factory=dict)
    instances: dict[str, list[EdgeInstance]] = field(default_factory=dict)
    _forward: dict[tuple[str, str], list[str]] = field(default_factory=dict)
    _backward: dict[tuple[str, str], list[str]] = field(default_factory=dict)
    _paths: dict[tuple[str, str, str], tuple[str, ...]] = field(default_factory=dict)
    _touching: dict[str, set[tuple[str, str, str]]] = field(default_factory=dict)
    """Reverse index: XML node id -> keys of instances whose realizing
    path contains it.  Keeps :meth:`instances_touching` proportional to
    the delta instead of the whole instance set."""
    _bucket_pos: dict[tuple[str, str, str], int] = field(default_factory=dict)
    """Position of each instance inside its ``instances`` bucket, so
    :meth:`remove_instance` swap-pops in O(1) instead of rebuilding the
    bucket (bucket order is not meaningful)."""

    # ------------------------------------------------------------------
    def add_target_object(self, to_id: str, tss_name: str) -> None:
        """Register a target object of one TSS (its members come later)."""
        self.tss_of_to[to_id] = tss_name
        self.members_of_to.setdefault(to_id, [])

    def add_member(self, to_id: str, node_id: str) -> None:
        """Assign one XML node to a target object."""
        self.to_of_node[node_id] = to_id
        self.members_of_to.setdefault(to_id, []).append(node_id)

    def add_instance(self, instance: EdgeInstance) -> None:
        """Record one TSS-edge instance; a known TO-level key is ignored."""
        bucket = self.instances.setdefault(instance.edge_id, [])
        key = instance.key
        if key in self._paths:
            return  # parallel node-level paths collapse to one TO edge
        self._paths[key] = instance.node_path
        for node_id in instance.node_path:
            self._touching.setdefault(node_id, set()).add(key)
        self._bucket_pos[key] = len(bucket)
        bucket.append(instance)
        self._forward.setdefault((instance.edge_id, instance.source_to), []).append(
            instance.target_to
        )
        self._backward.setdefault((instance.edge_id, instance.target_to), []).append(
            instance.source_to
        )

    # ------------------------------------------------------------------
    # Incremental maintenance (the update subsystem's delta surface)
    # ------------------------------------------------------------------
    def has_instance(self, edge_id: str, source_to: str, target_to: str) -> bool:
        """Whether the TO-level edge is present."""
        return (edge_id, source_to, target_to) in self._paths

    def remove_instance(self, edge_id: str, source_to: str, target_to: str) -> None:
        """Forget one TSS-edge instance (no-op when absent)."""
        key = (edge_id, source_to, target_to)
        if key not in self._paths:
            return
        for node_id in self._paths[key]:
            keys = self._touching.get(node_id)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._touching[node_id]
        del self._paths[key]
        bucket = self.instances[edge_id]
        position = self._bucket_pos.pop(key)
        moved = bucket.pop()
        if position < len(bucket):
            bucket[position] = moved
            self._bucket_pos[moved.key] = position
        forward = self._forward.get((edge_id, source_to))
        if forward is not None:
            forward.remove(target_to)
            if not forward:
                del self._forward[(edge_id, source_to)]
        backward = self._backward.get((edge_id, target_to))
        if backward is not None:
            backward.remove(source_to)
            if not backward:
                del self._backward[(edge_id, target_to)]

    def remove_member(self, node_id: str) -> None:
        """Detach one XML node from its target object (no-op when unmapped)."""
        to_id = self.to_of_node.pop(node_id, None)
        if to_id is None:
            return
        members = self.members_of_to.get(to_id)
        if members is not None and node_id in members:
            members.remove(node_id)

    def remove_target_object(self, to_id: str) -> None:
        """Forget a target object and its remaining member mappings.

        Edge instances touching the target object must be removed first
        (via :meth:`remove_instance`); this method only clears the
        membership tables.
        """
        self.tss_of_to.pop(to_id, None)
        for node_id in self.members_of_to.pop(to_id, ()):  # pragma: no branch
            self.to_of_node.pop(node_id, None)

    def instances_touching(self, node_ids: set[str]) -> list[EdgeInstance]:
        """Edge instances whose realizing node path meets ``node_ids``."""
        keys: set[tuple[str, str, str]] = set()
        for node_id in node_ids:
            keys.update(self._touching.get(node_id, ()))
        return [
            EdgeInstance(*key, self._paths[key]) for key in sorted(keys)
        ]

    # ------------------------------------------------------------------
    def targets(self, edge_id: str, source_to: str) -> list[str]:
        """Target objects reachable forward over one TSS edge."""
        return list(self._forward.get((edge_id, source_to), ()))

    def sources(self, edge_id: str, target_to: str) -> list[str]:
        """Target objects reaching ``target_to`` over one TSS edge."""
        return list(self._backward.get((edge_id, target_to), ()))

    def path_of(self, edge_id: str, source_to: str, target_to: str) -> tuple[str, ...]:
        """The XML node path realizing one TO-level edge."""
        return self._paths[(edge_id, source_to, target_to)]

    def pairs(self, edge_id: str) -> list[tuple[str, str]]:
        """``(source_to, target_to)`` of every instance of one TSS edge."""
        return [
            (instance.source_to, instance.target_to)
            for instance in self.instances.get(edge_id, ())
        ]

    def target_objects(self, tss_name: str | None = None) -> list[str]:
        """Target objects of one TSS, or all of them."""
        if tss_name is None:
            return list(self.tss_of_to)
        return [to for to, tss in self.tss_of_to.items() if tss == tss_name]

    @property
    def target_object_count(self) -> int:
        return len(self.tss_of_to)

    @property
    def instance_count(self) -> int:
        return sum(len(bucket) for bucket in self.instances.values())


def build_target_object_graph(graph: XMLGraph, tss_graph: TSSGraph) -> TargetObjectGraph:
    """Decompose an XML graph into its target-object graph.

    Every XML node whose tag is a TSS root starts a target object (its id
    doubles as the TO id); other mapped nodes join the target object of
    their nearest intra-TSS containment ancestor.  Edge instances are
    found by matching each TSS edge's schema path from every possible
    origin node.
    """
    result = TargetObjectGraph(tss_graph)
    # Pass 1: target objects and membership.
    for node in graph.nodes():
        tss_name = tss_graph.tss_of(node.label)
        if tss_name is None:
            continue
        tss = tss_graph.tss(tss_name)
        if node.label == tss.root:
            result.add_target_object(node.node_id, tss_name)
    for node in graph.nodes():
        tss_name = tss_graph.tss_of(node.label)
        if tss_name is None:
            continue
        root_id = find_to_root(graph, node.node_id, tss_graph)
        result.add_member(root_id, node.node_id)
    # Pass 2: TSS edge instances.
    for instance in edge_instances(graph, tss_graph, graph.nodes(), result.to_of_node.get):
        result.add_instance(instance)
    return result


def edge_instances(
    graph: XMLGraph, tss_graph: TSSGraph, origins, to_of
) -> Iterator[EdgeInstance]:
    """TSS-edge instances realized by node paths starting at ``origins``.

    ``origins`` are :class:`~repro.xmlgraph.model.Node` objects.
    ``to_of`` maps an XML node id to its target object, ``None`` when
    unmapped; a path with an unmapped endpoint realizes no instance.
    ``graph`` may be any object exposing ``node``/``out_edges``.
    """
    edges_from: dict[str, list] = {}
    for tss_edge in tss_graph.edges():
        edges_from.setdefault(tss_edge.path[0].source, []).append(tss_edge)
    for origin in origins:
        for tss_edge in edges_from.get(origin.label, ()):
            for node_path in match_schema_path(graph, origin.node_id, tss_edge.path):
                source_to, target_to = to_of(node_path[0]), to_of(node_path[-1])
                if source_to is not None and target_to is not None:
                    yield EdgeInstance(tss_edge.edge_id, source_to, target_to, node_path)


def find_to_root(graph: XMLGraph, node_id: str, tss_graph: TSSGraph) -> str:
    """The TO root a mapped node belongs to (itself when it is a root).

    ``graph`` may be any object exposing ``node``/``containment_parent``
    (the update subsystem passes its post-mutation merged view).
    """
    label = graph.node(node_id).label
    tss_name = tss_graph.tss_of(label)
    assert tss_name is not None
    tss = tss_graph.tss(tss_name)
    current = node_id
    seen = {current}
    while graph.node(current).label != tss.root:
        parent = graph.containment_parent(current)
        if parent is None or parent.label not in tss.schema_nodes:
            raise XMLGraphError(
                f"node {node_id!r} ({label}) has no intra-TSS path to the "
                f"root member {tss.root!r} of TSS {tss_name!r}"
            )
        current = parent.node_id
        if current in seen:  # pragma: no cover - defensive
            raise XMLGraphError(f"containment cycle at {current!r}")
        seen.add(current)
    return current


def match_schema_path(graph: XMLGraph, origin: str, path: tuple) -> Iterator[tuple[str, ...]]:
    """All node paths from ``origin`` realizing a schema path.

    ``graph`` may be any object exposing ``out_edges``/``node``.
    """

    def step(current: str, depth: int, acc: list[str]) -> Iterator[tuple[str, ...]]:
        if depth == len(path):
            yield tuple(acc)
            return
        hop = path[depth]
        for edge in graph.out_edges(current):
            if edge.kind is not hop.kind:
                continue
            target = graph.node(edge.target)
            if target.label != hop.target:
                continue
            acc.append(target.node_id)
            yield from step(target.node_id, depth + 1, acc)
            acc.pop()

    yield from step(origin, 0, [origin])
