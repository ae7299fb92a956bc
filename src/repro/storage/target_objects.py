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
    """A target-object graph as the load builds it, in memory.

    :func:`build_target_object_graph` returns one; the load writes it
    into the tables of :mod:`.persistence` and drops it, so those tables
    are the only live copy (:class:`~.persistence.TargetObjectTables`).
    Both answer :meth:`tss_of` and :meth:`members`, what BLOB
    serialization reads, and the two counts.
    """

    to_of_node: dict[str, str] = field(default_factory=dict)
    tss_of_to: dict[str, str] = field(default_factory=dict)
    members_of_to: dict[str, list[str]] = field(default_factory=dict)
    paths: dict[tuple[str, str, str], tuple[str, ...]] = field(default_factory=dict)
    """TO-level edge key -> the first node path found realizing it."""

    def add_target_object(self, to_id: str, tss_name: str) -> None:
        """Register a target object of one TSS (its members come later)."""
        self.tss_of_to[to_id] = tss_name
        self.members_of_to.setdefault(to_id, [])

    def add_member(self, to_id: str, node_id: str) -> None:
        """Assign one XML node to a target object."""
        self.to_of_node[node_id] = to_id
        self.members_of_to.setdefault(to_id, []).append(node_id)

    def add_instance(self, instance: EdgeInstance) -> None:
        """Record one TSS-edge instance; a known TO-level key is ignored
        (parallel node-level paths collapse to one TO edge)."""
        self.paths.setdefault(instance.key, instance.node_path)

    # ------------------------------------------------------------------
    def tss_of(self, to_id: str) -> str | None:
        """The TSS of one target object."""
        return self.tss_of_to.get(to_id)

    def members(self, to_id: str) -> list[str]:
        """The XML nodes of one target object."""
        return list(self.members_of_to.get(to_id, ()))

    @property
    def target_object_count(self) -> int:
        return len(self.tss_of_to)

    @property
    def instance_count(self) -> int:
        return len(self.paths)


def build_target_object_graph(graph: XMLGraph, tss_graph: TSSGraph) -> TargetObjectGraph:
    """Decompose an XML graph into its target-object graph.

    Every XML node whose tag is a TSS root starts a target object (its id
    doubles as the TO id); other mapped nodes join the target object of
    their nearest intra-TSS containment ancestor.  Edge instances are
    found by matching each TSS edge's schema path from every possible
    origin node.
    """
    result = TargetObjectGraph()
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
