"""Result materialization: MTNNs and MTTONs (paper Section 3.1).

The execution module yields role -> target-object assignments; this
module turns them into presentable results:

* an :class:`MTTON` — the tree of target objects with semantically
  annotated edges (what the presentation graph displays);
* the underlying :class:`MTNN` — the node-level network on the XML
  graph, whose edge count is the result's score.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..storage.persistence import TargetObjectTables
from .ctssn import CTSSN
from .execution import ResultRow
from .matching import ContainingLists


@dataclass(frozen=True)
class MTTONEdge:
    """One TSS-edge instance inside a result tree."""

    edge_id: str
    source_to: str
    target_to: str
    forward_label: str
    backward_label: str


@dataclass(frozen=True)
class MTTON:
    """A Minimal Total Target Object Network — one keyword-query result."""

    ctssn: CTSSN
    assignment: tuple[tuple[int, str], ...]
    edges: tuple[MTTONEdge, ...]
    score: int

    @cached_property
    def row(self) -> ResultRow:
        return dict(self.assignment)

    def target_objects(self) -> list[str]:
        """The result's target-object ids, in role order."""
        return [to_id for _, to_id in self.assignment]

    def role_of(self, to_id: str) -> int:
        """Network role of ``to_id`` (raises ``KeyError`` if absent)."""
        for role, candidate in self.assignment:
            if candidate == to_id:
                return role
        raise KeyError(to_id)

    def contains(self, role: int, to_id: str) -> bool:
        """True if ``to_id`` participates in this result tree."""
        return self.row.get(role) == to_id

    def describe(self) -> str:
        """Human-readable multi-line rendering of the result tree."""
        labels = self.ctssn.network.labels
        nodes = ", ".join(f"{labels[role]}:{to}" for role, to in self.assignment)
        links = "; ".join(
            f"{edge.source_to} -{edge.forward_label or edge.edge_id}-> {edge.target_to}"
            for edge in self.edges
        )
        return f"MTTON(score={self.score}) [{nodes}] {links}"

    def to_dot(self) -> str:
        """Graphviz DOT rendering of this result tree."""
        labels = self.ctssn.network.labels
        lines = ["digraph mtton {", "  rankdir=LR;", "  node [shape=box];"]
        for role, to in self.assignment:
            keywords = ",".join(sorted(self.ctssn.keywords_of_role(role)))
            tag = f"\\n[{keywords}]" if keywords else ""
            lines.append(f'  "{to}" [label="{labels[role]}\\n{to}{tag}"];')
        for edge in self.edges:
            label = edge.forward_label or edge.edge_id
            lines.append(f'  "{edge.source_to}" -> "{edge.target_to}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)


@dataclass(frozen=True)
class MTNN:
    """The node-level network underlying an MTTON."""

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]

    @property
    def score(self) -> int:
        """MTNN score = size in edges (paper Section 3.1)."""
        return len(self.edges)


def materialize(
    ctssn: CTSSN, row: ResultRow, to_graph: TargetObjectTables
) -> MTTON:
    """Build the MTTON for one execution result row.

    Reads only ``to_graph.tss_graph``: node paths are resolved by
    :func:`node_network`, so a result costs no table lookup.
    """
    tss_graph = to_graph.tss_graph
    edges = []
    for net_edge in ctssn.network.edges:
        source_to = row[net_edge.source]
        target_to = row[net_edge.target]
        tss_edge = tss_graph.edge(net_edge.edge_id)
        edges.append(
            MTTONEdge(
                edge_id=net_edge.edge_id,
                source_to=source_to,
                target_to=target_to,
                forward_label=tss_edge.forward_label,
                backward_label=tss_edge.backward_label,
            )
        )
    return MTTON(
        ctssn=ctssn,
        assignment=tuple(sorted(row.items())),
        edges=tuple(edges),
        score=ctssn.score,
    )


def node_network(
    mtton: MTTON,
    to_graph: TargetObjectTables,
    containing: ContainingLists,
    graph_parents: dict[str, str],
) -> MTNN:
    """Expand an MTTON to its node-level MTNN.

    Each edge's node path is the one stored in ``to_graph``.
    ``graph_parents`` maps node id -> containment parent id (built once
    per XML graph by the caller); it connects keyword witness nodes to
    their target-object roots.
    """
    nodes: set[str] = set()
    edges: set[tuple[str, str]] = set()
    for edge in mtton.edges:
        path = to_graph.path_of(edge.edge_id, edge.source_to, edge.target_to)
        nodes.update(path)
        for left, right in zip(path, path[1:]):
            edges.add((left, right))
    for role, to_id in mtton.assignment:
        nodes.add(to_id)
        for constraint in mtton.ctssn.annotations[role]:
            witnesses = containing.witnesses(to_id, constraint)
            if not witnesses:  # pragma: no cover - execution admitted it
                continue
            witness = min(witnesses)
            cursor = witness
            while cursor != to_id:
                parent = graph_parents[cursor]
                nodes.add(cursor)
                edges.add((parent, cursor))
                cursor = parent
    return MTNN(frozenset(nodes), frozenset(edges))
