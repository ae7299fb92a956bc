"""Conformance checking of an XML graph against a schema graph.

``validate`` returns the list of violations instead of raising, so loaders
can report everything wrong with a data set at once;
``check_conformance`` raises on the first violation for use in pipelines.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..xmlgraph.model import XMLGraph
from .graph import SchemaError, SchemaGraph, UNBOUNDED


@dataclass(frozen=True)
class Violation:
    """One conformance violation, tied to the offending node."""

    node_id: str
    message: str

    def __str__(self) -> str:
        return f"{self.node_id}: {self.message}"


def validate(graph: XMLGraph, schema: SchemaGraph, node_ids=None) -> list[Violation]:
    """Check nodes of ``graph`` and their out-edges against ``schema``.

    Args:
        graph: An :class:`XMLGraph`, or any view exposing ``node`` and
            ``out_edges`` (and ``nodes`` when ``node_ids`` is omitted).
        schema: The schema graph to conform to.
        node_ids: Check only these nodes; every node by default.  The
            update subsystem passes the nodes whose out-edges a mutation
            changes, over a view of the post-mutation graph.
    """
    violations: list[Violation] = []
    nodes = graph.nodes() if node_ids is None else map(graph.node, node_ids)
    for node in nodes:
        if not schema.has_node(node.label):
            violations.append(Violation(node.node_id, f"unknown element tag {node.label!r}"))
            continue
        schema_node = schema.node(node.label)
        out_edges = graph.out_edges(node.node_id)
        child_counter: Counter[tuple[str, str]] = Counter()
        alternatives = 0
        for edge in out_edges:
            target_label = graph.node(edge.target).label
            schema_edge = schema.find_edge(node.label, target_label, edge.kind)
            if schema_edge is None:
                violations.append(
                    Violation(
                        node.node_id,
                        f"edge to {target_label!r} ({edge.kind.value}) not in schema",
                    )
                )
                continue
            child_counter[(target_label, edge.kind.value)] += 1
            alternatives += 1
            count = child_counter[(target_label, edge.kind.value)]
            if schema_edge.maxoccurs != UNBOUNDED and count > schema_edge.maxoccurs:
                violations.append(
                    Violation(
                        node.node_id,
                        f"more than maxoccurs={schema_edge.maxoccurs} "
                        f"{target_label!r} children",
                    )
                )
        if schema_node.is_choice and alternatives > 1:
            # A choice instance realizes exactly one alternative,
            # containment child or reference alike.
            violations.append(
                Violation(
                    node.node_id,
                    f"choice node {node.label!r} has {alternatives} alternatives",
                )
            )
    return violations


def check_conformance(graph: XMLGraph, schema: SchemaGraph, node_ids=None) -> None:
    """Raise :class:`SchemaError` when ``graph`` (or ``node_ids``) violates ``schema``."""
    violations = validate(graph, schema, node_ids)
    if violations:
        summary = "; ".join(str(v) for v in violations[:5])
        more = f" (+{len(violations) - 5} more)" if len(violations) > 5 else ""
        raise SchemaError(f"graph does not conform to schema: {summary}{more}")
