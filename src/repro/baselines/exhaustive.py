"""Exhaustive reference evaluator of Definition 3.1 semantics.

Enumerates every **Minimal Total Node Network** of a keyword query
directly on the XML data graph, with no schema, no candidate networks,
no relational storage — just the definition:

* a node network is an uncycled subgraph whose edges exist in the graph
  (followed in either direction);
* *total*: every keyword is contained in some node's value;
* *minimal*: no node can be removed while staying total and connected;
* score = number of edges, bounded by Z.

Exponential, therefore only usable on small graphs — which is the
point: it is the ground truth the test suite checks the full XKeyword
pipeline against (same results, same scores, projected to target
objects).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..storage.master_index import tokenize
from ..xmlgraph.model import XMLGraph


@dataclass(frozen=True)
class ReferenceMTNN:
    """One brute-force result network."""

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]

    @property
    def score(self) -> int:
        return len(self.edges)


class ExhaustiveSearcher:
    """Definition 3.1, implemented literally."""

    def __init__(self, graph: XMLGraph, text_labels: frozenset[str] | None = None):
        """
        Args:
            graph: The data graph.
            text_labels: Restrict keyword matching to these element tags
                (mirrors the master index's ``text_nodes`` surface so the
                comparison with the engine is apples to apples); ``None``
                matches any node with a value.
        """
        self.graph = graph
        self._keywords_of: dict[str, frozenset[str]] = {}
        for node in graph.nodes():
            if node.value is None:
                continue
            if text_labels is not None and node.label not in text_labels:
                continue
            self._keywords_of[node.node_id] = frozenset(tokenize(node.value))
        self._undirected: dict[str, set[str]] = {}
        for node in graph.nodes():
            neighbors = {n.node_id for n, _ in graph.neighbors(node.node_id)}
            self._undirected[node.node_id] = neighbors

    def node_keywords(self, node_id: str, query: tuple[str, ...]) -> frozenset[str]:
        return self._keywords_of.get(node_id, frozenset()) & frozenset(query)

    # ------------------------------------------------------------------
    def search(self, keywords: tuple[str, ...], max_size: int) -> list[ReferenceMTNN]:
        """All MTNNs of size up to ``max_size``."""
        query = tuple(keyword.lower() for keyword in keywords)
        anchor = query[0]
        anchors = [
            node_id
            for node_id in self._keywords_of
            if anchor in self._keywords_of[node_id]
        ]
        results: dict[frozenset, ReferenceMTNN] = {}
        seen_trees: set[frozenset] = set()

        def covered(nodes: frozenset[str]) -> frozenset[str]:
            out: set[str] = set()
            for node_id in nodes:
                out |= self.node_keywords(node_id, query)
            return frozenset(out)

        def is_minimal(nodes: frozenset[str], edges: frozenset[tuple[str, str]]) -> bool:
            if len(nodes) == 1:
                return True
            degree: dict[str, int] = {}
            for a, b in edges:
                degree[a] = degree.get(a, 0) + 1
                degree[b] = degree.get(b, 0) + 1
            for leaf in (n for n in nodes if degree.get(n, 0) == 1):
                if covered(nodes - {leaf}) == frozenset(query):
                    return False
            return True

        def grow(nodes: frozenset[str], edges: frozenset[tuple[str, str]]) -> None:
            key = edges if edges else nodes
            if key in seen_trees:
                return
            seen_trees.add(key)
            if covered(nodes) == frozenset(query) and is_minimal(nodes, edges):
                results[key] = ReferenceMTNN(nodes, edges)
                # A minimal total network stays total (hence non-minimal)
                # under any extension; stop growing this branch.
                return
            if len(edges) >= max_size:
                return
            for node_id in sorted(nodes):
                for neighbor in sorted(self._undirected[node_id]):
                    if neighbor in nodes:
                        continue  # adding it would close a cycle or reuse
                    edge = (min(node_id, neighbor), max(node_id, neighbor))
                    grow(nodes | {neighbor}, edges | {edge})

        for start in sorted(anchors):
            grow(frozenset({start}), frozenset())
        return sorted(results.values(), key=lambda r: (r.score, sorted(r.nodes)))

    # ------------------------------------------------------------------
    def project_to_target_objects(
        self, networks: list[ReferenceMTNN], to_of
    ) -> set[tuple[frozenset[str], int]]:
        """Project MTNNs to (target-object set, score) pairs.

        ``to_of`` maps a node id to its target object, ``None`` when
        unmapped (``loaded.to_graph.to_of``).  Distinct MTNNs may
        collapse to the same target-object tree (the engine's result
        granularity); the projection makes both sides comparable.
        """
        projected: set[tuple[frozenset[str], int]] = set()
        for network in networks:
            tos = frozenset(map(to_of, network.nodes)) - {None}
            projected.add((tos, network.score))
        return projected
