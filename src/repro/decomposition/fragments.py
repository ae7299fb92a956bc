"""Fragments and TSS networks as role-labeled trees (paper Section 5).

Both *fragments* (Definition 5.2) and *candidate TSS networks* (Section 4)
are uncycled graphs whose nodes are TSSs and whose edges map to TSS-graph
edges.  Because unfolded TSS graphs (Definition 5.1) may repeat a TSS, we
represent both as **role-labeled trees**: nodes are integer roles carrying
a TSS label; edges carry a TSS-edge id and an orientation.  A role-labeled
tree is, by construction, a subgraph of some unfolding of the TSS graph —
which is exactly the paper's definition of a fragment.

The module provides a canonical form (an AHU-style encoding rooted at the
tree centroid) used for non-redundant enumeration and for stable relation
naming, plus tree-embedding search used by the join-bound coverage test.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from ..schema.tss import TSSGraph


@dataclass(frozen=True)
class NetEdge:
    """One edge of a role-labeled tree.

    ``source``/``target`` are role indices; the direction matches the
    direction of the underlying TSS edge ``edge_id``.
    """

    source: int
    target: int
    edge_id: str

    def other(self, role: int) -> int:
        if role == self.source:
            return self.target
        if role == self.target:
            return self.source
        raise ValueError(f"role {role} not an endpoint of {self}")

    def oriented_from(self, role: int) -> bool:
        """True when traversing from ``role`` follows the edge forward."""
        return role == self.source

    def __str__(self) -> str:
        return f"{self.source}-[{self.edge_id}]->{self.target}"


class NetworkError(Exception):
    """Raised on malformed role-labeled trees."""


class TSSNetwork:
    """An undirected tree of TSS roles; base for fragments and CTSSNs."""

    __slots__ = ("labels", "edges", "_adjacency", "__dict__")

    def __init__(self, labels: Sequence[str], edges: Sequence[NetEdge]) -> None:
        self.labels: tuple[str, ...] = tuple(labels)
        self.edges: tuple[NetEdge, ...] = tuple(edges)
        self._validate()
        adjacency: list[list[NetEdge]] = [[] for _ in self.labels]
        for edge in self.edges:
            adjacency[edge.source].append(edge)
            if edge.target != edge.source:
                adjacency[edge.target].append(edge)
        self._adjacency: tuple[tuple[NetEdge, ...], ...] = tuple(
            tuple(items) for items in adjacency
        )

    def _validate(self) -> None:
        count = len(self.labels)
        if count == 0:
            raise NetworkError("a TSS network needs at least one role")
        if len(self.edges) != count - 1:
            raise NetworkError(
                f"{count} roles require {count - 1} tree edges, got {len(self.edges)}"
            )
        parent = list(range(count))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for edge in self.edges:
            if not (0 <= edge.source < count and 0 <= edge.target < count):
                raise NetworkError(f"edge {edge} references unknown role")
            if edge.source == edge.target:
                raise NetworkError(f"self-loop {edge} is not a tree edge")
            ra, rb = find(edge.source), find(edge.target)
            if ra == rb:
                raise NetworkError(f"edge {edge} closes a cycle")
            parent[ra] = rb

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Size of the network in edges (the paper's fragment size)."""
        return len(self.edges)

    @property
    def role_count(self) -> int:
        return len(self.labels)

    def incident(self, role: int) -> tuple[NetEdge, ...]:
        return self._adjacency[role]

    @cached_property
    def edge_id_counts(self) -> Counter[str]:
        """The multiset of edge ids: an embedding into another network
        needs each id at least this many times there."""
        return Counter(edge.edge_id for edge in self.edges)

    def roles_with_label(self, label: str) -> list[int]:
        return [role for role, lbl in enumerate(self.labels) if lbl == label]

    def branch_roles(self, role: int, via: NetEdge) -> list[int]:
        """Roles of the branch hanging off ``role`` through ``via``."""
        start = via.other(role)
        seen = {role, start}
        order = [start]
        stack = [start]
        while stack:
            current = stack.pop()
            for edge in self.incident(current):
                nxt = edge.other(current)
                if nxt not in seen:
                    seen.add(nxt)
                    order.append(nxt)
                    stack.append(nxt)
        return order

    def branch_edges(self, role: int, via: NetEdge) -> list[NetEdge]:
        """Edges of the branch hanging off ``role`` through ``via``."""
        roles = set(self.branch_roles(role, via))
        result = [via]
        for edge in self.edges:
            if edge is via:
                continue
            if edge.source in roles and edge.target in roles:
                result.append(edge)
        return result

    # ------------------------------------------------------------------
    def _encode(self, role: int, parent: int | None, extra: "Sequence[str] | None") -> str:
        parts = []
        for edge in self.incident(role):
            child = edge.other(role)
            if parent is not None and child == parent:
                continue
            orient = ">" if edge.oriented_from(role) else "<"
            parts.append(f"{orient}{edge.edge_id}({self._encode(child, role, extra)})")
        parts.sort()
        tag = extra[role] if extra is not None else ""
        return f"{self.labels[role]}{tag}[{','.join(parts)}]"

    def _centroids(self) -> list[int]:
        count = self.role_count
        if count == 1:
            return [0]
        degree = [len(self.incident(role)) for role in range(count)]
        leaves = [role for role in range(count) if degree[role] == 1]
        removed = 0
        current = list(leaves)
        alive = [True] * count
        while count - removed > 2:
            next_leaves: list[int] = []
            for leaf in current:
                alive[leaf] = False
                removed += 1
                for edge in self.incident(leaf):
                    other = edge.other(leaf)
                    if alive[other]:
                        degree[other] -= 1
                        if degree[other] == 1:
                            next_leaves.append(other)
            current = next_leaves
        return [role for role in range(count) if alive[role]]

    def canonical_key(self, extra: Sequence[str] | None = None) -> str:
        """Canonical string encoding (minimal AHU over tree centroids).

        ``extra`` optionally adds per-role annotation strings (used by
        CTSSNs to make keyword placement part of the identity).  The
        plain (``extra=None``) key is cached — enumeration and coverage
        ask for it millions of times.
        """
        if extra is None:
            cached = self.__dict__.get("_canonical_key")
            if cached is None:
                cached = min(
                    self._encode(center, None, None) for center in self._centroids()
                )
                self.__dict__["_canonical_key"] = cached
            return cached
        return min(self._encode(center, None, extra) for center in self._centroids())

    def canonical_order(self) -> list[int]:
        """Roles in a deterministic order implied by the canonical form."""
        best_center = min(
            self._centroids(), key=lambda center: self._encode(center, None, None)
        )
        order: list[int] = []

        def visit(role: int, parent: int | None) -> None:
            order.append(role)
            children = []
            for edge in self.incident(role):
                child = edge.other(role)
                if parent is not None and child == parent:
                    continue
                orient = ">" if edge.oriented_from(role) else "<"
                children.append((f"{orient}{edge.edge_id}({self._encode(child, role, None)})", child))
            for _, child in sorted(children):
                visit(child, role)

        visit(best_center, None)
        return order

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TSSNetwork):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __str__(self) -> str:
        if not self.edges:
            return self.labels[0]
        rendered = ", ".join(
            f"{self.labels[e.source]}({e.source})-{e.edge_id}->{self.labels[e.target]}({e.target})"
            for e in self.edges
        )
        return rendered


class Fragment(TSSNetwork):
    """A fragment of a TSS-graph decomposition (paper Definition 5.2).

    A fragment materializes as one *connection relation* whose columns are
    target-object id columns, one per role.
    """

    @cached_property
    def relation_name(self) -> str:
        """Stable relation name derived from the canonical form."""
        digest = hashlib.sha1(self.canonical_key().encode()).hexdigest()[:8]
        initials = "".join(
            self.labels[role][:2] for role in self.canonical_order()
        )
        return f"cr_{initials}_{digest}".lower()

    @cached_property
    def columns(self) -> tuple[str, ...]:
        """Column names, one per role, in role order."""
        counters: dict[str, int] = {}
        names: list[str] = []
        for label in self.labels:
            ordinal = counters.get(label, 0)
            counters[label] = ordinal + 1
            suffix = f"_{ordinal}" if ordinal else ""
            names.append(f"{label.lower()}{suffix}_id")
        return tuple(names)

    def column_for_role(self, role: int) -> str:
        return self.columns[role]


def single_edge_fragment(tss_graph: TSSGraph, edge_id: str) -> Fragment:
    """The size-1 fragment of one TSS edge (minimal-decomposition unit)."""
    edge = tss_graph.edge(edge_id)
    return Fragment([edge.source, edge.target], [NetEdge(0, 1, edge_id)])


def find_embeddings(fragment: TSSNetwork, network: TSSNetwork) -> Iterator[dict[int, int]]:
    """All embeddings of ``fragment`` into ``network``.

    An embedding maps fragment roles to network roles injectively such
    that labels match and every fragment edge maps onto a network edge
    with the same TSS-edge id and orientation.  Used by the coverage test
    (how many fragments are needed to evaluate a CTSSN) and the optimizer.
    """
    if fragment.size > network.size or fragment.role_count > network.role_count:
        return

    fragment_order = _connected_order(fragment)
    root_label = fragment.labels[0]
    if fragment.edges:
        # Fragment role 0 can only map onto the matching end of a network
        # edge that carries the id of the fragment's first edge.
        _, first = fragment_order[1]
        root_is_source = first.oriented_from(0)
        roots = sorted({
            edge.source if root_is_source else edge.target
            for edge in network.edges
            if edge.edge_id == first.edge_id
        })
        roots = [role for role in roots if network.labels[role] == root_label]
    else:
        roots = network.roles_with_label(root_label)

    def extend(index: int, mapping: dict[int, int], used: set[int]) -> Iterator[dict[int, int]]:
        if index == len(fragment_order):
            yield dict(mapping)
            return
        role, via = fragment_order[index]
        if via is None:
            for candidate in roots:
                mapping[role] = candidate
                used.add(candidate)
                yield from extend(index + 1, mapping, used)
                used.discard(candidate)
                del mapping[role]
            return
        anchor = mapping[via.other(role)]
        forward = via.oriented_from(via.other(role))
        for edge in network.incident(anchor):
            if edge.edge_id != via.edge_id:
                continue
            if edge.oriented_from(anchor) != forward:
                continue
            candidate = edge.other(anchor)
            if candidate in used or network.labels[candidate] != fragment.labels[role]:
                continue
            mapping[role] = candidate
            used.add(candidate)
            yield from extend(index + 1, mapping, used)
            used.discard(candidate)
            del mapping[role]

    yield from extend(0, {}, set())


def _connected_order(tree: TSSNetwork) -> list[tuple[int, NetEdge | None]]:
    """Roles in a BFS order where each role (after the first) carries the
    edge connecting it to an earlier role."""
    order: list[tuple[int, NetEdge | None]] = [(0, None)]
    seen = {0}
    frontier = [0]
    while frontier:
        role = frontier.pop()
        for edge in tree.incident(role):
            nxt = edge.other(role)
            if nxt not in seen:
                seen.add(nxt)
                order.append((nxt, edge))
                frontier.append(nxt)
    return order
